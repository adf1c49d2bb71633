package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pigmix"
	"repro/internal/server"
)

// workload is one traffic mix against the daemon.
type workload struct {
	name    string
	clients int
	fleet   bool
	// varying is the table each client re-uploads at the start of every
	// round.
	varying tableSpec
	queries []string
	// shuffle runs each client's round in a seeded order; build runs every
	// query once during set-up, so the timed rounds start from a built
	// repository.
	shuffle, build bool
	// roundsPerSecond is the nominal pace on a 2-core machine: a run of
	// --seconds s performs round(s * roundsPerSecond) timed rounds, a fixed
	// sequence of operations rather than a fixed duration.
	roundsPerSecond float64
}

func union(lists ...[]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range lists {
		for _, q := range l {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}

var workloads = map[string]*workload{
	"pigmix-cold": {
		name: "pigmix-cold", clients: 1, varying: pageViewsTable,
		queries: pigmix.Names(), roundsPerSecond: 3.5,
	},
	"pigmix-warm": {
		name: "pigmix-warm", clients: 2, varying: usersTable,
		queries: union(pigmix.Names(), pigmix.VariantNames()), shuffle: true, build: true,
		roundsPerSecond: 9,
	},
	"pigmix-fleet": {
		name: "pigmix-fleet", clients: 1, fleet: true, varying: pageViewsTable,
		queries: pigmix.Names(), roundsPerSecond: 1.5,
	},
}

// minQueries keeps enough samples for a p90 with ten samples beyond it in
// either half of a traced run's rounds.
const minQueries = 100

func (w *workload) rounds(seconds int) int {
	n := int(math.Round(float64(seconds) * w.roundsPerSecond))
	perRound := w.clients * len(w.queries)
	if min := 2 * ((minQueries + perRound - 1) / perRound); n < min {
		n = min
	}
	// A traced run alternates traced and untraced rounds. An even count
	// gives it as many of each, and the same operations as an untraced run.
	return n + n%2
}

func (w *workload) prefix(client int) string {
	if w.clients == 1 {
		return ""
	}
	return fmt.Sprintf("c%d/", client)
}

// clientOf maps workflow paths to the client whose prefix they carry.
func (w *workload) clientOf(paths []string) int {
	for _, p := range paths {
		for c := 1; c < w.clients; c++ {
			if strings.HasPrefix(p, w.prefix(c)) {
				return c
			}
		}
	}
	return 0
}

// readsVarying reports whether query q loads the re-uploaded table.
func (w *workload) readsVarying(q string) bool {
	script, _ := pigmix.Query(q, "out")
	return strings.Contains(script, "'"+w.varying.path+"'")
}

const (
	opUpload = iota
	opQuery
	numOps
)

var opNames = [numOps]string{"upload", "query"}

// recorder collects what the clients observe during one phase.
type recorder struct {
	mu        sync.Mutex
	attempted [numOps]int
	failed    [numOps]int
	lat       [numOps][]float64 // milliseconds
	sim       time.Duration
	problems  []string // wrong answers and broken accounting
	// reuseBroken counts the successful queries that broke the reuse
	// property, by client and query. Each is a failed query operation.
	reuseBroken map[string]int
	layers      layerAcc
	nextReq     int64
}

func (r *recorder) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) done(op int, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[op]++
	if err != nil {
		r.failed[op]++
		if r.failed[op] <= 3 {
			r.problems = append(r.problems, fmt.Sprintf("%s failed: %v", opNames[op], err))
		}
		return
	}
	r.lat[op] = append(r.lat[op], float64(lat)/float64(time.Millisecond))
}

func (r *recorder) queries() int { return r.attempted[opQuery] - r.failed[opQuery] }

// totals returns the operations attempted and failed, counting a query
// that broke the reuse property as failed.
func (r *recorder) totals() (attempted, failed int) {
	for op := range r.attempted {
		attempted += r.attempted[op]
		failed += r.failed[op]
	}
	for _, n := range r.reuseBroken {
		failed += n
	}
	return attempted, failed
}

// newReq returns the next request ID of the traced run.
func (r *recorder) newReq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextReq++
	return r.nextReq
}

// benchClient is one closed-loop client: it sends its next operation only
// after the previous one has completed.
type benchClient struct {
	id      int
	w       *workload
	seed    int64
	d       *daemon
	data    *dataset
	tr      *tracer
	scripts map[string]string
	// static are the queries whose inputs the client never re-uploads:
	// after the first run they must execute no job.
	static map[string]bool
}

func newClient(id int, w *workload, seed int64, d *daemon, data *dataset, tr *tracer) (*benchClient, error) {
	c := &benchClient{id: id, w: w, seed: seed, d: d, data: data, tr: tr, scripts: map[string]string{}, static: map[string]bool{}}
	pre := w.prefix(id)
	for _, q := range w.queries {
		s, err := pigmix.Query(q, pre+"out/"+q)
		if err != nil {
			return nil, err
		}
		c.scripts[q] = strings.ReplaceAll(s, "'pigmix/", "'"+pre+"pigmix/")
		c.static[q] = !w.readsVarying(q)
	}
	return c, nil
}

// uploadBase uploads the four tables at version 0 and returns their bytes.
func (c *benchClient) uploadBase() (int64, error) {
	var total int64
	for _, t := range []tableSpec{pageViewsTable, usersTable, powerUsersTable, wideRowTable} {
		info, err := c.d.client.Upload(c.w.prefix(c.id)+t.path, t.decl, t.partitions, c.data.base[t])
		if err != nil {
			return 0, fmt.Errorf("upload %s: %w", t.path, err)
		}
		total += info.Bytes
	}
	return total, nil
}

// round runs one round: unless build, re-upload the varying table, then
// run every query once. Round -1 is the set-up build pass (no upload,
// version 0); round r >= 0 uploads version (r+1) % numVersions.
func (c *benchClient) round(r int, traced bool, rec *recorder) {
	ver := 0
	if r >= 0 {
		ver = (r + 1) % numVersions
		t := c.w.varying
		t0 := time.Now()
		_, err := c.d.client.Upload(c.w.prefix(c.id)+t.path, t.decl, t.partitions, c.data.versions[ver])
		lat := time.Since(t0)
		rec.done(opUpload, lat, err)
		if traced {
			c.tr.add(span{Req: rec.newReq(), Name: "client.upload", Start: c.tr.at(t0), Dur: lat.Nanoseconds()})
		}
	}
	for _, q := range queryOrder(c.w, c.seed, c.id, r) {
		c.query(q, ver, r, traced, rec)
	}
}

func (c *benchClient) query(q string, ver, r int, traced bool, rec *recorder) {
	var req int64
	if traced {
		req = rec.newReq()
		c.tr.begin(c.id, req)
	}
	t0 := time.Now()
	var resp *server.QueryResponse
	var err error
	if traced {
		resp, err = c.d.client.SubmitTraced(c.scripts[q], true)
	} else {
		resp, err = c.d.client.Submit(c.scripts[q], true)
	}
	lat := time.Since(t0)
	rec.done(opQuery, lat, err)
	if err != nil {
		return
	}
	out := c.w.prefix(c.id) + "out/" + q
	if err := compareRows(resp.Rows[out], c.data.want[ver][q]); err != nil {
		rec.problem("client %d round %d %s (version %d): %v", c.id, r, q, ver, err)
	}
	rec.mu.Lock()
	ranBefore := r > 0 || r == 0 && c.w.build
	if ranBefore && c.static[q] && len(resp.Result.Jobs) > 0 {
		// The reuse property: inputs unchanged since the query's last run,
		// so it must execute no job.
		if rec.reuseBroken == nil {
			rec.reuseBroken = map[string]int{}
		}
		rec.reuseBroken[fmt.Sprintf("client %d %s", c.id, q)]++
	}
	rec.sim += resp.Result.SimulatedTime
	if traced {
		rec.layers.addQuery(c.tr, req, t0, lat, resp)
	}
	rec.mu.Unlock()
}

// runRound runs round r on every client at once and waits for all of them.
func runRound(clients []*benchClient, r int, traced bool, rec *recorder) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.round(r, traced, rec)
		}()
	}
	wg.Wait()
}

// layerAcc accumulates the per-query side of the per-layer table over the
// traced rounds.
type layerAcc struct {
	queries                     int64
	clientNanos, serverNanos    int64
	stageNanos                  map[string]int64
	jobs                        int64
	inputB, shuffleB, injectedB int64
}

// addQuery folds one traced query in and records its client and server
// spans. The server's spans are offsets from its own clock; they are
// placed so that request and response transfer take equal time.
func (a *layerAcc) addQuery(t *tracer, req int64, start time.Time, lat time.Duration, resp *server.QueryResponse) {
	if a.stageNanos == nil {
		a.stageNanos = map[string]int64{}
	}
	a.queries++
	a.clientNanos += lat.Nanoseconds()
	t.add(span{Req: req, Name: "client.query", Start: t.at(start), Dur: lat.Nanoseconds()})
	for _, j := range resp.Result.Jobs {
		a.jobs++
		a.inputB += j.InputBytes
		a.shuffleB += j.ShuffleBytes
		a.injectedB += j.InjectedBytes
	}
	tr := resp.Trace
	if tr == nil {
		return
	}
	a.serverNanos += tr.TotalNanos
	srvStart := t.at(start) + (lat.Nanoseconds()-tr.TotalNanos)/2
	t.add(span{Req: req, Name: "server.total", Parent: "client.query", Start: srvStart, Dur: tr.TotalNanos})
	for _, s := range tr.Spans {
		a.stageNanos[s.Stage] += s.DurNanos
		t.add(span{Req: req, Name: stageLayer(s.Stage), Parent: "server.total", Start: srvStart + s.StartNanos, Dur: s.DurNanos})
	}
}

// stageLayer names a server stage by the layer that runs it: the server
// parses, queues, probes the hot path and reads rows; the System's
// ExecutePrepared (root package and access.go) runs the rest.
func stageLayer(stage string) string {
	switch stage {
	case obs.StageParse.String(), obs.StageQueue.String(), obs.StageHot.String(),
		obs.StageRows.String(), obs.StageFlightWait.String():
		return "server." + stage
	}
	return "system." + stage
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
