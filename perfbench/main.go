// Command perfbench drives PigMix traffic through a restored daemon hosted
// in this process, over HTTP on a loopback listener, with no latency
// emulation. It checks every answer against an independent reference and
// prints one JSON result line: the end-to-end metrics, or with -trace 1
// the per-layer metrics of a traced run. See README.md.
//
//	perfbench -workload pigmix-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pigmix"
	"repro/internal/server"
)

// setupRepeats is how many times a run sets the daemon up; setup_s is the
// median, and the last set-up daemon serves the timed rounds.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "pigmix-cold", "workload: pigmix-cold, pigmix-warm or pigmix-fleet")
	seed := flag.Int64("seed", 1, "workload seed: the generated tables and query orders derive from it")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the fixed number of timed rounds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for daemon state (removed after the run)")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans and per-layer table to")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := checkReference(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	res, err := bench(w, *seed, *seconds, *trace == 1, runDir, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench performs one run: set-up (repeated), the timed rounds, the checks
// and the metrics.
func bench(w *workload, seed int64, seconds int, traced bool, runDir, traceDir string) (*result, error) {
	data, err := buildDataset(w, seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(w.clientOf)
	}

	setupRec := &recorder{}
	var setupSecs []float64
	var d *daemon
	var clients []*benchClient
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, clients, err = setup(w, seed, data, filepath.Join(runDir, "setup"+strconv.Itoa(i)), tr, setupRec)
		if err != nil {
			if d != nil {
				d.close()
			}
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer d.close()
	if n := setupRec.failed[opUpload] + setupRec.failed[opQuery]; n > 0 {
		return nil, fmt.Errorf("set-up: %d operations failed: %s", n, strings.Join(setupRec.problems, "; "))
	}

	rounds := w.rounds(seconds)
	runtime.GC()
	before, err := d.client.Metrics()
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats, lay, err := timedRounds(d, clients, rounds, rec, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	after, err := d.client.Metrics()
	if err != nil {
		return nil, err
	}

	q := rec.queries()
	// attempted and failed cover every round of the run: each set-up's
	// build pass and warm-up round, and the timed rounds.
	sa, sf := setupRec.totals()
	ta, tf := rec.totals()
	res := &result{Attempted: sa + ta, Failed: sf + tf}
	problems := append(setupRec.problems, rec.problems...)
	problems = append(problems, accounting(rec, before, after)...)
	res.Correct = len(problems) == 0
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: problem:", p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, %d queries, %d uploads, base tables %d bytes, set-up %.3fs (median of %.3f)\n",
		w.name, seed, rounds, q, rec.attempted[opUpload], data.baseBytes, median(setupSecs), setupSecs)
	for _, r := range []struct {
		phase string
		rec   *recorder
	}{{"set-up", setupRec}, {"timed rounds", rec}} {
		for _, k := range sortedKeys(r.rec.reuseBroken) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: reuse property broken %d times by %s: inputs unchanged since its last run, yet it executed jobs\n",
				r.phase, r.rec.reuseBroken[k], k)
		}
	}
	if q == 0 {
		return nil, fmt.Errorf("no query succeeded: %s", strings.Join(problems, "; "))
	}

	if traced {
		res.Metrics = lay.metrics(rec, tr, after)
		base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
			return nil, err
		}
		table := lay.table(w, seed, rec, tr, res.Metrics)
		fmt.Fprint(os.Stderr, table)
		if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
			return nil, err
		}
		return res, nil
	}

	timed := roundsOf(stats, false)
	baseBytes := data.baseBytes
	queryLat, uploadLat, sim := samples(timed, rec, opQuery), samples(timed, rec, opUpload), rec.sim
	// Retained heap: release the benchmark's own buffers, collect twice
	// and read the live heap once, with the daemon still holding its state.
	data, clients, rec, setupRec = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)

	fq := float64(q)
	res.Metrics = map[string]metric{
		"qps":                         {medianOf(timed, roundQPS), "queries/s"},
		"query_p50_ms":                {quantile(queryLat, 0.5), "ms"},
		"query_p90_ms":                {quantile(queryLat, 0.9), "ms"},
		"upload_p50_ms":               {quantile(uploadLat, 0.5), "ms"},
		"cpu_ms_per_query":            {medianOf(timed, roundCPUPerQuery), "ms"},
		"allocs_per_query":            {float64(ms1.Mallocs-ms0.Mallocs) / fq, "count"},
		"alloc_kb_per_query":          {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e3 / fq, "KB"},
		"retained_heap_mb":            {float64(msEnd.HeapAlloc) / 1e6, "MB"},
		"stored_bytes_per_input_byte": {float64(after.RepositoryStoredBytes) / float64(baseBytes), "ratio"},
		"sim_s_per_query":             {sim.Seconds() / fq, "s"},
		"setup_s":                     {median(setupSecs), "s"},
	}
	return res, nil
}

// setup starts a daemon, uploads every client's tables, builds the
// repository when the workload asks for it, and runs one untimed warm-up
// round.
func setup(w *workload, seed int64, data *dataset, stateDir string, tr *tracer, rec *recorder) (*daemon, []*benchClient, error) {
	d, err := startDaemon(stateDir, w.fleet, tr)
	if err != nil {
		return nil, nil, err
	}
	var clients []*benchClient
	data.baseBytes = 0
	for i := 0; i < w.clients; i++ {
		c, err := newClient(i, w, seed, d, data, tr)
		if err != nil {
			return d, nil, err
		}
		n, err := c.uploadBase()
		if err != nil {
			return d, nil, err
		}
		data.baseBytes += n
		clients = append(clients, c)
	}
	if err := d.sys.SetDataScale(w.prefix(0)+pigmix.PathPageViews, pigmix.Instance15GB().TargetBytes); err != nil {
		return d, nil, err
	}
	if w.build {
		runRound(clients, -1, false, rec)
	}
	runRound(clients, 0, false, rec)
	return d, clients, nil
}

// accounting checks the daemon's identity submitted = executed + deduped +
// failed over the timed rounds against the clients' own counts, and prints
// the operations attempted and failed by kind.
func accounting(rec *recorder, before, after *server.MetricsSnapshot) []string {
	sub := after.QueriesSubmitted - before.QueriesSubmitted
	exe := after.QueriesExecuted - before.QueriesExecuted
	ded := after.QueriesDeduped - before.QueriesDeduped
	fail := after.QueriesFailed - before.QueriesFailed
	up := after.Uploads - before.Uploads
	broken := 0
	for _, n := range rec.reuseBroken {
		broken += n
	}
	fmt.Fprintf(os.Stderr, "perfbench: timed rounds: attempted upload=%d query=%d; failed upload=%d query=%d reuse=%d; daemon submitted=%d executed=%d deduped=%d failed=%d uploads=%d\n",
		rec.attempted[opUpload], rec.attempted[opQuery], rec.failed[opUpload], rec.failed[opQuery], broken, sub, exe, ded, fail, up)
	var out []string
	if sub != exe+ded+fail {
		out = append(out, fmt.Sprintf("daemon identity broken: submitted %d != executed %d + deduped %d + failed %d", sub, exe, ded, fail))
	}
	if ok := int64(rec.queries()); exe+ded != ok {
		out = append(out, fmt.Sprintf("daemon executed+deduped %d != client-observed successful queries %d", exe+ded, ok))
	}
	if sub < int64(rec.attempted[opQuery]) || fail < int64(rec.failed[opQuery]) {
		out = append(out, fmt.Sprintf("daemon counted %d submissions (%d failed) for %d client queries (%d failed)", sub, fail, rec.attempted[opQuery], rec.failed[opQuery]))
	}
	if okUp := int64(rec.attempted[opUpload] - rec.failed[opUpload]); up != okUp {
		out = append(out, fmt.Sprintf("daemon counted %d uploads, clients saw %d succeed", up, okUp))
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// promSums reads the named histogram sums (seconds) from GET /metrics.
func promSums(d *daemon, names ...string) (map[string]float64, error) {
	resp, err := d.client.HTTPClient.Get(d.client.BaseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+"_sum "); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("parse %s: %w", line, err)
				}
				out[n] = f
			}
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
