package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/server"
)

// snap is the daemon-side counter state between two rounds.
type snap struct {
	m        *server.MetricsSnapshot
	prom     map[string]float64
	fsW, fsR int64
}

const (
	promWALAppend = "restore_wal_append_seconds"
	promWALFsync  = "restore_wal_fsync_seconds"
)

func takeSnap(d *daemon) (*snap, error) {
	m, err := d.client.Metrics()
	if err != nil {
		return nil, err
	}
	p, err := promSums(d, promWALAppend, promWALFsync)
	if err != nil {
		return nil, err
	}
	w, r := d.sys.FS().Counters()
	return &snap{m: m, prom: p, fsW: w, fsR: r}, nil
}

// layerRun accumulates the traced run: counter deltas over the traced
// rounds, and the timed rounds themselves.
type layerRun struct {
	rounds []roundStat

	hot, planHits, planMisses, served                 int64
	whole, sub, elim, probes, registered, evicted     int64
	coreQ, coreReused                                 int64
	fsR, fsW, walB, walRec                            int64
	walAppend, walFsync                               float64
	fleetMap, fleetReduce, fleetShuffle, fleetRetries int64
}

func (l *layerRun) add(a, b *snap) {
	ra, rb := a.m.Reuse, b.m.Reuse
	l.hot += b.m.QueriesHot - a.m.QueriesHot
	l.planHits += rb.Hot.PlanCacheHits - ra.Hot.PlanCacheHits
	l.planMisses += rb.Hot.PlanCacheMisses - ra.Hot.PlanCacheMisses
	l.served += rb.Hot.ResultsServed - ra.Hot.ResultsServed
	l.whole += rb.WholeJobReuses - ra.WholeJobReuses
	l.sub += rb.SubJobReuses - ra.SubJobReuses
	l.elim += rb.JobsEliminated - ra.JobsEliminated
	l.probes += rb.Match.Probes - ra.Match.Probes
	l.registered += rb.Registered - ra.Registered
	l.evicted += rb.Evicted - ra.Evicted
	l.coreQ += rb.Queries - ra.Queries
	l.coreReused += rb.QueriesReused - ra.QueriesReused
	l.fsR += b.fsR - a.fsR
	l.fsW += b.fsW - a.fsW
	if a.m.WAL != nil && b.m.WAL != nil {
		l.walB += b.m.WAL.Bytes - a.m.WAL.Bytes
		l.walRec += b.m.WAL.Records - a.m.WAL.Records
	}
	l.walAppend += b.prom[promWALAppend] - a.prom[promWALAppend]
	l.walFsync += b.prom[promWALFsync] - a.prom[promWALFsync]
	if a.m.Fleet != nil && b.m.Fleet != nil {
		l.fleetMap += b.m.Fleet.MapTasksDispatched - a.m.Fleet.MapTasksDispatched
		l.fleetReduce += b.m.Fleet.ReduceTasksDispatched - a.m.Fleet.ReduceTasksDispatched
		l.fleetShuffle += b.m.Fleet.ShuffleBytesPulled - a.m.Fleet.ShuffleBytesPulled
		l.fleetRetries += b.m.Fleet.TasksRetried - a.m.Fleet.TasksRetried
	}
}

// roundStat is one timed round: its wall and CPU time, the queries that
// succeeded in it, and where its latency samples sit in the recorder.
type roundStat struct {
	wall, cpu time.Duration
	queries   int
	traced    bool
	// lat[op] is the range of rec.lat[op] holding the round's samples.
	lat [numOps][2]int
}

// roundsOf returns the rounds, traced or not as asked, in which some query
// succeeded.
func roundsOf(stats []roundStat, traced bool) []roundStat {
	var rs []roundStat
	for _, s := range stats {
		if s.traced == traced && s.queries > 0 {
			rs = append(rs, s)
		}
	}
	return rs
}

// medianOf returns the median of f over rs.
func medianOf(rs []roundStat, f func(roundStat) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// samples returns the latency samples of kind op recorded in rs.
func samples(rs []roundStat, rec *recorder, op int) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, rec.lat[op][r.lat[op][0]:r.lat[op][1]]...)
	}
	return xs
}

func roundQPS(s roundStat) float64 { return float64(s.queries) / s.wall.Seconds() }
func roundCPUPerQuery(s roundStat) float64 {
	return float64(s.cpu) / float64(time.Millisecond) / float64(s.queries)
}

// timedRounds runs timed rounds 1..n on every client. With a tracer, odd
// rounds are traced (?trace=1 spans, backend and phase spans, counter
// snapshots around the round) and even rounds run untraced, so the two
// halves measure the tracing overhead under the same conditions.
func timedRounds(d *daemon, clients []*benchClient, n int, rec *recorder, tr *tracer) ([]roundStat, *layerRun, error) {
	var stats []roundStat
	l := &layerRun{}
	for r := 1; r <= n; r++ {
		traced := tr != nil && r%2 == 1
		var before *snap
		if traced {
			var err error
			if before, err = takeSnap(d); err != nil {
				return nil, nil, err
			}
			tr.on.Store(true)
		}
		st := roundStat{traced: traced}
		for op := range st.lat {
			st.lat[op][0] = len(rec.lat[op])
		}
		q0 := rec.queries()
		cpu0, t0 := cpuTime(), time.Now()
		runRound(clients, r, traced, rec)
		st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
		st.queries = rec.queries() - q0
		for op := range st.lat {
			st.lat[op][1] = len(rec.lat[op])
		}
		stats = append(stats, st)
		if traced {
			tr.on.Store(false)
			after, err := takeSnap(d)
			if err != nil {
				return nil, nil, err
			}
			l.add(before, after)
		}
	}
	l.rounds = stats
	return stats, l, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overheads returns the medians of per-round qps and CPU per query over
// the traced and the untraced rounds, and the tracing overhead
// of each in percent of the untraced figure.
func (l *layerRun) overheads() (qpsT, qpsP, qpsPct, cpuT, cpuP, cpuPct float64) {
	t, p := roundsOf(l.rounds, true), roundsOf(l.rounds, false)
	qpsT, qpsP = medianOf(t, roundQPS), medianOf(p, roundQPS)
	cpuT, cpuP = medianOf(t, roundCPUPerQuery), medianOf(p, roundCPUPerQuery)
	return qpsT, qpsP, 100 * (qpsP - qpsT) / qpsP, cpuT, cpuP, 100 * (cpuT - cpuP) / cpuP
}

// metrics computes the per-layer metrics of the traced rounds.
func (l *layerRun) metrics(rec *recorder, tr *tracer, after *server.MetricsSnapshot) map[string]metric {
	a := &rec.layers
	q := a.queries
	perQ := func(n int64, scale float64) float64 { return float64(n) / scale / float64(q) }
	stage := func(s string) float64 { return perQ(a.stageNanos[s], 1e6) }
	_, _, qpsPct, _, _, cpuPct := l.overheads()
	return map[string]metric{
		"server.http_ms_per_query":  {perQ(a.clientNanos-a.serverNanos, 1e6), "ms"},
		"server.parse_ms_per_query": {stage("parse"), "ms"},
		"server.queue_ms_per_query": {stage("queue"), "ms"},
		"server.hot_ms_per_query":   {stage("hot"), "ms"},
		"server.rows_ms_per_query":  {stage("rows"), "ms"},
		"server.hot_serve_ratio":    {ratio(l.hot, q), "ratio"},

		"system.lease_ms_per_query":   {stage("lease"), "ms"},
		"system.evict_ms_per_query":   {stage("evict"), "ms"},
		"system.match_ms_per_query":   {stage("match"), "ms"},
		"system.plan_ms_per_query":    {stage("plan"), "ms"},
		"system.execute_ms_per_query": {stage("execute"), "ms"},
		"system.store_ms_per_query":   {stage("store"), "ms"},
		"system.plan_cache_hit_ratio": {ratio(l.planHits, l.planHits+l.planMisses), "ratio"},

		"mapred.map_ms_per_job":        {ratio(tr.mapNanos, tr.jobs) / 1e6, "ms"},
		"mapred.reduce_ms_per_job":     {ratio(tr.reduceNanos, tr.jobs) / 1e6, "ms"},
		"mapred.jobs_per_query":        {perQ(a.jobs, 1), "count"},
		"mapred.input_mb_per_query":    {perQ(a.inputB, 1e6), "MB"},
		"mapred.shuffle_mb_per_query":  {perQ(a.shuffleB, 1e6), "MB"},
		"mapred.injected_mb_per_query": {perQ(a.injectedB, 1e6), "MB"},

		"core.whole_job_reuses_per_query": {perQ(l.whole, 1), "count"},
		"core.sub_job_reuses_per_query":   {perQ(l.sub, 1), "count"},
		"core.jobs_eliminated_per_query":  {perQ(l.elim, 1), "count"},
		"core.match_probes_per_query":     {perQ(l.probes, 1), "count"},
		"core.registered_per_query":       {perQ(l.registered, 1), "count"},
		"core.evicted_per_query":          {perQ(l.evicted, 1), "count"},
		"core.reuse_hit_ratio":            {ratio(l.coreReused+l.served, l.coreQ+l.served), "ratio"},
		"core.repo_entries":               {float64(after.RepositoryEntries), "count"},

		"dfs.read_mb_per_query":    {perQ(l.fsR, 1e6), "MB"},
		"dfs.written_mb_per_query": {perQ(l.fsW, 1e6), "MB"},

		"wal.mb_per_query":        {perQ(l.walB, 1e6), "MB"},
		"wal.records_per_query":   {perQ(l.walRec, 1), "count"},
		"wal.append_ms_per_query": {l.walAppend * 1e3 / float64(q), "ms"},
		"wal.fsync_ms_per_query":  {l.walFsync * 1e3 / float64(q), "ms"},

		"fleet.map_tasks_per_query":    {perQ(l.fleetMap, 1), "count"},
		"fleet.reduce_tasks_per_query": {perQ(l.fleetReduce, 1), "count"},
		"fleet.shuffle_mb_per_query":   {perQ(l.fleetShuffle, 1e6), "MB"},
		"fleet.retries_per_query":      {perQ(l.fleetRetries, 1), "count"},

		"trace.qps_overhead_pct": {qpsPct, "%"},
		"trace.cpu_overhead_pct": {cpuPct, "%"},
	}
}

// table renders the per-layer table: the span tree with total and self
// time per query, the layer shares the workloads are chosen to load, and
// every per-layer metric.
func (l *layerRun) table(w *workload, seed int64, rec *recorder, tr *tracer, m map[string]metric) string {
	a := &rec.layers
	q := float64(a.queries)
	ms := func(n int64) float64 { return float64(n) / 1e6 / q }
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer table: %s seed %d, %d traced queries (odd rounds of %d)\n", w.name, seed, a.queries, len(l.rounds))
	fmt.Fprintf(&b, "%-26s %12s %12s %10s\n", "span", "ms/query", "self ms/q", "% server")
	srv := ms(a.serverNanos)
	row := func(indent int, name string, total, self float64) {
		fmt.Fprintf(&b, "%-26s %12.4f %12.4f %9.1f%%\n", strings.Repeat("  ", indent)+name, total, self, 100*self/srv)
	}
	var stages int64
	for _, n := range a.stageNanos {
		stages += n
	}
	row(0, "client.query", ms(a.clientNanos), ms(a.clientNanos-a.serverNanos))
	row(1, "server.total", srv, ms(a.serverNanos-stages))
	for _, s := range []string{"parse", "flightWait", "hot", "queue", "lease", "evict", "match", "plan", "execute", "store", "rows"} {
		n := a.stageNanos[s]
		if s != "execute" {
			row(2, stageLayer(s), ms(n), ms(n))
			continue
		}
		row(2, stageLayer(s), ms(n), ms(n-tr.workflowNanos))
		row(3, "backend.workflow", ms(tr.workflowNanos), ms(tr.workflowNanos-tr.mapNanos-tr.reduceNanos))
		row(4, "mapred.map", ms(tr.mapNanos), ms(tr.mapNanos))
		row(4, "mapred.reduce", ms(tr.reduceNanos), ms(tr.reduceNanos))
	}
	client := ms(a.clientNanos)
	fmt.Fprintf(&b, "execute share of server time: %.1f%%\n", 100*ms(a.stageNanos["execute"])/srv)
	fmt.Fprintf(&b, "hot+rows+http share of client time: %.1f%%\n",
		100*(ms(a.stageNanos["hot"])+ms(a.stageNanos["rows"])+ms(a.clientNanos-a.serverNanos))/client)
	qpsT, qpsP, qpsPct, cpuT, cpuP, cpuPct := l.overheads()
	fmt.Fprintf(&b, "tracing overhead (medians over each kind of round): qps %.2f traced vs %.2f untraced (%.1f%%), cpu %.3f vs %.3f ms/query (%.1f%%)\n",
		qpsT, qpsP, qpsPct, cpuT, cpuP, cpuPct)
	for _, n := range sortedKeys(m) {
		fmt.Fprintf(&b, "%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}
