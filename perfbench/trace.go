package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	restore "repro"
	"repro/internal/mapred"
)

// tracer records the engine-side spans of the traced run from outside the
// program: a restore.Backend wrapper times each RunWorkflow, and
// Engine.PhaseHook marks each job's map-done and job-done. Spans are kept
// in memory, tagged with the request that caused them, and written out
// when the run ends. Recording is off (one atomic load per call) outside
// the traced rounds.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	// clientOf maps the paths a workflow loads and stores to the client
	// that submitted it; each client has at most one query in flight.
	clientOf func(paths []string) int

	mu       sync.Mutex
	inFlight map[int]int64       // client -> request ID in flight
	byGor    map[uint64]*wfState // goroutine running a workflow -> its state
	spans    []span
	// Engine totals over the traced rounds.
	mapNanos, reduceNanos, workflowNanos, jobs int64
}

// wfState follows one RunWorkflow: the engine runs its jobs one after
// another on the calling goroutine, and calls PhaseHook on it too.
type wfState struct {
	req      int64
	jobStart time.Time
	mapDone  time.Time
}

// span is one timed interval of one request. Parent names the enclosing
// span of the same request; self time is a span minus its children.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
}

func newTracer(clientOf func([]string) int) *tracer {
	return &tracer{
		origin:   time.Now(),
		clientOf: clientOf,
		inFlight: map[int]int64{},
		byGor:    map[uint64]*wfState{},
	}
}

// install wraps sys's backend and hooks its engine's phase boundaries.
func (t *tracer) install(sys *restore.System) {
	sys.SetBackend(&timedBackend{inner: sys.Backend(), t: t})
	sys.Engine().PhaseHook = t.phase
}

// begin marks client's next request as req (before it is sent).
func (t *tracer) begin(client int, req int64) {
	t.mu.Lock()
	t.inFlight[client] = req
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.origin).Nanoseconds() }

// timedBackend is the restore.Backend wrapper of the traced run.
type timedBackend struct {
	inner restore.Backend
	t     *tracer
}

func (b *timedBackend) RunWorkflow(ctx context.Context, w *mapred.Workflow) (*mapred.WorkflowResult, error) {
	t := b.t
	if !t.on.Load() {
		return b.inner.RunWorkflow(ctx, w)
	}
	var paths []string
	for _, j := range w.Jobs {
		for _, op := range j.Plan.Sources() {
			paths = append(paths, op.Path)
		}
		for _, op := range j.Plan.Sinks() {
			paths = append(paths, op.Path)
		}
	}
	start := time.Now()
	gid := goroutineID()
	t.mu.Lock()
	st := &wfState{req: t.inFlight[t.clientOf(paths)], jobStart: start}
	t.byGor[gid] = st
	t.mu.Unlock()

	res, err := b.inner.RunWorkflow(ctx, w)

	end := time.Now()
	t.mu.Lock()
	delete(t.byGor, gid)
	t.workflowNanos += end.Sub(start).Nanoseconds()
	t.spans = append(t.spans, span{Req: st.req, Name: "backend.workflow", Parent: "system.execute", Start: t.at(start), Dur: end.Sub(start).Nanoseconds()})
	t.mu.Unlock()
	return res, err
}

// phase is the Engine.PhaseHook of the traced run. A job's map span runs
// from its start (the workflow start, or the previous job's end) to
// map-done; its reduce span from map-done to job-done.
func (t *tracer) phase(jobID, phase string) {
	if !t.on.Load() {
		return
	}
	now := time.Now()
	gid := goroutineID()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.byGor[gid]
	if st == nil {
		return
	}
	switch phase {
	case "map-done":
		d := now.Sub(st.jobStart).Nanoseconds()
		t.mapNanos += d
		t.spans = append(t.spans, span{Req: st.req, Name: "mapred.map", Parent: "backend.workflow", Job: jobID, Start: t.at(st.jobStart), Dur: d})
		st.mapDone = now
	case "job-done":
		d := now.Sub(st.mapDone).Nanoseconds()
		t.reduceNanos += d
		t.jobs++
		t.spans = append(t.spans, span{Req: st.req, Name: "mapred.reduce", Parent: "backend.workflow", Job: jobID, Start: t.at(st.mapDone), Dur: d})
		st.jobStart = now
	}
}

// goroutineID parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). The engine gives PhaseHook no request
// context, and the goroutine that runs a workflow is the one that calls
// the hook, so the ID ties phase events to their workflow.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
