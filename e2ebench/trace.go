package main

// Tracing for the traced run: client spans around each HTTP request, and
// a replay of the workload's requests through the public
// functions of each module in the order the service calls them.  Spans
// live in memory and are written out when the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/store"
)

// span is one timed call.  All spans of one request share Req; Parent is
// the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans; times are nanoseconds since its epoch.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	t.ids++
	s.ID = t.ids
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// clientSpan records one HTTP request of a traced open-loop phase as a
// root span whose request id is its index in the phase.
func (t *tracer) clientSpan(req int64, start, end time.Time) {
	t.add(span{Req: req, Name: "client.solve", Layer: "client",
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solverLayer maps a registry solver to the module that implements it.
func solverLayer(name string) string {
	switch name {
	case "exact":
		return "exact"
	case "spdp":
		return "sp"
	case "frankwolfe":
		return "relax"
	}
	return "approx" // kway5, binary4, binarybi, bicriteria*: approx over lp
}

// replayer mirrors the service's cold path in process.  Like the
// service's compiled cache it decodes and compiles each distinct instance
// encoding once; with a store it probes, warm-seeds and writes through
// exactly as solvePrepared does.
type replayer struct {
	tr       *tracer
	st       *store.Store
	compiled map[string]*core.Compiled
	nodes    map[string][]int // per routed solver: Nodes of each replayed solve
	reqs     int64
}

// call times fn as a child span of parent.
func (r *replayer) call(req, parent int64, name, layer string, fn func()) {
	start := time.Since(r.tr.epoch)
	fn()
	r.tr.add(span{Parent: parent, Req: req, Name: name, Layer: layer, Start: int64(start), End: int64(time.Since(r.tr.epoch))})
}

// open starts a parent span; close it with the returned function.
func (r *replayer) open(req, parent int64, name, layer string) (int64, func()) {
	start := time.Since(r.tr.epoch)
	id := r.tr.add(span{Parent: parent, Req: req, Name: name, Layer: layer, Start: int64(start)})
	return id, func() {
		r.tr.mu.Lock()
		r.tr.spans[id-1].End = int64(time.Since(r.tr.epoch))
		r.tr.mu.Unlock()
	}
}

// replay runs one request through the modules and returns its report.
func (r *replayer) replay(q *request) (*solver.WireReport, error) {
	r.reqs++
	id := r.reqs
	root, end := r.open(id, 0, "request", "replay")
	defer end()

	var env service.SolveRequest
	var err error
	body := q.body()
	r.call(id, root, "service.envelope_decode", "service", func() { err = json.Unmarshal(body, &env) })
	if err != nil {
		return nil, err
	}
	c, ok := r.compiled[string(env.Instance)]
	if !ok {
		var inst core.Instance
		r.call(id, root, "core.decode", "core", func() { err = inst.UnmarshalJSON(env.Instance) })
		if err != nil {
			return nil, err
		}
		r.call(id, root, "core.compile", "core", func() { c = core.Compile(&inst) })
		r.call(id, root, "core.hash", "core", func() { c.Hash() })
		r.compiled[string(env.Instance)] = c
	}
	var opts solver.Options
	r.call(id, root, "solver.resolve", "solver", func() {
		opts, err = env.Options.Resolve(time.Now())
		if err != nil {
			return
		}
		var sv solver.Solver
		if sv, err = solver.Get(env.Solver); err == nil {
			err = solver.ValidateOptions(sv, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	var key string
	r.call(id, root, "solver.key", "solver", func() { key = solver.ResultCacheKey(env.Solver, c, opts) })
	if r.st != nil {
		var hit bool
		var stored solver.WireReport
		r.call(id, root, "store.get_report", "store", func() { stored, hit = r.st.GetReport(key) })
		if hit {
			return &stored, nil
		}
		opts.Incumbent = r.warmSeed(id, root, c, env.Solver, opts)
	}
	var rep *solver.Report
	start := time.Since(r.tr.epoch)
	rep, err = solver.SolveCompiledOptions(context.Background(), env.Solver, c, opts)
	if rep == nil {
		return nil, err
	}
	r.tr.add(span{Parent: root, Req: id, Name: rep.Solver + ".solve", Layer: solverLayer(rep.Solver),
		Start: int64(start), End: int64(time.Since(r.tr.epoch))})
	if err != nil {
		return nil, err
	}
	r.nodes[rep.Solver] = append(r.nodes[rep.Solver], rep.Nodes)
	w := rep.Wire()
	if r.st != nil && w.Complete {
		meta := store.Meta{Hash: c.Hash(), Sketch: c.Sketch(), Solver: env.Solver, OptKey: opts.CacheKey()}
		r.call(id, root, "store.put_report", "store", func() { err = r.st.PutReport(key, meta, w) })
		if err == nil {
			r.call(id, root, "store.put_instance", "store", func() { err = r.st.PutInstance(c.Hash(), c.Sketch(), env.Instance) })
		}
		if err != nil {
			return nil, err
		}
	}
	r.call(id, root, "service.encode", "service", func() {
		_, err = json.Marshal(service.SolveResponse{Hash: c.Hash(), Report: &w,
			InstanceNodes: c.Inst.G.NumNodes(), InstanceArcs: c.Inst.G.NumEdges()})
	})
	return &w, err
}

// warmSeed mirrors the service's donor search: a stored neighbor with the
// same sketch, re-read, recompiled and diffed.
func (r *replayer) warmSeed(id, root int64, c *core.Compiled, name string, opts solver.Options) []int64 {
	ws, end := r.open(id, root, "store.warm_seed", "store")
	defer end()
	var sketch string
	r.call(id, ws, "core.sketch", "core", func() { sketch = c.Sketch() })
	var meta store.Meta
	var donor solver.WireReport
	var ok bool
	r.call(id, ws, "store.neighbor", "store", func() { meta, donor, ok = r.st.Neighbor(sketch, name, opts.CacheKey(), c.Hash()) })
	if !ok {
		return nil
	}
	var raw []byte
	r.call(id, ws, "store.get_instance", "store", func() { raw, ok = r.st.GetInstance(meta.Hash) })
	if !ok {
		return nil
	}
	var ninst core.Instance
	var err error
	r.call(id, ws, "core.decode", "core", func() { err = ninst.UnmarshalJSON(raw) })
	if err != nil {
		return nil
	}
	var nc *core.Compiled
	r.call(id, ws, "core.compile", "core", func() { nc = core.Compile(&ninst) })
	var d core.InstanceDiff
	r.call(id, ws, "core.diff", "core", func() { d = core.Diff(c, nc) })
	if !d.SameTopology || 2*len(d.TouchedArcs) > c.Inst.G.NumEdges() {
		return nil
	}
	return donor.Flow
}

// layerStats sums self time per layer over the replay's spans: a span's
// duration minus the time its children cover.
type layerStats struct {
	self   map[string]time.Duration
	total  time.Duration   // sum of replay root spans
	roots  []time.Duration // per-request replay time, sorted
	byName map[string][]time.Duration
}

func analyze(spans []span) layerStats {
	ls := layerStats{self: map[string]time.Duration{}, byName: map[string][]time.Duration{}}
	child := map[int64]time.Duration{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			child[p] += spans[i].dur()
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer == "client" {
			continue
		}
		if s.Parent == 0 {
			ls.total += s.dur()
			ls.roots = append(ls.roots, s.dur())
		}
		ls.self[s.Layer] += s.dur() - child[s.ID]
		ls.byName[s.Name] = append(ls.byName[s.Name], s.dur())
	}
	for _, d := range ls.byName {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	sort.Slice(ls.roots, func(i, j int) bool { return ls.roots[i] < ls.roots[j] })
	return ls
}
