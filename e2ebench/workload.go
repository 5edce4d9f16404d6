package main

// This file generates the workloads from a seed.  Every request body
// and every full HTTP request is encoded here, before any server starts,
// so the load generator only copies pre-built bytes onto a socket.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/duration"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/sp"
)

// instance is a generated instance with its wire bytes and canonical
// hash, shared by every request that solves it.
type instance struct {
	inst *core.Instance
	raw  []byte
	hash string
}

func encodeInstance(inst *core.Instance) (*instance, error) {
	raw, err := json.Marshal(inst)
	if err != nil {
		return nil, err
	}
	return &instance{inst: inst, raw: raw, hash: inst.CanonicalHash()}, nil
}

// request is one pre-encoded solve request and what its answer must satisfy.
type request struct {
	*instance
	budget int64   // >= 0 in min-makespan mode
	target int64   // >= 0 in min-resource mode
	alpha  float64 // bi-criteria alpha the server resolves (0.5 when absent)
	// The HTTP/1.1 request is head, the shared instance bytes, then tail.
	head, tail []byte
	ref        *solver.WireReport // in-process reference answer; nil when not sampled
}

// body returns the JSON body of the request.
func (r *request) body() []byte {
	head := r.head[bytes.Index(r.head, []byte("\r\n\r\n"))+4:]
	return append(append(append([]byte(nil), head...), r.raw...), r.tail...)
}

// wire returns the full HTTP request as buffers for one vectored write.
func (r *request) wire() net.Buffers { return net.Buffers{r.head, r.raw, r.tail} }

// key is the request's result identity as the service keys it (the
// solver is always "auto" here).
func (r *request) key() string {
	return fmt.Sprintf("%s|b%d.t%d.a%g", r.hash, r.budget, r.target, r.alpha)
}

// spec describes a workload: its open-loop rate, its p99 latency limit,
// and how the server runs.  The rates sit well below what nproc
// connections sustain on a 2-core VM (README.md gives the reasons).
type spec struct {
	name  string
	rate  float64       // open-loop arrivals per second
	limit time.Duration // p99 latency limit for slo_frac
	// store runs the traced run's rtserve with -store on a fresh
	// directory, and its replay through a store of its own.  Untraced runs
	// leave the store out: on a 2-core VM the time of one file create and
	// rename swung from 40 to 585 us between runs, which made every
	// end-to-end figure of a store-backed server bimodal.
	store bool
	// closedReqs is how many fresh requests the closed loop may send; a
	// round sends at most its tenth.  cold-edit's bounds its rounds well
	// before their time is up, which keeps generation and checking short;
	// solve-heavy's sits above what its closed loop sends on a 2-core VM.
	closedReqs int
	// warmup is how many fresh requests go to the server, untimed, after
	// set-up and before the timed phases.
	warmup int
	// routes lists solvers the workload must reach at least once.
	routes []string
}

var specs = []spec{
	{name: "cold-edit", rate: 100, limit: 50 * time.Millisecond, store: true, closedReqs: 24000, warmup: 3000},
	{name: "solve-heavy", rate: 80, limit: 100 * time.Millisecond, closedReqs: 12000,
		routes: []string{"frankwolfe", "bicriteria", "kway5", "binary4", "exact"}},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// plan splits a run of the given length into phases.  The open loop gets
// most of an untraced run so its latency percentiles come from several
// windows.
type plan struct {
	open, traced, closed, replay time.Duration
}

func planFor(seconds int, trace bool) plan {
	s := time.Duration(seconds) * time.Second
	if trace {
		return plan{open: s * 35 / 100, traced: s * 35 / 100, replay: s * 30 / 100}
	}
	return plan{open: s * 60 / 100, closed: s * 40 / 100}
}

// workload is the generated input of one run.
type workload struct {
	spec
	warm  []*request // sent during setup: store donors or DAG compiles
	fresh []*request // the timed requests, consumed in order, never reused
	edits int        // cold-edit: how many fresh requests edit a donor
}

// source hands out the requests of the timed phases in order.
type source struct {
	w    *workload
	next int
}

// take returns the next request, or nil when the pool is used up.
func (s *source) take() *request {
	if s.next == len(s.w.fresh) {
		return nil
	}
	s.next++
	return s.w.fresh[s.next-1]
}

// generate builds the workload for seed.  The pool of fresh requests
// covers the open-loop phases at their rate plus the closed loop's share.
func generate(s spec, seed int64, p plan) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{spec: s}
	seen := map[string]bool{}
	var err error
	n := int(math.Ceil(s.rate*(p.open+p.traced).Seconds())) + s.closedReqs + s.warmup
	switch s.name {
	case "cold-edit":
		err = w.genCold(rng, seen, n)
	case "solve-heavy":
		err = w.genHeavy(rng, seen, n)
	default:
		err = fmt.Errorf("unknown workload %q", s.name)
	}
	return w, err
}

// coldDonors is how many instances cold-edit stores during setup for
// later edits to warm-start from; editShare is the share of timed
// requests that are edits.
const (
	coldDonors = 96
	editShare  = 0.25
)

// genCold builds cold-edit: donors, then a stream where every request is
// new and a fixed share are few-arc edits of a donor at the donor's
// options.
func (w *workload) genCold(rng *rand.Rand, seen map[string]bool, n int) error {
	g := scenario.NewGen(rng.Int63())
	add := func(dst *[]*request, inst *core.Instance, budget, target int64) (*request, error) {
		in, err := encodeInstance(inst)
		if err != nil {
			return nil, err
		}
		req, err := newRequest(in, budget, target, nil)
		if err != nil || seen[req.key()] {
			return nil, err
		}
		seen[req.key()] = true
		*dst = append(*dst, req)
		return req, nil
	}
	for len(w.warm) < coldDonors {
		// Donors have enough arcs that distinct donors rarely share a
		// topology, so the store's neighbor lookup finds the edited one.
		var inst *core.Instance
		if rng.Intn(2) == 0 {
			inst = g.StepInstance(3, 3, 2, 3, 9, 3)
		} else {
			inst = randomSP(g, 10)
		}
		if _, err := add(&w.warm, inst, 1+rng.Int63n(8), -1); err != nil {
			return err
		}
	}
	for len(w.fresh) < n {
		if rng.Float64() < editShare {
			d := w.warm[rng.Intn(len(w.warm))]
			inst, err := editInstance(rng, d.inst, 1+rng.Intn(2))
			if err != nil {
				return err
			}
			r, err := add(&w.fresh, inst, d.budget, d.target)
			if err != nil {
				return err
			}
			if r != nil {
				w.edits++
			}
			continue
		}
		var inst *core.Instance
		switch rng.Intn(5) {
		case 0:
			inst = g.StepInstance(2, 2, 1, 3, 9, 3)
		case 1:
			inst = g.KWayInstance(2, 2, 1, 30)
		case 2:
			inst = g.BinaryInstance(2, 2, 1, 30)
		case 3:
			inst = g.StepInstance(3, 3, 2, 3, 9, 3)
		default:
			inst = randomSP(g, 8)
		}
		budget, target := 1+rng.Int63n(8), int64(-1)
		if rng.Intn(6) == 0 {
			lo, hi := inst.MakespanLowerBound(), inst.ZeroFlowMakespan()
			budget, target = -1, lo+(hi-lo)/2
		}
		if _, err := add(&w.fresh, inst, budget, target); err != nil {
			return err
		}
	}
	return nil
}

// randomSP builds a small instance of the randomsp corpus family.
func randomSP(g *scenario.Gen, leaves int64) *core.Instance {
	inst, err := scenario.Spec{Name: "e2e", Family: "randomsp", Seed: g.Int63n(math.MaxInt64),
		Params: scenario.Params{"leaves": leaves, "tuples": 3, "maxt0": 20, "maxr": 3},
		Budget: new(int64)}.Build()
	if err != nil {
		panic(err) // the family builds every valid parameter set
	}
	return inst
}

// editInstance copies inst with k arcs' duration functions slowed by a
// small constant, keeping each arc's duration class and breakpoint count.
func editInstance(rng *rand.Rand, inst *core.Instance, k int) (*core.Instance, error) {
	fns := append([]duration.Func(nil), inst.Fns...)
	for i := 0; i < k; i++ {
		e := rng.Intn(len(fns))
		d := 1 + rng.Int63n(3)
		switch f := fns[e].(type) {
		case *duration.KWay:
			fns[e] = duration.NewKWay(f.T0() + d)
		case *duration.RecursiveBinary:
			fns[e] = duration.NewRecursiveBinary(f.T0() + d)
		default:
			ts := append([]duration.Tuple(nil), f.Tuples()...)
			for j := range ts {
				ts[j].T += d
			}
			step, err := duration.NewStep(ts)
			if err != nil {
				return nil, err
			}
			fns[e] = step
		}
	}
	return core.NewInstance(inst.G, fns)
}

// heavyDAGs is how many DAGs solve-heavy draws per routed solver class.
const heavyDAGs = 48

// heavyClass is one solve-heavy DAG shape and the auto route it must take.
// Draws whose expanded arc count (the dense LP's size) falls outside
// [minExp, maxExp] are redrawn, so every seed solves similar sizes.
type heavyClass struct {
	route          string
	build          func(g *scenario.Gen) *core.Instance
	budget0        int64
	minExp, maxExp int64
}

var heavyClasses = []heavyClass{
	{"frankwolfe", func(g *scenario.Gen) *core.Instance { return g.StepInstance(30, 12, 6, 4, 40, 5) }, 60, 0, math.MaxInt64},
	{"bicriteria", func(g *scenario.Gen) *core.Instance { return g.StepInstance(4, 4, 2, 4, 60, 4) }, 4, 95, 115},
	{"kway5", func(g *scenario.Gen) *core.Instance { return g.KWayInstance(3, 3, 1, 30) }, 4, 0, math.MaxInt64},
	{"binary4", func(g *scenario.Gen) *core.Instance { return g.BinaryInstance(3, 3, 1, 30) }, 4, 0, math.MaxInt64},
	{"exact", func(g *scenario.Gen) *core.Instance { return g.StepInstance(4, 3, 1, 3, 40, 4) }, 4, 0, math.MaxInt64},
}

// heavyBudgets and heavyAlphas span each DAG's option ladder.
const (
	heavyBudgets = 12
	heavyAlphas  = 40
)

// genHeavy builds solve-heavy: heavyDAGs DAGs per class, each drawn until
// its compiled shape selects the class's auto route, then a stream of
// (DAG, budget, alpha) triples that never repeats.  Setup sends each DAG
// once at a budget outside the ladder so the server compiles it.
func (w *workload) genHeavy(rng *rand.Rand, seen map[string]bool, n int) error {
	g := scenario.NewGen(rng.Int63())
	type dag struct {
		*instance
		budget0 int64
		ladder  []int
	}
	var dags []*dag
	for _, hc := range heavyClasses {
		for k := 0; k < heavyDAGs; k++ {
			var inst *core.Instance
			for tries := 0; ; tries++ {
				if tries == 200 {
					return fmt.Errorf("solve-heavy: no %s-routed DAG in 200 draws", hc.route)
				}
				inst = hc.build(g)
				c := core.Compile(inst)
				if routesTo(c) == hc.route && c.ExpandedArcs >= hc.minExp && c.ExpandedArcs <= hc.maxExp {
					break
				}
			}
			in, err := encodeInstance(inst)
			if err != nil {
				return err
			}
			d := &dag{instance: in, budget0: hc.budget0, ladder: rng.Perm(heavyBudgets * heavyAlphas)}
			dags = append(dags, d)
			req, err := newRequest(in, hc.budget0-1, -1, nil)
			if err != nil {
				return err
			}
			seen[req.key()] = true
			w.warm = append(w.warm, req)
		}
	}
	if n > len(dags)*heavyBudgets*heavyAlphas {
		n = len(dags) * heavyBudgets * heavyAlphas
	}
	used := make([]int, len(dags))
	for len(w.fresh) < n {
		i := rng.Intn(len(dags))
		d := dags[i]
		if used[i] == len(d.ladder) {
			continue
		}
		step := d.ladder[used[i]]
		used[i]++
		alpha := 0.3 + 0.01*float64(step%heavyAlphas)
		req, err := newRequest(d.instance, d.budget0+int64(step/heavyAlphas), -1, &alpha)
		if err != nil {
			return err
		}
		if seen[req.key()] {
			return fmt.Errorf("solve-heavy: repeated request %s", req.key())
		}
		seen[req.key()] = true
		w.fresh = append(w.fresh, req)
	}
	return nil
}

// routesTo predicts auto's route for a budget-mode solve from the compiled
// facts the router reads (see solver/auto.go).  It only has to separate
// the five solve-heavy classes.
func routesTo(c *core.Compiled) string {
	if _, _, ok := sp.RecognizeCompiled(c); ok {
		return "spdp"
	}
	dense := c.ExpandedArcs <= 768
	if dense {
		switch c.Class() {
		case duration.KindKWay:
			return "kway5"
		case duration.KindBinary:
			return "binary4"
		}
	}
	if c.AssignmentSpace <= 1<<20 {
		return "exact"
	}
	if dense {
		return "bicriteria"
	}
	return "frankwolfe"
}

// newRequest encodes one auto solve of in.  alpha nil leaves the server's
// default.  The body is what json.Marshal of a service.SolveRequest gives,
// built around the shared instance bytes.
func newRequest(in *instance, budget, target int64, alpha *float64) (*request, error) {
	var opts solver.WireOptions
	if budget >= 0 {
		opts.Budget = &budget
	}
	if target >= 0 {
		opts.Target = &target
	}
	opts.Alpha = alpha
	optJSON, err := json.Marshal(opts)
	if err != nil {
		return nil, err
	}
	prefix := `{"solver":"auto","instance":`
	tail := []byte(`,"options":` + string(optJSON) + `}`)
	n := len(prefix) + len(in.raw) + len(tail)
	head := []byte(fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", n, prefix))
	req := &request{instance: in, budget: budget, target: target, alpha: 0.5, head: head, tail: tail}
	if alpha != nil {
		req.alpha = *alpha
	}
	return req, nil
}
