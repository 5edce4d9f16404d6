package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/scenario"
)

// The sparse pivot kernel must take the same pivots to the same answers
// as the dense full-width kernel it replaced (kept in export_test.go).
// Every comparison below is bitwise, so even the sign of a zero in X or
// in the objective must match.

// outcome is one solve's observable result under one kernel.
type outcome struct {
	pivots int
	sol    lp.Solution
	err    error
}

func kernelOutcome(dense bool, solve func() (lp.Solution, error)) outcome {
	var o outcome
	o.pivots = lp.CountPivots(dense, func() { o.sol, o.err = solve() })
	return o
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffKernels solves with both kernels and describes the first
// difference, or returns "" when the outcomes are identical.
func diffKernels(solve func() (lp.Solution, error)) string {
	d := kernelOutcome(true, solve)
	s := kernelOutcome(false, solve)
	switch {
	case fmt.Sprint(d.err) != fmt.Sprint(s.err):
		return fmt.Sprintf("error %v (dense) vs %v (sparse)", d.err, s.err)
	case d.pivots != s.pivots:
		return fmt.Sprintf("%d pivots (dense) vs %d (sparse)", d.pivots, s.pivots)
	case d.sol.Status != s.sol.Status:
		return fmt.Sprintf("status %v (dense) vs %v (sparse)", d.sol.Status, s.sol.Status)
	case !sameBits(d.sol.Objective, s.sol.Objective):
		return fmt.Sprintf("objective %v (dense) vs %v (sparse)", d.sol.Objective, s.sol.Objective)
	case len(d.sol.X) != len(s.sol.X):
		return fmt.Sprintf("len(X) %d (dense) vs %d (sparse)", len(d.sol.X), len(s.sol.X))
	}
	for j := range d.sol.X {
		if !sameBits(d.sol.X[j], s.sol.X[j]) {
			return fmt.Sprintf("X[%d] = %v (dense) vs %v (sparse)", j, d.sol.X[j], s.sol.X[j])
		}
	}
	return ""
}

// relaxationSolve adapts one of approx's LP 6-10 builders to the
// lp.Solution shape diffKernels compares: X is the flows followed by the
// event times.
func relaxationSolve(ex *core.Expanded, budget, target int64) func() (lp.Solution, error) {
	return func() (lp.Solution, error) {
		var rel *approx.Relaxation
		var err error
		if budget >= 0 {
			rel, err = approx.SolveMakespanLP(ex, budget)
		} else {
			rel, err = approx.SolveResourceLP(ex, target)
		}
		if err != nil {
			return lp.Solution{}, err
		}
		x := append(append([]float64(nil), rel.F...), rel.EventTime...)
		return lp.Solution{Status: lp.Optimal, X: x, Objective: rel.Objective}, nil
	}
}

// randomLP draws a small LP with mixed relations, signed coefficients,
// signed (and negative-zero) right-hand sides and objective entries, so
// infeasible and unbounded outcomes, phase-1 drive-outs with negative
// pivots and redundant rows all occur.
func randomLP(rng *rand.Rand) *lp.Problem {
	n := 1 + rng.Intn(6)
	p := lp.New(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, float64(rng.Intn(9)-4))
	}
	if rng.Intn(4) == 0 {
		p.SetObjective(rng.Intn(n), math.Copysign(0, -1))
	}
	for i, rows := 0, 1+rng.Intn(8); i < rows; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, lp.Term{Var: j, Coef: float64(rng.Intn(7) - 3)})
			}
		}
		b := float64(rng.Intn(13) - 4)
		if rng.Intn(6) == 0 {
			b = math.Copysign(0, -1)
		}
		p.AddConstraint(lp.Op(rng.Intn(3)), terms, b)
	}
	return p
}

// TestSparsePivotMatchesDenseRandom covers random LPs in the style of
// TestRandomAgainstEnumeration, widened to every relation and sign.
func TestSparsePivotMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	statuses := map[lp.Status]int{}
	for trial := 0; trial < 3000; trial++ {
		p := randomLP(rng)
		if d := diffKernels(p.Solve); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		sol, _ := p.Solve()
		statuses[sol.Status]++
	}
	for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
		if statuses[st] == 0 {
			t.Errorf("no random LP ended %v (%v)", st, statuses)
		}
	}
}

// TestSparsePivotMatchesDenseCorpus solves every dense-LP-sized corpus
// scenario's LP 6-10 in both modes: at its recorded budget or target, and
// in the other mode at a point derived from the first relaxation.
func TestSparsePivotMatchesDenseCorpus(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		inst, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ex, err := core.Expand(inst)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Above auto's dense-LP cutoff (768 expanded arcs) the scale tier
		// serves the instance, and a dense reference solve takes minutes.
		if ex.G.NumEdges() > 768 {
			continue
		}
		var budget, target int64
		if spec.Budget != nil {
			budget = *spec.Budget
			rel, err := approx.SolveMakespanLP(ex, budget)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			target = int64(math.Ceil(rel.Objective)) + 1
		} else {
			target = *spec.Target
			rel, err := approx.SolveResourceLP(ex, target)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			budget = int64(math.Ceil(rel.Objective))
		}
		if d := diffKernels(relaxationSolve(ex, budget, -1)); d != "" {
			t.Errorf("%s makespan LP (budget %d): %s", spec.Name, budget, d)
		}
		if d := diffKernels(relaxationSolve(ex, -1, target)); d != "" {
			t.Errorf("%s resource LP (target %d): %s", spec.Name, target, d)
		}
	}
}

// servedShapes are the DAG generators of the solve-heavy workload's dense
// LP routes, with the budget its ladder starts at.
var servedShapes = []struct {
	route  string
	build  func(g *scenario.Gen) *core.Instance
	budget int64
}{
	{"bicriteria", func(g *scenario.Gen) *core.Instance { return g.StepInstance(4, 4, 2, 4, 60, 4) }, 4},
	{"kway5", func(g *scenario.Gen) *core.Instance { return g.KWayInstance(3, 3, 1, 30) }, 4},
	{"binary4", func(g *scenario.Gen) *core.Instance { return g.BinaryInstance(3, 3, 1, 30) }, 4},
}

// servedExpansions draws dags expanded instances of one served shape.
func servedExpansions(tb testing.TB, build func(g *scenario.Gen) *core.Instance, dags int) []*core.Expanded {
	g := scenario.NewGen(7)
	out := make([]*core.Expanded, dags)
	for i := range out {
		ex, err := core.Expand(build(g))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = ex
	}
	return out
}

// TestSparsePivotMatchesDenseServedShapes runs the served LP shapes over
// the twelve-step budget ladder BenchmarkMakespanLP times.
func TestSparsePivotMatchesDenseServedShapes(t *testing.T) {
	dags := 4
	if testing.Short() {
		dags = 1
	}
	for _, sh := range servedShapes {
		for i, ex := range servedExpansions(t, sh.build, dags) {
			for b := sh.budget; b < sh.budget+12; b++ {
				if d := diffKernels(relaxationSolve(ex, b, -1)); d != "" {
					t.Errorf("%s dag %d budget %d: %s", sh.route, i, b, d)
				}
			}
		}
	}
}

// FuzzSparsePivotMatchesDense decodes an LP from the fuzz input and checks
// both kernels agree on it.
func FuzzSparsePivotMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		if p == nil {
			return
		}
		if d := diffKernels(p.Solve); d != "" {
			t.Fatal(d)
		}
	})
}

// decodeLP reads an LP of at most 8 variables and 12 constraints from
// data: a header byte each for the sizes, then per variable an objective
// byte, then per constraint a relation byte, a right-hand side byte and one
// coefficient byte per variable.  Bytes map to small signed integers, with
// one value reserved for negative zero.  It returns nil when data is too
// short.
func decodeLP(data []byte) *lp.Problem {
	if len(data) < 2 {
		return nil
	}
	n, m := 1+int(data[0]%8), 1+int(data[1]%12)
	data = data[2:]
	if len(data) < n+m*(2+n) {
		return nil
	}
	val := func(b byte) float64 {
		if b == 0xff {
			return math.Copysign(0, -1)
		}
		return float64(int8(b) % 8)
	}
	p := lp.New(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, val(data[j]))
	}
	data = data[n:]
	for i := 0; i < m; i++ {
		op := lp.Op(data[0] % 3)
		b := val(data[1])
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if c := val(data[2+j]); c != 0 {
				terms = append(terms, lp.Term{Var: j, Coef: c})
			}
		}
		p.AddConstraint(op, terms, b)
		data = data[2+n:]
	}
	return p
}

// BenchmarkMakespanLP measures LP 6-10 at the served shapes: building and
// solving the relaxation of each DAG over the budget ladder.
func BenchmarkMakespanLP(b *testing.B) {
	for _, sh := range servedShapes {
		b.Run(sh.route, func(b *testing.B) {
			exs := servedExpansions(b, sh.build, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := exs[i%len(exs)]
				if _, err := approx.SolveMakespanLP(ex, sh.budget+int64(i%12)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
