// Command e2ebench is the repository's end-to-end benchmark.  It starts a
// real rtserve child process, drives it over loopback HTTP with one of
// two workloads, checks every answer, and prints every metric by name
// and unit.  See README.md for the workloads and the metrics.
//
//	e2ebench -rtserve <binary> -workdir <dir> --workload cold-edit --seed 1 --seconds 45 --trace 0
//	e2ebench compare <result.json> <result.json>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// shape is the machine shape a result was measured on.  Results of
// different shapes are not comparable.
type shape struct {
	NumCPU           int    `json:"nproc"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	LoadGOMAXPROCS   int    `json:"loadgen_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	GOOS             string `json:"goos"`
	GOARCH           string `json:"goarch"`
	Commit           string `json:"commit"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the benchmark ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result file: the outcome plus what it was measured
// on and with.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Shape    shape    `json:"shape"`
	Samples  int      `json:"open_loop_samples"`
	Problems []string `json:"problems,omitempty"`
	outcome
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workloadName := flag.String("workload", "", "workload: cold-edit or solve-heavy")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Int("seconds", 45, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	bin := flag.String("rtserve", "", "rtserve binary")
	workdir := flag.String("workdir", "", "directory for run artifacts")
	commit := flag.String("commit", "unknown", "commit the binaries were built from")
	flag.Parse()
	if *bin == "" || *workdir == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -rtserve, -workdir, --workload, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	debug.SetMemoryLimit(1 << 30)
	rec, err := run(*workloadName, *seed, *seconds, *traceFlag == 1, *bin, *workdir, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "e2ebench: problem:", p)
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setups is how many times a run starts the server to time set-up.
const setups = 7

// referenceSamples is how many requests per run are also solved in
// process for the reference check.
var referenceSamples = map[string]int{"cold-edit": 32, "solve-heavy": 12}

// replayCap bounds how many requests the traced replay runs.
const replayCap = 3000

func run(name string, seed int64, seconds int, trace bool, bin, workdir, commit string) (*record, error) {
	sp, err := lookupSpec(name)
	if err != nil {
		return nil, err
	}
	p := planFor(seconds, trace)
	w, err := generate(sp, seed, p)
	if err != nil {
		return nil, err
	}
	procs := runtime.NumCPU()
	rec := &record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Shape: shape{
		NumCPU: procs, ServerGOMAXPROCS: procs, LoadGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
	}}
	if err := pickReferences(w, seed, int(sp.rate*p.open.Seconds())); err != nil {
		return nil, err
	}

	runDir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	// Deleting a store's files frees blocks for a while after the delete
	// returns; syncing here settles that before the next run starts.
	defer syscall.Sync()
	defer os.RemoveAll(runDir)

	// Set-up, timed several times: spawn, ready, store open, warm-up or
	// donor seeding.  The last server stays up for the timed phases.
	var setupTimes []float64
	var setupSamples []sample
	var srv *server
	for i := 0; i < setups; i++ {
		storeDir := ""
		if sp.store && trace {
			storeDir = filepath.Join(runDir, fmt.Sprintf("store-%d", i))
		}
		var s *server
		var got []sample
		var t0 time.Time
		quiet(func() {
			t0 = time.Now()
			if s, err = startServer(bin, filepath.Join(runDir, "rtserve.log"), storeDir, procs); err != nil {
				return
			}
			next := 0
			got, _ = closedLoop(s.addr, procs, func() *request {
				if next == len(w.warm) {
					return nil
				}
				next++
				return w.warm[next-1]
			}, time.Hour)
		})
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		setupSamples = append(setupSamples, got...)
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	src := &source{w: w}
	takeN := func(n int) []*request {
		reqs := make([]*request, 0, n)
		for len(reqs) < n {
			r := src.take()
			if r == nil {
				break
			}
			reqs = append(reqs, r)
		}
		return reqs
	}

	// Warm-up, untimed: fresh requests that bring the server and its
	// store to the state the timed phases then hold.
	if sp.warmup > 0 {
		warmReqs := takeN(sp.warmup)
		got, _ := closedLoop(srv.addr, procs, func() *request {
			if len(warmReqs) == 0 {
				return nil
			}
			r := warmReqs[0]
			warmReqs = warmReqs[1:]
			return r
		}, time.Hour)
		setupSamples = append(setupSamples, got...)
	}

	st0, err := srv.stats()
	if err != nil {
		return nil, err
	}
	openReqs := takeN(int(sp.rate * p.open.Seconds()))
	var openSamples, tracedSamples []sample
	var openAns, closedAns []answer
	var openWall time.Duration
	var rounds []closedRound
	if trace {
		quiet(func() {
			t0 := time.Now()
			openSamples = openLoop(srv.addr, procs, openReqs, sp.rate, nil)
			openWall = time.Since(t0)
		})
	} else {
		openAns, closedAns, rounds, openWall = interleave(srv.addr, procs, sp, openReqs, src, p.closed)
	}
	st1, err := srv.stats()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if trace {
		tr = newTracer()
		tracedReqs := takeN(int(sp.rate * p.traced.Seconds()))
		quiet(func() { tracedSamples = openLoop(srv.addr, procs, tracedReqs, sp.rate, tr) })
	}
	st2, err := srv.stats()
	if err != nil {
		return nil, err
	}

	var rp *replayer
	if trace {
		rp, err = replay(w, tr, runDir, p.replay)
		if err != nil {
			return nil, err
		}
	}

	setupAns := checkSamples(setupSamples, false)
	if trace {
		openAns = checkSamples(openSamples, true)
	}
	tracedAns := checkSamples(tracedSamples, false)
	rec.Samples = len(openAns)

	all := [][]answer{setupAns, openAns, tracedAns, closedAns}
	var firstErr error
	for _, as := range all {
		for _, a := range as {
			rec.Attempted++
			if a.err != nil {
				rec.Failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %v", a.req.key(), a.err)
				}
			}
		}
	}
	if firstErr != nil {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d answers failed; first: %v", rec.Failed, rec.Attempted, firstErr))
	}
	rec.Problems = append(rec.Problems, selfCheck(w, all, st0, st2, sp.store && trace)...)

	lags := durations(openAns, func(a answer) time.Duration { return a.lag })
	lagP99 := percentile(lags, 0.99)
	rtt := durations(openAns, func(a answer) time.Duration { return a.done - a.sent })
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: open loop %d requests at %.0f/s in %v; round trip p50 %v p99 %v; send lag p50 %v p99 %v; closed loop %d requests, per second %.0f\n",
		name, seed, len(openAns), sp.rate, openWall.Round(time.Millisecond), percentile(rtt, 0.5), percentile(rtt, 0.99), percentile(lags, 0.5), lagP99, len(closedAns), roundRates(closedAns, rounds))
	if lagP99 > sp.limit {
		rec.Problems = append(rec.Problems, fmt.Sprintf("load generator ran late: send lag p99 %v exceeds the %v limit; run invalid", lagP99, sp.limit))
	}

	m := map[string]metric{}
	if trace {
		layerMetrics(m, openAns, tracedAns, openWall, st0, st1, st2, tr, rp)
		if err := tr.write(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
	} else {
		e2eMetrics(m, sp, setupTimes, openAns, closedAns, rounds, rss, rec)
	}
	rec.Metrics = m
	rec.Correct = len(rec.Problems) == 0
	if err := writeRecord(filepath.Join(workdir, "results"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// rounds is how many times an untraced run alternates an open-loop and a
// closed-loop segment.  Spreading both phases over the whole run lets
// their medians average over the shared machine's slow swings in speed
// instead of catching one of them whole.
const rounds = 10

// closedRound is one closed-loop segment: how many samples it holds and
// how long it ran.
type closedRound struct {
	n    int
	wall time.Duration
}

// interleave runs the untraced timed phases as rounds of an open-loop
// segment of openReqs at the workload's rate followed by a closed-loop
// segment of closed/rounds, which also stops after its share of the
// workload's closed-loop requests.  Each segment's answers are checked
// right after it, outside the timed segments.  It returns the open-loop
// answers in schedule order, the closed-loop answers round by round, the
// rounds and the open loop's total wall time.
func interleave(addr string, conns int, sp spec, openReqs []*request, src *source, closed time.Duration) ([]answer, []answer, []closedRound, time.Duration) {
	var open, closedAns []answer
	var rs []closedRound
	var openWall time.Duration
	for r := 0; r < rounds; r++ {
		var op, cs []sample
		var wall time.Duration
		quiet(func() {
			t0 := time.Now()
			op = openLoop(addr, conns, openReqs[r*len(openReqs)/rounds:(r+1)*len(openReqs)/rounds], sp.rate, nil)
			openWall += time.Since(t0)
		})
		open = append(open, checkSamples(op, true)...)
		left := sp.closedReqs / rounds
		quiet(func() {
			cs, wall = closedLoop(addr, conns, func() *request {
				if left == 0 {
					return nil
				}
				left--
				return src.take()
			}, closed/rounds)
		})
		closedAns = append(closedAns, checkSamples(cs, false)...)
		rs = append(rs, closedRound{n: len(cs), wall: wall})
	}
	return open, closedAns, rs, openWall
}

// quiet runs f, a timed segment, on a settled machine: dirty pages are
// written out first, so the kernel's writeback of earlier files (due 30 s
// after they were written) does not run during f; and the
// generator's garbage collector runs first and stays off during f, so its
// work does not take the few CPUs the server runs on.  The memory limit
// main sets still bounds the heap.
func quiet(f func()) {
	syscall.Sync()
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	f()
}

// pickReferences solves a seed-chosen sample of the set-up and the first
// open requests in process, before the server starts; those answers are
// then compared with the server's.
func pickReferences(w *workload, seed int64, open int) error {
	pool := append(append([]*request(nil), w.warm...), w.fresh[:min(open, len(w.fresh))]...)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, i := range rng.Perm(len(pool))[:min(referenceSamples[w.name], len(pool))] {
		ref, err := solveReference(pool[i])
		if err != nil {
			return fmt.Errorf("reference solve: %v", err)
		}
		pool[i].ref = ref
	}
	return nil
}

// replay runs the workload's requests once through the modules in
// process, with a store of its own when the workload's server has one.
func replay(w *workload, tr *tracer, runDir string, budget time.Duration) (*replayer, error) {
	rp := &replayer{tr: tr, compiled: map[string]*core.Compiled{}, nodes: map[string][]int{}}
	if w.store {
		st, err := store.Open(filepath.Join(runDir, "replay-store"))
		if err != nil {
			return nil, err
		}
		rp.st = st
	}
	reqs := append(append([]*request(nil), w.warm...), w.fresh...)
	deadline := time.Now().Add(budget)
	for i, q := range reqs {
		if i == replayCap || (i > len(w.warm) && time.Now().After(deadline)) {
			break
		}
		if _, err := rp.replay(q); err != nil {
			return nil, fmt.Errorf("replay %s: %v", q.key(), err)
		}
	}
	return rp, nil
}

// selfCheck asserts that the run exercised what its workload claims: no
// result key repeats and no request hits the result cache, a server with
// a store warm-starts some answers, and solve-heavy reaches every intended
// solver.
func selfCheck(w *workload, all [][]answer, st0, st2 service.StatsResponse, withStore bool) []string {
	var problems []string
	// Every set-up sends the same warm requests to a fresh server; the
	// timed phases must repeat none of them and nothing else.
	seen := map[string]bool{}
	for _, r := range w.warm {
		seen[r.key()] = true
	}
	routed := map[string]int{}
	for _, as := range all[1:] {
		for _, a := range as {
			if a.err != nil {
				continue
			}
			routed[a.solver]++
			// A passing answer echoed the request's hash, so the
			// request's key is the answer's.
			if k := a.req.key(); seen[k] {
				problems = append(problems, fmt.Sprintf("%s: result key %s repeated", w.name, k))
			} else {
				seen[k] = true
			}
		}
	}
	hits := st2.Cache.Hits - st0.Cache.Hits
	coalesced := st2.Cache.Coalesced - st0.Cache.Coalesced
	if hits != 0 || coalesced != 0 {
		problems = append(problems, fmt.Sprintf("%s: timed phases had %d cache hits, %d coalesced; want none", w.name, hits, coalesced))
	}
	if withStore {
		if warm, _ := warmShare(all[1]); warm == 0 {
			problems = append(problems, w.name+": no answer was warm-started from a stored neighbor")
		}
	}
	for _, r := range w.routes {
		if routed[r] == 0 {
			problems = append(problems, fmt.Sprintf("%s: no request routed to %s (routes: %v)", w.name, r, routed))
		}
	}
	return problems
}

// warmShare is the share of fresh (computed) answers that were
// warm-started, and the number of fresh answers.  It needs answers
// checked with keep set.
func warmShare(as []answer) (float64, int) {
	var warm, fresh int
	for _, a := range as {
		if a.err == nil && !a.resp.Cached && !a.resp.StoreHit {
			fresh++
			if a.resp.Warm {
				warm++
			}
		}
	}
	if fresh == 0 {
		return 0, 0
	}
	return float64(warm) / float64(fresh), fresh
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints the metric ratios of two result files, refusing results
// measured on different machine shapes.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <old.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
	}
	a, b := recs[0].Shape, recs[1].Shape
	a.Commit, b.Commit = "", ""
	if a != b {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare different machine shapes:\n  %+v\n  %+v\n", recs[0].Shape, recs[1].Shape)
		return 3
	}
	if recs[0].Workload != recs[1].Workload {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare workload %s with %s\n", recs[0].Workload, recs[1].Workload)
		return 3
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		old, cur := recs[0].Metrics[n], recs[1].Metrics[n]
		ratio := "n/a"
		if old.Value != 0 {
			ratio = fmt.Sprintf("%.3f", cur.Value/old.Value)
		}
		fmt.Printf("%-36s %14.4f %14.4f %8s %s\n", n, old.Value, cur.Value, ratio, old.Unit)
	}
	return 0
}
