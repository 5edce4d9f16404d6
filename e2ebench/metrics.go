package main

// Metric names, units and how each is computed.  BENCHMARK.json at the
// repository root lists the same names and units (metrics_test.go keeps
// the two in step).

import (
	"sort"
	"time"

	"repro/internal/service"
)

// endToEnd lists the metrics of an untraced run.  fail_frac is carried by
// the outcome's attempted and failed counts; ok_frac is its complement,
// which is never zero.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"slo_frac", "frac"},
	{"throughput_rps", "1/s"},
	{"ok_frac", "frac"},
	{"server_rss_mb", "MB"},
	{"certified_ratio_mean", "ratio"},
}

// routedSolvers are the solvers auto routes the workloads to.
var routedSolvers = []string{"exact", "spdp", "kway5", "binary4", "bicriteria", "bicriteria-resource", "frankwolfe"}

// traceLayers are the layers the replay attributes self time to.
var traceLayers = []string{"service", "core", "solver", "exact", "sp", "approx", "relax", "store"}

// perLayer lists the metrics of a traced run.
func perLayer() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"latency_p90_ms", "ms"},
		{"latency_p99_ms", "ms"},
		{"service.http_overhead_p50_ms", "ms"},
		{"service.wall_p50_ms", "ms"},
		{"service.cache_hit_frac", "frac"},
		{"service.compiled_hit_frac", "frac"},
		{"service.miss_overhead_p50_ms", "ms"},
		{"service.pool_busy_frac", "frac"},
		{"service.cache_coalesced", "count"},
		{"service.envelope_decode_us", "us"},
		{"service.encode_us", "us"},
		{"core.decode_us", "us"},
		{"core.compile_us", "us"},
		{"core.hash_us", "us"},
		{"core.sketch_us", "us"},
		{"core.diff_us", "us"},
		{"store.put_report_us", "us"},
		{"store.put_instance_us", "us"},
		{"store.get_report_us", "us"},
		{"store.neighbor_us", "us"},
		{"store.get_instance_us", "us"},
		{"store.warm_frac", "frac"},
		{"store.bytes", "bytes"},
		{"exact.solve_us", "us"},
		{"exact.nodes_mean", "count"},
		{"sp.solve_us", "us"},
		{"approx.solve_us", "us"},
		{"approx.solve_ms", "ms"},
		{"relax.solve_ms", "ms"},
		{"relax.iters_mean", "count"},
		{"loadgen.send_lag_p99_ms", "ms"},
		{"trace.overhead_p50_ms", "ms"},
		{"trace.replay_p50_ms", "ms"},
		{"trace.replay_over_wall", "ratio"},
	}
	for _, s := range routedSolvers {
		ms = append(ms, struct{ name, unit string }{"route." + s + ".count", "count"},
			struct{ name, unit string }{"route." + s + ".wall_p50_ms", "ms"})
	}
	for _, l := range traceLayers {
		ms = append(ms, struct{ name, unit string }{"trace." + l + ".self_us", "us"},
			struct{ name, unit string }{"trace." + l + ".share", "frac"})
	}
	return ms
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer() {
		if m.name == name {
			return m.unit
		}
	}
	panic("metric without a unit: " + name)
}

func set(m map[string]metric, name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf(name)}
}

// percentile returns the q-quantile of sorted ds by the nearest-rank rule.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// durations extracts and sorts one duration per answer.
func durations(as []answer, f func(answer) time.Duration) []time.Duration {
	ds := make([]time.Duration, 0, len(as))
	for _, a := range as {
		ds = append(ds, f(a))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// okDurations is durations over the answers that passed their checks.
func okDurations(as []answer, keep func(answer) bool, f func(answer) time.Duration) []time.Duration {
	var ok []answer
	for _, a := range as {
		if a.err == nil && (keep == nil || keep(a)) {
			ok = append(ok, a)
		}
	}
	return durations(ok, f)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fromMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowedLatency splits the open-loop answers, in schedule order, into
// up to ten windows, each leaving at least ten samples beyond its
// q-quantile, and returns the median over windows of each window's
// q-quantile latency.  A stall of the shared machine then spoils one
// window instead of the run's tail.
func windowedLatency(open []answer, q float64) time.Duration {
	k := max(1, min(10, int(float64(len(open))*(1-q)/10)))
	var vs []float64
	for i := 0; i < k; i++ {
		win := open[i*len(open)/k : (i+1)*len(open)/k]
		vs = append(vs, float64(percentile(durations(win, func(a answer) time.Duration { return a.latency() }), q)))
	}
	return time.Duration(medianFloat(vs))
}

// roundRates is each closed-loop round's correct answers per second.
func roundRates(closed []answer, rs []closedRound) []float64 {
	var rates []float64
	for _, r := range rs {
		ok := 0
		for _, a := range closed[:r.n] {
			if a.err == nil {
				ok++
			}
		}
		closed = closed[r.n:]
		rates = append(rates, float64(ok)/r.wall.Seconds())
	}
	return rates
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func e2eMetrics(m map[string]metric, sp spec, setupTimes []float64, open, closed []answer, rs []closedRound, rssMB float64, rec *record) {
	set(m, "setup_s", medianFloat(setupTimes))
	set(m, "latency_p50_ms", ms(windowedLatency(open, 0.50)))
	var inSLO int
	var ratioSum float64
	var ratios int
	for _, a := range open {
		if a.err != nil {
			continue
		}
		if a.latency() <= sp.limit {
			inSLO++
		}
		if r, ok := certifiedRatio(a.resp.Report); ok {
			ratioSum += r
			ratios++
		}
	}
	set(m, "slo_frac", float64(inSLO)/float64(max(len(open), 1)))
	set(m, "throughput_rps", medianFloat(roundRates(closed, rs)))
	set(m, "ok_frac", 1-float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	set(m, "server_rss_mb", rssMB)
	set(m, "certified_ratio_mean", ratioSum/float64(max(ratios, 1)))
}

// layerMetrics fills the per-layer metrics of a traced run from the
// untraced open-loop answers, the server's counters, and the replay.
func layerMetrics(m map[string]metric, open, traced []answer, openWall time.Duration,
	st0, st1, st2 service.StatsResponse, tr *tracer, rp *replayer) {
	isFresh := func(a answer) bool { return !a.resp.Cached && !a.resp.StoreHit }
	set(m, "latency_p90_ms", ms(windowedLatency(open, 0.90)))
	set(m, "latency_p99_ms", ms(windowedLatency(open, 0.99)))
	wall := okDurations(open, nil, func(a answer) time.Duration { return fromMS(a.resp.WallMS) })
	set(m, "service.wall_p50_ms", ms(percentile(wall, 0.5)))
	set(m, "service.http_overhead_p50_ms", ms(percentile(okDurations(open, nil, func(a answer) time.Duration {
		return a.done - a.sent - fromMS(a.resp.WallMS)
	}), 0.5)))
	set(m, "service.miss_overhead_p50_ms", ms(percentile(okDurations(open, isFresh, func(a answer) time.Duration {
		return fromMS(a.resp.WallMS - a.resp.Report.WallMS)
	}), 0.5)))
	c0, c1 := st0.Cache, st1.Cache
	lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses) + (c1.Coalesced - c0.Coalesced)
	set(m, "service.cache_hit_frac", float64(c1.Hits-c0.Hits)/float64(max(lookups, 1)))
	set(m, "service.cache_coalesced", float64(c1.Coalesced-c0.Coalesced))
	k0, k1 := st0.Compiled, st1.Compiled
	compiled := (k1.Hits - k0.Hits) + (k1.Misses - k0.Misses) + (k1.Aliased - k0.Aliased)
	set(m, "service.compiled_hit_frac", float64(k1.Hits-k0.Hits)/float64(max(compiled, 1)))
	busy := st1.Pool.BusyMS - st0.Pool.BusyMS
	set(m, "service.pool_busy_frac", busy/(float64(max(st1.Pool.Workers, 1))*ms(openWall)))
	warm, _ := warmShare(open)
	set(m, "store.warm_frac", warm)
	var bytes float64
	if st2.Store != nil {
		bytes = float64(st2.Store.Bytes)
	}
	set(m, "store.bytes", bytes)
	lag := durations(open, func(a answer) time.Duration { return a.lag })
	set(m, "loadgen.send_lag_p99_ms", ms(percentile(lag, 0.99)))

	for _, s := range routedSolvers {
		routed := func(a answer) bool { return a.resp.Report.Solver == s }
		ws := okDurations(open, routed, func(a answer) time.Duration { return fromMS(a.resp.Report.WallMS) })
		set(m, "route."+s+".count", float64(len(ws)))
		set(m, "route."+s+".wall_p50_ms", ms(percentile(ws, 0.5)))
	}

	// Tracing overhead: the traced phase's client latency against the
	// untraced phase's, same rate, same kind of requests.
	untracedP50 := percentile(durations(open, func(a answer) time.Duration { return a.latency() }), 0.5)
	tracedP50 := percentile(durations(traced, func(a answer) time.Duration { return a.latency() }), 0.5)
	set(m, "trace.overhead_p50_ms", ms(tracedP50-untracedP50))

	ls := analyze(tr.spans)
	med := func(names ...string) time.Duration {
		var ds []time.Duration
		for _, n := range names {
			ds = append(ds, ls.byName[n]...)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return percentile(ds, 0.5)
	}
	for _, n := range []string{"service.envelope_decode", "service.encode", "core.decode", "core.compile",
		"core.hash", "core.sketch", "core.diff", "store.put_report", "store.put_instance",
		"store.get_report", "store.neighbor", "store.get_instance"} {
		set(m, n+"_us", us(med(n)))
	}
	set(m, "exact.solve_us", us(med("exact.solve")))
	set(m, "sp.solve_us", us(med("spdp.solve")))
	set(m, "approx.solve_us", us(med("kway5.solve", "binary4.solve", "binarybi.solve")))
	set(m, "approx.solve_ms", ms(med("bicriteria.solve", "bicriteria-resource.solve")))
	set(m, "relax.solve_ms", ms(med("frankwolfe.solve")))
	set(m, "exact.nodes_mean", mean(rp.nodes["exact"]))
	set(m, "relax.iters_mean", mean(rp.nodes["frankwolfe"]))

	replayP50 := percentile(ls.roots, 0.5)
	set(m, "trace.replay_p50_ms", ms(replayP50))
	set(m, "trace.replay_over_wall", ms(replayP50)/max(ms(percentile(wall, 0.5)), 1e-9))
	for _, l := range traceLayers {
		self := ls.self[l]
		set(m, "trace."+l+".self_us", us(self)/float64(max(len(ls.roots), 1)))
		set(m, "trace."+l+".share", float64(self)/float64(max(ls.total, 1)))
	}
}

func mean(vs []int) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += float64(v)
	}
	return s / float64(len(vs))
}
