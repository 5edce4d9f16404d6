package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/service"
	"repro/internal/solver"
)

// TestRequestBodyIsTheServiceEnvelope pins the hand-built body to what
// json.Marshal of a service.SolveRequest gives.
func TestRequestBodyIsTheServiceEnvelope(t *testing.T) {
	sp, _ := lookupSpec("solve-heavy")
	w, err := generate(sp, 1, planFor(2, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*request{w.warm[0], w.fresh[0]} {
		opts := solver.WireOptions{Budget: &r.budget}
		if r.alpha != 0.5 {
			opts.Alpha = &r.alpha
		}
		want, err := json.Marshal(service.SolveRequest{Solver: "auto", Instance: r.raw, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.body(); !bytes.Equal(got, want) {
			t.Fatalf("body\n%.300s\nwant\n%.300s", got, want)
		}
	}
}

// allBytes concatenates every request a workload would send, in order.
func allBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	sp, err := lookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := generate(sp, seed, planFor(2, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	src := &source{w: w}
	for _, r := range w.warm {
		for _, b := range r.wire() {
			buf.Write(b)
		}
	}
	for i := 0; i < 2000; i++ {
		r := src.take()
		if r == nil {
			break
		}
		for _, b := range r.wire() {
			buf.Write(b)
		}
	}
	return buf.Bytes()
}

func TestGenerationIsSeedDeterministic(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := allBytes(t, sp.name, 1), allBytes(t, sp.name, 1)
			if !bytes.Equal(a, b) {
				t.Fatal("two generations from one seed differ")
			}
			if bytes.Equal(a, allBytes(t, sp.name, 2)) {
				t.Fatal("seeds 1 and 2 generate identical requests")
			}
		})
	}
}

func TestGeneratedWorkloadsKeepTheirShape(t *testing.T) {
	for _, sp := range specs {
		w, err := generate(sp, 3, planFor(2, false))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range append(append([]*request(nil), w.warm...), w.fresh...) {
			if seen[r.key()] {
				t.Errorf("%s repeats %s", sp.name, r.key())
			}
			seen[r.key()] = true
		}
		if sp.name == "cold-edit" && w.edits == 0 {
			t.Error("cold-edit has no edits")
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json's metric names and
// units in step with what the benchmark prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(listed []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(listed) != len(want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(listed), len(want))
		}
		for i := range listed {
			if i < len(want) && (listed[i].Name != want[i].name || listed[i].Unit != want[i].unit) {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, listed[i].Name, listed[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check(bf.EndToEnd, endToEnd)
	check(bf.PerLayer, perLayer())
}
