package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/solver"
)

// validAnswer solves a small layered instance under budget 4 and wraps the
// report as the service would.
func validAnswer(t *testing.T) (*request, service.SolveResponse) {
	t.Helper()
	inst := scenario.NewGen(7).StepInstance(3, 3, 2, 3, 9, 3)
	in, err := encodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	req, err := newRequest(in, 4, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := solver.SolveCompiledOptions(context.Background(), "exact", core.Compile(inst), solver.NewOptions(solver.WithBudget(4)))
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Wire()
	return req, service.SolveResponse{Hash: req.hash, Report: &w}
}

func TestCheckerAcceptsValidAnswer(t *testing.T) {
	req, resp := validAnswer(t)
	if err := checkAnswer(req, &resp); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
}

func TestCheckerRejectsBadAnswers(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(req *request, resp *service.SolveResponse)
		want    string
	}{
		{"corrupted flow", func(_ *request, resp *service.SolveResponse) {
			resp.Report.Flow = append([]int64(nil), resp.Report.Flow...)
			resp.Report.Flow[0]++
		}, "witness flow"},
		{"wrong makespan", func(_ *request, resp *service.SolveResponse) {
			resp.Report.Makespan--
		}, "makespan"},
		{"over budget", func(req *request, _ *service.SolveResponse) {
			// The same witness is over budget once the budget shrinks
			// below the resources it uses.
			req.budget = 0
		}, "guarantee allows"},
		{"incomplete", func(_ *request, resp *service.SolveResponse) {
			resp.Report.Complete = false
		}, "incomplete"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, resp := validAnswer(t)
			if resp.Report.Resources == 0 && tc.name == "over budget" {
				t.Fatal("fixture answer uses no resources; pick another instance")
			}
			rep := *resp.Report
			resp.Report = &rep
			tc.corrupt(req, &resp)
			err := checkAnswer(req, &resp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checker returned %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckerComparesWithReference(t *testing.T) {
	req, resp := validAnswer(t)
	ref := *resp.Report
	ref.Makespan--
	req.ref = &ref
	if err := checkReference(req, resp.Report); err == nil {
		t.Fatal("an answer disagreeing with the reference solve passed")
	}
}
