package main

// The answer checker.  Every response the benchmark receives goes through
// checkAnswer; a sampled subset is also compared with an in-process
// reference solve.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/solver"
)

// checkAnswer verifies one answer to req: a complete report whose witness
// flow is conserved, whose makespan and resources recompute from the flow,
// and which stays within what the reporting solver's guarantee allows.
func checkAnswer(req *request, resp *service.SolveResponse) error {
	if resp.Error != "" {
		return fmt.Errorf("error answer: %s", resp.Error)
	}
	rep := resp.Report
	if rep == nil {
		return errors.New("no report")
	}
	if resp.Hash != req.hash {
		return fmt.Errorf("hash %q, want %q", resp.Hash, req.hash)
	}
	if !rep.Complete {
		return errors.New("incomplete report")
	}
	inst := req.inst
	if len(rep.Flow) != inst.G.NumEdges() {
		return fmt.Errorf("flow has %d entries for %d arcs", len(rep.Flow), inst.G.NumEdges())
	}
	if err := inst.ValidateFlow(rep.Flow, -1); err != nil {
		return fmt.Errorf("witness flow: %v", err)
	}
	mk, err := inst.Makespan(rep.Flow)
	if err != nil {
		return err
	}
	if mk != rep.Makespan {
		return fmt.Errorf("reported makespan %d, flow gives %d", rep.Makespan, mk)
	}
	if v := inst.FlowValue(rep.Flow); v != rep.Resources {
		return fmt.Errorf("reported resources %d, flow gives %d", rep.Resources, v)
	}
	if req.budget >= 0 {
		allowed, err := budgetAllowance(rep.Solver, req.budget, req.alpha)
		if err != nil {
			return err
		}
		if float64(rep.Resources) > allowed+1e-9 {
			return fmt.Errorf("%s used %d resources, guarantee allows %.3f", rep.Solver, rep.Resources, allowed)
		}
	} else {
		allowed, err := targetAllowance(rep.Solver, req.target, req.alpha)
		if err != nil {
			return err
		}
		if float64(rep.Makespan) > allowed+1e-9 {
			return fmt.Errorf("%s reached makespan %d, guarantee allows %.3f", rep.Solver, rep.Makespan, allowed)
		}
	}
	return nil
}

// budgetAllowance is the most resources solver may spend under budget B:
// B for the exact solvers and the class approximations, B/(1-alpha) for
// the bi-criteria roundings, 4B/3 for binarybi.
func budgetAllowance(name string, b int64, alpha float64) (float64, error) {
	switch name {
	case "exact", "spdp", "kway5", "binary4":
		return float64(b), nil
	case "bicriteria", "frankwolfe":
		return float64(b) / (1 - alpha), nil
	case "binarybi":
		return 4 * float64(b) / 3, nil
	}
	return 0, fmt.Errorf("solver %q has no budget-mode guarantee", name)
}

// targetAllowance is the largest makespan solver may reach under target T:
// T for the exact solvers, T/alpha for the bi-criteria roundings.
func targetAllowance(name string, t int64, alpha float64) (float64, error) {
	switch name {
	case "exact", "spdp":
		return float64(t), nil
	case "bicriteria-resource", "frankwolfe":
		return float64(t) / alpha, nil
	}
	return 0, fmt.Errorf("solver %q has no target-mode guarantee", name)
}

// objective is the value the request optimizes: makespan under a budget,
// resources under a target.
func objective(req *request, rep *solver.WireReport) int64 {
	if req.budget >= 0 {
		return rep.Makespan
	}
	return rep.Resources
}

// checkReference compares an answer with the in-process reference solve
// of the same request, when req was sampled for one.
func checkReference(req *request, rep *solver.WireReport) error {
	if req.ref == nil {
		return nil
	}
	if got, want := objective(req, rep), objective(req, req.ref); got != want {
		return fmt.Errorf("objective %d, in-process reference %s gives %d", got, req.ref.Solver, want)
	}
	return nil
}

// solveReference runs req in process exactly as the service resolves it.
func solveReference(req *request) (*solver.WireReport, error) {
	opts := solver.NewOptions(solver.WithBudget(req.budget), solver.WithTarget(req.target), solver.WithAlpha(req.alpha))
	rep, err := solver.SolveCompiledOptions(context.Background(), "auto", core.Compile(req.inst), opts)
	if err != nil {
		return nil, err
	}
	w := rep.Wire()
	return &w, nil
}

// certifiedRatio is the answer's certified approximation-ratio bound,
// counting 1 for exact answers.  ok is false when an approximate answer
// claims no bound.
func certifiedRatio(rep *solver.WireReport) (r float64, ok bool) {
	if rep.Exact {
		return 1, true
	}
	return rep.ApproxRatioUpperBound, rep.ApproxRatioUpperBound > 0
}
