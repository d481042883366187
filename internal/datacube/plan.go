package datacube

import (
	"errors"
	"fmt"
)

// This file implements the lazy query-plan layer over the Cube
// operator API. A Plan records the same operator vocabulary the Cube
// methods and cubeserver.PipelineStep expose, without executing
// anything; Plan.Execute compiles maximal runs of row-local operators
// into fused per-fragment passes (see exec.go), so an n-stage index
// chain does one fragment fan-out and one output allocation instead of
// n of each — the operator-pipelining pattern the related work names as
// the recurring HPC→analytics optimization.
//
// Operator classification:
//
//   - row-local (fusible): apply, reduce, reducegroup, reducestride,
//     subset, intercube. Output row r depends only on input row r, so
//     consecutive stages chain through per-row scratch buffers.
//   - barrier (materializing): subsetrows, aggrows, aggtrailing. These
//     re-shape or combine rows, so the plan materializes the pending
//     fused prefix into a cube and runs the barrier's Cube method.
//
// Keep marks the preceding step's output as a materialization boundary:
// the cube is computed, registered and retained, exactly as a direct
// Cube call would leave it. The row-local Cube methods themselves run
// as one-stage fused passes (Cube.runOne), so each operator has one
// implementation.

// planStep is one recorded operator application.
type planStep struct {
	op     string // apply|reduce|reducegroup|reducestride|subset|subsetrows|intercube|aggrows|aggtrailing
	expr   string
	rowOp  string
	params []float64
	group  int // group for reducegroup, stride for reducestride
	lo, hi int
	other  *Cube
	keep   bool
}

// ErrPlanReused is returned by Execute/ExecuteBranches on a plan that
// has already run. Plans are single-use: re-running one would re-walk
// steps whose intermediates were already materialized or deleted and
// silently share compiled stages and scratch, so reuse is a typed
// error instead of an undefined re-execution.
var ErrPlanReused = errors.New("datacube: plan already executed (plans are single-use)")

// Plan is a lazily-recorded operator chain over a source cube. Build
// one with Cube.Lazy (or Branch for ExecuteBranches sub-chains), append
// steps with the builder methods, and run it with Execute. Plans are
// single-use value builders, not thread-safe; a second
// Execute/ExecuteBranches fails with ErrPlanReused.
type Plan struct {
	src       *Cube
	steps     []planStep
	tolerance float64
	executed  bool
}

// Lazy starts a plan whose first step consumes the cube. Nothing
// executes until Execute/ExecuteBranches.
func (c *Cube) Lazy() *Plan { return &Plan{src: c} }

// Branch starts a source-less sub-chain for Plan.ExecuteBranches; its
// input is the shared prefix's per-row output.
func Branch() *Plan { return &Plan{} }

func (p *Plan) add(s planStep) *Plan {
	if p.steps == nil {
		// index chains are short; one right-sized allocation instead of
		// append doubling keeps plan building off the hot path's profile
		p.steps = make([]planStep, 0, 4)
	}
	p.steps = append(p.steps, s)
	return p
}

// Apply records an elementwise expression stage (Cube.Apply).
func (p *Plan) Apply(expr string) *Plan {
	return p.add(planStep{op: "apply", expr: expr})
}

// Reduce records a full-row reduction (Cube.Reduce).
func (p *Plan) Reduce(op string, params ...float64) *Plan {
	return p.add(planStep{op: "reduce", rowOp: op, params: params})
}

// ReduceGroup records a grouped reduction (Cube.ReduceGroup).
func (p *Plan) ReduceGroup(op string, group int, params ...float64) *Plan {
	return p.add(planStep{op: "reducegroup", rowOp: op, params: params, group: group})
}

// ReduceStride records a strided reduction (Cube.ReduceStride).
func (p *Plan) ReduceStride(op string, stride int, params ...float64) *Plan {
	return p.add(planStep{op: "reducestride", rowOp: op, params: params, group: stride})
}

// Subset records an implicit-axis subset (Cube.Subset).
func (p *Plan) Subset(lo, hi int) *Plan {
	return p.add(planStep{op: "subset", lo: lo, hi: hi})
}

// SubsetRows records a leading-dimension row subset (Cube.SubsetRows).
// Row subsetting re-indexes rows, so it is a fusion barrier.
func (p *Plan) SubsetRows(lo, hi int) *Plan {
	return p.add(planStep{op: "subsetrows", lo: lo, hi: hi})
}

// Intercube records an elementwise combination with an already
// materialized cube (Cube.Intercube).
func (p *Plan) Intercube(other *Cube, op string) *Plan {
	return p.add(planStep{op: "intercube", rowOp: op, other: other})
}

// AggregateRows records a row-collapsing aggregation (fusion barrier).
func (p *Plan) AggregateRows(op string, params ...float64) *Plan {
	return p.add(planStep{op: "aggrows", rowOp: op, params: params})
}

// AggregateTrailing records a trailing-dimension aggregation (fusion
// barrier).
func (p *Plan) AggregateTrailing(op string, params ...float64) *Plan {
	return p.add(planStep{op: "aggtrailing", rowOp: op, params: params})
}

// Keep marks the most recent step's output as a materialization
// boundary: its cube is registered on the engine and retained after
// Execute, exactly like a direct Cube call's result. Keep on an
// empty plan is an Execute-time error.
func (p *Plan) Keep() *Plan {
	if len(p.steps) > 0 {
		p.steps[len(p.steps)-1].keep = true
	} else {
		// recorded as an invalid step so Execute reports it instead of
		// silently ignoring the call
		p.steps = append(p.steps, planStep{op: "keep-without-step"})
	}
	return p
}

// Tolerance declares the absolute error the caller accepts on the
// plan's final result, enabling coarse-first execution over the source
// cube's resolution pyramid: the terminal run of row-local steps is
// evaluated on coarse tiers first and re-executed at finer tiers only
// where the propagated error bound exceeds eps (see tolerance.go).
// eps=0 (the default) keeps execution byte-identical to the exact
// path. Steps before the terminal row-local segment — materialized
// Keep boundaries and barrier operators — always run exact, so the
// bound applies end-to-end to the returned cube(s). Plans whose steps
// all lack interval forms silently fall back to exact execution.
func (p *Plan) Tolerance(eps float64) *Plan {
	if eps > 0 {
		p.tolerance = eps
	} else {
		p.tolerance = 0
	}
	return p
}

// Len reports the number of recorded steps.
func (p *Plan) Len() int { return len(p.steps) }

// Execute compiles the plan and runs it, returning the final cube.
// Maximal runs of row-local steps execute as single fused passes;
// barrier steps and Keep boundaries materialize. Each fused segment is
// shape-validated before it runs, and a failing plan deletes every
// unkept intermediate it produced, so errors leave no temporaries
// behind (cubes already materialized by Keep remain).
func (p *Plan) Execute() (*Cube, error) {
	outs, err := p.run(nil)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// ExecuteBranches runs the plan's steps as a shared row-local prefix
// and then fans out into the branch chains, all in ONE fused pass: the
// prefix is computed once per row into scratch and each branch writes
// its own output cube. Branches must be built with Branch() and may
// contain only row-local steps. The returned cubes align with the
// branches argument.
func (p *Plan) ExecuteBranches(branches ...*Plan) ([]*Cube, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("datacube: ExecuteBranches needs at least one branch")
	}
	return p.run(branches)
}
