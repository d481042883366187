package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// grid2Cube builds a two-explicit-dim cube (so aggtrailing is legal)
// with deterministic contents.
func grid2Cube(t *testing.T, e *Engine, nlat, nlon, n int) *Cube {
	t.Helper()
	c, err := e.NewCubeFromFunc("seq2",
		[]Dimension{{Name: "lat", Size: nlat}, {Name: "lon", Size: nlon}},
		Dimension{Name: "time", Size: n},
		func(row, tt int) float32 { return float32((row*37+tt*5)%23) - 7.5 })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireSameCube asserts byte-for-byte equal payloads and shapes.
func requireSameCube(t *testing.T, label string, got, want *Cube) {
	t.Helper()
	if got.Rows() != want.Rows() || got.ImplicitLen() != want.ImplicitLen() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.ImplicitLen(), want.Rows(), want.ImplicitLen())
	}
	gv, wv := got.Values(), want.Values()
	for r := range wv {
		for i := range wv[r] {
			if math.Float32bits(gv[r][i]) != math.Float32bits(wv[r][i]) {
				t.Fatalf("%s: row %d idx %d: %v != %v (bits %08x vs %08x)",
					label, r, i, gv[r][i], wv[r][i], math.Float32bits(gv[r][i]), math.Float32bits(wv[r][i]))
			}
		}
	}
}

func idSet(e *Engine) map[string]bool {
	out := make(map[string]bool)
	for _, id := range e.List() {
		out[id] = true
	}
	return out
}

// TestPlanLinearMatchesEager runs a four-stage fused chain and compares
// it bit for bit with the operator-at-a-time reference evaluator
// (naive_test.go).
func TestPlanLinearMatchesEager(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 24)
	bl, err := e.NewCubeFromFunc("base", src.ExplicitDims(), Dimension{Name: "time", Size: 6},
		func(row, tt int) float32 { return float32(row - tt) })
	if err != nil {
		t.Fatal(err)
	}
	want := mustNaive(t, naiveOf(src),
		nReduceGroup("max", 4), nIntercube(naiveOf(bl), "sub"), nApply("x>0 ? x : 0"), nReduce("sum"))

	got, err := src.Lazy().ReduceGroup("max", 4).Intercube(bl, "sub").Apply("x>0 ? x : 0").Reduce("sum").Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesNaive(t, "linear", got, want)
	if !strings.Contains(got.Description(), "fused(") {
		t.Fatalf("fused provenance missing: %q", got.Description())
	}
}

func TestPlanKeepMaterializesIntermediate(t *testing.T) {
	e := newTestEngine(t)
	src := seqCube(t, e, 4, 8)
	before := idSet(e)
	got, err := src.Lazy().Apply("x*2").Keep().Reduce("max").Execute()
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, id := range e.List() {
		if !before[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) != 2 {
		t.Fatalf("new cubes = %v, want kept intermediate + result", fresh)
	}
	// the kept cube holds the materialized first stage
	var kept *Cube
	for _, id := range fresh {
		if id != got.ID() {
			kept, _ = e.Get(id)
		}
	}
	if kept == nil {
		t.Fatal("kept intermediate not registered")
	}
	requireMatchesNaive(t, "kept", kept, mustNaive(t, naiveOf(src), nApply("x*2")))
}

func TestPlanBarrierAndResidency(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 8)
	before := idSet(e)

	// row-local → barrier → row-local: the plan must materialize at the
	// barrier and clean the unkept intermediate up afterwards
	got, err := src.Lazy().Apply("x+1").AggregateRows("max").Apply("x*10").Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesNaive(t, "barrier", got,
		mustNaive(t, naiveOf(src), nApply("x+1"), nAggRows("max"), nApply("x*10")))

	var fresh []string
	for _, id := range e.List() {
		if !before[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) != 1 || fresh[0] != got.ID() {
		t.Fatalf("plan left cubes %v, want only result %s", fresh, got.ID())
	}
}

func TestPlanErrorsLeaveNoResidue(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 2, 3, 12)
	other, err := e.NewCubeFromFunc("o", []Dimension{{Name: "r", Size: 6}},
		Dimension{Name: "time", Size: 5}, func(int, int) float32 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		plan   func() (*Cube, error)
		direct func() (*Cube, error)
	}{
		{"unknown-rowop",
			func() (*Cube, error) { return src.Lazy().Reduce("nosuchop").Execute() },
			func() (*Cube, error) { return src.Reduce("nosuchop") }},
		{"group-indivisible",
			func() (*Cube, error) { return src.Lazy().ReduceGroup("max", 5).Execute() },
			func() (*Cube, error) { return src.ReduceGroup("max", 5) }},
		{"stride-indivisible",
			func() (*Cube, error) { return src.Lazy().ReduceStride("max", 7).Execute() },
			func() (*Cube, error) { return src.ReduceStride("max", 7) }},
		{"subset-range",
			func() (*Cube, error) { return src.Lazy().Subset(4, 20).Execute() },
			func() (*Cube, error) { return src.Subset(4, 20) }},
		{"intercube-shape",
			func() (*Cube, error) { return src.Lazy().Intercube(other, "sub").Execute() },
			func() (*Cube, error) { return src.Intercube(other, "sub") }},
		{"intercube-op",
			func() (*Cube, error) { return src.Lazy().Intercube(src, "xor").Execute() },
			func() (*Cube, error) { return src.Intercube(src, "xor") }},
		{"bad-expr",
			func() (*Cube, error) { return src.Lazy().Apply("x +* 2").Execute() },
			func() (*Cube, error) { return src.Apply("x +* 2") }},
		{"aggtrailing-1dim",
			func() (*Cube, error) {
				return src.Lazy().AggregateRows("max").AggregateTrailing("max").Execute()
			},
			func() (*Cube, error) {
				a, err := src.AggregateRows("max")
				if err != nil {
					return nil, err
				}
				defer a.Delete()
				return a.AggregateTrailing("max")
			}},
		{"mid-chain-after-valid-prefix",
			func() (*Cube, error) { return src.Lazy().Apply("x+1").ReduceGroup("max", 5).Execute() },
			func() (*Cube, error) {
				a, err := src.Apply("x+1")
				if err != nil {
					return nil, err
				}
				defer a.Delete()
				return a.ReduceGroup("max", 5)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := idSet(e)
			_, planErr := tc.plan()
			if planErr == nil {
				t.Fatal("plan accepted invalid chain")
			}
			_, directErr := tc.direct()
			if directErr == nil {
				t.Fatal("direct Cube call accepted invalid chain")
			}
			if !strings.Contains(planErr.Error(), directErr.Error()) {
				t.Fatalf("plan error %q does not carry the direct call's error %q", planErr, directErr)
			}
			after := idSet(e)
			for id := range after {
				if !before[id] {
					t.Fatalf("failed plan leaked cube %s", id)
				}
			}
		})
	}

	if _, err := src.Lazy().Execute(); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := Branch().Apply("x").Execute(); err == nil {
		t.Fatal("sourceless plan accepted")
	}
	if _, err := src.Lazy().Keep().Execute(); err == nil {
		t.Fatal("Keep on empty plan accepted")
	}
	if _, err := src.Lazy().Apply("x").ExecuteBranches(); err == nil {
		t.Fatal("ExecuteBranches without branches accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(src.Lazy()); err == nil {
		t.Fatal("branch with its own source accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(Branch().AggregateRows("max")); err == nil {
		t.Fatal("barrier op inside branch accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(Branch().Apply("x").Keep()); err == nil {
		t.Fatal("Keep inside branch accepted")
	}
}

// TestExecuteBranchesMatchesEager runs a shared prefix with three
// branches as one multi-output pass and compares every output bit for
// bit with the reference evaluator.
func TestExecuteBranchesMatchesEager(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 24)
	bl, err := e.NewCubeFromFunc("base", src.ExplicitDims(), Dimension{Name: "time", Size: 6},
		func(row, tt int) float32 { return float32(tt - row) })
	if err != nil {
		t.Fatal(err)
	}
	anom := mustNaive(t, naiveOf(src), nReduceGroup("max", 4), nIntercube(naiveOf(bl), "sub"))

	before := idSet(e)
	outs, err := src.Lazy().ReduceGroup("max", 4).Intercube(bl, "sub").ExecuteBranches(
		Branch().Reduce("max"),
		Branch().Apply("x>0 ? 1 : 0").Reduce("sum"),
		Branch(), // identity: the shared prefix itself
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs = %d", len(outs))
	}
	requireMatchesNaive(t, "branch0", outs[0], mustNaive(t, anom, nReduce("max")))
	requireMatchesNaive(t, "branch1", outs[1], mustNaive(t, anom, nApply("x>0 ? 1 : 0"), nReduce("sum")))
	requireMatchesNaive(t, "branch-identity", outs[2], anom)

	// one pass, and the prefix never materialized as a cube: only the
	// three outputs are new
	if got := len(e.List()) - len(before); got != 3 {
		t.Fatalf("pass registered %d cubes, want the 3 outputs", got)
	}
	if e.met.fusedPasses.Value() != 1 {
		t.Fatalf("fused passes = %v, want 1", e.met.fusedPasses.Value())
	}
	if e.met.fusedStages.Value() != 5 {
		t.Fatalf("fused stages = %v, want 5", e.met.fusedStages.Value())
	}
}

// randStep applies one operator to both the plan and the reference.
type randStep struct {
	toPlan func(*Plan) *Plan
	ref    naiveOp
}

// divisorsOf lists the divisors of n (including 1 and n).
func divisorsOf(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// genStep picks one valid operator for the current reference shape.
func genStep(t *testing.T, rng *rand.Rand, e *Engine, cur naive) randStep {
	t.Helper()
	exprs := []string{"x*2", "x+1", "x>3 ? 1 : 0", "abs(x)-2", "x/4"}
	rops := []string{"max", "min", "sum", "avg"}
	width := cur.width()
	for {
		switch rng.Intn(10) {
		case 0, 1:
			ex := exprs[rng.Intn(len(exprs))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Apply(ex) },
				ref:    nApply(ex),
			}
		case 2:
			op := rops[rng.Intn(len(rops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Reduce(op) },
				ref:    nReduce(op),
			}
		case 3:
			divs := divisorsOf(width)
			g := divs[rng.Intn(len(divs))]
			op := rops[rng.Intn(len(rops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.ReduceGroup(op, g) },
				ref:    nReduceGroup(op, g),
			}
		case 4:
			divs := divisorsOf(width)
			s := divs[rng.Intn(len(divs))]
			op := rops[rng.Intn(len(rops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.ReduceStride(op, s) },
				ref:    nReduceStride(op, s),
			}
		case 5:
			if width < 2 {
				continue
			}
			lo := rng.Intn(width)
			hi := lo + 1 + rng.Intn(width-lo)
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Subset(lo, hi) },
				ref:    nSubset(lo, hi),
			}
		case 6:
			rows := len(cur.vals)
			other, err := e.NewCubeFromFunc(fmt.Sprintf("o%d", rng.Int63()),
				[]Dimension{{Name: "r", Size: rows}},
				Dimension{Name: "time", Size: width},
				func(row, tt int) float32 { return float32((row+tt)%5) - 1.5 })
			if err != nil {
				t.Fatal(err)
			}
			iops := []string{"add", "sub", "mul"}
			op := iops[rng.Intn(len(iops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Intercube(other, op) },
				ref:    nIntercube(naiveOf(other), op),
			}
		case 7:
			op := rops[rng.Intn(len(rops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.AggregateRows(op) },
				ref:    nAggRows(op),
			}
		case 8:
			dims := cur.dims
			if len(dims) < 2 {
				continue
			}
			op := rops[rng.Intn(len(rops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.AggregateTrailing(op) },
				ref:    nAggTrailing(op),
			}
		case 9:
			dims := cur.dims
			if len(dims) == 0 || dims[0].Size < 2 {
				continue
			}
			lead := dims[0].Size
			lo := rng.Intn(lead)
			hi := lo + 1 + rng.Intn(lead-lo)
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.SubsetRows(lo, hi) },
				ref:    nSubsetRows(lo, hi),
			}
		}
	}
}

// TestPlanRandomChainsMatchEager drives ~200 seeded random operator
// chains through Plan.Execute and through the operator-at-a-time
// reference evaluator (naive_test.go) and requires bitwise-identical
// outputs, correct Keep materialization counts, and no leaked
// intermediates.
func TestPlanRandomChainsMatchEager(t *testing.T) {
	e := NewEngine(Config{Servers: 3, FragmentsPerCube: 4})
	defer e.Close()
	rng := rand.New(rand.NewSource(20260805))
	widths := []int{1, 4, 6, 8, 12, 24}

	for cases := 0; cases < 200; cases++ {
		nlat, nlon := 1+rng.Intn(3), 1+rng.Intn(4)
		width := widths[rng.Intn(len(widths))]
		src := grid2Cube(t, e, nlat, nlon, width)
		baseline := idSet(e)
		delete(baseline, src.ID())

		plan := src.Lazy()
		ref := naiveOf(src)
		var others []*Cube
		var chain []randStep
		keeps, lastKept := 0, false
		nsteps := 1 + rng.Intn(6)
		for s := 0; s < nsteps; s++ {
			preOthers := idSet(e)
			st := genStep(t, rng, e, ref)
			chain = append(chain, st)
			for _, id := range e.List() {
				if !preOthers[id] { // intercube operand created by genStep
					oc, _ := e.Get(id)
					others = append(others, oc)
				}
			}
			plan = st.toPlan(plan)
			var err error
			if ref, err = st.ref(ref); err != nil {
				t.Fatalf("case %d step %d: %v", cases, s, err)
			}
			lastKept = false
			if rng.Intn(100) < 15 {
				plan = plan.Keep()
				keeps++
				lastKept = true
			}
		}

		preExec := idSet(e)
		got, err := plan.Execute()
		if err != nil {
			t.Fatalf("case %d: Execute: %v", cases, err)
		}
		requireMatchesNaive(t, fmt.Sprintf("case %d", cases), got, ref)

		var fresh []*Cube
		for _, id := range e.List() {
			if !preExec[id] {
				fc, _ := e.Get(id)
				fresh = append(fresh, fc)
			}
		}
		wantNew := keeps + 1
		if lastKept {
			wantNew = keeps
		}
		if len(fresh) != wantNew {
			t.Fatalf("case %d: plan registered %d cubes, want %d (keeps=%d lastKept=%v)",
				cases, len(fresh), wantNew, keeps, lastKept)
		}

		// tier-aware replays of the same chain (without Keep marks):
		// Tolerance(0) must stay bit-identical to the reference, and
		// Tolerance(eps>0) must satisfy the declared bound around the
		// exact result (already pinned to the reference above).
		replay := func() *Plan {
			p := src.Lazy()
			for _, st := range chain {
				p = st.toPlan(p)
			}
			return p
		}
		got0, err := replay().Tolerance(0).Execute()
		if err != nil {
			t.Fatalf("case %d: Tolerance(0) replay: %v", cases, err)
		}
		requireMatchesNaive(t, fmt.Sprintf("case %d tolerance-zero", cases), got0, ref)
		_ = got0.Delete()

		eps := []float64{0.05, 0.5}[rng.Intn(2)]
		gotE, err := replay().Tolerance(eps).Execute()
		if err != nil {
			t.Fatalf("case %d: Tolerance(%g) replay: %v", cases, eps, err)
		}
		requireToleranceBound(t, gotE, got, eps)
		_ = gotE.Delete()

		// free everything this case created and verify the engine is back
		// to its pre-case population
		for _, c := range fresh {
			_ = c.Delete()
		}
		for _, c := range others {
			_ = c.Delete()
		}
		_ = src.Delete()
		for _, id := range e.List() {
			if !baseline[id] {
				t.Fatalf("case %d: cube %s leaked", cases, id)
			}
		}
	}
}
