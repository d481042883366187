package datacube

import (
	"errors"
	"math"
	"testing"
)

// FuzzCompile hardens the expression parser: arbitrary input must
// either fail cleanly or produce an evaluable expression — never panic.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"x", "1+2*3", "x>0 ? 1 : 0", "pow(x,2)", "min(x, max(1,2))",
		"((x))", "-x", "!x", "x && 1 || 0", "1e300*1e300", ".5",
		"x ? : 1", "abs(", ")(", "x x", "? :", "1..2", "e", "xx",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		for _, x := range []float64{0, 1, -1, math.Inf(1), math.NaN(), 1e-300} {
			_ = e.Eval(x) // must not panic
		}
	})
}

// FuzzPlan decodes fuzzer bytes into an operator chain and runs it
// three ways — exact, Tolerance(0), Tolerance(eps>0) — over the
// resolution pyramid, plus through the reference evaluator
// (naive_test.go). Invalid chains must fail on every path; valid ones
// must match the reference bit for bit when exact or at eps=0 and stay
// within the bound at eps>0. The seed corpus covers tiered
// subset/aggrows chains.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0))                   // apply, exact
	f.Add([]byte{0x09, 0x00}, uint8(1))             // reduce after apply, eps>0
	f.Add([]byte{0x0c, 0x09}, uint8(2))             // subset → reduce (tiered subset chain)
	f.Add([]byte{0x0d, 0x00, 0x09}, uint8(1))       // aggrows barrier → apply → reduce
	f.Add([]byte{0x0c, 0x0d, 0x0c, 0x09}, uint8(2)) // subset/aggrows mix over tiers
	f.Add([]byte{0x1a, 0x23, 0x0e}, uint8(1))       // grouped reduce, stride, aggtrailing
	f.Add([]byte{0x0f, 0x09}, uint8(2))             // subsetrows barrier → reduce

	exprs := []string{"x*2", "x+1", "x>1 ? x : -x", "abs(x)-0.5"}
	rops := []string{"max", "min", "sum", "avg"}

	f.Fuzz(func(t *testing.T, prog []byte, epsSel uint8) {
		if len(prog) > 8 {
			prog = prog[:8]
		}
		e := NewEngine(Config{Servers: 2, FragmentsPerCube: 3})
		defer e.Close()
		const width = 12
		mk := func(name string) *Cube {
			c, err := e.NewCubeFromFunc(name,
				[]Dimension{{Name: "lat", Size: 2}, {Name: "lon", Size: 4}},
				Dimension{Name: "time", Size: width},
				func(row, tt int) float32 { return float32((row*37+tt*5)%23) - 7.5 })
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		var ref []naiveOp
		build := func(name string) *Plan {
			p := mk(name).Lazy()
			ref = ref[:0]
			for _, b := range prog {
				op, arg := int(b&7), int(b>>3)
				ex, rop := exprs[arg%len(exprs)], rops[arg%len(rops)]
				switch op {
				case 0:
					p, ref = p.Apply(ex), append(ref, nApply(ex))
				case 1:
					p, ref = p.Reduce(rop), append(ref, nReduce(rop))
				case 2:
					p, ref = p.ReduceGroup(rop, 1+arg%width), append(ref, nReduceGroup(rop, 1+arg%width))
				case 3:
					p, ref = p.ReduceStride(rop, 1+arg%width), append(ref, nReduceStride(rop, 1+arg%width))
				case 4:
					p, ref = p.Subset(arg%width, width), append(ref, nSubset(arg%width, width))
				case 5:
					p, ref = p.AggregateRows(rop), append(ref, nAggRows(rop))
				case 6:
					p, ref = p.AggregateTrailing(rop), append(ref, nAggTrailing(rop))
				case 7:
					p, ref = p.SubsetRows(arg%8, 8), append(ref, nSubsetRows(arg%8, 8))
				}
			}
			return p
		}
		eps := []float64{0, 0.05, 0.5}[int(epsSel)%3]

		exact, errExact := build("f-exact").Execute()
		zero, errZero := build("f-zero").Tolerance(0).Execute()
		tol, errTol := build("f-tol").Tolerance(eps).Execute()
		want, errRef := runNaive(naiveOf(mk("f-ref")), ref...)
		if len(ref) == 0 {
			errRef = errors.New("empty plan") // an empty chain has no result
		}
		if (errExact == nil) != (errZero == nil) || (errExact == nil) != (errTol == nil) || (errExact == nil) != (errRef == nil) {
			t.Fatalf("validity diverged: exact=%v zero=%v tol=%v reference=%v", errExact, errZero, errTol, errRef)
		}
		if errExact != nil {
			return
		}
		requireMatchesNaive(t, "fuzz-exact", exact, want)
		requireMatchesNaive(t, "fuzz-tolerance-zero", zero, want)
		if eps > 0 {
			requireToleranceBound(t, tol, exact, eps)
		} else {
			requireMatchesNaive(t, "fuzz-eps0", tol, want)
		}
	})
}
