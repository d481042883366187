package datacube

import (
	"fmt"
	"math"
	"testing"
)

// naive_test.go is the reference evaluator the plan tests compare the
// engine against. Each operator is a plain loop over a [row][t] array
// taken from Values(), rounding to float32 after every operator exactly
// as a materialized cube would. It shares no code with the fused
// executor, the row-op registry or the expression compiler, so
// agreement is a comparison of two independent implementations.

// naive is a reference cube: explicit dimensions plus row-major values.
type naive struct {
	dims []Dimension
	vals [][]float32
}

func naiveOf(c *Cube) naive { return naive{dims: c.ExplicitDims(), vals: c.Values()} }

func (n naive) width() int {
	if len(n.vals) == 0 {
		return 0
	}
	return len(n.vals[0])
}

// naiveOp is one reference operator; invalid arguments return an error.
type naiveOp func(naive) (naive, error)

// runNaive applies ops in order.
func runNaive(n naive, ops ...naiveOp) (naive, error) {
	for _, op := range ops {
		var err error
		if n, err = op(n); err != nil {
			return naive{}, err
		}
	}
	return n, nil
}

// mustNaive is runNaive for chains the test knows are valid.
func mustNaive(t *testing.T, n naive, ops ...naiveOp) naive {
	t.Helper()
	out, err := runNaive(n, ops...)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return out
}

// naiveExprs are the apply expressions the tests use, written as Go.
var naiveExprs = map[string]func(x float64) float64{
	"x*2":          func(x float64) float64 { return x * 2 },
	"x*10":         func(x float64) float64 { return x * 10 },
	"x+1":          func(x float64) float64 { return x + 1 },
	"x/4":          func(x float64) float64 { return x / 4 },
	"abs(x)-2":     func(x float64) float64 { return math.Abs(x) - 2 },
	"abs(x)-0.5":   func(x float64) float64 { return math.Abs(x) - 0.5 },
	"x>3 ? 1 : 0":  func(x float64) float64 { return pick(x > 3, 1, 0) },
	"x>0 ? 1 : 0":  func(x float64) float64 { return pick(x > 0, 1, 0) },
	"x>0 ? x : 0":  func(x float64) float64 { return pick(x > 0, x, 0) },
	"x>1 ? x : -x": func(x float64) float64 { return pick(x > 1, x, -x) },
}

func pick(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

// naiveRowOps are the reductions the tests use; they accumulate in
// float64 and round once, like a stored cube value.
var naiveRowOps = map[string]func(vs []float32) float64{
	"max": func(vs []float32) float64 {
		m := float64(vs[0])
		for _, v := range vs[1:] {
			if float64(v) > m {
				m = float64(v)
			}
		}
		return m
	},
	"min": func(vs []float32) float64 {
		m := float64(vs[0])
		for _, v := range vs[1:] {
			if float64(v) < m {
				m = float64(v)
			}
		}
		return m
	},
	"sum": func(vs []float32) float64 {
		var s float64
		for _, v := range vs {
			s += float64(v)
		}
		return s
	},
	"avg": func(vs []float32) float64 {
		var s float64
		for _, v := range vs {
			s += float64(v)
		}
		return s / float64(len(vs))
	},
}

func naiveRowOp(op string) (func([]float32) float64, error) {
	f, ok := naiveRowOps[op]
	if !ok {
		return nil, fmt.Errorf("reference: no row op %q", op)
	}
	return f, nil
}

// perRow builds a same-dims cube whose row r is f(r, input row r).
func (n naive) perRow(f func(r int, row []float32) []float32) naive {
	out := naive{dims: n.dims, vals: make([][]float32, len(n.vals))}
	for r, row := range n.vals {
		out.vals[r] = f(r, row)
	}
	return out
}

func nApply(expr string) naiveOp {
	return func(n naive) (naive, error) {
		f, ok := naiveExprs[expr]
		if !ok {
			return naive{}, fmt.Errorf("reference: no expression %q", expr)
		}
		return n.perRow(func(_ int, row []float32) []float32 {
			out := make([]float32, len(row))
			for i, v := range row {
				out[i] = float32(f(float64(v)))
			}
			return out
		}), nil
	}
}

func nReduce(op string) naiveOp {
	return func(n naive) (naive, error) { return nReduceGroup(op, n.width())(n) }
}

func nReduceGroup(op string, group int) naiveOp {
	return func(n naive) (naive, error) {
		f, err := naiveRowOp(op)
		if err != nil {
			return naive{}, err
		}
		if group <= 0 || n.width()%group != 0 {
			return naive{}, fmt.Errorf("reference: group %d vs width %d", group, n.width())
		}
		return n.perRow(func(_ int, row []float32) []float32 {
			out := make([]float32, len(row)/group)
			for g := range out {
				out[g] = float32(f(row[g*group : (g+1)*group]))
			}
			return out
		}), nil
	}
}

func nReduceStride(op string, stride int) naiveOp {
	return func(n naive) (naive, error) {
		f, err := naiveRowOp(op)
		if err != nil {
			return naive{}, err
		}
		if stride <= 0 || n.width()%stride != 0 {
			return naive{}, fmt.Errorf("reference: stride %d vs width %d", stride, n.width())
		}
		return n.perRow(func(_ int, row []float32) []float32 {
			out := make([]float32, stride)
			for k := range out {
				var picked []float32
				for i := k; i < len(row); i += stride {
					picked = append(picked, row[i])
				}
				out[k] = float32(f(picked))
			}
			return out
		}), nil
	}
}

func nSubset(lo, hi int) naiveOp {
	return func(n naive) (naive, error) {
		if lo < 0 || hi > n.width() || lo >= hi {
			return naive{}, fmt.Errorf("reference: subset [%d,%d) of width %d", lo, hi, n.width())
		}
		return n.perRow(func(_ int, row []float32) []float32 {
			return append([]float32(nil), row[lo:hi]...)
		}), nil
	}
}

func nIntercube(other naive, op string) naiveOp {
	return func(n naive) (naive, error) {
		if len(other.vals) != len(n.vals) || other.width() != n.width() {
			return naive{}, fmt.Errorf("reference: intercube shape mismatch")
		}
		var f func(a, b float32) float32
		switch op {
		case "add":
			f = func(a, b float32) float32 { return a + b }
		case "sub":
			f = func(a, b float32) float32 { return a - b }
		case "mul":
			f = func(a, b float32) float32 { return a * b }
		case "div":
			f = func(a, b float32) float32 { return a / b }
		default:
			return naive{}, fmt.Errorf("reference: intercube op %q", op)
		}
		return n.perRow(func(r int, row []float32) []float32 {
			out := make([]float32, len(row))
			for i := range row {
				out[i] = f(row[i], other.vals[r][i])
			}
			return out
		}), nil
	}
}

func nAggRows(op string) naiveOp {
	return func(n naive) (naive, error) {
		f, err := naiveRowOp(op)
		if err != nil {
			return naive{}, err
		}
		out := make([]float32, n.width())
		for t := range out {
			col := make([]float32, len(n.vals))
			for r := range n.vals {
				col[r] = n.vals[r][t]
			}
			out[t] = float32(f(col))
		}
		return naive{dims: []Dimension{{Name: "all", Size: 1}}, vals: [][]float32{out}}, nil
	}
}

func nAggTrailing(op string) naiveOp {
	return func(n naive) (naive, error) {
		f, err := naiveRowOp(op)
		if err != nil {
			return naive{}, err
		}
		if len(n.dims) < 2 {
			return naive{}, fmt.Errorf("reference: aggtrailing needs 2 explicit dims, have %d", len(n.dims))
		}
		trail := n.dims[len(n.dims)-1].Size
		out := naive{dims: n.dims[:len(n.dims)-1], vals: make([][]float32, len(n.vals)/trail)}
		for g := range out.vals {
			out.vals[g] = make([]float32, n.width())
			for t := range out.vals[g] {
				col := make([]float32, trail)
				for k := range col {
					col[k] = n.vals[g*trail+k][t]
				}
				out.vals[g][t] = float32(f(col))
			}
		}
		return out, nil
	}
}

func nSubsetRows(lo, hi int) naiveOp {
	return func(n naive) (naive, error) {
		if len(n.dims) == 0 || lo < 0 || hi > n.dims[0].Size || lo >= hi {
			return naive{}, fmt.Errorf("reference: row subset [%d,%d)", lo, hi)
		}
		per := len(n.vals) / n.dims[0].Size
		dims := append([]Dimension{{Name: n.dims[0].Name, Size: hi - lo}}, n.dims[1:]...)
		return naive{dims: dims, vals: n.vals[lo*per : hi*per]}, nil
	}
}

// requireMatchesNaive asserts got has the reference's explicit
// dimensions, implicit length and values, bit for bit.
func requireMatchesNaive(t *testing.T, label string, got *Cube, want naive) {
	t.Helper()
	if fmt.Sprint(got.ExplicitDims()) != fmt.Sprint(want.dims) {
		t.Fatalf("%s: explicit dims %v, want %v", label, got.ExplicitDims(), want.dims)
	}
	if got.Rows() != len(want.vals) || got.ImplicitLen() != want.width() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.ImplicitLen(), len(want.vals), want.width())
	}
	for r, row := range got.Values() {
		for i, v := range row {
			if w := want.vals[r][i]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: row %d idx %d: %v != reference %v (bits %08x vs %08x)",
					label, r, i, v, w, math.Float32bits(v), math.Float32bits(w))
			}
		}
	}
}
