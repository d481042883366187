package datacube

import (
	"errors"
	"math"
	"testing"
)

// partialTestCube builds a deterministic rows×n cube for merge tests.
func partialTestCube(t *testing.T, e *Engine, rows, n int) *Cube {
	t.Helper()
	c, err := e.NewCubeFromFunc("m",
		[]Dimension{{Name: "cell", Size: rows}},
		Dimension{Name: "time", Size: n},
		func(row, tt int) float32 {
			return float32(math.Sin(float64(row*31+tt*7)) * 100)
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAggregateRowsPartialMergeParity splits a cube's rows at several
// points, merges the per-slice partials, and demands the distributed
// result match plain AggregateRows for every op with a registered
// merge. The single-slice case must match bit for bit.
func TestAggregateRowsPartialMergeParity(t *testing.T) {
	e := NewEngine(Config{Servers: 2, FragmentsPerCube: 3})
	defer e.Close()
	const rows, n = 12, 9
	full := partialTestCube(t, e, rows, n)

	for _, op := range RowOpMergeNames() {
		params := []float64{5} // threshold for count_above/count_below; ignored otherwise
		pm, _ := LookupRowOpMerge(op)
		partialOp := pm.PartialOp
		if partialOp == "" {
			partialOp = op
		}
		want, err := full.AggregateRows(op, params...)
		if err != nil {
			t.Fatalf("%s: aggrows: %v", op, err)
		}
		wantRow, err := want.Row(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cuts := range [][]int{{rows}, {5, 7}, {3, 4, 5}, {1, 1, 10}} {
			var partials [][]float64
			var weights []int
			lo := 0
			for _, w := range cuts {
				part, err := full.SubsetRows(lo, lo+w)
				if err != nil {
					t.Fatal(err)
				}
				p, err := part.AggregateRowsPartial(partialOp, params...)
				if err != nil {
					t.Fatalf("%s: partial: %v", op, err)
				}
				partials = append(partials, p)
				weights = append(weights, w)
				lo += w
				_ = part.Delete()
			}
			got, err := MergeRowPartials(op, partials, weights, params)
			if err != nil {
				t.Fatalf("%s: merge: %v", op, err)
			}
			for tt := range got {
				if len(cuts) == 1 {
					if got[tt] != wantRow[tt] {
						t.Fatalf("%s single-slice t=%d: merged %v != plain %v", op, tt, got[tt], wantRow[tt])
					}
				} else if math.Abs(float64(got[tt])-float64(wantRow[tt])) > 1e-4*math.Max(1, math.Abs(float64(wantRow[tt]))) {
					t.Fatalf("%s cuts=%v t=%d: merged %v vs plain %v", op, cuts, tt, got[tt], wantRow[tt])
				}
			}
		}
		_ = want.Delete()
	}
}

func TestAggregateRowsPartialMatchesEagerBitwise(t *testing.T) {
	e := NewEngine(Config{Servers: 1})
	defer e.Close()
	c := partialTestCube(t, e, 7, 5)
	for _, op := range []string{"sum", "avg", "max", "min", "std", "quantile"} {
		want, err := c.AggregateRows(op, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		row, _ := want.Row(0)
		p, err := c.AggregateRowsPartial(op, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		for tt := range row {
			if float32(p[tt]) != row[tt] {
				t.Fatalf("%s t=%d: partial %v rounds to %v, AggregateRows stored %v", op, tt, p[tt], float32(p[tt]), row[tt])
			}
		}
		_ = want.Delete()
	}
}

func TestMergeRowPartialsErrors(t *testing.T) {
	if _, err := MergeRowPartials("quantile", [][]float64{{1}}, []int{1}, nil); err == nil {
		t.Fatal("quantile has no decomposable merge; want error")
	}
	if _, err := MergeRowPartials("sum", [][]float64{{1, 2}, {3}}, []int{1, 1}, nil); err == nil {
		t.Fatal("ragged partials accepted")
	}
	if _, err := MergeRowPartials("sum", nil, nil, nil); err == nil {
		t.Fatal("empty partials accepted")
	}
}

func TestAggregateRowsPartialClosedEngine(t *testing.T) {
	e := NewEngine(Config{Servers: 1})
	c := partialTestCube(t, e, 4, 3)
	e.Close()
	if _, err := c.AggregateRowsPartial("sum"); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestGetDeleteNotFoundSentinel(t *testing.T) {
	e := NewEngine(Config{Servers: 1})
	defer e.Close()
	if _, err := e.Get("cube-404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: want ErrNotFound, got %v", err)
	}
	if err := e.Delete("cube-404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete: want ErrNotFound, got %v", err)
	}
}
