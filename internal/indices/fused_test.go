package indices

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datacube"
	"repro/internal/grid"
)

// These tests pin the fused index pipelines bit for bit against
// plain-Go per-cell references: loops over Values() that apply each
// index definition directly, rounding to float32 after every operator
// as a materialized cube would. The references share no code with the
// plan executor or the row-op registry, so two independent
// implementations are compared.

// requireCells checks a per-cell index cube (implicit length 1) against
// want(row), bit for bit.
func requireCells(t *testing.T, name string, got *datacube.Cube, want func(row int) float32) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil cube", name)
	}
	if got.ImplicitLen() != 1 {
		t.Fatalf("%s: implicit length %d, want 1", name, got.ImplicitLen())
	}
	for r, row := range got.Values() {
		if w := want(r); math.Float32bits(row[0]) != math.Float32bits(w) {
			t.Fatalf("%s: row %d: fused %v != reference %v", name, r, row[0], w)
		}
	}
}

// requireBitIdentical checks two cubes hold the same shape and bits.
func requireBitIdentical(t *testing.T, name string, got, want *datacube.Cube) {
	t.Helper()
	if got.Rows() != want.Rows() || got.ImplicitLen() != want.ImplicitLen() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows(), got.ImplicitLen(), want.Rows(), want.ImplicitLen())
	}
	wv := want.Values()
	for r, row := range got.Values() {
		for i, v := range row {
			if math.Float32bits(v) != math.Float32bits(wv[r][i]) {
				t.Fatalf("%s: row %d elem %d: %v != %v", name, r, i, v, wv[r][i])
			}
		}
	}
}

// refAnomaly is the shared wave/ETCCDI prefix: the daily extremum over
// steps sub-daily samples, minus the per-day baseline value.
func refAnomaly(temp, base []float32, steps int, hot bool) []float32 {
	out := make([]float32, len(base))
	for d := range out {
		ext := temp[d*steps]
		for _, v := range temp[d*steps+1 : (d+1)*steps] {
			if (hot && v > ext) || (!hot && v < ext) {
				ext = v
			}
		}
		out[d] = ext - base[d]
	}
	return out
}

// refRuns returns the lengths of the maximal runs of vals that satisfy
// in, in order.
func refRuns(vals []float32, in func(v float32) bool) []int {
	var runs []int
	cur := 0
	for _, v := range vals {
		if in(v) {
			cur++
			continue
		}
		if cur > 0 {
			runs = append(runs, cur)
		}
		cur = 0
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// refQualifying returns the number of runs at least minLen long and the
// days they cover.
func refQualifying(runs []int, minLen int) (n, days int) {
	for _, l := range runs {
		if l >= minLen {
			n++
			days += l
		}
	}
	return n, days
}

// refFraction is x/days evaluated like the "x/<days>" apply expression.
func refFraction(x, days int) float32 { return float32(float64(x) / float64(days)) }

// seededAnomaly returns a deterministic per-(row,day) anomaly stream
// with enough spread to trigger waves, quiet spells and dry runs.
func seededAnomaly(seed int64, rows, days int) func(row, day int) float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, rows*days)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 4
	}
	return func(row, day int) float64 { return vals[row*days+day] }
}

func TestWaveFusedMatchesEager(t *testing.T) {
	e := testEngine(t)
	g := smallGrid()
	const days = 20
	b, err := BuildBaseline(e, g, days)
	if err != nil {
		t.Fatal(err)
	}
	temp := syntheticTempCube(t, e, g, days, seededAnomaly(20260805, g.Size(), days))
	p := Params{ThresholdK: 3, MinDays: 3, DaysPerYear: days}.Defaults()
	tv := temp.Values()

	for _, tc := range []struct {
		name string
		hot  bool
		base *datacube.Cube
		run  func(p Params) (*Result, error)
	}{
		{"heat", true, b.TMax, func(p Params) (*Result, error) { return HeatWavesFromCube(temp, b, p) }},
		{"cold", false, b.TMin, func(p Params) (*Result, error) { return ColdWavesFromCube(temp, b, p) }},
	} {
		got, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bv := tc.base.Values()
		runs := make([][]int, len(tv))
		for r := range tv {
			anom := refAnomaly(tv[r], bv[r], p.StepsPerDay, tc.hot)
			runs[r] = refRuns(anom, func(v float32) bool {
				if tc.hot {
					return float64(v) > p.ThresholdK
				}
				return float64(v) < -p.ThresholdK
			})
		}
		requireCells(t, tc.name+"/duration", got.Duration, func(r int) float32 {
			longest := 0
			for _, l := range runs[r] {
				longest = max(longest, l)
			}
			if longest < p.MinDays {
				return 0
			}
			return float32(longest)
		})
		requireCells(t, tc.name+"/number", got.Number, func(r int) float32 {
			n, _ := refQualifying(runs[r], p.MinDays)
			return float32(n)
		})
		requireCells(t, tc.name+"/frequency", got.Frequency, func(r int) float32 {
			_, d := refQualifying(runs[r], p.MinDays)
			return refFraction(d, days)
		})
		for _, c := range []*datacube.Cube{got.Duration, got.Number, got.Frequency} {
			if m, ok := c.Meta("index"); !ok || m == "" {
				t.Fatalf("%s: fused cube missing index meta", tc.name)
			}
		}
	}
}

func TestETCCDIFusedMatchesEager(t *testing.T) {
	e := testEngine(t)
	g := smallGrid()
	const days = 20
	b, err := BuildPercentileBaseline(e, g, days, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	temp := syntheticTempCube(t, e, g, days, seededAnomaly(7, g.Size(), days))
	p := Params{MinDays: 3, DaysPerYear: days}.Defaults()

	got, err := ETCCDI(temp, b, p)
	if err != nil {
		t.Fatal(err)
	}
	tv := temp.Values()
	for _, side := range []struct {
		hot       bool
		pct       *datacube.Cube
		frac, sdi *datacube.Cube
		fn, sn    string
	}{
		{true, b.TX90, got.TX90p, got.WSDI, "TX90p", "WSDI"},
		{false, b.TN10, got.TN10p, got.CSDI, "TN10p", "CSDI"},
	} {
		pv := side.pct.Values()
		anoms := make([][]float32, len(tv))
		for r := range tv {
			anoms[r] = refAnomaly(tv[r], pv[r], p.StepsPerDay, side.hot)
		}
		beyond := func(v float32) bool {
			if side.hot {
				return v > 0
			}
			return v < 0
		}
		requireCells(t, side.fn, side.frac, func(r int) float32 {
			n := 0
			for _, v := range anoms[r] {
				if beyond(v) {
					n++
				}
			}
			return refFraction(n, days)
		})
		requireCells(t, side.sn, side.sdi, func(r int) float32 {
			_, d := refQualifying(refRuns(anoms[r], beyond), p.MinDays)
			return float32(d)
		})
	}
}

func TestPrecipFusedMatchesEager(t *testing.T) {
	e := testEngine(t)
	g := grid.Grid{NLat: 5, NLon: 7}
	const days = 24
	rng := rand.New(rand.NewSource(99))
	vals := make([]float32, g.Size()*days)
	for i := range vals {
		// mix of dry days and heavy rain so CDD and R95pTOT are non-trivial
		if rng.Float64() < 0.4 {
			vals[i] = float32(rng.Float64() * 0.9)
		} else {
			vals[i] = float32(rng.ExpFloat64() * 8)
		}
	}
	daily, err := e.NewCubeFromFunc("PR_DAILY",
		[]datacube.Dimension{{Name: "lat", Size: g.NLat}, {Name: "lon", Size: g.NLon}},
		datacube.Dimension{Name: "time", Size: days},
		func(row, d int) float32 { return vals[row*days+d] })
	if err != nil {
		t.Fatal(err)
	}
	p95v := func(row int) float32 { return 4 + float32(row%3) }
	p95, err := e.NewCubeFromFunc("PR95_CLIM",
		[]datacube.Dimension{{Name: "lat", Size: g.NLat}, {Name: "lon", Size: g.NLon}},
		datacube.Dimension{Name: "time", Size: days},
		func(row, _ int) float32 { return p95v(row) })
	if err != nil {
		t.Fatal(err)
	}

	cell := func(r int) []float32 { return vals[r*days : (r+1)*days] }
	prcptot := func(r int) float32 {
		var s float64
		for _, v := range cell(r) {
			s += float64(v)
		}
		return float32(s)
	}
	check := func(name string, got *PrecipResult) {
		requireCells(t, name+"PRCPTOT", got.PRCPTOT, prcptot)
		requireCells(t, name+"Rx1day", got.Rx1day, func(r int) float32 {
			m := cell(r)[0]
			for _, v := range cell(r) {
				m = max(m, v)
			}
			return m
		})
		requireCells(t, name+"CDD", got.CDD, func(r int) float32 {
			longest := 0
			for _, l := range refRuns(cell(r), func(v float32) bool { return float64(v) < WetDayThresholdMMDay }) {
				longest = max(longest, l)
			}
			return float32(longest)
		})
	}

	got, err := PrecipIndices(daily, p95)
	if err != nil {
		t.Fatal(err)
	}
	check("", got)
	requireCells(t, "R95pTOT", got.R95pTOT, func(r int) float32 {
		var s float64
		for _, v := range cell(r) {
			var mask float32
			if v-p95v(r) > 0 {
				mask = 1
			}
			s += float64(mask * v)
		}
		return float32(s)
	})

	// a nil baseline skips R95pTOT and leaves the other indices unchanged
	gotNo, err := PrecipIndices(daily, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotNo.R95pTOT != nil {
		t.Fatal("R95pTOT should be nil without a baseline")
	}
	check("no95/", gotNo)
}
