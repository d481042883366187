package indices

import (
	"fmt"
	"math/rand"

	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
)

// This file implements the ETCCDI percentile-based extreme indices the
// paper cites for its wave definitions ("Indices of daily temperature
// and precipitation extremes", ref [31]): TX90p, TN10p, WSDI and CSDI.
// Unlike the fixed +5 K threshold of §5.3, these compare each day
// against a calendar-day percentile climatology estimated from a
// historical simulation period.

// mixSeed derives the per-year noise seed. The previous expression,
// seed ^ int64(year)*99991, degenerated to the raw seed for year 0 and
// left adjacent years correlated in the low bits; the SplitMix64
// finalizer scrambles every bit of both inputs.
func mixSeed(seed int64, year int) int64 {
	z := uint64(seed) + (uint64(year)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// yearNoise precomputes one historical year's AR(1) day-offset stream
// (coarse weather noise shared by all cells of that day). Computing it
// up front keeps all RNG use serial, which is what makes the
// fragment-parallel cube generator race-free.
func yearNoise(seed int64, year, daysPerYear int) []float64 {
	rng := rand.New(rand.NewSource(mixSeed(seed, year)))
	offsets := make([]float64, daysPerYear)
	for d := 1; d < daysPerYear; d++ {
		offsets[d] = 0.7*offsets[d-1] + rng.NormFloat64()*1.2
	}
	return offsets
}

// PercentileBaseline holds calendar-day percentile climatologies.
type PercentileBaseline struct {
	// TX90 is the 90th percentile of daily maximum temperature per cell
	// and day of year.
	TX90 *datacube.Cube
	// TN10 is the 10th percentile of daily minimum temperature.
	TN10 *datacube.Cube
	// Grid is the spatial layout; DaysPerYear the calendar length.
	Grid        grid.Grid
	DaysPerYear int
	// HistYears is the number of historical years the estimate used.
	HistYears int
}

// BuildPercentileBaseline estimates the percentile climatology by
// running histYears of the historical-scenario model (weather noise
// but no seeded events, the "20-year period" analogue) and reducing
// across years per calendar day with the quantile operator.
func BuildPercentileBaseline(e *datacube.Engine, g grid.Grid, daysPerYear, histYears int, seed int64) (*PercentileBaseline, error) {
	if histYears < 2 {
		return nil, fmt.Errorf("indices: need at least 2 historical years, got %d", histYears)
	}
	// Generate the historical daily extrema directly into year cubes.
	// Each year uses an independent deterministic noise stream,
	// precomputed serially by yearNoise: the generator closure handed to
	// NewCubeFromFunc runs concurrently across fragments on different
	// I/O servers and therefore must not touch a shared *rand.Rand.
	mkYear := func(year int, daily func(row, day int) float32) (*datacube.Cube, error) {
		offsets := yearNoise(seed, year, daysPerYear)
		return e.NewCubeFromFunc("hist",
			[]datacube.Dimension{{Name: "lat", Size: g.NLat}, {Name: "lon", Size: g.NLon}},
			datacube.Dimension{Name: "time", Size: daysPerYear},
			func(row, day int) float32 {
				return daily(row, day) + float32(offsets[day])
			})
	}

	build := func(q float64, extremum func(row, day int) float32, measure string) (*datacube.Cube, error) {
		var years []*datacube.Cube
		defer func() {
			for _, y := range years {
				_ = y.Delete()
			}
		}()
		for y := 0; y < histYears; y++ {
			c, err := mkYear(y, extremum)
			if err != nil {
				return nil, err
			}
			years = append(years, c)
		}
		stacked, err := e.Concat(years)
		if err != nil {
			return nil, err
		}
		defer stacked.Delete()
		pct, err := stacked.ReduceStride("quantile", daysPerYear, q)
		if err != nil {
			return nil, err
		}
		pct.SetMeasure(measure)
		pct.SetMeta("role", "percentile_baseline")
		pct.SetMeta("quantile", fmt.Sprintf("%g", q))
		return pct, nil
	}

	maxD := diurnalExtreme(true)
	tx90, err := build(0.9, func(row, day int) float32 {
		i, j := g.RowCol(row)
		return float32(esm.Climatology(g, i, j, day, daysPerYear) + maxD)
	}, "TX90_CLIM")
	if err != nil {
		return nil, err
	}
	minD := diurnalExtreme(false)
	tn10, err := build(0.1, func(row, day int) float32 {
		i, j := g.RowCol(row)
		return float32(esm.Climatology(g, i, j, day, daysPerYear) + minD)
	}, "TN10_CLIM")
	if err != nil {
		return nil, err
	}
	return &PercentileBaseline{TX90: tx90, TN10: tn10, Grid: g, DaysPerYear: daysPerYear, HistYears: histYears}, nil
}

// PercentileResult bundles the ETCCDI indices of one year.
type PercentileResult struct {
	// TX90p is the fraction of days with daily max above the 90th
	// percentile climatology (per cell).
	TX90p *datacube.Cube
	// TN10p is the fraction of days with daily min below the 10th
	// percentile climatology.
	TN10p *datacube.Cube
	// WSDI is the warm-spell duration index: days in spells of ≥6
	// consecutive days above the 90th percentile.
	WSDI *datacube.Cube
	// CSDI is the cold-spell duration index (mirror of WSDI).
	CSDI *datacube.Cube
}

// ETCCDI computes the percentile indices from a sub-daily temperature
// cube, following the standard definitions (6-day minimum spells). Like
// wavePipeline it runs each temperature side (warm vs TX90, cold vs
// TN10) as one fused two-output pass, with the daily-extremum/anomaly
// prefix kept in scratch.
func ETCCDI(temp *datacube.Cube, b *PercentileBaseline, p Params) (*PercentileResult, error) {
	p = p.Defaults()
	if temp.ImplicitLen() != p.StepsPerDay*p.DaysPerYear {
		return nil, fmt.Errorf("indices: input has %d samples, want %d days × %d steps",
			temp.ImplicitLen(), p.DaysPerYear, p.StepsPerDay)
	}
	if b.TX90.ImplicitLen() != p.DaysPerYear {
		return nil, fmt.Errorf("indices: percentile baseline has %d days, want %d", b.TX90.ImplicitLen(), p.DaysPerYear)
	}
	out := &PercentileResult{}
	side := func(extremum string, pct *datacube.Cube, countOp, runsOp string) (frac, sdi *datacube.Cube, err error) {
		outs, err := temp.Lazy().
			ReduceGroup(extremum, p.StepsPerDay).
			Intercube(pct, "sub").
			Tolerance(p.Tolerance).
			ExecuteBranches(
				datacube.Branch().Reduce(countOp, 0).Apply(fmt.Sprintf("x/%d", p.DaysPerYear)),
				datacube.Branch().Reduce(runsOp, 0, float64(p.MinDays)),
			)
		if err != nil {
			return nil, nil, err
		}
		return outs[0], outs[1], nil
	}
	var err error
	if out.TX90p, out.WSDI, err = side("max", b.TX90, "count_above", "days_in_runs_above"); err != nil {
		return nil, err
	}
	out.TX90p.SetMeta("index", "TX90p")
	out.WSDI.SetMeta("index", "WSDI")
	if out.TN10p, out.CSDI, err = side("min", b.TN10, "count_below", "days_in_runs_below"); err != nil {
		out.Delete()
		return nil, err
	}
	out.TN10p.SetMeta("index", "TN10p")
	out.CSDI.SetMeta("index", "CSDI")
	return out, nil
}

// Delete frees all result cubes.
func (r *PercentileResult) Delete() {
	for _, c := range []*datacube.Cube{r.TX90p, r.TN10p, r.WSDI, r.CSDI} {
		if c != nil {
			_ = c.Delete()
		}
	}
}
