// Package indices computes the paper's climate extreme-event indices
// (§5.3) on top of the datacube engine: for heat waves and cold spells,
// per grid cell and year, (i) the longest wave duration, (ii) the
// number of waves and (iii) the frequency of yearly wave days.
//
// A heat wave is "a period of unusually hot weather that typically
// lasts six or more days" where "the maximum temperature must be 5 °C
// higher than the historical averages"; a cold wave is the mirror image
// on minimum temperature. The historical-average baseline is built once
// as an in-memory cube and reused across pipelines, the optimization
// the paper attributes to Ophidia's in-memory storage.
package indices

import (
	"fmt"

	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
)

func init() {
	// days_in_runs_above(threshold, minLen): total days belonging to
	// qualifying runs — the numerator of the frequency index.
	daysAbove := datacube.RowOp(func(row []float32, params []float64) float64 {
		th := paramAt(params, 0, 0)
		minLen := int(paramAt(params, 1, 1))
		total, cur := 0, 0
		flush := func() {
			if cur >= minLen {
				total += cur
			}
			cur = 0
		}
		for _, v := range row {
			if float64(v) > th {
				cur++
			} else {
				flush()
			}
		}
		flush()
		return float64(total)
	})
	daysBelow := datacube.RowOp(func(row []float32, params []float64) float64 {
		th := paramAt(params, 0, 0)
		minLen := int(paramAt(params, 1, 1))
		total, cur := 0, 0
		flush := func() {
			if cur >= minLen {
				total += cur
			}
			cur = 0
		}
		for _, v := range row {
			if float64(v) < th {
				cur++
			} else {
				flush()
			}
		}
		flush()
		return float64(total)
	})
	mustRegister("days_in_runs_above", daysAbove)
	mustRegister("days_in_runs_below", daysBelow)
	// Interval forms for coarse-first tolerant execution: raising any
	// sample can only lengthen/merge qualifying runs (and lowering only
	// shorten/split them), so days_in_runs_above is monotone per
	// coordinate and days_in_runs_below is its mirror.
	mustRegisterInterval("days_in_runs_above", datacube.MonotoneInterval(daysAbove))
	mustRegisterInterval("days_in_runs_below", datacube.AntitoneInterval(daysBelow))
}

func mustRegister(name string, op datacube.RowOp) {
	if err := datacube.RegisterRowOp(name, op); err != nil {
		panic(err)
	}
}

func mustRegisterInterval(name string, f datacube.RowIvalFunc) {
	if err := datacube.RegisterRowOpInterval(name, f); err != nil {
		panic(err)
	}
}

func paramAt(params []float64, i int, def float64) float64 {
	if i < len(params) {
		return params[i]
	}
	return def
}

// Params configures the index definitions.
type Params struct {
	// ThresholdK is the anomaly threshold; the paper uses 5 K.
	ThresholdK float64
	// MinDays is the minimum qualifying duration; the paper uses 6.
	MinDays int
	// StepsPerDay is the sub-daily sampling of the input (4 for the
	// 6-hourly ESM output); daily extrema are computed over it.
	StepsPerDay int
	// DaysPerYear is the length of one year of input in days.
	DaysPerYear int
	// Tolerance declares the absolute error accepted on each index
	// value, enabling coarse-first execution over the input cube's
	// resolution pyramid (datacube.Plan.Tolerance). Zero (the default)
	// keeps the results byte-identical to exact execution.
	Tolerance float64
}

// Defaults fills zero fields with the paper's definitions.
func (p Params) Defaults() Params {
	if p.ThresholdK == 0 {
		p.ThresholdK = 5
	}
	if p.MinDays == 0 {
		p.MinDays = 6
	}
	if p.StepsPerDay == 0 {
		p.StepsPerDay = esm.StepsPerDay
	}
	if p.DaysPerYear == 0 {
		p.DaysPerYear = 365
	}
	return p
}

// Baseline holds the long-term climatological daily-extreme cubes,
// loaded once and shared across yearly pipelines.
type Baseline struct {
	// TMax is the climatological daily-maximum temperature per cell.
	TMax *datacube.Cube
	// TMin is the climatological daily-minimum temperature per cell.
	TMin *datacube.Cube
	// Grid is the spatial layout of the rows.
	Grid grid.Grid
	// DaysPerYear is the implicit length of the baseline cubes.
	DaysPerYear int
}

// BuildBaseline materializes the climatology baseline from the
// simulator's known long-term means (the stand-in for "historical
// averages computed over a 20-year period"). Each cube has one row per
// grid cell and one value per day of year.
func BuildBaseline(e *datacube.Engine, g grid.Grid, daysPerYear int) (*Baseline, error) {
	tmax, err := BaselineCube(e, g, daysPerYear, true)
	if err != nil {
		return nil, err
	}
	tmin, err := BaselineCube(e, g, daysPerYear, false)
	if err != nil {
		return nil, err
	}
	return &Baseline{TMax: tmax, TMin: tmin, Grid: g, DaysPerYear: daysPerYear}, nil
}

// BaselineCube materializes one side of the climatology baseline: the
// daily-maximum cube (Baseline.TMax) when hot, the daily-minimum cube
// (Baseline.TMin) otherwise. A consumer of one side builds only that
// side.
func BaselineCube(e *datacube.Engine, g grid.Grid, daysPerYear int, hot bool) (*datacube.Cube, error) {
	measure, diurnal := "TMIN_CLIM", diurnalExtreme(false)
	if hot {
		measure, diurnal = "TMAX_CLIM", diurnalExtreme(true)
	}
	c, err := e.NewCubeFromFunc(measure,
		[]datacube.Dimension{{Name: "lat", Size: g.NLat}, {Name: "lon", Size: g.NLon}},
		datacube.Dimension{Name: "dayofyear", Size: daysPerYear},
		func(row, day int) float32 {
			i, j := g.RowCol(row)
			return float32(esm.Climatology(g, i, j, day, daysPerYear) + diurnal)
		})
	if err != nil {
		return nil, err
	}
	c.SetMeta("role", "baseline")
	return c, nil
}

// diurnalExtreme is the largest (hot) or smallest sub-daily anomaly of
// the modelled diurnal cycle.
func diurnalExtreme(hot bool) float64 {
	m := esm.DiurnalAnomaly(0)
	for s := 1; s < esm.StepsPerDay; s++ {
		if v := esm.DiurnalAnomaly(s); (hot && v > m) || (!hot && v < m) {
			m = v
		}
	}
	return m
}

// Result bundles the three index cubes of one pipeline run. Each cube
// has one row per grid cell and implicit length 1.
type Result struct {
	// Duration is the longest qualifying wave length in days (0 when no
	// wave occurred).
	Duration *datacube.Cube
	// Number is the count of qualifying waves.
	Number *datacube.Cube
	// Frequency is the fraction of the year spent in qualifying waves.
	Frequency *datacube.Cube
}

// HeatWavesFromCube runs the heat-wave pipeline on an already-imported
// temperature cube (rows = cells, implicit = StepsPerDay×DaysPerYear
// sub-daily samples), reusing the shared baseline.
func HeatWavesFromCube(temp *datacube.Cube, b *Baseline, p Params) (*Result, error) {
	p = p.Defaults()
	return wavePipeline(temp, b.TMax, p, true)
}

// ColdWavesFromCube runs the cold-spell pipeline (daily minima below
// baseline − threshold).
func ColdWavesFromCube(temp *datacube.Cube, b *Baseline, p Params) (*Result, error) {
	p = p.Defaults()
	return wavePipeline(temp, b.TMin, p, false)
}

// WaveKind selects one of the three per-wave indices of Listing 1.
type WaveKind int

const (
	WaveDuration  WaveKind = iota // longest qualifying wave, in days
	WaveNumber                    // count of qualifying waves
	WaveFrequency                 // share of the year spent in qualifying waves
)

// DailyAnomaly appends Listing 1's shared prefix to pl: the daily
// extremum over the sub-daily steps (maximum for heat waves, minimum
// for cold waves) minus the same side's climatological baseline.
// Every wave index reduces this per-cell daily anomaly.
func DailyAnomaly(pl *datacube.Plan, baseline *datacube.Cube, hot bool, p Params) *datacube.Plan {
	p = p.Defaults()
	extremum, _, _, _, _ := waveOps(hot, p)
	return pl.ReduceGroup(extremum, p.StepsPerDay).Intercube(baseline, "sub")
}

// WaveIndex appends one index branch of Listing 1 to pl, whose rows
// hold the daily anomaly DailyAnomaly computes: the longest run beyond
// the threshold (zeroed below MinDays), the number of qualifying runs,
// or the days in qualifying runs as a share of the year.
func WaveIndex(pl *datacube.Plan, hot bool, kind WaveKind, p Params) *datacube.Plan {
	p = p.Defaults()
	_, runOp, countOp, daysOp, th := waveOps(hot, p)
	switch kind {
	case WaveDuration:
		return pl.Reduce(runOp, th).Apply(fmt.Sprintf("x>=%d ? x : 0", p.MinDays))
	case WaveNumber:
		return pl.Reduce(countOp, th, float64(p.MinDays))
	case WaveFrequency:
		return pl.Reduce(daysOp, th, float64(p.MinDays)).Apply(fmt.Sprintf("x/%d", p.DaysPerYear))
	}
	panic(fmt.Sprintf("indices: unknown wave index kind %d", kind))
}

// wavePipeline runs Listing 1 as ONE fused multi-output pass: the
// shared daily-anomaly prefix is computed per row into scratch and the
// three index branches reduce it, so daily/anomaly intermediates never
// materialize as cubes.
func wavePipeline(temp *datacube.Cube, baseline *datacube.Cube, p Params, hot bool) (*Result, error) {
	if temp.ImplicitLen() != p.StepsPerDay*p.DaysPerYear {
		return nil, fmt.Errorf("indices: input has %d samples, want %d days × %d steps",
			temp.ImplicitLen(), p.DaysPerYear, p.StepsPerDay)
	}
	if baseline.ImplicitLen() != p.DaysPerYear {
		return nil, fmt.Errorf("indices: baseline has %d days, want %d", baseline.ImplicitLen(), p.DaysPerYear)
	}
	if temp.Rows() != baseline.Rows() {
		return nil, fmt.Errorf("indices: input rows %d != baseline rows %d", temp.Rows(), baseline.Rows())
	}
	outs, err := DailyAnomaly(temp.Lazy(), baseline, hot, p).
		Tolerance(p.Tolerance).
		ExecuteBranches(
			WaveIndex(datacube.Branch(), hot, WaveDuration, p),
			WaveIndex(datacube.Branch(), hot, WaveNumber, p),
			WaveIndex(datacube.Branch(), hot, WaveFrequency, p),
		)
	if err != nil {
		return nil, err
	}
	duration, number, frequency := outs[0], outs[1], outs[2]
	duration.SetMeta("index", indexName(hot, "duration"))
	number.SetMeta("index", indexName(hot, "number"))
	frequency.SetMeta("index", indexName(hot, "frequency"))
	return &Result{Duration: duration, Number: number, Frequency: frequency}, nil
}

// waveOps resolves the direction-dependent operator names.
func waveOps(hot bool, p Params) (extremum, runOp, countOp, daysOp string, th float64) {
	if hot {
		return "max", "longest_run_above", "count_runs_above", "days_in_runs_above", p.ThresholdK
	}
	return "min", "longest_run_below", "count_runs_below", "days_in_runs_below", -p.ThresholdK
}

func indexName(hot bool, kind string) string {
	if hot {
		return "heat_wave_" + kind
	}
	return "cold_wave_" + kind
}

// HeatWaves imports one year of daily ESM files (variable TREFHT) and
// runs the heat-wave pipeline.
func HeatWaves(e *datacube.Engine, files []string, b *Baseline, p Params) (*Result, error) {
	p = p.Defaults()
	temp, err := e.ImportFiles(files, "TREFHT", "time")
	if err != nil {
		return nil, err
	}
	defer temp.Delete()
	return HeatWavesFromCube(temp, b, p)
}

// ColdWaves imports one year of daily ESM files and runs the cold-spell
// pipeline.
func ColdWaves(e *datacube.Engine, files []string, b *Baseline, p Params) (*Result, error) {
	p = p.Defaults()
	temp, err := e.ImportFiles(files, "TREFHT", "time")
	if err != nil {
		return nil, err
	}
	defer temp.Delete()
	return ColdWavesFromCube(temp, b, p)
}

// CubeToField converts a per-cell index cube (implicit length 1, rows =
// NLat×NLon) into a renderable 2-D field.
func CubeToField(c *datacube.Cube, g grid.Grid) (*grid.Field, error) {
	if c.Rows() != g.Size() || c.ImplicitLen() != 1 {
		return nil, fmt.Errorf("indices: cube %dx%d does not match grid %dx%d",
			c.Rows(), c.ImplicitLen(), g.NLat, g.NLon)
	}
	f := grid.NewField(g)
	var buf [1]float32
	for r := 0; r < c.Rows(); r++ {
		if _, err := c.CopyRow(buf[:], r); err != nil {
			return nil, err
		}
		f.Data[r] = buf[0]
	}
	return f, nil
}

// Validate sanity-checks a result against hard invariants: durations
// within [0, daysPerYear], non-negative counts, frequencies in [0,1].
// It mirrors the workflow's step 5 ("the output of the analysis is then
// validated and stored on disk").
func Validate(r *Result, p Params) error {
	p = p.Defaults()
	checks := []struct {
		cube   *datacube.Cube
		lo, hi float64
		name   string
	}{
		{r.Duration, 0, float64(p.DaysPerYear), "duration"},
		{r.Number, 0, float64(p.DaysPerYear) / float64(p.MinDays), "number"},
		{r.Frequency, 0, 1, "frequency"},
	}
	var buf [1]float32
	for _, c := range checks {
		for rIdx := 0; rIdx < c.cube.Rows(); rIdx++ {
			if _, err := c.cube.CopyRow(buf[:], rIdx); err != nil {
				return err
			}
			v := float64(buf[0])
			if v < c.lo || v > c.hi {
				return fmt.Errorf("indices: %s[%d] = %v outside [%v,%v]", c.name, rIdx, v, c.lo, c.hi)
			}
		}
	}
	return nil
}
