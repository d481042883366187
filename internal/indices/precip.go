package indices

import (
	"fmt"

	"repro/internal/datacube"
	"repro/internal/esm"
)

// This file adds the ETCCDI precipitation extremes to the index suite:
// PRCPTOT (annual total), Rx1day (annual maximum 1-day precipitation),
// CDD (consecutive dry days) and R95pTOT (precipitation on very wet
// days, above the historical 95th wet-day percentile).

// WetDayThresholdMMDay is the ETCCDI wet-day definition (≥ 1 mm/day).
const WetDayThresholdMMDay = 1.0

// DailyPrecipFromFiles imports a year of daily model files and reduces
// the sub-daily PRECT samples to daily means [mm/day].
func DailyPrecipFromFiles(e *datacube.Engine, files []string, stepsPerDay int) (*datacube.Cube, error) {
	if stepsPerDay <= 0 {
		stepsPerDay = esm.StepsPerDay
	}
	pr, err := e.ImportFiles(files, "PRECT", "time")
	if err != nil {
		return nil, err
	}
	defer pr.Delete()
	return pr.ReduceGroup("avg", stepsPerDay)
}

// BuildPrecipBaseline estimates the per-cell, per-day-of-year 95th
// percentile of daily precipitation from histYears of the
// historical-scenario model (no seeded events), the base-period
// climatology R95pTOT compares against.
func BuildPrecipBaseline(e *datacube.Engine, base esm.Config, histYears int) (*datacube.Cube, error) {
	if histYears < 2 {
		return nil, fmt.Errorf("indices: need at least 2 historical years, got %d", histYears)
	}
	cfg := base
	cfg.Events = &esm.EventConfig{} // climatology must exclude seeded extremes
	cfg.Years = histYears
	model := esm.NewModel(cfg)
	mc := model.Config()
	cells := mc.Grid.Size()
	days := mc.DaysPerYear

	// daily-mean precipitation, year-major: buf[(y*days+d)*cells + cell]
	buf := make([]float32, histYears*days*cells)
	for y := 0; y < histYears; y++ {
		for d := 0; d < days; d++ {
			out := model.StepDay()
			if out == nil {
				return nil, fmt.Errorf("indices: model exhausted at year %d day %d", y, d)
			}
			base := (y*days + d) * cells
			for s := 0; s < esm.StepsPerDay; s++ {
				f, err := out.Field(s, "PRECT")
				if err != nil {
					return nil, err
				}
				for c := 0; c < cells; c++ {
					buf[base+c] += f.Data[c] / esm.StepsPerDay
				}
			}
		}
	}
	stacked, err := e.NewCubeFromFunc("PR_HIST",
		[]datacube.Dimension{{Name: "lat", Size: mc.Grid.NLat}, {Name: "lon", Size: mc.Grid.NLon}},
		datacube.Dimension{Name: "time", Size: histYears * days},
		func(row, t int) float32 { return buf[t*cells+row] })
	if err != nil {
		return nil, err
	}
	defer stacked.Delete()
	p95, err := stacked.ReduceStride("quantile", days, 0.95)
	if err != nil {
		return nil, err
	}
	p95.SetMeasure("PR95_CLIM")
	p95.SetMeta("role", "precip_baseline")
	return p95, nil
}

// PrecipResult bundles one year's precipitation indices (per cell,
// implicit length 1).
type PrecipResult struct {
	// PRCPTOT is the annual precipitation total [mm].
	PRCPTOT *datacube.Cube
	// Rx1day is the maximum 1-day precipitation [mm/day].
	Rx1day *datacube.Cube
	// CDD is the longest run of dry days (< 1 mm/day).
	CDD *datacube.Cube
	// R95pTOT is the total precipitation on days exceeding the
	// historical 95th percentile [mm]; nil when no baseline was given.
	R95pTOT *datacube.Cube
}

// Delete frees all result cubes.
func (r *PrecipResult) Delete() {
	for _, c := range []*datacube.Cube{r.PRCPTOT, r.Rx1day, r.CDD, r.R95pTOT} {
		if c != nil {
			_ = c.Delete()
		}
	}
}

// PrecipIndices computes the precipitation extremes from a daily-mean
// precipitation cube. p95 may be nil to skip R95pTOT. An optional
// tolerance enables coarse-first execution over the daily cube's
// resolution pyramid (datacube.Plan.Tolerance); omitted or zero keeps
// the results byte-identical to exact execution. The three
// unconditional reductions run as one fused three-output pass over
// daily, and R95pTOT as one fused linear chain (its mask/wet-day
// intermediates never materialize).
func PrecipIndices(daily *datacube.Cube, p95 *datacube.Cube, tolerance ...float64) (*PrecipResult, error) {
	var tol float64
	if len(tolerance) > 0 {
		tol = tolerance[0]
	}
	out := &PrecipResult{}
	outs, err := daily.Lazy().Tolerance(tol).ExecuteBranches(
		datacube.Branch().Reduce("sum"),
		datacube.Branch().Reduce("max"),
		datacube.Branch().Reduce("longest_run_below", WetDayThresholdMMDay),
	)
	if err != nil {
		return nil, err
	}
	out.PRCPTOT, out.Rx1day, out.CDD = outs[0], outs[1], outs[2]
	out.PRCPTOT.SetMeta("index", "PRCPTOT")
	out.Rx1day.SetMeta("index", "Rx1day")
	out.CDD.SetMeta("index", "CDD")

	if p95 != nil {
		if daily.ImplicitLen() != p95.ImplicitLen() {
			out.Delete()
			return nil, fmt.Errorf("indices: daily has %d days, baseline %d", daily.ImplicitLen(), p95.ImplicitLen())
		}
		// very-wet-day mask times precipitation, totaled — one fused chain
		if out.R95pTOT, err = daily.Lazy().
			Intercube(p95, "sub").
			Apply("x>0 ? 1 : 0").
			Intercube(daily, "mul").
			Reduce("sum").
			Tolerance(tol).
			Execute(); err != nil {
			out.Delete()
			return nil, err
		}
		out.R95pTOT.SetMeta("index", "R95pTOT")
	}
	return out, nil
}
