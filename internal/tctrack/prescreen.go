package tctrack

import (
	"fmt"

	"repro/internal/datacube"
	"repro/internal/esm"
)

// This file adds a datacube-backed prescreen in front of the per-cell
// detection scan. Full detection visits every grid cell of every step
// with ring and neighbourhood stencils; a cyclone, however, is compact:
// the latitude stripe through its centre shows a pressure contrast
// (stripe mean minus stripe minimum) on the order of the ring
// depression, while the synoptic noise field is large-scale and smooth
// along longitude. The prescreen packs PSL stripe-major — one cube row
// per (step, latitude), longitudes on the implicit axis — computes the
// per-stripe min and mean in one fused two-output datacube pass, and
// runs the expensive stencil scan only on steps where some stripe's
// contrast clears the detection threshold minus a safety margin.
// Because the contrast plan is a plain datacube plan, it rides the
// engine's resolution pyramid: a declared Tolerance executes it
// coarse-first, and the gate is widened by the declared error bound so
// pruning stays conservative.

// Params configures the prescreen.
type Params struct {
	// Criteria are the detection thresholds used on candidate steps.
	Criteria Criteria
	// Tolerance is the per-value error bound granted to the stripe plan
	// (datacube.Plan.Tolerance). Zero keeps the prescreen exact: the
	// stripe pass is byte-identical to exact execution.
	Tolerance float64
	// MarginPa widens the candidate gate below MinDepressionPa to absorb
	// the gap between the ring-local mean (what detection compares
	// against) and the stripe mean (what the prescreen sees). Zero
	// selects DefaultMarginPa.
	MarginPa float64
}

// DefaultMarginPa is the default prescreen safety margin: the stripe
// mean tracks the ring mean to well within a couple hundred Pa under
// the simulator's synoptic noise.
const DefaultMarginPa = 200

// PrescreenResult is a tracked run plus prescreen accounting.
type PrescreenResult struct {
	// Tracks are the qualifying storm tracks, as RunModel would return.
	Tracks []*Track
	// StepsTotal is the number of model steps in the run; StepsScanned
	// the number that passed the prescreen and got the full stencil scan.
	StepsTotal, StepsScanned int
}

// Prescreen consumes the model like RunModel, but gates the per-cell
// detection scan on the datacube stripe prescreen executed on e.
func Prescreen(e *datacube.Engine, m *esm.Model, p Params) (*PrescreenResult, error) {
	if p.MarginPa == 0 {
		p.MarginPa = DefaultMarginPa
	}
	g := m.Config().Grid
	// Drain the model, keeping the day outputs for the candidate scan and
	// packing PSL stripe-major: row (step*NLat + i) holds latitude i of
	// model step, longitudes on the implicit axis. PSL fields are already
	// row-major lat×lon, so the packed buffer is a straight concatenation.
	var days []*esm.DayOutput
	var psl []float32
	for {
		d := m.StepDay()
		if d == nil {
			break
		}
		days = append(days, d)
		for s := 0; s < esm.StepsPerDay; s++ {
			f, err := d.Field(s, "PSL")
			if err != nil {
				return nil, err
			}
			psl = append(psl, f.Data...)
		}
	}
	res := &PrescreenResult{StepsTotal: len(days) * esm.StepsPerDay}
	if len(days) == 0 {
		res.Tracks = NewTracker().Finish()
		return res, nil
	}

	cube, err := e.NewCubeFromFunc("PSL_STRIPES",
		[]datacube.Dimension{{Name: "step", Size: res.StepsTotal}, {Name: "lat", Size: g.NLat}},
		datacube.Dimension{Name: "lon", Size: g.NLon},
		func(row, j int) float32 { return psl[row*g.NLon+j] })
	if err != nil {
		return nil, err
	}
	defer cube.Delete()
	outs, err := cube.Lazy().Tolerance(p.Tolerance).ExecuteBranches(
		datacube.Branch().Reduce("min"),
		datacube.Branch().Reduce("avg"),
	)
	if err != nil {
		return nil, err
	}
	mins, avgs := outs[0], outs[1]
	defer mins.Delete()
	defer avgs.Delete()
	minV, avgV := mins.Values(), avgs.Values()
	if len(minV) != res.StepsTotal*g.NLat {
		return nil, fmt.Errorf("tctrack: prescreen produced %d rows, want %d", len(minV), res.StepsTotal*g.NLat)
	}

	// Each reduced value carries at most Tolerance of error, so a stripe
	// contrast (avg - min) carries at most twice that; widen the gate.
	gate := p.Criteria.MinDepressionPa - p.MarginPa - 2*p.Tolerance
	tr := NewTracker()
	for step := 0; step < res.StepsTotal; step++ {
		contrast := 0.0
		for i := 0; i < g.NLat; i++ {
			r := step*g.NLat + i
			if c := float64(avgV[r][0]) - float64(minV[r][0]); c > contrast {
				contrast = c
			}
		}
		if contrast < gate {
			tr.Advance(nil) // no candidate: any open track closes, as with zero detections
			continue
		}
		res.StepsScanned++
		d := days[step/esm.StepsPerDay]
		dets, err := DetectStep(d, step%esm.StepsPerDay, p.Criteria)
		if err != nil {
			return nil, err
		}
		tr.Advance(dets)
	}
	res.Tracks = tr.Finish()
	return res, nil
}
