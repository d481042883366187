package core

import (
	"fmt"
	"sort"

	"repro/internal/esm"
	"repro/internal/indices"
	"repro/internal/stream"
)

// RunSequential executes the same analysis as Run but in the
// traditional two-stage fashion the paper contrasts against (§3):
// first the full ESM simulation runs to completion and writes all its
// output, then post-processing analyzes the stored files year by year
// "in a second stage using custom tools and scripts". No task runtime,
// no overlap between simulation and analytics — this is the baseline
// for the end-to-end time comparison (experiment C1). Both stages call
// the stage functions Run's tasks call; the wave step runs each side's
// Listing-1 chain as one fused pass over the imported year.
//
// The baseline runs its own model, so AttachOnly is an error: attaching
// would write synthetic output into the external producer's directory.
func RunSequential(cfg Config) (*Result, error) {
	if cfg.AttachOnly {
		return nil, fmt.Errorf("core: RunSequential runs its own model; AttachOnly is not supported")
	}
	cfg, engine, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer engine.Close()

	// Stage 1: the whole simulation.
	paths, err := runModel(cfg, esm.NewModel(cfg.esmConfig()))
	if err != nil {
		return nil, err
	}

	// Stage 2: post-processing of the stored output.
	batches := stream.NewYearBatcher(cfg.DaysPerYear, esm.YearOf).Add(paths...)
	if len(batches) != cfg.Years {
		return nil, fmt.Errorf("core: %d complete years on disk, want %d", len(batches), cfg.Years)
	}
	baseline, err := indices.BuildBaseline(engine, cfg.Grid, cfg.DaysPerYear)
	if err != nil {
		return nil, err
	}
	res := &Result{FilesProduced: len(paths)}
	for _, batch := range batches {
		temp, err := importYear(cfg, engine, batch)
		if err != nil {
			return nil, err
		}
		hw, err := indices.HeatWavesFromCube(temp, baseline, cfg.IndexParams)
		if err != nil {
			return nil, err
		}
		cw, err := indices.ColdWavesFromCube(temp, baseline, cfg.IndexParams)
		if err != nil {
			return nil, err
		}
		_ = temp.Delete()
		steps, err := loadTCYear(cfg, batch)
		if err != nil {
			return nil, err
		}
		dets, err := detectTC(cfg, steps)
		if err != nil {
			return nil, err
		}
		yr, err := storeYear(cfg, batch.Year, hw, cw, trackTC(cfg, batch.Year, steps, dets))
		if err != nil {
			return nil, err
		}
		res.Years = append(res.Years, yr)
	}
	sort.Slice(res.Years, func(i, j int) bool { return res.Years[i].Year < res.Years[j].Year })
	if res.FinalMapPath, err = finalMap(cfg, res.Years); err != nil {
		return nil, err
	}
	res.CubeStats = engine.Stats()
	return res, nil
}
