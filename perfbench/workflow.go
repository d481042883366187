package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/obs"
)

// The workflow workload: back-to-back core.Run calls of the Figure-2
// workflow on the reduced grid, file handoff, no modeled sleeps.
const (
	wfYears = 2
	wfDays  = 30
)

// wfLayers books each core task kind to its layer.
var wfLayers = map[string]string{
	core.TaskESMRun:          "esm",
	core.TaskLoadBaselineMax: "datacube.baseline",
	core.TaskLoadBaselineMin: "datacube.baseline",
	core.TaskMonitorStream:   "stream",
	core.TaskImportYear:      "datacube.import",
	core.TaskDailyMax:        "indices",
	core.TaskDailyMin:        "indices",
	core.TaskHWDuration:      "indices",
	core.TaskHWNumber:        "indices",
	core.TaskHWFrequency:     "indices",
	core.TaskCWDuration:      "indices",
	core.TaskCWNumber:        "indices",
	core.TaskCWFrequency:     "indices",
	core.TaskTCPreprocess:    "ncdf.tcread",
	core.TaskTCInference:     "ml.infer",
	core.TaskTCGeoreference:  "tctrack",
	core.TaskValidateStore:   "viz",
	core.TaskFinalMaps:       "viz",
}

type wfInstance struct {
	e    *env
	cfg  core.Config
	runs int
	// ref is the warm-up run's outcome, which every timed run of the
	// same seed must reproduce exactly.
	ref wfOutcome
}

// wfOutcome is the part of a run's result that must not vary between
// runs: year results without their (per-run) file paths, and each
// year's exported heat-wave-number field.
type wfOutcome struct {
	years    []core.YearResult
	hwNumber [][]float32
	files    int
}

func setupWorkflow(e *env) (instance, error) {
	loc, err := ml.NewLocalizer(12, 12, e.seed)
	if err != nil {
		return nil, err
	}
	w := &wfInstance{e: e, cfg: core.Config{
		Grid:        grid.Reduced,
		StartYear:   2040,
		Years:       wfYears,
		DaysPerYear: wfDays,
		Seed:        e.seed,
		Workers:     e.procs,
		CubeServers: e.procs,
		Localizer:   loc,
	}}
	// The warm-up run compiles the CNN engine, fills its session pool
	// and gives the reference outcome; its cost is set-up.
	out, _, err := w.runOnce(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("workflow warm-up: %w", err)
	}
	gt := esm.NewModel(esm.Config{
		Grid: w.cfg.Grid, StartYear: w.cfg.StartYear, Years: wfYears,
		DaysPerYear: wfDays, Seed: e.seed,
	}).GroundTruth()
	if err := checkHeatWaves(gt, w.cfg.Grid, w.cfg.StartYear, wfDays, out.hwNumber); err != nil {
		return nil, err
	}
	w.ref = out
	return w, nil
}

// runOnce runs the workflow once in a fresh directory and returns its
// outcome and wall time. Only core.Run is timed.
func (w *wfInstance) runOnce(tr *obs.Tracer, reg *obs.Registry) (wfOutcome, time.Duration, error) {
	w.runs++
	cfg := w.cfg
	cfg.OutputDir = filepath.Join(w.e.dir, "run-"+strconv.Itoa(w.runs))
	cfg.Tracer, cfg.Metrics = tr, reg
	defer os.RemoveAll(cfg.OutputDir)
	t0 := time.Now()
	res, err := core.Run(cfg)
	dt := time.Since(t0)
	if err != nil {
		return wfOutcome{}, dt, err
	}
	out := wfOutcome{files: res.FilesProduced}
	for _, y := range res.Years {
		ds, err := ncdf.ReadFile(y.HeatWave.Number)
		if err != nil {
			return out, dt, err
		}
		v, err := ds.Var("heat_wave_number")
		if err != nil {
			return out, dt, err
		}
		out.hwNumber = append(out.hwNumber, v.Data)
		y.HeatWave, y.ColdWave, y.MapPath = core.IndexFiles{}, core.IndexFiles{}, ""
		out.years = append(out.years, y)
	}
	return out, dt, nil
}

// checkHeatWaves asserts that each year's heat-wave number is raised at
// the centres of the heat waves the model seeded: their mean must
// exceed the field's mean, and at least one centre must hold a wave.
func checkHeatWaves(gt *esm.GroundTruth, g grid.Grid, startYear, days int, hwNumber [][]float32) error {
	for y, field := range hwNumber {
		var all float64
		for _, v := range field {
			all += float64(v)
		}
		all /= float64(len(field))
		var sum float64
		var n, hit int
		for _, wv := range gt.HeatWaves() {
			if wv.Year != startYear+y || wv.StartDay+wv.Days > days {
				continue
			}
			i, j := g.CellOf(wv.CenterLat, wv.CenterLon)
			v := float64(field[g.Index(i, j)])
			sum += v
			n++
			if v >= 1 {
				hit++
			}
		}
		if n == 0 {
			continue
		}
		if hit == 0 || sum/float64(n) <= all {
			return fmt.Errorf("year %d: heat-wave number at %d seeded centres (mean %.3g, %d with a wave) is not raised over the field mean %.3g",
				startYear+y, n, sum/float64(n), hit, all)
		}
	}
	return nil
}

func (w *wfInstance) measure(d time.Duration, tr *obs.Tracer) (*phase, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	p := &phase{}
	var walls time.Duration
	for walls < d {
		out, dt, err := w.runOnce(tr, reg)
		p.attempted++
		walls += dt
		switch {
		case err != nil:
			p.fail("run %d: %v", p.attempted, err)
			continue
		case out.files != wfYears*wfDays:
			p.fail("run %d: %d model files, want %d", p.attempted, out.files, wfYears*wfDays)
		case !reflect.DeepEqual(out.years, w.ref.years):
			p.fail("run %d: year results differ from the first run of this seed", p.attempted)
		case !reflect.DeepEqual(out.hwNumber, w.ref.hwNumber):
			p.fail("run %d: heat-wave number fields differ from the first run of this seed", p.attempted)
		default:
			p.work += wfYears * wfDays
		}
		p.latency = append(p.latency, ms(dt))
	}
	p.wall = walls
	if tr == nil {
		return p, nil
	}

	runs := float64(p.attempted)
	spans := tr.Spans()
	b := layerBreakdown(spans, func(name string) string { return wfLayers[name] })
	p.covered, p.table = b.covered, tableOf(b)
	var attempts time.Duration
	tasks := 0
	for _, sp := range spans {
		if sp.Name == "attempt" {
			attempts += sp.Duration()
		}
		if _, ok := wfLayers[sp.Name]; ok {
			tasks++
		}
	}
	snap := func(name string) float64 { return reg.Counter(name, "").Value() }
	p.layers = map[string]float64{
		"esm.share":             b.self["esm"].Seconds() / walls.Seconds(),
		"ml.patches":            snap("ml_infer_patches_total") / runs,
		"compss.tasks":          float64(tasks) / runs,
		"compss.idle_frac":      1 - attempts.Seconds()/(float64(w.cfg.Workers)*walls.Seconds()),
		"datacube.cells":        snap("datacube_cells_processed_total") / runs,
		"datacube.file_reads":   snap("datacube_file_reads_total") / runs,
		"datacube.fused_passes": snap("datacube_fused_passes_total") / runs,
	}
	for layer, self := range b.self {
		p.layers[layer+".busy_s"] = self.Seconds() / runs
	}
	return p, nil
}

func (w *wfInstance) close() {}
