package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"sort"

	"repro/internal/compss"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/stream"
)

// workflow carries the wiring of one Run.
type workflow struct {
	cfg    Config
	rt     *compss.Runtime
	engine *datacube.Engine

	// task definitions; per-side arrays hold the heat-wave side (daily
	// maxima) at 0 and the cold-wave side (daily minima) at 1
	tESM, tMonitor, tImport *compss.TaskDef
	tBaseline, tAnomaly     [2]*compss.TaskDef
	tWave                   [2][3]*compss.TaskDef // [side][indices.WaveKind]
	tTCPre, tTCInf, tTCGeo  *compss.TaskDef
	tValidate, tFinal       *compss.TaskDef
}

// waveSides names each side's task kinds, heat waves first.
var waveSides = [2]struct {
	hot               bool
	baseline, anomaly string
	index             [3]string // by indices.WaveKind
}{
	{true, TaskLoadBaselineMax, TaskDailyMax, [3]string{TaskHWDuration, TaskHWNumber, TaskHWFrequency}},
	{false, TaskLoadBaselineMin, TaskDailyMin, [3]string{TaskCWDuration, TaskCWNumber, TaskCWFrequency}},
}

// Checkpointable task outputs cross the gob boundary as interface
// values, so every concrete type a non-ephemeral task emits must be
// registered. Cube-producing tasks are marked Ephemeral instead: their
// outputs are live in-memory pointers that cannot outlast the process.
func init() {
	gob.Register([]string(nil))
	gob.Register(stream.YearBatch{})
	gob.Register([]ml.Detection(nil))
	gob.Register(yearTC{})
	gob.Register(YearResult{})
}

// Run executes the end-to-end workflow and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg, engine, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	rt := compss.NewRuntime(compss.Config{
		Workers:      cfg.Workers,
		Checkpointer: cfg.Checkpointer,
		Injector:     cfg.Injector,
		Seed:         cfg.Seed,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
	})

	w := &workflow{cfg: cfg, rt: rt, engine: engine}
	if err := w.register(); err != nil {
		return nil, err
	}

	// #2/#3: the long-term climatology baselines, loaded once and kept
	// in memory for every year's pipelines (§5.3).
	var baseFuts [2]*compss.Future
	for side, t := range w.tBaseline {
		if baseFuts[side], err = rt.InvokeOne(t); err != nil {
			return nil, err
		}
	}

	// #1: the ESM simulation task, producing one file per day. In
	// attach mode an external producer owns the model; the workflow
	// only consumes its output stream.
	var esmFut *compss.Future
	if !cfg.AttachOnly {
		model := esm.NewModel(cfg.esmConfig())
		esmFut, err = rt.InvokeOne(w.tESM, compss.In(model))
		if err != nil {
			return nil, err
		}
	}

	// #4 feed: watch the model output directory and group complete
	// years, while the simulation is still running (§5.2).
	watcher, err := stream.NewDirWatcher(cfg.ModelDir, `\.nc$`)
	if err != nil {
		return nil, err
	}
	watcher.Start()
	batcher := stream.NewYearBatcher(cfg.DaysPerYear, esm.YearOf)

	var validateFuts []*compss.Future
	dispatched := 0
	checkedGrid := false
	for dispatched < cfg.Years {
		path, ok := watcher.Stream().Next()
		if !ok {
			break
		}
		if !checkedGrid {
			// especially in attach mode the producer's grid is not under
			// our control; fail with a clear message instead of letting a
			// shape mismatch surface deep inside a task
			if err := checkFileGrid(path, cfg.Grid); err != nil {
				watcher.Stop()
				rt.Abort(err.Error())
				_ = rt.Shutdown()
				return nil, err
			}
			checkedGrid = true
		}
		for _, batch := range batcher.Add(path) {
			vf, err := w.wireYear(batch, baseFuts)
			if err != nil {
				watcher.Stop()
				return nil, shutdownErr(rt, err)
			}
			validateFuts = append(validateFuts, vf)
			dispatched++
		}
	}
	watcher.Stop()
	if dispatched < cfg.Years {
		return nil, shutdownErr(rt, fmt.Errorf("core: only %d of %d years appeared in %s", dispatched, cfg.Years, cfg.ModelDir))
	}

	// Step 6: final maps over all validated years.
	finalParams := make([]compss.Param, 0, len(validateFuts))
	for _, f := range validateFuts {
		finalParams = append(finalParams, compss.In(f))
	}
	finalFut, err := rt.InvokeOne(w.tFinal, finalParams...)
	if err != nil {
		return nil, shutdownErr(rt, err)
	}

	if err := rt.Shutdown(); err != nil {
		return nil, err
	}

	// Assemble results.
	res := &Result{}
	if esmFut != nil {
		pathsAny, err := esmFut.Get()
		if err != nil {
			return nil, err
		}
		res.FilesProduced = len(pathsAny.([]string))
	} else {
		res.FilesProduced = cfg.Years * cfg.DaysPerYear
	}
	for _, vf := range validateFuts {
		v, err := vf.Get()
		if err != nil {
			return nil, err
		}
		yr := v.(YearResult)
		res.Years = append(res.Years, yr)
	}
	sort.Slice(res.Years, func(i, j int) bool { return res.Years[i].Year < res.Years[j].Year })
	fm, err := finalFut.Get()
	if err != nil {
		return nil, err
	}
	res.FinalMapPath = fm.(string)
	res.GraphDOT = rt.Graph().DOT("climate_extremes")
	res.CubeStats = engine.Stats()
	res.RuntimeStats = rt.Stats()

	// execution lineage: provenance document + Gantt quick look
	prov := rt.Provenance("climate-extremes")
	res.Gantt = prov.Gantt(72)
	res.ProvenancePath = fmt.Sprintf("%s/provenance.json", cfg.OutputDir)
	pf, err := os.Create(res.ProvenancePath)
	if err != nil {
		return nil, err
	}
	if err := prov.WriteJSON(pf); err != nil {
		pf.Close()
		return nil, err
	}
	if err := pf.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// shutdownErr drains the runtime and prefers its failure — which
// carries the root cause of an abort, e.g. chaos.ErrCrash on an
// injected crash — over the caller's invocation error.
func shutdownErr(rt *compss.Runtime, err error) error {
	if serr := rt.Shutdown(); serr != nil {
		return serr
	}
	return err
}

// one adapts a single-output stage call to a task's output slice.
func one[T any](v T, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	return []any{v}, nil
}

// register declares every task of Figures 2/3 on the runtime. Each
// task body unpacks its arguments and calls the stage function
// RunSequential calls too.
func (w *workflow) register() error {
	cfg := w.cfg
	engine := w.engine
	p := cfg.IndexParams
	var err error
	reg := func(def compss.TaskDef) *compss.TaskDef {
		if err != nil {
			return nil
		}
		if def.Retries == 0 {
			def.Retries = cfg.TaskRetries
		}
		if def.Timeout == 0 {
			def.Timeout = cfg.TaskTimeout
		}
		if def.Outputs == 0 {
			def.Outputs = 1
		}
		var d *compss.TaskDef
		d, err = w.rt.Register(def)
		return d
	}

	// #1 — the coupled model run, writing one file per simulated day.
	w.tESM = reg(compss.TaskDef{Name: TaskESMRun, Weight: 10, Fn: func(args []any) ([]any, error) {
		return one(runModel(cfg, args[0].(*esm.Model)))
	}})

	for side, s := range waveSides {
		// #2/#3 — climatology baseline of this side (historical daily
		// extrema).
		w.tBaseline[side] = reg(compss.TaskDef{Name: s.baseline, Ephemeral: true, Fn: func([]any) ([]any, error) {
			return one(indices.BaselineCube(engine, cfg.Grid, cfg.DaysPerYear, s.hot))
		}})
		// #6/#7 — daily extremum and anomaly against the resident
		// baseline, one fused pass: the daily-extremum intermediate never
		// materializes as a cube.
		w.tAnomaly[side] = reg(compss.TaskDef{Name: s.anomaly, Ephemeral: true, Fn: func(args []any) ([]any, error) {
			temp, baseline := args[0].(*datacube.Cube), args[1].(*datacube.Cube)
			return one(indices.DailyAnomaly(temp.Lazy(), baseline, s.hot, p).Execute())
		}})
		// #9..#14 — the wave indices of Listing 1.
		for kind, name := range s.index {
			w.tWave[side][kind] = reg(compss.TaskDef{Name: name, Ephemeral: true, Fn: func(args []any) ([]any, error) {
				anom := args[0].(*datacube.Cube)
				return one(indices.WaveIndex(anom.Lazy(), s.hot, indices.WaveKind(kind), p).Tolerance(p.Tolerance).Execute())
			}})
		}
	}

	// #4 — year-completeness detection (stream element passthrough).
	w.tMonitor = reg(compss.TaskDef{Name: TaskMonitorStream, Fn: func(args []any) ([]any, error) {
		batch := args[0].(stream.YearBatch)
		if len(batch.Files) != cfg.DaysPerYear {
			return nil, fmt.Errorf("core: year %d has %d files, want %d", batch.Year, len(batch.Files), cfg.DaysPerYear)
		}
		return []any{batch}, nil
	}})

	// #5 — import the year's temperature into an in-memory cube.
	w.tImport = reg(compss.TaskDef{Name: TaskImportYear, Ephemeral: true, Fn: func(args []any) ([]any, error) {
		return one(importYear(cfg, engine, args[0].(stream.YearBatch)))
	}})

	// #15 — TC pre-processing: read the dynamical fields per instant.
	// Ephemeral: outputs hold live per-instant field maps.
	w.tTCPre = reg(compss.TaskDef{Name: TaskTCPreprocess, Ephemeral: true, Fn: func(args []any) ([]any, error) {
		return one(loadTCYear(cfg, args[0].(stream.YearBatch)))
	}})

	// #16 — CNN inference over tiled, scaled patches.
	w.tTCInf = reg(compss.TaskDef{Name: TaskTCInference, Fn: func(args []any) ([]any, error) {
		return one(detectTC(cfg, args[0].([]stepFields)))
	}})

	// #17 — geo-referencing plus deterministic-tracker validation.
	w.tTCGeo = reg(compss.TaskDef{Name: TaskTCGeoreference, Fn: func(args []any) ([]any, error) {
		dets, _ := args[1].([]ml.Detection)
		return []any{trackTC(cfg, args[2].(int), args[0].([]stepFields), dets)}, nil
	}})

	// #8 — validation, storage and the intermediate per-year map; then
	// the year's intermediate cubes are freed.
	w.tValidate = reg(compss.TaskDef{Name: TaskValidateStore, Fn: func(args []any) ([]any, error) {
		cube := func(i int) *datacube.Cube { return args[i].(*datacube.Cube) }
		hw := &indices.Result{Duration: cube(1), Number: cube(2), Frequency: cube(3)}
		cw := &indices.Result{Duration: cube(4), Number: cube(5), Frequency: cube(6)}
		out, err := storeYear(cfg, args[0].(int), hw, cw, args[7].(yearTC))
		if err != nil {
			return nil, err
		}
		for i := 8; i < len(args); i++ {
			_ = cube(i).Delete()
		}
		return []any{out}, nil
	}})

	// Final maps across all years (step 6).
	w.tFinal = reg(compss.TaskDef{Name: TaskFinalMaps, Fn: func(args []any) ([]any, error) {
		var years []YearResult
		for _, a := range args {
			if yr, ok := a.(YearResult); ok {
				years = append(years, yr)
			}
		}
		return one(finalMap(cfg, years))
	}})
	return err
}

// wireYear builds the per-year sub-graph (#4..#17 plus #8) and returns
// the validate_store future.
func (w *workflow) wireYear(batch stream.YearBatch, baseline [2]*compss.Future) (*compss.Future, error) {
	rt := w.rt
	monitorFut, err := rt.InvokeOne(w.tMonitor, compss.In(batch))
	if err != nil {
		return nil, err
	}
	importFut, err := rt.InvokeOne(w.tImport, compss.In(monitorFut))
	if err != nil {
		return nil, err
	}
	var anom [2]*compss.Future
	for side, t := range w.tAnomaly {
		if anom[side], err = rt.InvokeOne(t, compss.In(importFut), compss.In(baseline[side])); err != nil {
			return nil, err
		}
	}
	validate := []compss.Param{compss.In(batch.Year)}
	for side, kinds := range w.tWave {
		for _, t := range kinds {
			f, err := rt.InvokeOne(t, compss.In(anom[side]))
			if err != nil {
				return nil, err
			}
			validate = append(validate, compss.In(f))
		}
	}
	tcPre, err := rt.InvokeOne(w.tTCPre, compss.In(monitorFut))
	if err != nil {
		return nil, err
	}
	tcInf, err := rt.InvokeOne(w.tTCInf, compss.In(tcPre))
	if err != nil {
		return nil, err
	}
	tcGeo, err := rt.InvokeOne(w.tTCGeo, compss.In(tcPre), compss.In(tcInf), compss.In(batch.Year))
	if err != nil {
		return nil, err
	}
	validate = append(validate, compss.In(tcGeo), compss.In(importFut), compss.In(anom[0]), compss.In(anom[1]))
	return rt.InvokeOne(w.tValidate, validate...)
}

// checkFileGrid verifies a daily model file matches the configured
// grid.
func checkFileGrid(path string, g grid.Grid) error {
	hdr, err := ncdf.ReadHeaderFile(path)
	if err != nil {
		return fmt.Errorf("core: reading %s: %w", path, err)
	}
	nlat, err := hdr.DimLen("lat")
	if err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	nlon, err := hdr.DimLen("lon")
	if err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	if nlat != g.NLat || nlon != g.NLon {
		return fmt.Errorf("core: model files are %dx%d but the workflow is configured for %dx%d — match -grid to the producer",
			nlat, nlon, g.NLat, g.NLon)
	}
	return nil
}
