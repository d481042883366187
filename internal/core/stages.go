package core

// The per-year analysis of Figures 2/3, one plain function per stage.
// Run's task bodies are thin adapters over these functions and
// RunSequential calls them directly, year by year — the PyCOMPSs model
// of a task as a plain function that the runtime schedules or the
// caller invokes. The two modes therefore run the same analysis and
// differ only in how much of it overlaps the simulation.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/stream"
	"repro/internal/tctrack"
	"repro/internal/viz"
)

// stepFields is the per-instant field set the TC branch consumes.
type stepFields struct {
	Day, Step int
	Fields    map[string]*grid.Field
}

// yearTC is the TC branch output for one year.
type yearTC struct {
	Year        int
	Detections  []ml.Detection
	Tracks      int
	AgreementKm float64
}

// tcVars are the variables the TC branch reads from daily files.
var tcVars = []string{"PSL", "U850", "V850", "T500", "VORT850"}

// prepare applies the configuration defaults, creates the output
// directories and starts the run's datacube engine.
func prepare(cfg Config) (Config, *datacube.Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.OutputDir == "" {
		return cfg, nil, fmt.Errorf("core: OutputDir is required")
	}
	for _, dir := range []string{cfg.OutputDir, cfg.ModelDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return cfg, nil, err
		}
	}
	return cfg, datacube.NewEngine(datacube.Config{
		Servers:         cfg.CubeServers,
		FragmentLatency: cfg.FragmentLatency,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
	}), nil
}

// runModel is stage #1: the coupled model run, writing one file per
// simulated day, publishing each day into the exchange when one is
// configured and checking every day's diagnostics when
// OnlineDiagnostics is on.
func runModel(cfg Config, model *esm.Model) ([]string, error) {
	var diagErr error
	opts := esm.RunOptions{Dir: cfg.ModelDir, InterDayDelay: cfg.ESMDayDelay}
	if x := cfg.Exchange; x != nil {
		opts.OnDataset = func(_ string, d *esm.DayOutput, ds *ncdf.Dataset) error {
			return publishDay(x, d, ds)
		}
	}
	if cfg.OnlineDiagnostics {
		opts.OnDay = func(_ string, d *esm.DayOutput) {
			if diagErr != nil {
				return
			}
			diag, err := esm.Diagnose(d)
			if err == nil {
				err = esm.CheckDiagnostics(diag)
			}
			diagErr = err
		}
	}
	paths, err := model.Run(opts)
	if err != nil {
		return nil, err
	}
	if diagErr != nil {
		return nil, fmt.Errorf("core: online diagnostics: %w", diagErr)
	}
	return paths, nil
}

// useExchange reports whether the per-year consumers read the
// in-process model's published tensors; an external producer publishes
// nothing.
func (c Config) useExchange() bool { return c.Exchange != nil && !c.AttachOnly }

// importYear is stage #5: the year's temperature as a cube, from the
// exchange when it holds the year and from the daily files otherwise
// (any exchange miss: the files hold the same bytes).
func importYear(cfg Config, engine *datacube.Engine, batch stream.YearBatch) (*datacube.Cube, error) {
	if cfg.useExchange() {
		if cube, err := importYearExchange(engine, cfg.Exchange, batch, cfg.Grid); err == nil {
			return cube, nil
		}
	}
	return engine.ImportFiles(batch.Files, "TREFHT", "time")
}

// loadTCYear is stage #15: the TC branch's per-instant field sets.
func loadTCYear(cfg Config, batch stream.YearBatch) ([]stepFields, error) {
	if cfg.useExchange() {
		return loadTCFieldsExchange(cfg.Exchange, batch.Files, cfg.Grid)
	}
	return loadTCFields(batch.Files, cfg.Grid)
}

// detectTC is stage #16: CNN inference over tiled, scaled patches at
// the every-second-step cadence. Nil Localizer: no detections.
func detectTC(cfg Config, steps []stepFields) ([]ml.Detection, error) {
	local := cfg.Localizer
	if local == nil {
		return nil, nil
	}
	// the compiled engine is safe to share across concurrent years (each
	// sweep borrows pooled sessions); only the reference layer path keeps
	// per-goroutine state and needs its own network instance
	if !local.Compiled() {
		net, err := local.Net.Clone()
		if err != nil {
			return nil, err
		}
		local = &ml.Localizer{Net: net, PatchH: local.PatchH, PatchW: local.PatchW}
		local.Configure(ml.Params{Reference: true})
	}
	var dets []ml.Detection
	for _, sf := range steps {
		if sf.Step%2 != 0 {
			continue // inference cadence: every second step
		}
		d, err := local.DetectFields(sf.Fields, cfg.Grid, cfg.TCThreshold)
		if err != nil {
			return nil, err
		}
		dets = append(dets, d...)
	}
	return dets, nil
}

// trackTC is stage #17: deterministic tracking over the year, the
// validation of the CNN detections against it, and the online-trainer
// feed.
func trackTC(cfg Config, year int, steps []stepFields, dets []ml.Detection) yearTC {
	tracker := tctrack.NewTracker()
	for _, sf := range steps {
		cand := tctrack.DetectFields(sf.Fields["PSL"], sf.Fields["VORT850"], sf.Fields["T500"], sf.Day, sf.Step, cfg.Criteria)
		tracker.Advance(cand)
		// Close the ML loop: feed the deterministic detections as
		// pseudo-labels so the trainer improves the localizer on exactly
		// the data the simulation is producing. Inference cadence (even
		// steps) keeps training and inference inputs aligned; a full
		// queue just drops the step.
		if tr := cfg.OnlineTrainer; tr != nil && sf.Step%2 == 0 {
			centers := make([]ml.Center, 0, len(cand))
			for _, c := range cand {
				ci, cj := cfg.Grid.CellOf(c.Lat, c.Lon)
				centers = append(centers, ml.Center{Row: ci, Col: cj})
			}
			tr.Feed(sf.Fields, centers)
		}
	}
	tracks := tracker.Finish()
	return yearTC{Year: year, Detections: dets, Tracks: len(tracks), AgreementKm: agreement(dets, tracks)}
}

// storeYear is stage #8: validate the six index cubes, export them as
// NetCDF-like files, compute the quick-look means, render the
// intermediate per-year map (Figure 4) and free the index cubes —
// the results live on disk now.
func storeYear(cfg Config, year int, hw, cw *indices.Result, tc yearTC) (YearResult, error) {
	out := YearResult{Year: year, CNNDetections: tc.Detections, TrackerTracks: tc.Tracks, TrackerAgreementKm: tc.AgreementKm}
	for _, r := range []*indices.Result{hw, cw} {
		if err := indices.Validate(r, cfg.IndexParams); err != nil {
			return out, err
		}
	}
	exports := []struct {
		cube *datacube.Cube
		name string
		dst  *string
	}{
		{hw.Duration, "heat_wave_duration", &out.HeatWave.Duration},
		{hw.Number, "heat_wave_number", &out.HeatWave.Number},
		{hw.Frequency, "heat_wave_frequency", &out.HeatWave.Frequency},
		{cw.Duration, "cold_wave_duration", &out.ColdWave.Duration},
		{cw.Number, "cold_wave_number", &out.ColdWave.Number},
		{cw.Frequency, "cold_wave_frequency", &out.ColdWave.Frequency},
	}
	var err error
	for _, e := range exports {
		if *e.dst, err = exportIndex(e.cube, cfg.OutputDir, e.name, year); err != nil {
			return out, err
		}
	}
	if out.HWNumberMean, err = cubeMean(hw.Number); err != nil {
		return out, err
	}
	if out.CWNumberMean, err = cubeMean(cw.Number); err != nil {
		return out, err
	}
	field, err := indices.CubeToField(hw.Number, cfg.Grid)
	if err != nil {
		return out, err
	}
	out.MapPath = fmt.Sprintf("%s/heat_wave_number_%d.ppm", cfg.OutputDir, year)
	if err := viz.WritePPM(out.MapPath, field, 0, 0, viz.Heat); err != nil {
		return out, err
	}
	for _, e := range exports {
		_ = e.cube.Delete()
	}
	return out, nil
}

// finalMap is step 6: the all-years aggregate heat-wave-number map.
func finalMap(cfg Config, years []YearResult) (string, error) {
	if len(years) == 0 {
		return "", fmt.Errorf("core: no validated years for final map")
	}
	total := grid.NewField(cfg.Grid)
	for _, yr := range years {
		f, err := fieldFromIndexFile(yr.HeatWave.Number, "heat_wave_number", cfg.Grid)
		if err != nil {
			return "", err
		}
		for i := range total.Data {
			total.Data[i] += f.Data[i]
		}
	}
	path := fmt.Sprintf("%s/heat_wave_number_all_years.ppm", cfg.OutputDir)
	if err := viz.WritePPM(path, total, 0, 0, viz.Heat); err != nil {
		return "", err
	}
	return path, nil
}

// cubeMean computes the spatial mean of a per-cell index cube.
func cubeMean(c *datacube.Cube) (float64, error) {
	agg, err := c.AggregateRows("avg")
	if err != nil {
		return 0, err
	}
	defer agg.Delete()
	red, err := agg.Reduce("avg")
	if err != nil {
		return 0, err
	}
	defer red.Delete()
	return red.Scalar()
}

// exportIndex writes one index cube to the output directory under the
// index's own variable name.
func exportIndex(c *datacube.Cube, dir, name string, year int) (string, error) {
	c.SetMeasure(name)
	c.SetMeta("index", name)
	c.SetMeta("year", fmt.Sprint(year))
	path := filepath.Join(dir, fmt.Sprintf("%s_%d.nc", name, year))
	if err := c.ExportFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// readIndexVariable reads one exported index file's payload.
func readIndexVariable(path, varName string) (*ncdf.Dataset, []float32, error) {
	ds, v, err := ncdf.ReadVariableFile(path, varName)
	if err != nil {
		return nil, nil, err
	}
	return ds, v.Data, nil
}

// fieldFromIndexFile loads an exported per-cell index file as a field.
func fieldFromIndexFile(path, varName string, g grid.Grid) (*grid.Field, error) {
	_, v, err := readIndexVariable(path, varName)
	if err != nil {
		return nil, err
	}
	if len(v) != g.Size() {
		return nil, fmt.Errorf("core: index file %s has %d cells, grid wants %d", path, len(v), g.Size())
	}
	f := grid.NewField(g)
	copy(f.Data, v)
	return f, nil
}

// loadTCFields reads the TC branch variables from the year's files.
func loadTCFields(files []string, g grid.Grid) ([]stepFields, error) {
	var out []stepFields
	for _, path := range files {
		_, dayOfYear, ok := esm.ParseFileName(path)
		if !ok {
			return nil, fmt.Errorf("core: unparseable model file %q", path)
		}
		perVar, err := readDayVars(path)
		if err != nil {
			return nil, err
		}
		steps, err := dayStepFields(perVar, g, dayOfYear)
		if err != nil {
			return nil, err
		}
		out = append(out, steps...)
	}
	sortStepFields(out)
	return out, nil
}

// readDayVars reads one daily file's TC variables.
func readDayVars(path string) (map[string][]float32, error) {
	perVar := make(map[string][]float32, len(tcVars))
	for _, v := range tcVars {
		_, vv, err := ncdf.ReadVariableFile(path, v)
		if err != nil {
			return nil, err
		}
		perVar[v] = vv.Data
	}
	return perVar, nil
}

// dayStepFields slices one day's step-major variable arrays into
// per-instant field sets, deriving the wind-speed channel. The source
// arrays are only read — exchange tensors stay intact for other
// consumers.
func dayStepFields(perVar map[string][]float32, g grid.Grid, dayOfYear int) ([]stepFields, error) {
	size := g.Size()
	out := make([]stepFields, 0, esm.StepsPerDay)
	for _, v := range tcVars {
		if len(perVar[v]) != esm.StepsPerDay*size {
			return nil, fmt.Errorf("core: day %d variable %s holds %d values, want %d", dayOfYear, v, len(perVar[v]), esm.StepsPerDay*size)
		}
	}
	for s := 0; s < esm.StepsPerDay; s++ {
		fields := make(map[string]*grid.Field, len(tcVars)+1)
		for _, v := range tcVars {
			f := grid.NewField(g)
			copy(f.Data, perVar[v][s*size:(s+1)*size])
			fields[v] = f
		}
		// derived wind speed channel for the CNN
		w := grid.NewField(g)
		u, vv := fields["U850"], fields["V850"]
		for i := range w.Data {
			w.Data[i] = float32(math.Hypot(float64(u.Data[i]), float64(vv.Data[i])))
		}
		fields["WSPD"] = w
		out = append(out, stepFields{Day: dayOfYear, Step: s, Fields: fields})
	}
	return out, nil
}

func sortStepFields(out []stepFields) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Day != out[j].Day {
			return out[i].Day < out[j].Day
		}
		return out[i].Step < out[j].Step
	})
}

// agreement is the mean distance from each CNN detection to the
// nearest deterministic track point; -1 when either side is empty.
func agreement(dets []ml.Detection, tracks []*tctrack.Track) float64 {
	if len(dets) == 0 || len(tracks) == 0 {
		return -1
	}
	var sum float64
	for _, d := range dets {
		best := math.Inf(1)
		for _, t := range tracks {
			for _, p := range t.Points {
				if dist := grid.Haversine(d.Lat, d.Lon, p.Lat, p.Lon); dist < best {
					best = dist
				}
			}
		}
		sum += best
	}
	return sum / float64(len(dets))
}
