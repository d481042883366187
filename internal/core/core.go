// Package core implements the paper's case study end to end: the
// climate extreme-events workflow that couples the CMCC-CM3-like ESM
// simulation, Ophidia-like datacube analytics for heat/cold-wave
// indices, CNN-based tropical-cyclone localization with deterministic
// tracking validation, and map production — all orchestrated as a
// task graph on the PyCOMPSs-like runtime (Figures 2 and 3).
//
// The workflow follows the paper's §5.1 steps:
//
//  1. the ESM simulation task runs iteratively, producing one file per
//     simulated day;
//  2. concurrently, a streaming monitor detects each complete year of
//     files;
//  3. per year, analytics and ML tasks compute heat/cold-wave indices
//     and localize tropical cyclones;
//  4. results are validated and stored as NetCDF-like files, with
//     intermediate per-year maps;
//  5. final maps aggregate all years once simulation and processing
//     complete.
package core

import (
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/compss"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/tctrack"
	"repro/internal/texchange"
)

// Task kind names, numbered as in the paper's Figure 3. One graph node
// of each per-year kind exists per simulated year.
const (
	TaskESMRun          = "esm_run"           // #1 (blue)
	TaskLoadBaselineMax = "load_baseline_max" // #2
	TaskLoadBaselineMin = "load_baseline_min" // #3
	TaskMonitorStream   = "monitor_stream"    // #4 (red)
	TaskImportYear      = "import_year"       // #5
	TaskDailyMax        = "daily_tmax"        // #6
	TaskDailyMin        = "daily_tmin"        // #7
	TaskValidateStore   = "validate_store"    // #8
	TaskHWDuration      = "hw_duration"       // #9 (green)
	TaskHWNumber        = "hw_number"         // #10 (yellow)
	TaskHWFrequency     = "hw_frequency"      // #11 (red)
	TaskCWDuration      = "cw_duration"       // #12 (green)
	TaskCWNumber        = "cw_number"         // #13 (yellow)
	TaskCWFrequency     = "cw_frequency"      // #14 (red)
	TaskTCPreprocess    = "tc_preprocess"     // #15 (green)
	TaskTCInference     = "tc_inference"      // #16 (magenta)
	TaskTCGeoreference  = "tc_georeference"   // #17 (purple)
	TaskFinalMaps       = "final_maps"        // step 6 aggregation
)

// PerYearKinds lists the task kinds instantiated once per simulated
// year (Figure 3's repeated portion).
var PerYearKinds = []string{
	TaskMonitorStream, TaskImportYear, TaskDailyMax, TaskDailyMin,
	TaskValidateStore,
	TaskHWDuration, TaskHWNumber, TaskHWFrequency,
	TaskCWDuration, TaskCWNumber, TaskCWFrequency,
	TaskTCPreprocess, TaskTCInference, TaskTCGeoreference,
}

// Config parameterizes one workflow run.
type Config struct {
	// Grid is the model resolution; zero uses grid.Reduced.
	Grid grid.Grid
	// StartYear, Years, DaysPerYear, Seed and Scenario configure the
	// ESM (see esm.Config).
	StartYear   int
	Years       int
	DaysPerYear int
	Seed        int64
	Scenario    esm.Scenario
	// Events overrides the seeded extremes (nil = defaults).
	Events *esm.EventConfig
	// OutputDir receives result files and maps. Required.
	OutputDir string
	// ModelDir receives the daily model output; default
	// OutputDir/model_output.
	ModelDir string
	// Workers sizes the task runtime pool (default 4).
	Workers int
	// CubeServers sizes the datacube engine (default 4).
	CubeServers int
	// Localizer is the pre-trained TC CNN; nil disables the ML branch
	// (the deterministic tracker still runs).
	Localizer *ml.Localizer
	// TCThreshold is the CNN presence threshold (default 0.5).
	TCThreshold float64
	// ML configures the localizer's inference engine (batch size,
	// session-pool width, Reference escape hatch — see ml.Params). The
	// run's Metrics/Tracer are wired in unless ML sets its own.
	ML ml.Params
	// IndexParams overrides wave-index parameters; DaysPerYear and
	// StepsPerDay are always taken from the model configuration.
	IndexParams indices.Params
	// Checkpointer enables task-level checkpointing.
	Checkpointer compss.Checkpointer
	// Injector optionally injects deterministic faults into every task
	// attempt and checkpoint write (see internal/chaos). Nil disables
	// injection.
	Injector chaos.Injector
	// TaskRetries is the per-task retry budget applied to every task
	// definition that does not set its own (0 = no retries, matching the
	// pre-chaos behaviour).
	TaskRetries int
	// TaskTimeout bounds each task attempt's wall-clock time; a timed-out
	// attempt counts as a failed attempt. Zero disables deadlines.
	TaskTimeout time.Duration
	// Criteria configures the deterministic tracker (zero = defaults).
	Criteria tctrack.Criteria
	// ESMDayDelay models the wall-clock time the real coupled model
	// spends computing one day on its dedicated HPC allocation (§5.2:
	// projections "require several days up to a few months"). While the
	// simulation task waits, analysis tasks of completed years run —
	// the overlap the end-to-end integration buys. Zero disables it.
	ESMDayDelay time.Duration
	// FragmentLatency models the distributed datacube deployment's
	// per-fragment storage/network access time (datacube.Config).
	FragmentLatency time.Duration
	// OnlineDiagnostics enables the in-run validation the paper's §3
	// describes: every simulated day's global indicators are computed
	// and checked against plausibility bounds; a violation fails the
	// ESM task (and therefore the workflow) immediately instead of
	// letting a corrupted simulation burn its allocation.
	OnlineDiagnostics bool
	// Metrics, when set, registers the run's datacube and task-runtime
	// instruments on the shared observability registry (see
	// internal/obs); nil disables metric recording.
	Metrics *obs.Registry
	// Tracer, when set, records one span per task attempt so the run
	// can be exported as a Chrome trace timeline; nil disables tracing.
	Tracer *obs.Tracer
	// Exchange, when non-nil, routes daily model output through the
	// in-memory tensor exchange: the ESM task publishes each day's
	// variables as it writes the file, and the per-year consumers
	// (tc_preprocess, import_year) read the published tensors instead of
	// re-reading the files — the SmartSim-style in-memory handoff that
	// removes the file write→watch→read round-trip from the hot path.
	// Files are still written (they remain the durable record and the
	// fallback: a consumer that misses the exchange reads them), so
	// results are identical with or without an exchange. Ignored in
	// AttachOnly mode, where no in-process producer exists. The caller
	// owns the exchange's lifecycle (Close after the run).
	Exchange *texchange.Exchange
	// OnlineTrainer, when non-nil, closes the ML-in-the-loop gap: the
	// tc_georeference task feeds each processed year's field sets —
	// pseudo-labelled by the deterministic tracker — to the trainer,
	// which hot-swaps improved weights into Localizer while later years
	// are still simulating. Detections then depend on task timing, so
	// leave this nil for reproducibility-sensitive runs. The caller owns
	// the trainer's lifecycle (Close after the run).
	OnlineTrainer *ml.OnlineTrainer
	// AttachOnly skips the ESM task and instead watches ModelDir for
	// daily files written by an external producer (a real model run, or
	// esmgen in another process) — the decoupled operational deployment
	// where the analysis workflow "dynamically adapts to the number of
	// files produced by the ESM" (§6). The run completes after Years
	// complete years have appeared.
	AttachOnly bool
}

func (c Config) withDefaults() Config {
	if c.Grid.NLat == 0 {
		c.Grid = grid.Reduced
	}
	if c.StartYear == 0 {
		c.StartYear = 2040
	}
	if c.Years <= 0 {
		c.Years = 1
	}
	if c.DaysPerYear <= 0 {
		c.DaysPerYear = 365
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CubeServers <= 0 {
		c.CubeServers = 4
	}
	if c.TCThreshold == 0 {
		c.TCThreshold = 0.5
	}
	if c.ModelDir == "" {
		c.ModelDir = filepath.Join(c.OutputDir, "model_output")
	}
	if c.Criteria == (tctrack.Criteria{}) {
		c.Criteria = tctrack.DefaultCriteria()
	}
	c.IndexParams.DaysPerYear = c.DaysPerYear
	c.IndexParams.StepsPerDay = esm.StepsPerDay
	c.IndexParams = c.IndexParams.Defaults()
	if c.Localizer != nil {
		p := c.ML
		if p.Metrics == nil {
			p.Metrics = c.Metrics
		}
		if p.Tracer == nil {
			p.Tracer = c.Tracer
		}
		c.Localizer.Configure(p)
	}
	return c
}

func (c Config) esmConfig() esm.Config {
	return esm.Config{
		Grid:        c.Grid,
		StartYear:   c.StartYear,
		Years:       c.Years,
		DaysPerYear: c.DaysPerYear,
		Seed:        c.Seed,
		Scenario:    c.Scenario,
		Events:      c.Events,
	}
}

// IndexFiles are the exported NetCDF-like paths of one wave family for
// one year.
type IndexFiles struct {
	Duration  string
	Number    string
	Frequency string
}

// YearResult aggregates one simulated year's products.
type YearResult struct {
	Year int
	// HeatWave / ColdWave index file paths.
	HeatWave IndexFiles
	ColdWave IndexFiles
	// HWNumberMean is the spatial mean heat-wave count (quick-look
	// statistic used by examples and tests).
	HWNumberMean float64
	CWNumberMean float64
	// CNNDetections are the ML-localized TC instants of the year.
	CNNDetections []ml.Detection
	// TrackerTracks is the number of deterministic tracks found.
	TrackerTracks int
	// TrackerAgreementKm is the mean distance between each CNN
	// detection and the nearest deterministic track point of the same
	// year (negative when either side is empty) — the validation figure
	// the paper's §5.4 calls for.
	TrackerAgreementKm float64
	// MapPath is the intermediate per-year heat-wave-number map.
	MapPath string
}

// Result is the complete workflow outcome.
type Result struct {
	Years []YearResult
	// GraphDOT is the executed task graph in Graphviz format (Fig 3).
	GraphDOT string
	// FilesProduced counts daily model files written.
	FilesProduced int
	// FinalMapPath is the all-years aggregate heat-wave map (step 6).
	FinalMapPath string
	// CubeStats snapshots the datacube engine counters.
	CubeStats datacube.Stats
	// RuntimeStats snapshots the task runtime counters.
	RuntimeStats compss.Stats
	// ProvenancePath is the exported execution-lineage JSON document.
	ProvenancePath string
	// Gantt is an ASCII Gantt chart of the executed tasks, showing the
	// concurrency between the simulation and the per-year analytics.
	Gantt string
}

// resultOf finds the YearResult for a year.
func (r *Result) resultOf(year int) *YearResult {
	for i := range r.Years {
		if r.Years[i].Year == year {
			return &r.Years[i]
		}
	}
	return nil
}
