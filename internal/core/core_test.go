package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/obs"
)

// testConfig is a small but complete workflow configuration. One
// seeded heat wave, one cold spell and one cyclone per year keep every
// branch meaningful.
func testConfig(t *testing.T, years int) Config {
	t.Helper()
	return Config{
		Grid:        grid.Grid{NLat: 24, NLon: 48},
		StartYear:   2040,
		Years:       years,
		DaysPerYear: 12,
		Seed:        5,
		OutputDir:   t.TempDir(),
		Workers:     4,
		CubeServers: 2,
		Events: &esm.EventConfig{
			HeatWavesPerYear: 1, ColdSpellsPerYear: 1, CyclonesPerYear: 1,
			WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7,
		},
	}
}

func TestRunRequiresOutputDir(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing OutputDir accepted")
	}
	if _, err := RunSequential(Config{}); err == nil {
		t.Fatal("sequential missing OutputDir accepted")
	}
}

func TestRunSingleYearEndToEnd(t *testing.T) {
	cfg := testConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesProduced != cfg.DaysPerYear {
		t.Fatalf("files = %d, want %d", res.FilesProduced, cfg.DaysPerYear)
	}
	if len(res.Years) != 1 || res.Years[0].Year != 2040 {
		t.Fatalf("years = %+v", res.Years)
	}
	yr := res.Years[0]
	for _, p := range []string{
		yr.HeatWave.Duration, yr.HeatWave.Number, yr.HeatWave.Frequency,
		yr.ColdWave.Duration, yr.ColdWave.Number, yr.ColdWave.Frequency,
		yr.MapPath, res.FinalMapPath,
	} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
	}
	if res.RuntimeStats.Failed != 0 || res.RuntimeStats.Cancelled != 0 {
		t.Fatalf("runtime stats = %+v", res.RuntimeStats)
	}
	if _, err := os.Stat(res.ProvenancePath); err != nil {
		t.Fatalf("provenance missing: %v", err)
	}
	if !strings.Contains(res.Gantt, TaskESMRun) {
		t.Fatal("gantt missing the ESM task")
	}
	// expected node count: 3 global + 14 per year + final
	want := 3 + len(PerYearKinds) + 1
	if res.RuntimeStats.Invoked != want {
		t.Fatalf("invoked = %d, want %d", res.RuntimeStats.Invoked, want)
	}
}

// TestFig3GraphShape asserts the executed task graph reproduces the
// structure of the paper's Figure 3 for a single simulated year.
func TestFig3GraphShape(t *testing.T) {
	cfg := testConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dot := res.GraphDOT
	// every kind appears exactly once for one year
	for _, kind := range append([]string{TaskESMRun, TaskLoadBaselineMax, TaskLoadBaselineMin, TaskFinalMaps}, PerYearKinds...) {
		if n := strings.Count(dot, "\\n"+kind+"\""); n != 1 {
			t.Fatalf("kind %s appears %d times in DOT", kind, n)
		}
	}
	// key dependency edges, resolved through node IDs
	idOf := func(kind string) string {
		for _, line := range strings.Split(dot, "\n") {
			if strings.Contains(line, "\\n"+kind+"\"") {
				return strings.SplitN(strings.TrimSpace(line), " ", 2)[0]
			}
		}
		t.Fatalf("kind %s not in DOT", kind)
		return ""
	}
	edge := func(a, b string) bool {
		return strings.Contains(dot, "  "+idOf(a)+" -> "+idOf(b)+";")
	}
	for _, e := range [][2]string{
		{TaskMonitorStream, TaskImportYear},
		{TaskImportYear, TaskDailyMax},
		{TaskImportYear, TaskDailyMin},
		{TaskLoadBaselineMax, TaskDailyMax},
		{TaskLoadBaselineMin, TaskDailyMin},
		{TaskDailyMax, TaskHWDuration},
		{TaskDailyMax, TaskHWNumber},
		{TaskDailyMax, TaskHWFrequency},
		{TaskDailyMin, TaskCWDuration},
		{TaskDailyMin, TaskCWNumber},
		{TaskDailyMin, TaskCWFrequency},
		{TaskMonitorStream, TaskTCPreprocess},
		{TaskTCPreprocess, TaskTCInference},
		{TaskTCPreprocess, TaskTCGeoreference},
		{TaskTCInference, TaskTCGeoreference},
		{TaskHWDuration, TaskValidateStore},
		{TaskCWFrequency, TaskValidateStore},
		{TaskTCGeoreference, TaskValidateStore},
		{TaskValidateStore, TaskFinalMaps},
	} {
		if !edge(e[0], e[1]) {
			t.Fatalf("missing graph edge %s -> %s", e[0], e[1])
		}
	}
	// no direct edge from ESM to analytics: the stream decouples them
	if edge(TaskESMRun, TaskImportYear) {
		t.Fatal("ESM directly coupled to import, stream decoupling lost")
	}
}

func TestRunMultiYearGraphRepeats(t *testing.T) {
	cfg := testConfig(t, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Years) != 2 {
		t.Fatalf("years = %d", len(res.Years))
	}
	// per-year kinds appear twice, global kinds once (paper: "in case
	// of multiple years, the number of tasks would be repeated with the
	// exception of the first four ones")
	for _, kind := range PerYearKinds {
		if n := strings.Count(res.GraphDOT, "\\n"+kind+"\""); n != 2 {
			t.Fatalf("kind %s appears %d times, want 2", kind, n)
		}
	}
	for _, kind := range []string{TaskESMRun, TaskLoadBaselineMax, TaskLoadBaselineMin, TaskFinalMaps} {
		if n := strings.Count(res.GraphDOT, "\\n"+kind+"\""); n != 1 {
			t.Fatalf("kind %s appears %d times, want 1", kind, n)
		}
	}
	if res.Years[0].Year != 2040 || res.Years[1].Year != 2041 {
		t.Fatalf("year order: %+v", res.Years)
	}
}

// TestFig4HeatwaveMap verifies the seeded heat wave produces an
// elevated count at its center in the exported index and the map file
// exists (Figure 4's Heat Wave Number indicator).
func TestFig4HeatwaveMap(t *testing.T) {
	cfg := testConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	yr := res.Years[0]
	// find the seeded wave and verify the exported index at its center
	model := esm.NewModel(cfg.esmConfig())
	waves := model.GroundTruth().HeatWaves()
	if len(waves) != 1 {
		t.Fatalf("seeded waves = %d", len(waves))
	}
	w := waves[0]
	_, data, err := readIndexVariable(yr.HeatWave.Number, "heat_wave_number")
	if err != nil {
		t.Fatal(err)
	}
	ci, cj := cfg.Grid.CellOf(w.CenterLat, w.CenterLon)
	if got := data[cfg.Grid.Index(ci, cj)]; got < 1 {
		t.Fatalf("heat wave number at seeded center = %v, want >= 1", got)
	}
	// counts are mostly zero far away (localized indicator)
	fi, fj := cfg.Grid.CellOf(-w.CenterLat, w.CenterLon+180)
	if got := data[cfg.Grid.Index(fi, fj)]; got != 0 {
		t.Fatalf("antipodal heat wave count = %v, want 0", got)
	}
	// map is a valid PPM
	raw, err := os.ReadFile(yr.MapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "P6\n") {
		t.Fatal("map not a PPM")
	}
}

// TestSequentialMatchesConcurrentResults: the two-stage baseline and
// the concurrent workflow run the same stages, so with the same seed,
// the same seeded localizer and online diagnostics on, every exported
// index file and every per-year figure agree. The baseline also honours
// Tracer: its datacube engine records spans.
func TestSequentialMatchesConcurrentResults(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t, 1)
		loc, err := ml.NewLocalizer(12, 12, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Localizer = loc
		cfg.TCThreshold = 0.05
		cfg.OnlineDiagnostics = true
		return cfg
	}
	conc, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	tr := obs.NewTracer()
	cfg.Tracer = tr
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Years) != len(conc.Years) {
		t.Fatalf("year counts differ: %d vs %d", len(seq.Years), len(conc.Years))
	}
	a, b := conc.Years[0], seq.Years[0]
	// identical seeds → byte-identical index files (less the run-scoped
	// cube_id/provenance attributes canonicalOutput strips)
	for i, pa := range indexPaths(a) {
		if !bytes.Equal(canonicalOutput(t, pa), canonicalOutput(t, indexPaths(b)[i])) {
			t.Errorf("%s differs between the modes", indexNames[i])
		}
	}
	if a.HWNumberMean != b.HWNumberMean || a.CWNumberMean != b.CWNumberMean {
		t.Errorf("index means: (%v, %v) vs (%v, %v)", a.HWNumberMean, a.CWNumberMean, b.HWNumberMean, b.CWNumberMean)
	}
	if a.TrackerTracks != b.TrackerTracks || a.TrackerAgreementKm != b.TrackerAgreementKm {
		t.Errorf("tracker: (%d, %v) vs (%d, %v)", a.TrackerTracks, a.TrackerAgreementKm, b.TrackerTracks, b.TrackerAgreementKm)
	}
	if len(a.CNNDetections) == 0 {
		t.Fatal("concurrent run produced no detections; comparison vacuous")
	}
	if !reflect.DeepEqual(a.CNNDetections, b.CNNDetections) {
		t.Errorf("CNN detections differ: %d vs %d", len(a.CNNDetections), len(b.CNNDetections))
	}
	datacubeSpans := 0
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Name, "datacube.") {
			datacubeSpans++
		}
	}
	if datacubeSpans == 0 {
		t.Error("RunSequential with a Tracer recorded no datacube spans")
	}
}

func TestBaselineLoadedOnce(t *testing.T) {
	cfg := testConfig(t, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// engine file reads: one TREFHT import per daily file per year; the
	// baseline contributes zero reads and is reused across both years.
	wantReads := int64(cfg.Years * cfg.DaysPerYear)
	if res.CubeStats.FileReads != wantReads {
		t.Fatalf("file reads = %d, want %d (baseline must not be re-read)", res.CubeStats.FileReads, wantReads)
	}
}

func TestExportedIndexMetadata(t *testing.T) {
	cfg := testConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ncdf.ReadFile(res.Years[0].HeatWave.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attrs["year"].S != "2040" {
		t.Fatalf("year attr = %+v", ds.Attrs["year"])
	}
	v, err := ds.Var("heat_wave_duration")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Dims) != 2 || v.Dims[0] != "lat" || v.Dims[1] != "lon" {
		t.Fatalf("dims = %v", v.Dims)
	}
}

func TestAttachModeConsumesExternalProducer(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.AttachOnly = true
	if err := os.MkdirAll(cfg.OutputDir+"/model_output", 0o755); err != nil {
		t.Fatal(err)
	}
	cfg.ModelDir = cfg.OutputDir + "/model_output"

	// external producer: a separate goroutine running the same model,
	// trickling files out while the workflow is already attached
	done := make(chan error, 1)
	go func() {
		model := esm.NewModel(cfg.esmConfig())
		_, err := model.Run(esm.RunOptions{Dir: cfg.ModelDir, InterDayDelay: 2 * time.Millisecond})
		done <- err
	}()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(res.Years) != 1 || res.FilesProduced != cfg.DaysPerYear {
		t.Fatalf("attach result = %+v", res)
	}
	// no ESM task in the graph: the producer is external
	if strings.Contains(res.GraphDOT, "\\n"+TaskESMRun+"\"") {
		t.Fatal("attach mode still ran the ESM task")
	}
	// results match an owned run with the same seed
	owned, err := Run(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, av, err := readIndexVariable(res.Years[0].HeatWave.Number, "heat_wave_number")
	if err != nil {
		t.Fatal(err)
	}
	_, bv, err := readIndexVariable(owned.Years[0].HeatWave.Number, "heat_wave_number")
	if err != nil {
		t.Fatal(err)
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("attach vs owned mismatch at %d", i)
		}
	}
}

func TestWorkflowOnlineDiagnostics(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.OnlineDiagnostics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesProduced != cfg.DaysPerYear {
		t.Fatalf("files = %d", res.FilesProduced)
	}
}

func TestWorkflowWithLocalizerRunsMLBranch(t *testing.T) {
	cfg := testConfig(t, 1)
	loc, err := ml.NewLocalizer(12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Localizer = loc
	cfg.TCThreshold = 0.999 // untrained net: keep detections sparse
	// exercise the parallel engine sweep (chunked sessions) inside the
	// task graph — go test -race covers the pool
	cfg.ML = ml.Params{Workers: 3, MaxBatch: 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// the ML branch ran (detections may be empty at this threshold, but
	// the inference task must have completed)
	if res.RuntimeStats.Done != res.RuntimeStats.Invoked {
		t.Fatalf("stats = %+v", res.RuntimeStats)
	}
	if !loc.Compiled() {
		t.Fatal("workflow did not compile the inference engine")
	}
}

func TestWorkflowMLReferenceEscapeHatch(t *testing.T) {
	cfg := testConfig(t, 1)
	loc, err := ml.NewLocalizer(12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Localizer = loc
	cfg.TCThreshold = 0.999
	cfg.ML = ml.Params{Reference: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeStats.Done != res.RuntimeStats.Invoked {
		t.Fatalf("stats = %+v", res.RuntimeStats)
	}
	if loc.Compiled() {
		t.Fatal("reference mode still compiled an engine")
	}
}

func TestWorkflowTaskFailurePropagates(t *testing.T) {
	cfg := testConfig(t, 1)
	// a localizer whose patch exceeds the grid makes tc_inference fail;
	// the FailFast default must abort the workflow with a clear error
	loc, err := ml.NewLocalizer(30, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Grid = grid.Grid{NLat: 24, NLon: 48}
	cfg.Localizer = loc
	if _, err := Run(cfg); err == nil {
		t.Fatal("failing task did not abort the workflow")
	}
}

func TestWorkflowWithCheckpointRecovery(t *testing.T) {
	// checkpointing of unencodable cube pointers is skipped silently;
	// the workflow must still run fine with a checkpointer configured.
	cfg := testConfig(t, 1)
	ckpt := filepath.Join(t.TempDir(), "wf.ckpt")
	cp, err := openCkpt(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpointer = cp
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
