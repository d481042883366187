// Command climatewf runs the end-to-end climate extreme-events
// workflow (the paper's case study) locally: ESM simulation, streaming
// year detection, heat/cold-wave indices on the datacube engine,
// tropical-cyclone detection and map production.
//
// Usage:
//
//	climatewf -out ./results -years 2 -days 30 -grid reduced -scenario ssp585
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ml"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	var (
		out      = flag.String("out", "", "output directory (required)")
		years    = flag.Int("years", 1, "number of simulated years")
		start    = flag.Int("start", 2040, "first projection year")
		days     = flag.Int("days", 30, "days per simulated year (365 = full calendar)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		gridName = flag.String("grid", "reduced", "grid: reduced (48x96) | half (96x192) | native (768x1152)")
		scenario = flag.String("scenario", "historical", "forcing scenario: historical | ssp245 | ssp585")
		workers  = flag.Int("workers", 4, "task runtime worker slots")
		servers  = flag.Int("cubeservers", 4, "datacube I/O servers")
		seq      = flag.Bool("sequential", false, "run the two-stage baseline instead of the concurrent workflow")
		attach   = flag.String("attach", "", "attach to an external producer's model-output directory instead of running the ESM")
		diag     = flag.Bool("diag", false, "validate online diagnostics during the ESM run")
		dot      = flag.Bool("dot", false, "print the executed task graph as Graphviz DOT")
		tracePth = flag.String("trace", "", "write a Chrome trace_event timeline of the run to this JSON file (open in chrome://tracing or Perfetto)")
		tcmodel  = flag.String("tcmodel", "", "TC localizer model file: loaded when present, trained and saved otherwise (enables the CNN branch)")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *seq && *attach != "" {
		// the two-stage baseline runs its own model, which would write
		// into the external producer's directory
		fmt.Fprintln(os.Stderr, "climatewf: -sequential cannot be combined with -attach")
		flag.Usage()
		os.Exit(2)
	}

	g, ok := map[string]grid.Grid{
		"reduced": grid.Reduced,
		"half":    {NLat: 96, NLon: 192},
		"native":  grid.CMCCCM3,
	}[*gridName]
	if !ok {
		log.Fatalf("unknown grid %q", *gridName)
	}
	sc, ok := map[string]esm.Scenario{
		"historical": esm.Historical,
		"ssp245":     esm.SSP245,
		"ssp585":     esm.SSP585,
	}[*scenario]
	if !ok {
		log.Fatalf("unknown scenario %q", *scenario)
	}

	cfg := core.Config{
		Grid:              g,
		StartYear:         *start,
		Years:             *years,
		DaysPerYear:       *days,
		Seed:              *seed,
		Scenario:          sc,
		OutputDir:         *out,
		Workers:           *workers,
		CubeServers:       *servers,
		OnlineDiagnostics: *diag,
	}

	if *tcmodel != "" {
		loc, err := loadOrTrainLocalizer(*tcmodel, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Localizer = loc
	}

	var tracer *obs.Tracer
	if *tracePth != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}

	run := core.Run
	mode := "concurrent"
	if *attach != "" {
		cfg.AttachOnly = true
		cfg.ModelDir = *attach
		mode = "attached (external ESM producer at " + *attach + ")"
	}
	if *seq {
		run = core.RunSequential
		mode = "sequential (two-stage baseline)"
	}
	fmt.Printf("running %s workflow: %d year(s) × %d days on %dx%d, scenario %s\n",
		mode, *years, *days, g.NLat, g.NLon, sc)

	res, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation wrote %d daily files\n", res.FilesProduced)
	fmt.Printf("%-6s %14s %14s %10s %12s\n", "year", "hw/cell", "cw/cell", "tracks", "cnn dets")
	for _, yr := range res.Years {
		fmt.Printf("%-6d %14.4f %14.4f %10d %12d\n",
			yr.Year, yr.HWNumberMean, yr.CWNumberMean, yr.TrackerTracks, len(yr.CNNDetections))
	}
	fmt.Printf("final map: %s\n", res.FinalMapPath)
	fmt.Printf("engine: %d file reads, %d ops; runtime: %d tasks done\n",
		res.CubeStats.FileReads, res.CubeStats.Ops, res.RuntimeStats.Done)
	if *dot && res.GraphDOT != "" {
		fmt.Println(res.GraphDOT)
	}
	if tracer != nil {
		if err := writeTrace(*tracePth, tracer); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace timeline: %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracePth)
	}
}

// writeTrace dumps the recorded spans as a Chrome trace_event file.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tcPatch is the localizer patch size used by the CLI.
const tcPatch = 12

// loadOrTrainLocalizer loads a saved CNN, or trains one on seeded
// storms from independent simulated years and saves it (the paper's
// "pre-trained ML model(s)" step, automated).
func loadOrTrainLocalizer(path string, seed int64) (*ml.Localizer, error) {
	if net, err := ml.Load(path); err == nil {
		fmt.Printf("loaded TC localizer from %s (%d parameters)\n", path, net.ParamCount())
		return &ml.Localizer{Net: net, PatchH: tcPatch, PatchW: tcPatch}, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	fmt.Printf("training TC localizer (saved to %s afterwards)...\n", path)
	cfg := esm.Config{
		Grid: grid.Grid{NLat: 48, NLon: 96}, Years: 1, DaysPerYear: 30,
		Events: &esm.EventConfig{
			CyclonesPerYear: 6,
			WaveAmplitudeK:  8, WaveMinDays: 6, WaveMaxDays: 6,
		},
	}
	samples, err := ml.SamplesFromSimulations(cfg, []int64{seed + 11, seed + 12, seed + 13, seed + 14, seed + 15}, tcPatch, tcPatch)
	if err != nil {
		return nil, err
	}
	loc, err := ml.NewLocalizer(tcPatch, tcPatch, 7)
	if err != nil {
		return nil, err
	}
	losses, err := loc.Train(samples, ml.TrainConfig{Epochs: 5, BatchSize: 32, LR: 2e-3, Seed: 5, Balance: true})
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %d patches, loss %.4f -> %.4f\n", len(samples), losses[0], losses[len(losses)-1])
	if err := loc.Net.Save(path); err != nil {
		return nil, err
	}
	return loc, nil
}
