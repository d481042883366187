// Command wfbench drives the quantitative experiments C1–C4 of
// DESIGN.md and prints their series, reproducing the *shape* of the
// paper's performance claims on the simulated substrate:
//
//	c1  concurrent end-to-end workflow vs the traditional two-stage
//	    run-then-analyze baseline (§5.1: "their integration ... can
//	    help in reducing the overall execution time")
//	c2  in-memory climatology baseline reuse vs re-importing it per
//	    pipeline (§5.3: "loaded only once ... reducing the number of
//	    read operations from storage")
//	c3  datacube operator scaling with the number of I/O servers
//	    (§4.2.2: "computing components can be scaled up")
//	c4  task-runtime parallelism and scheduling overhead (§4.2.1)
//
//	ens  initial-condition ensemble: concurrent member execution and
//	     cross-member index statistics (§3's ensemble workloads)
//	dist distributed multi-site execution with DLS data movement (§7
//	     future work): result equivalence + transfer accounting
//	soak replicated control-plane soak: concurrent HTTP clients vs N
//	     API replicas while chaos kills/restarts executors; verifies
//	     exactly-once completion and reports latency quantiles
//	     (DESIGN.md §13; not part of "all")
//	pyramid coarse-first tolerance frontier: heat-wave pipeline over
//	     the resolution pyramid at increasing declared tolerances,
//	     reporting walltime/cells/observed error (DESIGN.md §15)
//
// Usage: wfbench -exp c1|c2|c3|c4|ens|dist|pyramid|soak|all
//
// With -trace out.json, wfbench instead runs one full Figure-2
// workflow with span tracing attached and writes the timeline as a
// Chrome trace_event file (open in chrome://tracing or Perfetto).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/compss"
	"repro/internal/core"
	"repro/internal/cubecluster"
	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ncdf"
	"repro/internal/obs"
)

// useNet switches the C3 shard sweep from in-process transports to
// real cubeserver TCP replicas speaking v2 (multiplexed binary frames
// over a connection pool). poolSize is the per-replica pool.
var (
	useNet   bool
	poolSize int
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment: c1|c2|c3|c4|ens|dist|pyramid|soak|all")
	tracePath := flag.String("trace", "", "run one traced end-to-end workflow and write its Chrome trace JSON here (skips -exp)")
	netFlag := flag.Bool("net", false, "run the C3 shard sweep over real TCP cubeserver replicas instead of in-process transports")
	poolFlag := flag.Int("pool", cubecluster.DefaultPoolSize, "with -net: connections pooled per replica")
	flag.Parse()
	useNet = *netFlag
	poolSize = *poolFlag
	if *tracePath != "" {
		traceRun(*tracePath)
		return
	}
	switch *exp {
	case "c1":
		c1()
	case "c2":
		c2()
	case "c3":
		c3()
	case "c4":
		c4()
	case "ens":
		ens()
	case "dist":
		dist()
	case "pyramid":
		pyramid()
	case "soak":
		soak()
	case "all":
		c1()
		c2()
		c3()
		c4()
		ens()
		dist()
		pyramid()
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func tmpDir(prefix string) string {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		log.Fatal(err)
	}
	return dir
}

// traceRun executes one full Figure-2 workflow (simulation, streaming
// year detection, wave indices, TC branch, maps) with a span tracer
// attached and writes the Chrome trace timeline to path.
func traceRun(path string) {
	fmt.Println("=== traced end-to-end workflow run ===")
	tr := obs.NewTracer()
	cfg := core.Config{
		Grid:            grid.Grid{NLat: 32, NLon: 64},
		Years:           2,
		DaysPerYear:     20,
		Seed:            7,
		OutputDir:       tmpDir("trace-"),
		Workers:         6,
		CubeServers:     2,
		ESMDayDelay:     5 * time.Millisecond,
		FragmentLatency: time.Millisecond,
		Tracer:          tr,
		Events: &esm.EventConfig{
			HeatWavesPerYear: 2, ColdSpellsPerYear: 1, CyclonesPerYear: 2,
			WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 8,
		},
	}
	t0 := time.Now()
	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tasks done in %v; %d spans -> %s\n",
		res.RuntimeStats.Done, time.Since(t0).Round(time.Millisecond), len(tr.Spans()), path)
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
}

// c1: concurrent workflow vs sequential two-stage baseline. The ESM
// day delay models the coupled model computing on its own HPC
// allocation; the workflow host analyzes completed years while the
// model produces the next ones. The gain grows with the number of
// years whose analysis hides under the simulation (paper §5.1).
func c1() {
	fmt.Println("=== C1: end-to-end time, concurrent workflow vs two-stage baseline ===")
	fmt.Println("(ESM: 15ms per simulated day on its dedicated allocation;")
	fmt.Println(" datacube: 5ms storage latency per fragment access, 2 I/O servers)")
	fmt.Printf("%-7s %14s %14s %10s\n", "years", "sequential", "concurrent", "speedup")
	for _, years := range []int{1, 2, 4} {
		mk := func() core.Config {
			return core.Config{
				Grid:            grid.Grid{NLat: 32, NLon: 64},
				Years:           years,
				DaysPerYear:     20,
				Seed:            7,
				OutputDir:       tmpDir("c1-"),
				Workers:         6,
				CubeServers:     2,
				ESMDayDelay:     15 * time.Millisecond,
				FragmentLatency: 5 * time.Millisecond,
				Events: &esm.EventConfig{
					HeatWavesPerYear: 2, ColdSpellsPerYear: 1, CyclonesPerYear: 2,
					WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 8,
				},
			}
		}
		t0 := time.Now()
		if _, err := core.RunSequential(mk()); err != nil {
			log.Fatal(err)
		}
		seq := time.Since(t0)
		t0 = time.Now()
		if _, err := core.Run(mk()); err != nil {
			log.Fatal(err)
		}
		conc := time.Since(t0)
		fmt.Printf("%-7d %14v %14v %9.2fx\n", years, seq.Round(time.Millisecond), conc.Round(time.Millisecond), seq.Seconds()/conc.Seconds())
	}
	fmt.Println()
}

// c2: baseline reuse vs per-pipeline re-import.
func c2() {
	fmt.Println("=== C2: in-memory baseline reuse vs re-import per pipeline ===")
	g := grid.Grid{NLat: 32, NLon: 64}
	const days = 20
	modelDir := tmpDir("c2-model-")
	model := esm.NewModel(esm.Config{
		Grid: g, Years: 4, DaysPerYear: days, Seed: 7,
		Events: &esm.EventConfig{HeatWavesPerYear: 1, ColdSpellsPerYear: 1, WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7},
	})
	paths, err := model.Run(esm.RunOptions{Dir: modelDir})
	if err != nil {
		log.Fatal(err)
	}
	years := splitYears(paths, days)

	// materialize the baseline to disk once, so "re-import" has a real
	// storage cost
	prepEngine := datacube.NewEngine(datacube.Config{Servers: 4})
	b, err := indices.BuildBaseline(prepEngine, g, days)
	if err != nil {
		log.Fatal(err)
	}
	baseDir := tmpDir("c2-base-")
	if err := b.TMax.ExportFile(baseDir + "/tmax_clim.nc"); err != nil {
		log.Fatal(err)
	}
	if err := b.TMin.ExportFile(baseDir + "/tmin_clim.nc"); err != nil {
		log.Fatal(err)
	}
	prepEngine.Close()

	// Three data-management regimes:
	//   integrated — the end-to-end workflow: baseline and each year's
	//                temperature cube imported once, shared in memory by
	//                all six index pipelines (§5.3);
	//   partial    — baseline reloaded every year, year cube shared;
	//   scripts    — the pre-integration practice: six stand-alone index
	//                scripts per year, each loading the year files and
	//                the baseline from storage.
	params := indices.Params{DaysPerYear: days}
	loadBaseline := func(engine *datacube.Engine) *indices.Baseline {
		tmax, err := engine.ImportFile(baseDir+"/tmax_clim.nc", "TMAX_CLIM", "dayofyear")
		if err != nil {
			log.Fatal(err)
		}
		tmin, err := engine.ImportFile(baseDir+"/tmin_clim.nc", "TMIN_CLIM", "dayofyear")
		if err != nil {
			log.Fatal(err)
		}
		return &indices.Baseline{TMax: tmax, TMin: tmin, Grid: g, DaysPerYear: days}
	}
	freeResult := func(r *indices.Result) {
		_ = r.Duration.Delete()
		_ = r.Number.Delete()
		_ = r.Frequency.Delete()
	}
	freeBaseline := func(b *indices.Baseline) {
		_ = b.TMax.Delete()
		_ = b.TMin.Delete()
	}

	run := func(mode string) (int64, time.Duration) {
		engine := datacube.NewEngine(datacube.Config{Servers: 4})
		defer engine.Close()
		t0 := time.Now()
		switch mode {
		case "integrated":
			bl := loadBaseline(engine)
			for _, files := range years {
				temp, err := engine.ImportFiles(files, "TREFHT", "time")
				if err != nil {
					log.Fatal(err)
				}
				hw, err := indices.HeatWavesFromCube(temp, bl, params)
				if err != nil {
					log.Fatal(err)
				}
				cw, err := indices.ColdWavesFromCube(temp, bl, params)
				if err != nil {
					log.Fatal(err)
				}
				freeResult(hw)
				freeResult(cw)
				_ = temp.Delete()
			}
		case "partial":
			for _, files := range years {
				bl := loadBaseline(engine)
				temp, err := engine.ImportFiles(files, "TREFHT", "time")
				if err != nil {
					log.Fatal(err)
				}
				hw, err := indices.HeatWavesFromCube(temp, bl, params)
				if err != nil {
					log.Fatal(err)
				}
				cw, err := indices.ColdWavesFromCube(temp, bl, params)
				if err != nil {
					log.Fatal(err)
				}
				freeResult(hw)
				freeResult(cw)
				_ = temp.Delete()
				freeBaseline(bl)
			}
		case "scripts":
			for _, files := range years {
				// six independent scripts: each re-imports everything
				for script := 0; script < 6; script++ {
					bl := loadBaseline(engine)
					var r *indices.Result
					var err error
					if script < 3 {
						r, err = indices.HeatWaves(engine, files, bl, params)
					} else {
						r, err = indices.ColdWaves(engine, files, bl, params)
					}
					if err != nil {
						log.Fatal(err)
					}
					freeResult(r)
					freeBaseline(bl)
				}
			}
		}
		return engine.Stats().FileReads, time.Since(t0)
	}
	fmt.Printf("%-32s %12s %12s\n", "mode", "file reads", "time")
	var scriptReads, integratedReads int64
	for _, mode := range []string{"integrated", "partial", "scripts"} {
		reads, dt := run(mode)
		fmt.Printf("%-32s %12d %12v\n", label(mode), reads, dt.Round(time.Millisecond))
		if mode == "scripts" {
			scriptReads = reads
		}
		if mode == "integrated" {
			integratedReads = reads
		}
	}
	fmt.Printf("storage reads saved by integration: %d (%.0f%%)\n\n",
		scriptReads-integratedReads, 100*float64(scriptReads-integratedReads)/float64(scriptReads))
}

func label(mode string) string {
	switch mode {
	case "integrated":
		return "integrated workflow (reuse all)"
	case "partial":
		return "baseline reloaded per year"
	default:
		return "stand-alone scripts (no reuse)"
	}
}

func splitYears(paths []string, days int) [][]string {
	var out [][]string
	for i := 0; i+days <= len(paths); i += days {
		out = append(out, paths[i:i+days])
	}
	return out
}

// c3: datacube scaling with I/O servers. Each fragment access carries
// a 2 ms storage/network latency as on a real distributed deployment;
// latencies on distinct servers overlap, so operator time drops as
// servers are added (§4.2.2).
func c3() {
	fmt.Println("=== C3: datacube operator scaling with I/O servers ===")
	fmt.Println("(2ms simulated storage latency per fragment access, 32 fragments)")
	fmt.Printf("%-9s %-11s %14s %10s\n", "servers", "fragments", "pipeline time", "speedup")
	var base time.Duration
	for _, servers := range []int{1, 2, 4, 8} {
		const frags = 32
		engine := datacube.NewEngine(datacube.Config{
			Servers: servers, FragmentsPerCube: frags,
			FragmentLatency: 2 * time.Millisecond,
		})
		cube, err := engine.NewCubeFromFunc("m",
			[]datacube.Dimension{{Name: "cell", Size: 8192}},
			datacube.Dimension{Name: "time", Size: 128},
			func(row, t int) float32 { return float32(row%97) + float32(t%13) })
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < 3; i++ {
			masked, err := cube.Apply("x>50 ? x : 0")
			if err != nil {
				log.Fatal(err)
			}
			red, err := masked.Reduce("sum")
			if err != nil {
				log.Fatal(err)
			}
			_ = masked.Delete()
			_ = red.Delete()
		}
		dt := time.Since(t0)
		if servers == 1 {
			base = dt
		}
		fmt.Printf("%-9d %-11d %14v %9.2fx\n", servers, frags, dt.Round(time.Millisecond), base.Seconds()/dt.Seconds())
		engine.Close()
	}
	fmt.Println()
	c3Cluster()
}

// c3Cluster sweeps the same scaling axis across the sharded
// coordinator: the identical fused pipeline runs at 1/2/4/8 shards
// over one imported field, and the gather column shows that only
// reduced partials cross the wire at the aggrows barrier — the
// resident cube never moves after import.
func c3Cluster() {
	fmt.Println("--- C3 (cluster): shard scaling, fused scatter + partials-only gather ---")
	const lat, lon, steps = 1024, 8, 64
	const totalFrags = 32 // fragment size is fixed, so each shard holds 32/shards fragments
	cubeMB := float64(lat*lon*steps*4) / (1 << 20)
	mode := "in-process transports"
	if useNet {
		mode = "TCP cubeserver replicas"
	}
	fmt.Printf("(%d×%d×%d field, %.1f MB resident, %d fragments at 2ms storage latency; %s)\n",
		lat, lon, steps, cubeMB, totalFrags, mode)
	dir := tmpDir("c3cluster-")
	defer os.RemoveAll(dir)

	ds := ncdf.NewDataset()
	for _, d := range []struct {
		name string
		size int
	}{{"lat", lat}, {"lon", lon}, {"time", steps}} {
		if err := ds.AddDim(d.name, d.size); err != nil {
			log.Fatal(err)
		}
	}
	data := make([]float32, lat*lon*steps)
	for i := range data {
		data[i] = float32((i*7)%97) + float32((i*3)%13)
	}
	if _, err := ds.AddVar("T", []string{"lat", "lon", "time"}, data); err != nil {
		log.Fatal(err)
	}
	path := dir + "/field.nc"
	if err := ncdf.WriteFile(path, ds); err != nil {
		log.Fatal(err)
	}

	if useNet {
		fmt.Printf("v2 TCP replicas: multiplexed binary frames, %d pooled connections per replica\n", poolSize)
	}
	c3ClusterSweep(useNet, path, dir)
	fmt.Printf("(gathered/run counts barrier partials + shapes; the %.1f MB cube stays sharded)\n\n", cubeMB)
}

// c3ClusterSweep runs the 1/2/4/8-shard scaling sweep once, over
// in-process transports or, with net, over real TCP replicas — which
// adds measured wire bytes (from the servers' counters) and per-shard
// scatter/gather op latency quantiles to the table.
func c3ClusterSweep(net bool, path, spool string) {
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x>50 ? x : 0"},
		{Op: "reduce", RowOp: "sum"},
		{Op: "aggrows", RowOp: "avg"},
	}
	if net {
		fmt.Printf("%-8s %13s %9s %14s %13s %11s %11s %13s\n",
			"shards", "pipeline time", "speedup", "gathered/run", "wire-out/run", "shard-p50", "shard-p99", "bulk gather")
	} else {
		fmt.Printf("%-8s %14s %10s %16s\n", "shards", "pipeline time", "speedup", "gathered/run")
	}
	var base time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		cl, reg, cleanup := c3NewCluster(shards, 32/shards, spool, net)
		imp := cl.Dispatch(&cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
		if err := cubeserver.ResponseError(imp); err != nil {
			log.Fatal(err)
		}
		// The wire counters live server-side and count actual encoded
		// bytes; sample after import so the table shows steady-state
		// pipeline traffic only.
		wireOut := reg.CounterVec("cubeserver_wire_bytes_out_total", "bytes written to client connections", "codec").With("v2")
		w0 := wireOut.Value()
		lat0 := cl.ShardOpSnapshot()
		_, g0 := cl.BytesStats()
		const iters = 3
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			resp := cl.Dispatch(&cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
			if err := cubeserver.ResponseError(resp); err != nil {
				log.Fatal(err)
			}
			cl.Dispatch(&cubeserver.Request{Op: "delete", CubeID: resp.Shape.CubeID})
		}
		dt := time.Since(t0)
		_, g1 := cl.BytesStats()
		wireDelta := wireOut.Value() - w0
		if shards == 1 {
			base = dt
		}
		if net {
			p50, p99 := quantilesSince(lat0, cl.ShardOpSnapshot())
			// Bulk gather: pull the whole resident cube through the wire —
			// the raw-block payload path (pipeline gathers move only tiny
			// partials).
			tg := time.Now()
			vals := cl.Dispatch(&cubeserver.Request{Op: "values", CubeID: imp.Shape.CubeID})
			if err := cubeserver.ResponseError(vals); err != nil {
				log.Fatal(err)
			}
			var cells int
			for _, row := range vals.Values {
				cells += len(row)
			}
			gatherMBs := float64(cells) * 4 / (1 << 20) / time.Since(tg).Seconds()
			fmt.Printf("%-8d %13v %8.2fx %11.0f B %10.0f B %11s %11s %8.1f MB/s\n",
				shards, dt.Round(time.Millisecond), base.Seconds()/dt.Seconds(),
				(g1-g0)/iters, wireDelta/iters,
				time.Duration(p50*float64(time.Second)).Round(10*time.Microsecond),
				time.Duration(p99*float64(time.Second)).Round(10*time.Microsecond),
				gatherMBs)
		} else {
			fmt.Printf("%-8d %14v %9.2fx %13.0f B\n",
				shards, dt.Round(time.Millisecond), base.Seconds()/dt.Seconds(), (g1-g0)/iters)
		}
		cleanup()
	}
}

// quantilesSince subtracts an earlier merged shard-op snapshot from a
// later one and returns the p50/p99 of the ops in between.
func quantilesSince(before, after obs.HistogramSnapshot) (p50, p99 float64) {
	for i := range before.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	after.Count -= before.Count
	after.Sum -= before.Sum
	return after.Quantile(0.5), after.Quantile(0.99)
}

// c3NewCluster builds the sweep's cluster: in-process engines, or with
// net real TCP cubeserver replicas each behind a connection pool. The
// returned registry carries the
// servers' transport metrics and the coordinator's shard latency
// histograms. fragsPerShard keeps the global fragment count constant
// across sweep points, so a shard's simulated storage latency is
// proportional to the data it holds.
func c3NewCluster(shards, fragsPerShard int, spool string, net bool) (*cubecluster.Cluster, *obs.Registry, func()) {
	eng := datacube.Config{Servers: 1, FragmentsPerCube: fragsPerShard, FragmentLatency: 2 * time.Millisecond}
	reg := obs.NewRegistry()
	if !net {
		cl, err := cubecluster.NewLocal(cubecluster.Config{Shards: shards, Engine: eng, SpoolDir: spool, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		return cl, reg, func() { cl.Close() }
	}
	var closers []func()
	transports := make([][]cubecluster.Transport, shards)
	for s := 0; s < shards; s++ {
		engine := datacube.NewEngine(eng)
		srv, err := cubeserver.ServeDispatcher("127.0.0.1:0", cubeserver.EngineDispatcher(engine), reg)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := cubecluster.DialPoolTransport(srv.Addr(), poolSize)
		if err != nil {
			log.Fatal(err)
		}
		transports[s] = []cubecluster.Transport{tr}
		closers = append(closers, func() { srv.Close(); engine.Close() })
	}
	cl, err := cubecluster.New(cubecluster.Config{SpoolDir: spool, Metrics: reg}, transports)
	if err != nil {
		log.Fatal(err)
	}
	return cl, reg, func() {
		cl.Close()
		for _, c := range closers {
			c()
		}
	}
}

// c4: task-runtime parallelism and overhead. Tasks here model remote
// work (an HPC job, a datacube operator on other nodes): the local
// worker slot waits 2 ms per task, so independent tasks overlap across
// workers — the task-graph parallelism PyCOMPSs exploits (§4.2.1).
func c4() {
	fmt.Println("=== C4: task runtime parallelism (500 remote tasks, 2ms each) ===")
	fmt.Printf("%-9s %12s %10s\n", "workers", "makespan", "speedup")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		rt := compss.NewRuntime(compss.Config{Workers: workers})
		busy, err := rt.Register(compss.TaskDef{
			Name:    "remote",
			Outputs: 1,
			Fn: func(args []any) ([]any, error) {
				time.Sleep(2 * time.Millisecond)
				return []any{args[0]}, nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < 500; i++ {
			if _, err := rt.Invoke(busy, compss.In(i)); err != nil {
				log.Fatal(err)
			}
		}
		if err := rt.Shutdown(); err != nil {
			log.Fatal(err)
		}
		dt := time.Since(t0)
		if workers == 1 {
			base = dt
		}
		fmt.Printf("%-9d %12v %9.2fx\n", workers, dt.Round(time.Millisecond), base.Seconds()/dt.Seconds())
	}

	fmt.Println("\nscheduler overhead (10000 empty tasks):")
	rt := compss.NewRuntime(compss.Config{Workers: 4})
	nop, err := rt.Register(compss.TaskDef{
		Name:    "nop",
		Outputs: 0,
		Fn:      func([]any) ([]any, error) { return nil, nil },
	})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := rt.Invoke(nop); err != nil {
			log.Fatal(err)
		}
	}
	if err := rt.Shutdown(); err != nil {
		log.Fatal(err)
	}
	dt := time.Since(t0)
	fmt.Printf("  total %v, %.1f µs/task\n\n", dt.Round(time.Millisecond), float64(dt.Microseconds())/n)
}
