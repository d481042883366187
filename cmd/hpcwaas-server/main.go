// Command hpcwaas-server runs the HPCWaaS REST service with the
// climate-extremes workflow pre-registered, so the whole case study is
// drivable with curl:
//
//	hpcwaas-server -addr :8700 -workers 4 -queue-depth 64 &
//	curl localhost:8700/api/workflows
//	curl -X POST localhost:8700/api/workflows/climate-extremes/deploy -d '{"target":"zeus"}'
//	curl -X POST localhost:8700/api/executions \
//	     -d '{"workflow":"climate-extremes","params":{"years":"1","days_per_year":"12"}}'
//	curl localhost:8700/api/executions/task-1
//	curl localhost:8700/api/store
//	curl -X DELETE localhost:8700/api/executions/task-1
//
// Every execution lives in one epoch-fenced execution store
// (internal/execstore) served by -replicas stateless API replicas
// (default 1); replica i listens on the -addr port + i, embeds an
// executor with -workers slots, and answers for any execution. All
// replicas share one deployer, so a deployment made through any of them
// unlocks submissions on all. Admission sheds answer 503 when capacity
// is the bottleneck (-queue-depth, -max-wait, draining) and 429 when the
// tenant is (-quota, -rate), both with Retry-After and a precise
// retry_after_ms. -journal persists pending work across restarts, and
// SIGINT/SIGTERM stop intake, finish the backlog (up to -drain-timeout)
// and exit.
//
// GET /metrics serves the Prometheus text exposition of the whole
// stack — store depth, shed counters and latency histograms, per-task-
// kind runtime counters, datacube operator timings, federation
// transfer/breaker state. -debug-addr additionally serves net/http/pprof
// on a separate loopback listener for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/compss"
	"repro/internal/core"
	"repro/internal/datacube"
	"repro/internal/dls"
	"repro/internal/esm"
	"repro/internal/execstore"
	"repro/internal/grid"
	"repro/internal/hpcwaas"
	"repro/internal/imagebuilder"
	"repro/internal/multisite"
	"repro/internal/obs"
	"repro/internal/tosca"
)

func main() {
	log.SetFlags(0)
	var (
		addr       = flag.String("addr", "127.0.0.1:8700", "listen address of replica 0; replica i listens on this port + i")
		work       = flag.String("work", "", "working directory (default: temp)")
		workers    = flag.Int("workers", 4, "executor slots per replica")
		queueDepth = flag.Int("queue-depth", 256, "max pending executions before 503")
		quota      = flag.Int("quota", 0, "per-principal live-execution quota before 429 (0 = off)")
		rate       = flag.Float64("rate", 0, "per-principal executions/sec token-bucket rate before 429 (0 = off)")
		retention  = flag.Int("retention", 1024, "completed execution records to retain")
		journal    = flag.String("journal", "", "journal file for crash recovery (default: off)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight executions on shutdown")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; default: off)")
		replicas   = flag.Int("replicas", 1, "API replicas over the shared execution store")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "work-lease TTL; a dead replica's tasks are reclaimed after this")
		maxWait    = flag.Duration("max-wait", 0, "shed submissions with 503 once their estimated queue wait exceeds this (0 = off)")
	)
	flag.Parse()
	*replicas = max(*replicas, 1)

	workDir := *work
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "hpcwaas-server-")
		if err != nil {
			log.Fatal(err)
		}
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		log.Fatalf("-addr %q: %v", *addr, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatalf("-addr %q: need a numeric port: %v", *addr, err)
	}

	// One registry carries the whole stack's instruments: the store's
	// execstore_* families, plus the workflow-runtime, datacube,
	// federation and DLS families, primed here so GET /metrics shows the
	// complete surface from the first scrape.
	metrics := obs.NewRegistry()
	compss.PrimeMetrics(metrics)
	datacube.PrimeMetrics(metrics)
	multisite.PrimeMetrics(metrics)
	dls.PrimeMetrics(metrics)

	registry := hpcwaas.NewRegistry()
	if err := registry.Register(hpcwaas.Entry{
		Name:        "climate-extremes",
		Version:     "1.0",
		Description: "extreme events analysis on ESM projection data (paper case study)",
		Topology:    tosca.ClimateTopology("zeus"),
		App:         app(workDir, metrics),
	}); err != nil {
		log.Fatal(err)
	}

	deployer := hpcwaas.NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"})
	catalogDir := filepath.Join(workDir, "catalog")
	os.MkdirAll(catalogDir, 0o755)
	os.WriteFile(filepath.Join(catalogDir, "climatology.nc"), []byte("20y baseline"), 0o644)
	deployer.DLS.Catalog.Register(dls.Dataset{Name: "climatology", Root: catalogDir, Files: []string{"climatology.nc"}})
	deployer.Pipelines["stage-in-climatology"] = dls.Pipeline{
		Name:  "stage-in-climatology",
		Steps: []dls.Step{{Kind: "stage_in", Dataset: "climatology", Dir: filepath.Join(workDir, "staged")}},
	}

	store, err := execstore.Open(execstore.Config{
		MaxPending:       *queueDepth,
		PerTenantLimit:   *quota,
		RatePerSec:       *rate,
		MaxEstimatedWait: *maxWait,
		LeaseTTL:         *leaseTTL,
		Retention:        *retention,
		JournalPath:      *journal,
		Metrics:          metrics,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		// The pprof mux is http.DefaultServeMux (registered by the
		// net/http/pprof import); keep it on its own listener so
		// profiling endpoints never share the API's address.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	servers := make([]*http.Server, *replicas)
	fronts := make([]*hpcwaas.Frontend, *replicas)
	errCh := make(chan error, *replicas)
	for i := range fronts {
		f, err := hpcwaas.NewFrontend(hpcwaas.FrontendConfig{
			ID:       fmt.Sprintf("replica-%d", i),
			Store:    store,
			Registry: registry,
			Deployer: deployer,
			Workers:  *workers,
			Metrics:  metrics,
		})
		if err != nil {
			log.Fatal(err)
		}
		fronts[i] = f
		replicaAddr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
		srv := &http.Server{Addr: replicaAddr, Handler: f.Handler()}
		servers[i] = srv
		go func() { errCh <- srv.ListenAndServe() }()
		fmt.Printf("HPCWaaS replica %d on http://%s (workdir %s, %d workers, depth %d, lease TTL %s)\n",
			i, replicaAddr, workDir, *workers, *queueDepth, *leaseTTL)
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-sigCtx.Done():
	}

	// Graceful shutdown: stop listening and intake, let the executors
	// finish the backlog, then stop them and close the store.
	log.Printf("signal received: draining %d replica(s) (up to %s)", *replicas, *drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	for i, srv := range servers {
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("replica %d http shutdown: %v", i, err)
		}
	}
	store.Drain()
	if err := store.WaitIdle(ctx); err != nil {
		log.Printf("store drain incomplete: %v", err)
	}
	for i, f := range fronts {
		if err := f.Drain(ctx); err != nil {
			log.Printf("replica %d drain: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("store close: %v", err)
	}
	log.Printf("shutdown complete")
}

func app(workDir string, metrics *obs.Registry) hpcwaas.AppFunc {
	return func(params map[string]string) (map[string]string, error) {
		atoi := func(s string, def int) int {
			if n, err := strconv.Atoi(s); err == nil {
				return n
			}
			return def
		}
		outDir, err := os.MkdirTemp(workDir, "run-")
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{
			Grid:        grid.Grid{NLat: 24, NLon: 48},
			Years:       atoi(params["years"], 1),
			DaysPerYear: atoi(params["days_per_year"], 12),
			Seed:        int64(atoi(params["seed"], 1)),
			OutputDir:   outDir,
			Metrics:     metrics,
			Events: &esm.EventConfig{
				HeatWavesPerYear: 1, ColdSpellsPerYear: 1, CyclonesPerYear: 1,
				WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7,
			},
		})
		if err != nil {
			return nil, err
		}
		out := map[string]string{
			"years_processed": strconv.Itoa(len(res.Years)),
			"files_produced":  strconv.Itoa(res.FilesProduced),
			"final_map":       res.FinalMapPath,
			"output_dir":      outDir,
		}
		for _, yr := range res.Years {
			out[fmt.Sprintf("hw_mean_%d", yr.Year)] = fmt.Sprintf("%.4f", yr.HWNumberMean)
		}
		return out, nil
	}
}
