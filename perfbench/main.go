// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of the workflow, analytics, cube
// service and control-plane packages, checks every output, and prints
// one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the workload untraced for the whole run
// and reports the end-to-end metrics. With --trace 1 it measures half
// the run untraced and half traced, writes a Chrome trace under
// .bench_out/, prints a per-layer self-time table and reports the
// per-layer metrics. Every modeled sleep of the program is zero.
// README.md lists the workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, and only the last build is measured.
const setupRepeats = 3

// endToEnd are the metrics every untraced run reports. The latency
// tail is not among them: on a 2-vCPU shared VM the tail of a
// millisecond operation moves by 30-60 % between runs, more than any
// regression bound could allow, so it is reported per layer.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics every traced run reports. A layer that the
// workload does not run reports 0.
var perLayer = []metric{
	{"obs.trace_overhead", "ratio"},
	{"trace.uncovered_share", "ratio"},
	{"latency.tail_ms", "ms"},
	{"latency.tail_pct", "%"},
	{"latency.samples", "count"},
	// workflow: task self time per core.Run, booked to its layer
	{"esm.busy_s", "s"},
	{"esm.share", "ratio"},
	{"datacube.baseline.busy_s", "s"},
	{"stream.busy_s", "s"},
	{"datacube.import.busy_s", "s"},
	{"indices.busy_s", "s"},
	{"ncdf.tcread.busy_s", "s"},
	{"ml.infer.busy_s", "s"},
	{"ml.patches", "count"},
	{"tctrack.busy_s", "s"},
	{"viz.busy_s", "s"},
	{"compss.tasks", "count"},
	{"compss.idle_frac", "ratio"},
	// indices: spans around each public call, per processed year
	{"ncdf.import.busy_s", "s"},
	{"ncdf.import.mb_per_s", "MB/s"},
	{"datacube.file_reads", "count"},
	{"indices.wave.busy_s", "s"},
	{"indices.etccdi.busy_s", "s"},
	{"indices.precip.busy_s", "s"},
	{"datacube.cells", "count"},
	{"datacube.cells_per_s", "1/s"},
	{"datacube.fused_passes", "count"},
	{"datacube.scratch_hit_ratio", "ratio"},
	{"ncdf.export.busy_s", "s"},
	{"indices.kernel_share", "ratio"},
	// cubeservice: request classes and wire/cluster counters
	{"cubeservice.pipe_p50_ms", "ms"},
	{"cubeservice.pipe_tail_ms", "ms"},
	{"cubeservice.op_p50_ms", "ms"},
	{"cubeservice.op_tail_ms", "ms"},
	{"cubeservice.gather_p50_ms", "ms"},
	{"cubeservice.gather_tail_ms", "ms"},
	{"cubeservice.import_p50_ms", "ms"},
	{"cubeserver.wire_out_mb_per_s", "MB/s"},
	{"cubeserver.wire_in_mb_per_s", "MB/s"},
	{"cubeserver.conns", "count"},
	{"cubeserver.proto_errors", "count"},
	{"cubeserver.payload_ratio", "ratio"},
	{"cubecluster.scatter_bytes_per_op", "B"},
	{"cubecluster.gather_bytes_per_op", "B"},
	{"cubecluster.shard_op_p50_ms", "ms"},
	{"cubecluster.shard_op_tail_ms", "ms"},
	{"cubecluster.failovers", "count"},
	{"cubecluster.merge_fallbacks", "count"},
	{"datacube.cells_per_op", "count"},
	// control: open-loop submissions over HTTP
	{"control.start_p50_ms", "ms"},
	{"control.start_tail_ms", "ms"},
	{"execstore.wait_p50_ms", "ms"},
	{"execstore.wait_tail_ms", "ms"},
	{"execstore.run_p50_ms", "ms"},
	{"execstore.e2e_p50_ms", "ms"},
	{"execstore.shed", "count"},
	{"execstore.reclaimed", "count"},
	{"execstore.fenced", "count"},
	{"execstore.retried", "count"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_max_ms", "ms"},
}

// env is what a workload's setup receives.
type env struct {
	seed  int64
	dir   string // scratch directory owned by this setup
	procs int
}

// instance is one built workload.
type instance interface {
	// measure runs the workload for about d; tr is nil when untraced.
	measure(d time.Duration, tr *obs.Tracer) (*phase, error)
	close()
}

// phase is what one measurement produced.
type phase struct {
	attempted, failed int
	problems          []string // the first few correctness failures
	wall              time.Duration
	work              float64   // units of work completed in wall
	latency           []float64 // headline latency samples [ms]
	p50               float64   // latency_p50_ms, when not the median of latency
	// covered is the union of layer spans (traced phases), for
	// trace.uncovered_share against wall.
	covered time.Duration
	layers  map[string]float64
	table   []layerRow
}

// fail records one failed operation.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	layer string
	self  time.Duration
	spans int
}

func tableOf(b breakdown) []layerRow {
	rows := make([]layerRow, 0, len(b.self))
	for l, d := range b.self {
		rows = append(rows, layerRow{l, d, b.spans[l]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

type workloadDef struct {
	name  string
	setup func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{"workflow", setupWorkflow},
	{"indices", setupIndices},
	{"cubeservice", setupCubeService},
	{"control", setupControl},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	saturate := flag.Bool("saturate", false, "control only: measure the closed-loop saturation rate and exit")
	flag.Parse()

	if err := validateMetrics(append(append([]metric(nil), endToEnd...), perLayer...)); err != nil {
		return err
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		return err
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	work, err := filepath.Abs(filepath.Join(".bench_work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	n := 0
	build := func() (instance, time.Duration, error) {
		n++
		dir := filepath.Join(work, strconv.Itoa(n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		inst, err := def.setup(&env{seed: *seed, dir: dir, procs: procs})
		return inst, time.Since(t0), err
	}

	if *saturate {
		if def.name != "control" {
			return fmt.Errorf("--saturate applies to the control workload only")
		}
		return saturateControl(&env{seed: *seed, dir: work, procs: procs}, time.Duration(*seconds)*time.Second)
	}

	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var dt time.Duration
		if inst, dt, err = build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, dt.Seconds())
	}
	fmt.Printf("workload %s seed %d: GOMAXPROCS=%d, setup %.3fs (median of %v)\n",
		def.name, *seed, procs, median(setups), setups)

	total := time.Duration(*seconds) * time.Second
	res := result{Metrics: map[string]value{}}
	if *trace == 0 {
		// mem_peak_mb is the peak of the measured run alone: the garbage
		// of the earlier builds is returned to the OS and the kernel's
		// peak is reset to the resident size of the built workload.
		runtime.GC()
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return fmt.Errorf("reset peak RSS: %w", err)
		}
		ph, err := inst.measure(total, nil)
		if err != nil {
			inst.close()
			return err
		}
		peak, err := peakRSSMB()
		inst.close()
		if err != nil {
			return err
		}
		res.fill(ph)
		lat := summarize(ph.latency)
		fmt.Printf("untraced: %d attempted, %d failed, %.4g work/s over %v, latency %s\n",
			ph.attempted, ph.failed, ph.work/ph.wall.Seconds(), ph.wall.Round(time.Millisecond), lat)
		res.Metrics["setup_s"] = value{median(setups), "s"}
		res.Metrics["mem_peak_mb"] = value{peak, "MB"}
		res.Metrics["throughput_per_s"] = value{div(ph.work, ph.wall.Seconds()), "1/s"}
		p50 := lat.p50
		if ph.p50 > 0 {
			p50 = ph.p50
		}
		res.Metrics["latency_p50_ms"] = value{p50, "ms"}
	} else {
		plain, err := inst.measure(total/2, nil)
		inst.close()
		if err != nil {
			return err
		}
		// A fresh build for the traced half, so its counters hold
		// traced work only.
		if inst, _, err = build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		tr := obs.NewTracer()
		ph, err := inst.measure(total/2, tr)
		inst.close()
		if err != nil {
			return err
		}
		res.fill(plain)
		res.fill(ph)
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{ph.layers[m.Name], m.Unit}
		}
		lat := summarize(plain.latency)
		fmt.Printf("untraced half: latency %s\n", lat)
		res.Metrics["obs.trace_overhead"] = value{div(mean(ph.latency), mean(plain.latency)) - 1, "ratio"}
		res.Metrics["trace.uncovered_share"] = value{1 - div(ph.covered.Seconds(), ph.wall.Seconds()), "ratio"}
		res.Metrics["latency.tail_ms"] = value{lat.tail, "ms"}
		res.Metrics["latency.tail_pct"] = value{lat.tailPct, "%"}
		res.Metrics["latency.samples"] = value{float64(lat.n), "count"}
		printTable(def.name, ph)
		if err := writeTrace(def.name, tr); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) fill(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, msg := range p.problems {
		fmt.Println("FAILED:", msg)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printTable prints the traced phase's per-layer self time.
func printTable(workload string, p *phase) {
	fmt.Printf("per-layer self time, %s, traced %v (share of that time; concurrent spans can add past 100%%):\n",
		workload, p.wall.Round(time.Millisecond))
	fmt.Printf("  %-22s %12s %8s %8s\n", "layer", "self", "share", "spans")
	for _, r := range p.table {
		fmt.Printf("  %-22s %12v %7.1f%% %8d\n", r.layer, r.self.Round(time.Microsecond),
			100*r.self.Seconds()/p.wall.Seconds(), r.spans)
	}
	fmt.Printf("  %-22s %12v %7.1f%%\n", "(no layer span)", (p.wall - p.covered).Round(time.Microsecond),
		100*(1-p.covered.Seconds()/p.wall.Seconds()))
	names := make([]string, 0, len(p.layers))
	for k := range p.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %.6g\n", k, p.layers[k])
	}
}

// writeTrace writes the traced phase's spans as a Chrome trace.
func writeTrace(workload string, tr *obs.Tracer) error {
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	path := filepath.Join(".bench_out", workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("chrome trace:", path)
	return nil
}

// peakRSSMB is the process's peak resident set size in MB since the
// last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil || kb <= 0 {
				return 0, fmt.Errorf("peak RSS: cannot read %q", line)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// checkBenchmarkFile verifies, when the file exists, that the metric
// lists it declares are the ones this program reports.
func checkBenchmarkFile(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics(spec.EndToEnd, endToEnd); err != nil {
		return fmt.Errorf("%s end_to_end: %w", path, err)
	}
	if err := sameMetrics(spec.PerLayer, perLayer); err != nil {
		return fmt.Errorf("%s per_layer: %w", path, err)
	}
	return nil
}

func sameMetrics(declared, reported []metric) error {
	if len(declared) != len(reported) {
		return fmt.Errorf("declares %d metrics, the benchmark reports %d", len(declared), len(reported))
	}
	for i := range declared {
		if declared[i] != reported[i] {
			return fmt.Errorf("metric %d is %v, the benchmark reports %v", i, declared[i], reported[i])
		}
	}
	return nil
}
