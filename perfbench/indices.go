package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/obs"
)

// The indices workload: model output for idxYears years is generated
// in set-up; each year is then imported, turned into the wave, ETCCDI
// and precipitation indices, and exported, in a closed loop.
const (
	idxYears     = 2
	idxDays      = 60
	idxHistYears = 2
)

// idxSpans are the benchmark's own spans around each public call; the
// span name is the layer.
var idxSpans = map[string]string{
	"ncdf.import":    "ncdf.import",
	"indices.wave":   "indices.wave",
	"indices.etccdi": "indices.etccdi",
	"indices.precip": "indices.precip",
	"ncdf.export":    "ncdf.export",
}

type idxInstance struct {
	e      *env
	g      grid.Grid
	engine *datacube.Engine
	reg    *obs.Registry
	years  [][]string // daily files of each year, in day order
	base   *indices.Baseline
	pct    *indices.PercentileBaseline
	p95    *datacube.Cube
	prm    indices.Params
	gt     *esm.GroundTruth
	outDir string
	// ref holds each year's heat-wave number from the warm-up pass.
	ref [][][]float32
}

func setupIndices(e *env) (instance, error) {
	g := grid.Reduced
	cfg := esm.Config{Grid: g, StartYear: 2040, Years: idxYears, DaysPerYear: idxDays, Seed: e.seed}
	model := esm.NewModel(cfg)
	modelDir := filepath.Join(e.dir, "model")
	if err := mkdir(modelDir); err != nil {
		return nil, err
	}
	files, err := model.Run(esm.RunOptions{Dir: modelDir})
	if err != nil {
		return nil, err
	}
	byYear := map[int][]string{}
	for _, f := range files {
		y, ok := esm.YearOf(f)
		if !ok {
			return nil, fmt.Errorf("unparseable model file %s", f)
		}
		byYear[y] = append(byYear[y], f)
	}
	x := &idxInstance{
		e: e, g: g, gt: model.GroundTruth(), reg: obs.NewRegistry(),
		prm:    indices.Params{DaysPerYear: idxDays}.Defaults(),
		outDir: filepath.Join(e.dir, "out"),
	}
	if err := mkdir(x.outDir); err != nil {
		return nil, err
	}
	for y := 0; y < idxYears; y++ {
		fs := byYear[cfg.StartYear+y]
		sort.Strings(fs)
		if len(fs) != idxDays {
			return nil, fmt.Errorf("year %d has %d files, want %d", cfg.StartYear+y, len(fs), idxDays)
		}
		x.years = append(x.years, fs)
	}
	x.engine = datacube.NewEngine(datacube.Config{Servers: e.procs, Metrics: x.reg})
	if x.base, err = indices.BuildBaseline(x.engine, g, idxDays); err != nil {
		x.close()
		return nil, err
	}
	if x.pct, err = indices.BuildPercentileBaseline(x.engine, g, idxDays, idxHistYears, e.seed); err != nil {
		x.close()
		return nil, err
	}
	if x.p95, err = indices.BuildPrecipBaseline(x.engine, cfg, idxHistYears); err != nil {
		x.close()
		return nil, err
	}
	// Warm-up: one pass over every year fills the engine's scratch
	// pools and records the reference results.
	for y := range x.years {
		r, _, err := x.processYear(y, nil)
		if err == nil {
			err = x.check(y, r)
		}
		if r != nil {
			x.ref = append(x.ref, r.hwNumber)
			r.delete()
		}
		if err != nil {
			x.close()
			return nil, fmt.Errorf("indices warm-up, year %d: %w", y, err)
		}
	}
	return x, nil
}

// yearResult is every cube one processed year leaves resident.
type yearResult struct {
	temp, daily *datacube.Cube
	hw, cw      *indices.Result
	et          *indices.PercentileResult
	pr          *indices.PrecipResult
	hwNumber    [][]float32
}

func (r *yearResult) delete() {
	for _, c := range []*datacube.Cube{r.temp, r.daily} {
		if c != nil {
			_ = c.Delete()
		}
	}
	for _, w := range []*indices.Result{r.hw, r.cw} {
		if w != nil {
			for _, c := range []*datacube.Cube{w.Duration, w.Number, w.Frequency} {
				_ = c.Delete()
			}
		}
	}
	if r.et != nil {
		r.et.Delete()
	}
	if r.pr != nil {
		r.pr.Delete()
	}
}

// processYear imports one year, computes every index family and
// exports the results; the returned duration covers exactly that.
func (x *idxInstance) processYear(y int, tr *obs.Tracer) (*yearResult, time.Duration, error) {
	files := x.years[y]
	r := &yearResult{}
	root := tr.Start("year")
	step := func(name string, f func() error) error {
		sp := root.Start(name)
		err := f()
		sp.EndErr(err)
		return err
	}
	t0 := time.Now()
	err := step("ncdf.import", func() (err error) {
		r.temp, err = x.engine.ImportFiles(files, "TREFHT", "time")
		return err
	})
	if err == nil {
		err = step("ncdf.import", func() (err error) {
			r.daily, err = indices.DailyPrecipFromFiles(x.engine, files, esm.StepsPerDay)
			return err
		})
	}
	if err == nil {
		err = step("indices.wave", func() (err error) {
			if r.hw, err = indices.HeatWavesFromCube(r.temp, x.base, x.prm); err != nil {
				return err
			}
			r.cw, err = indices.ColdWavesFromCube(r.temp, x.base, x.prm)
			return err
		})
	}
	if err == nil {
		err = step("indices.etccdi", func() (err error) {
			r.et, err = indices.ETCCDI(r.temp, x.pct, x.prm)
			return err
		})
	}
	if err == nil {
		err = step("indices.precip", func() (err error) {
			r.pr, err = indices.PrecipIndices(r.daily, x.p95)
			return err
		})
	}
	if err == nil {
		err = step("ncdf.export", func() error { return x.export(y, r) })
	}
	dt := time.Since(t0)
	root.EndErr(err)
	if err != nil {
		r.delete()
		return nil, dt, err
	}
	r.hwNumber = r.hw.Number.Values()
	return r, dt, nil
}

func (x *idxInstance) export(y int, r *yearResult) error {
	named := map[string]*datacube.Cube{
		"heat_wave_duration": r.hw.Duration, "heat_wave_number": r.hw.Number, "heat_wave_frequency": r.hw.Frequency,
		"cold_wave_duration": r.cw.Duration, "cold_wave_number": r.cw.Number, "cold_wave_frequency": r.cw.Frequency,
		"tx90p": r.et.TX90p, "tn10p": r.et.TN10p, "wsdi": r.et.WSDI, "csdi": r.et.CSDI,
		"prcptot": r.pr.PRCPTOT, "rx1day": r.pr.Rx1day, "cdd": r.pr.CDD, "r95ptot": r.pr.R95pTOT,
	}
	for name, c := range named {
		if err := c.ExportFile(filepath.Join(x.outDir, fmt.Sprintf("%s_%d.nc", name, y))); err != nil {
			return err
		}
	}
	return nil
}

// check validates one year's results: the wave families pass
// indices.Validate, the other indices stay in their ranges, and the
// heat-wave number is raised at the seeded heat waves.
func (x *idxInstance) check(y int, r *yearResult) error {
	for _, w := range []*indices.Result{r.hw, r.cw} {
		if err := indices.Validate(w, x.prm); err != nil {
			return err
		}
	}
	days := float64(idxDays)
	ranges := []struct {
		name   string
		c      *datacube.Cube
		lo, hi float64
	}{
		{"tx90p", r.et.TX90p, 0, 1}, {"tn10p", r.et.TN10p, 0, 1},
		{"wsdi", r.et.WSDI, 0, days}, {"csdi", r.et.CSDI, 0, days},
		{"prcptot", r.pr.PRCPTOT, 0, 1e5}, {"rx1day", r.pr.Rx1day, 0, 1e4},
		{"cdd", r.pr.CDD, 0, days}, {"r95ptot", r.pr.R95pTOT, 0, 1e5},
	}
	for _, rg := range ranges {
		if rg.c.Rows() != x.g.Size() || rg.c.ImplicitLen() != 1 {
			return fmt.Errorf("%s is %dx%d, want %dx1", rg.name, rg.c.Rows(), rg.c.ImplicitLen(), x.g.Size())
		}
		for i, row := range rg.c.Values() {
			if v := float64(row[0]); !(v >= rg.lo && v <= rg.hi) {
				return fmt.Errorf("%s[%d] = %v outside [%v, %v]", rg.name, i, v, rg.lo, rg.hi)
			}
		}
	}
	field := make([]float32, len(r.hwNumber))
	for i, row := range r.hwNumber {
		field[i] = row[0]
	}
	return checkHeatWaves(x.gt, x.g, 2040+y, idxDays, [][]float32{field})
}

func (x *idxInstance) measure(d time.Duration, tr *obs.Tracer) (*phase, error) {
	p := &phase{}
	st0 := x.engine.Stats()
	cnt := func(name string) float64 { return x.reg.Counter(name, "").Value() }
	fused0, hit0, miss0 := cnt("datacube_fused_passes_total"), cnt("datacube_scratch_pool_hits_total"), cnt("datacube_scratch_pool_misses_total")
	var walls time.Duration
	var payload float64
	for y := 0; walls < d; y = (y + 1) % idxYears {
		p.attempted++
		r, dt, err := x.processYear(y, tr)
		walls += dt
		p.latency = append(p.latency, ms(dt))
		if err != nil {
			p.fail("year %d: %v", y, err)
			continue
		}
		payload += float64(4 * (r.temp.Rows()*r.temp.ImplicitLen() + r.daily.Rows()*r.daily.ImplicitLen()*esm.StepsPerDay))
		if err := x.check(y, r); err != nil {
			p.fail("year %d: %v", y, err)
		} else if !reflect.DeepEqual(r.hwNumber, x.ref[y]) {
			p.fail("year %d: heat-wave number differs from the warm-up pass", y)
		} else {
			p.work += idxDays
		}
		r.delete()
	}
	p.wall = walls
	if tr == nil {
		return p, nil
	}
	b := layerBreakdown(tr.Spans(), func(name string) string { return idxSpans[name] })
	p.covered, p.table = b.covered, tableOf(b)
	st := x.engine.Stats()
	n := float64(p.attempted)
	cells := float64(st.CellsProcessed - st0.CellsProcessed)
	hits, misses := cnt("datacube_scratch_pool_hits_total")-hit0, cnt("datacube_scratch_pool_misses_total")-miss0
	kernels := b.self["indices.wave"] + b.self["indices.etccdi"] + b.self["indices.precip"]
	p.layers = map[string]float64{
		"ncdf.import.mb_per_s":       div(payload/1e6, b.self["ncdf.import"].Seconds()),
		"datacube.file_reads":        float64(st.FileReads-st0.FileReads) / n,
		"datacube.cells":             cells / n,
		"datacube.cells_per_s":       div(cells, walls.Seconds()),
		"datacube.fused_passes":      (cnt("datacube_fused_passes_total") - fused0) / n,
		"datacube.scratch_hit_ratio": div(hits, hits+misses),
		"indices.kernel_share":       div(kernels.Seconds(), walls.Seconds()),
	}
	for layer, self := range b.self {
		p.layers[layer+".busy_s"] = self.Seconds() / n
	}
	return p, nil
}

func (x *idxInstance) close() {
	if x.engine != nil {
		x.engine.Close()
	}
}
