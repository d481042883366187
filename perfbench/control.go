package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/execstore"
	"repro/internal/hpcwaas"
	"repro/internal/obs"
	"repro/internal/tosca"
)

// The control workload: an open loop of HTTP submissions at ctlRate per
// second, spread over two hpcwaas.Frontend replicas with embedded
// executors over one execstore.Store. ctlRate is about half the
// closed-loop saturation rate that --saturate measures on a 2-core
// host (README.md).
const (
	ctlRate      = 2800
	ctlFrontends = 2
	ctlSenders   = 32
	ctlWarmup    = 64
	ctlApp       = "perfbench-app"
)

// ctlRecorder is where the stand-in application stamps each request's
// start, indexed by the request number carried in its params.
type ctlRecorder struct {
	t0     time.Time
	starts []atomic.Int64 // ns since t0; 0 = never started
	runs   []atomic.Int32
}

type ctlInstance struct {
	e       *env
	store   *execstore.Store
	fronts  []*hpcwaas.Frontend
	servers []*http.Server
	urls    []string
	client  *http.Client
	rec     atomic.Pointer[ctlRecorder]
	msgs    []string // seeded payloads, cycled by request number
}

// digest is the application's deterministic output for a payload.
func digest(msg string) string {
	h := fnv.New64a()
	h.Write([]byte(msg))
	return fmt.Sprintf("%016x", h.Sum64())
}

// app is the benchmark's stand-in application: it stamps its start
// and returns a digest of its params.
func (c *ctlInstance) app(params map[string]string) (map[string]string, error) {
	i, err := strconv.Atoi(params["i"])
	if err != nil {
		return nil, err
	}
	if r := c.rec.Load(); r != nil && i < len(r.starts) {
		r.starts[i].CompareAndSwap(0, int64(time.Since(r.t0)))
		r.runs[i].Add(1)
	}
	return map[string]string{"digest": digest(params["msg"])}, nil
}

func setupControl(e *env) (instance, error) {
	c := &ctlInstance{e: e}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < 256; i++ {
		c.msgs = append(c.msgs, fmt.Sprintf("run-%d-%x", i, rng.Int63()))
	}
	store, err := execstore.Open(execstore.Config{Retention: 1 << 20, MaxPending: 1 << 16})
	if err != nil {
		return nil, err
	}
	c.store = store
	reg := hpcwaas.NewRegistry()
	if err := reg.Register(hpcwaas.Entry{
		Name: ctlApp, Version: "1", Description: "deterministic stand-in application",
		Topology: tosca.ClimateTopology("zeus"), App: c.app,
	}); err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < ctlFrontends; i++ {
		f, err := hpcwaas.NewFrontend(hpcwaas.FrontendConfig{
			ID: fmt.Sprintf("api-%d", i), Store: store, Registry: reg, Workers: e.procs,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.fronts = append(c.fronts, f)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		srv := &http.Server{Handler: f.Handler()}
		c.servers = append(c.servers, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String()+"/api/executions")
		go srv.Serve(ln)
	}
	c.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: ctlSenders, MaxIdleConns: ctlSenders * ctlFrontends},
		Timeout:   30 * time.Second,
	}
	// Warm-up: a short burst opens the keep-alive connections
	// and teaches the store's cost model the application's run time.
	p, err := c.openLoop(ctlWarmup, time.Millisecond, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	if p.failed > 0 {
		c.close()
		return nil, fmt.Errorf("control warm-up: %s", p.problems[0])
	}
	return c, nil
}

// submit POSTs request i and returns the execution ID on 202.
func (c *ctlInstance) submit(i int) (string, error) {
	body, err := json.Marshal(map[string]any{
		"workflow": ctlApp,
		"params":   map[string]string{"i": strconv.Itoa(i), "msg": c.msgs[i%len(c.msgs)]},
	})
	if err != nil {
		return "", err
	}
	resp, err := c.client.Post(c.urls[i%len(c.urls)], "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ex struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &ex); err != nil || ex.ID == "" {
		return "", fmt.Errorf("unreadable 202 body %q", data)
	}
	return ex.ID, nil
}

// openLoop sends n submissions due every interval, waits for every
// accepted execution to finish, and checks each: DONE exactly once,
// with the digest of its params. The phase's wall time runs until the
// last execution finished.
func (c *ctlInstance) openLoop(n int, interval time.Duration, tr *obs.Tracer) (*phase, error) {
	rec := &ctlRecorder{t0: time.Now(), starts: make([]atomic.Int64, n), runs: make([]atomic.Int32, n)}
	c.rec.Store(rec)
	defer c.rec.Store(nil)
	before := c.store.Stats()
	ids := make([]string, n)
	samples := runOpenLoop(n, interval, ctlSenders, wallClock{rec.t0}, func(i int) error {
		sp := tr.Start("hpcwaas.submit")
		id, err := c.submit(i)
		sp.EndErr(err)
		ids[i] = id
		return err
	})
	p := &phase{attempted: n}
	accepted := 0
	for i, s := range samples {
		p.latency = append(p.latency, ms(s.latency()))
		if s.err != nil {
			p.fail("request %d: %v", i, s.err)
			continue
		}
		accepted++
	}
	// Wait for the accepted executions to finish.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		st := c.store.Stats()
		if st.Completed+st.Failed+st.Canceled-before.Completed-before.Failed-before.Canceled >= uint64(accepted) {
			p.wall = time.Since(rec.t0)
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("control: executions still running after 60s: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	var starts, late []float64
	for i, s := range samples {
		late = append(late, ms(s.late()))
		if s.err != nil {
			continue
		}
		t, _ := c.store.Get(ids[i])
		var out map[string]string
		_ = json.Unmarshal(t.Output, &out)
		switch {
		case t.State != execstore.StateDone:
			p.fail("request %d (%s): ended %s: %s", i, ids[i], t.State, t.Err)
		case rec.runs[i].Load() != 1:
			p.fail("request %d (%s): application ran %d times", i, ids[i], rec.runs[i].Load())
		case out["digest"] != digest(c.msgs[i%len(c.msgs)]):
			p.fail("request %d (%s): digest %q, want %q", i, ids[i], out["digest"], digest(c.msgs[i%len(c.msgs)]))
		default:
			p.work++
			starts = append(starts, ms(time.Duration(rec.starts[i].Load())-s.due))
		}
	}
	if after := c.store.Stats(); after.Completed-before.Completed != uint64(accepted) {
		p.fail("store completed %d executions, %d were accepted", after.Completed-before.Completed, accepted)
	}
	st, lt := summarize(starts), summarize(late)
	fmt.Printf("  start %s; generator late %s\n", st, lt)
	p.layers = map[string]float64{
		"control.start_p50_ms":  st.p50,
		"control.start_tail_ms": st.tail,
		"gen.late_p50_ms":       lt.p50,
		"gen.late_max_ms":       lt.max,
	}
	return p, nil
}

func (c *ctlInstance) measure(d time.Duration, tr *obs.Tracer) (*phase, error) {
	n := int(d.Seconds() * ctlRate)
	p, err := c.openLoop(n, time.Second/ctlRate, tr)
	if err != nil || tr == nil {
		return p, err
	}
	b := layerBreakdown(tr.Spans(), func(name string) string { return name })
	p.covered, p.table = b.covered, tableOf(b)
	st := c.store.Stats()
	var shed uint64
	for _, v := range st.Shed {
		shed += v
	}
	p.layers["execstore.wait_p50_ms"] = 1000 * st.Wait.P50Seconds
	p.layers["execstore.wait_tail_ms"] = 1000 * summaryTail(st.Wait)
	p.layers["execstore.run_p50_ms"] = 1000 * st.Run.P50Seconds
	p.layers["execstore.e2e_p50_ms"] = 1000 * st.E2E.P50Seconds
	p.layers["execstore.shed"] = float64(shed)
	p.layers["execstore.reclaimed"] = float64(st.Reclaimed)
	p.layers["execstore.fenced"] = float64(st.Fenced)
	p.layers["execstore.retried"] = float64(st.Retried)
	return p, nil
}

// summaryTail picks the highest quantile of a store latency summary
// that has at least ten samples beyond it.
func summaryTail(h execstore.HistogramSummary) float64 {
	pct, _ := tailPct(int(h.Count))
	switch {
	case pct >= 99.9:
		return h.P999Seconds
	case pct >= 99:
		return h.P99Seconds
	case pct >= 90:
		return h.P90Seconds
	}
	return h.P50Seconds
}

// saturateControl measures the closed-loop completion rate: with no
// spacing between due times every sender submits its next request as
// soon as the previous one is accepted.
func saturateControl(e *env, d time.Duration) error {
	inst, err := setupControl(e)
	if err != nil {
		return err
	}
	defer inst.close()
	p, err := inst.(*ctlInstance).openLoop(int(d.Seconds()*ctlRate*2), 0, nil)
	if err != nil {
		return err
	}
	fmt.Printf("control saturation: %.0f executions/s (%.0f completed in %v, %d failed)\n",
		p.work/p.wall.Seconds(), p.work, p.wall.Round(time.Millisecond), p.failed)
	return nil
}

func (c *ctlInstance) close() {
	for _, srv := range c.servers {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, f := range c.fronts {
		_ = f.Drain(ctx)
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.store != nil {
		c.store.Close()
	}
}
