package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		have bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true}, // rank 10, ten beyond
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		pct, ok := tailPct(c.n)
		if ok != c.have || pct != c.pct {
			t.Errorf("tailPct(%d) = %v, %v; want %v, %v", c.n, pct, ok, c.pct, c.have)
		}
		if ok && c.n-rankOf(pct, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, pct, c.n-rankOf(pct, c.n))
		}
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.p50 != 50 || s.tail != 90 || s.tailPct != 90 || s.max != 100 || s.n != 100 {
		t.Fatalf("summarize(1..100) = %+v; want p50 50, p90 tail 90, max 100", s)
	}
}

// at builds a span of [lo, hi) milliseconds after a fixed origin.
func at(id, parent int64, name string, lo, hi int) obs.SpanData {
	t0 := time.Unix(1000, 0)
	return obs.SpanData{ID: id, Parent: parent, Name: name,
		Start: t0.Add(time.Duration(lo) * time.Millisecond), End: t0.Add(time.Duration(hi) * time.Millisecond)}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []obs.SpanData{
		at(1, 0, "a", 0, 100),
		at(2, 1, "b", 10, 40),
		at(3, 1, "c", 30, 60),       // overlaps b: a's children cover 10..60 once
		at(4, 2, "attempt", 20, 30), // unknown name: booked to its parent's layer
		at(5, 0, "harness", 0, 200), // unknown root: no layer's time
		at(6, 5, "a", 150, 160),
	}
	layers := map[string]string{"a": "A", "b": "B", "c": "C"}
	b := layerBreakdown(spans, func(n string) string { return layers[n] })
	want := map[string]time.Duration{
		"A": 50*time.Millisecond + 10*time.Millisecond,
		"B": 20*time.Millisecond + 10*time.Millisecond,
		"C": 30 * time.Millisecond,
	}
	for l, d := range want {
		if b.self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, b.self[l], d)
		}
	}
	if len(b.self) != len(want) {
		t.Errorf("layers %v, want exactly %v", b.self, want)
	}
	if b.spans["B"] != 2 {
		t.Errorf("B holds %d spans, want 2", b.spans["B"])
	}
	if b.covered != 110*time.Millisecond {
		t.Errorf("covered = %v, want 110ms", b.covered)
	}
}

func TestValidateMetrics(t *testing.T) {
	if err := validateMetrics(append(append([]metric(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatalf("the benchmark's own metrics: %v", err)
	}
	if err := checkBenchmarkFile("../BENCHMARK.json"); err != nil {
		t.Fatalf("BENCHMARK.json disagrees with the metrics the benchmark reports: %v", err)
	}
	for _, bad := range [][]metric{
		{{"_lead", "s"}},
		{{"has space", "s"}},
		{{strings.Repeat("x", 65), "s"}},
		{{"ok", ""}},
		{{"ok", "m s"}},
		{{"ok", strings.Repeat("u", 17)}},
		{{"dup", "s"}, {"dup", "ms"}},
	} {
		if err := validateMetrics(bad); err == nil {
			t.Errorf("validateMetrics(%v) accepted", bad)
		}
	}
	if err := validateMetrics([]metric{{"a.b-c_1", "1/s"}, {"9x", "%"}, {strings.Repeat("y", 64), "MB/s"}}); err != nil {
		t.Errorf("rejected valid metrics: %v", err)
	}
}

// fakeClock is a single-sender clock: time moves only when the sender
// sleeps or its request runs.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{}
	const interval = 10 * time.Millisecond
	samples := runOpenLoop(15, interval, 1, clk, func(i int) error {
		if i == 0 {
			clk.t += 100 * time.Millisecond // the stall
		} else {
			clk.t += time.Millisecond
		}
		return nil
	})
	if got := samples[0].latency(); got != 100*time.Millisecond {
		t.Fatalf("stalled request latency %v, want 100ms", got)
	}
	for i := 1; i <= 10; i++ {
		// request i waited until the stall and the i-1 requests queued
		// behind it were done, then ran for 1ms
		due := time.Duration(i) * interval
		start := 100*time.Millisecond + time.Duration(i-1)*time.Millisecond
		s := samples[i]
		if s.due != due || s.late() != start-due || s.latency() != start-due+time.Millisecond {
			t.Errorf("request %d: due %v late %v latency %v; want due %v late %v latency %v",
				i, s.due, s.late(), s.latency(), due, start-due, start-due+time.Millisecond)
		}
	}
	for i := 11; i < 15; i++ {
		if s := samples[i]; s.late() != 0 || s.latency() != time.Millisecond {
			t.Errorf("request %d after the backlog cleared: late %v latency %v; want 0 and 1ms", i, s.late(), s.latency())
		}
	}
}
