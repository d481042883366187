package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"time"

	"repro/internal/obs"
)

// tailLadder is the set of percentiles a tail may be reported at, from
// the highest down. A tail is the highest of them that still has at
// least minBeyond samples ranked after it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// rankOf is the 1-based nearest-rank position of percentile p in n
// sorted samples. The small slack keeps p·n/100 that is whole in exact
// arithmetic (99.9% of 10000) from rounding up a rank.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tailPct picks the highest ladder percentile with at least minBeyond
// of n samples ranked beyond it; ok is false when n is too small for
// any of them.
func tailPct(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// summary is the median and tail of one latency sample set.
type summary struct {
	n       int
	max     float64
	p50     float64
	tail    float64
	tailPct float64 // 0 when there are too few samples for a tail
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{n: len(s), p50: percentile(s, 50), max: percentile(s, 100)}
	if p, ok := tailPct(len(s)); ok {
		out.tail, out.tailPct = percentile(s, p), p
	}
	return out
}

func (s summary) String() string {
	if s.tailPct == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail)", s.p50, s.n)
	}
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", s.p50, s.tailPct, s.tail, s.n)
}

// histTail returns the median and tail of an obs histogram delta, the
// tail chosen by the same ten-beyond rule on the histogram's count.
func histTail(before, after obs.HistogramSnapshot) (p50, tail float64) {
	d := after
	d.Counts = append([]uint64(nil), after.Counts...)
	for i := range before.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	if d.Count == 0 {
		return 0, 0
	}
	p50 = d.Quantile(0.5)
	if p, ok := tailPct(int(d.Count)); ok {
		return p50, d.Quantile(p / 100)
	}
	return p50, p50
}

// metric is one reported figure: its name, unit and direction.
type metric struct {
	Name, Unit string
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics checks metric names and units against the format the
// benchmark's result line promises, and that no name repeats.
func validateMetrics(ms []metric) error {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Time }

// unionLen is the total length covered by ivs, counting overlaps once.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo.Before(s[j].lo) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo.After(cur.hi) {
			total += cur.hi.Sub(cur.lo)
			cur = iv
			continue
		}
		if iv.hi.After(cur.hi) {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi.Sub(cur.lo)
}

// clip restricts iv to [lo, hi); empty results have hi == lo.
func clip(iv interval, lo, hi time.Time) interval {
	if iv.lo.Before(lo) {
		iv.lo = lo
	}
	if iv.hi.After(hi) {
		iv.hi = hi
	}
	if iv.hi.Before(iv.lo) {
		iv.hi = iv.lo
	}
	return iv
}

// breakdown is the per-layer self time of a set of spans.
type breakdown struct {
	// self is each layer's busy time: its spans' durations minus the
	// part of each covered by that span's own children.
	self map[string]time.Duration
	// spans counts spans booked to each layer.
	spans map[string]int
	// covered is the union of every layer span's interval.
	covered time.Duration
}

// layerBreakdown books each span's self time to a layer. layerOf maps
// a span name to its layer; a name it does not know ("" result)
// inherits its parent's layer, and a root it does not know is harness
// time that no layer owns, so it is left out of self and covered.
func layerBreakdown(spans []obs.SpanData, layerOf func(name string) string) breakdown {
	byID := make(map[int64]*obs.SpanData, len(spans))
	kids := make(map[int64][]interval, len(spans))
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	memo := make(map[int64]string, len(spans))
	var layer func(sp *obs.SpanData) string
	layer = func(sp *obs.SpanData) string {
		if l, ok := memo[sp.ID]; ok {
			return l
		}
		l := layerOf(sp.Name)
		if l == "" {
			if p, ok := byID[sp.Parent]; ok {
				l = layer(p)
			}
		}
		memo[sp.ID] = l
		return l
	}
	b := breakdown{self: map[string]time.Duration{}, spans: map[string]int{}}
	var owned []interval
	for i := range spans {
		sp := &spans[i]
		l := layer(sp)
		if l == "" {
			continue
		}
		var inner []interval
		for _, c := range kids[sp.ID] {
			inner = append(inner, clip(c, sp.Start, sp.End))
		}
		b.self[l] += sp.End.Sub(sp.Start) - unionLen(inner)
		b.spans[l]++
		owned = append(owned, interval{sp.Start, sp.End})
	}
	b.covered = unionLen(owned)
	return b
}

// median of a small set of figures (setup repetitions).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// div is a/b, or 0 when b is 0, so that a metric of a phase that did
// no such work reads 0 instead of breaking the result line.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }
