package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of an open loop: offsets since the loop's
// start, and a sleep to an offset.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// olSample is one open-loop request: when it was due, when a sender
// picked it up, when it finished, and its error.
type olSample struct {
	due, start, end time.Duration
	err             error
}

// latency is measured from the due time, so a request that waited for
// a sender behind a stalled one is charged that wait.
func (s olSample) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the generator sent the request.
func (s olSample) late() time.Duration { return s.start - s.due }

// runOpenLoop sends n requests due every interval, on a fixed set of
// senders. A sender takes the next request in due order, waits for its
// due time if early and sends it at once if late: the schedule never
// slows down because the system did, so a stall shows as the latency
// of every request due during it. It returns once every request has
// finished.
func runOpenLoop(n int, interval time.Duration, senders int, clk clock, send func(i int) error) []olSample {
	out := make([]olSample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				clk.sleepUntil(due)
				s := olSample{due: due, start: clk.now()}
				s.err = send(i)
				s.end = clk.now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
