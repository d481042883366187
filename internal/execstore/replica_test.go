package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestReplica(t *testing.T, s *Store, id string, workers int, h Handler) *Replica {
	t.Helper()
	r, err := NewReplica(ReplicaConfig{ID: id, Store: s, Workers: workers, Handler: h})
	if err != nil {
		t.Fatalf("NewReplica(%s): %v", id, err)
	}
	t.Cleanup(r.Kill)
	return r
}

// waitState polls until the task reaches want or the deadline passes.
func waitState(t *testing.T, s *Store, id string, want State, within time.Duration) TaskView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v, _ := s.Get(id)
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s: state %s (attempt %d, holder %q, err %q) after %s, want %s",
				id, v.State, v.Attempt, v.Holder, v.Err, within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func okHandler(context.Context, TaskView) (json.RawMessage, error) {
	return json.RawMessage(`"ok"`), nil
}

// TestReplicaHandlerPanicFailsTask: a handler that panics must finalize
// its task FAILED at once — not leave it LEASED while the renew loop
// keeps the lease alive forever.
func TestReplicaHandlerPanicFailsTask(t *testing.T) {
	const ttl = 60 * time.Millisecond
	s := openStore(t, Config{LeaseTTL: ttl, SweepEvery: 5 * time.Millisecond})
	newTestReplica(t, s, "r1", 1, func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
		panic("kaboom")
	})
	mustSubmit(t, s, Task{ID: "boom", Tenant: "x"})
	v := waitState(t, s, "boom", StateFailed, 10*ttl)
	if v.Attempt != 1 || !strings.Contains(v.Err, "panicked") {
		t.Fatalf("failed task = attempt %d err %q, want one attempt and a panic error", v.Attempt, v.Err)
	}
	if st := s.Stats(); st.Leased != 0 || st.Reclaimed != 0 || st.Failed != 1 {
		t.Fatalf("stats = leased %d reclaimed %d failed %d, want 0/0/1", st.Leased, st.Reclaimed, st.Failed)
	}
}

// TestPanicIsolatedAsFailure: a panic fails only its own task; the
// worker survives and runs the next one.
func TestPanicIsolatedAsFailure(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Second})
	newTestReplica(t, s, "r1", 1, func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
		if tv.ID == "boom" {
			panic("kaboom")
		}
		return okHandler(ctx, tv)
	})
	mustSubmit(t, s, Task{ID: "boom", Tenant: "x"})
	mustSubmit(t, s, Task{ID: "after", Tenant: "x"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if v, _ := s.Get("boom"); v.State != StateFailed {
		t.Fatalf("boom = %s, want FAILED", v.State)
	}
	if v, _ := s.Get("after"); v.State != StateDone {
		t.Fatalf("after = %s, want DONE", v.State)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("failed %d completed %d, want 1/1", st.Failed, st.Completed)
	}
}

// TestCancelQueuedAndRunning cancels one task whose handler is running
// and one still waiting in the replica's hand-off: both finalize
// CANCELED exactly once, and the waiting one never runs.
func TestCancelQueuedAndRunning(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: 60 * time.Millisecond})
	started := make(chan struct{})
	var parkedRan atomic.Bool
	newTestReplica(t, s, "r1", 1, func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
		if tv.ID == "parked" {
			parkedRan.Store(true)
			return okHandler(ctx, tv)
		}
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	mustSubmit(t, s, Task{ID: "running", Tenant: "x"})
	<-started
	mustSubmit(t, s, Task{ID: "parked", Tenant: "x"})
	// One worker, so the second lease waits in the hand-off while the
	// first handler blocks: the waiting one is canceled first, so it can
	// never reach the worker.
	waitState(t, s, "parked", StateLeased, 5*time.Second)
	if err := s.Cancel("parked"); err != nil {
		t.Fatalf("Cancel(parked): %v", err)
	}
	waitState(t, s, "parked", StateCanceled, 5*time.Second)
	if err := s.Cancel("running"); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	for _, id := range []string{"parked", "running"} {
		if v, _ := s.Get(id); v.State != StateCanceled {
			t.Fatalf("%s = %s, want CANCELED", id, v.State)
		}
	}
	if parkedRan.Load() {
		t.Fatal("canceled task waiting in the hand-off still ran")
	}
	if err := s.Cancel("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("ghost cancel err = %v", err)
	}
	if st := s.Stats(); st.Canceled != 2 || st.Completed != 0 {
		t.Fatalf("canceled %d completed %d, want 2/0", st.Canceled, st.Completed)
	}
}

// TestDrainStopsIntakeAndWaits: Drain stops fetching, finishes every
// lease the replica holds, and leaves no goroutine behind.
func TestDrainStopsIntakeAndWaits(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Second})
	before := runtime.NumGoroutine()
	var started sync.Once
	running := make(chan struct{})
	r, err := NewReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 8,
		Handler: func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
			started.Do(func() { close(running) })
			time.Sleep(time.Millisecond)
			return okHandler(ctx, tv)
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		mustSubmit(t, s, Task{ID: fmt.Sprintf("d-%02d", i), Tenant: "x"})
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := s.Stats()
	if st.Leased != 0 || st.Completed == 0 || int(st.Completed)+st.Pending != 32 {
		t.Fatalf("after drain: leased %d completed %d pending %d, want 0 leased and completed+pending = 32",
			st.Leased, st.Completed, st.Pending)
	}
	mustSubmit(t, s, Task{ID: "late", Tenant: "x"})
	time.Sleep(20 * time.Millisecond)
	if v, _ := s.Get("late"); v.State != StatePending {
		t.Fatalf("drained replica leased new work: late = %s", v.State)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainTimeoutThenForceClose: when the drain deadline passes, the
// running handler is canceled and reports CANCELED, while a lease that
// never started is abandoned for the store to reclaim — a peer then
// runs it.
func TestDrainTimeoutThenForceClose(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: 60 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	started := make(chan struct{})
	r, err := NewReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 1,
		Handler: func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, Task{ID: "stuck", Tenant: "x"})
	<-started
	mustSubmit(t, s, Task{ID: "waiting", Tenant: "x"})
	waitState(t, s, "waiting", StateLeased, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v", err)
	}
	if v, _ := s.Get("stuck"); v.State != StateCanceled {
		t.Fatalf("stuck = %s, want CANCELED", v.State)
	}
	newTestReplica(t, s, "r2", 1, okHandler)
	v := waitState(t, s, "waiting", StateDone, 5*time.Second)
	if v.Attempt != 2 {
		t.Fatalf("waiting ran as attempt %d, want 2 (reclaimed from the drained replica)", v.Attempt)
	}
}
