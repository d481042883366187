package compss

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
)

func newRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	rt := NewRuntime(Config{Workers: workers})
	t.Cleanup(func() { _ = rt.Shutdown() })
	return rt
}

func addTask(t *testing.T, rt *Runtime) *TaskDef {
	t.Helper()
	return rt.MustRegister(TaskDef{
		Name:    "add",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			sum := 0
			for _, a := range args {
				if a != nil {
					sum += a.(int)
				}
			}
			return []any{sum}, nil
		},
	})
}

func TestRegisterValidation(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := rt.Register(TaskDef{Name: "", Fn: func([]any) ([]any, error) { return nil, nil }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := rt.Register(TaskDef{Name: "x"}); err == nil {
		t.Fatal("nil fn accepted")
	}
	if _, err := rt.Register(TaskDef{Name: "neg", Fn: func([]any) ([]any, error) { return nil, nil }, Outputs: -1}); err == nil {
		t.Fatal("negative outputs accepted")
	}
	if _, err := rt.Register(TaskDef{Name: "dup", Fn: func([]any) ([]any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(TaskDef{Name: "dup", Fn: func([]any) ([]any, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestInvokeUnregistered(t *testing.T) {
	rt := newRT(t, 1)
	foreign := &TaskDef{Name: "ghost", Fn: func([]any) ([]any, error) { return nil, nil }}
	if _, err := rt.Invoke(foreign); err == nil {
		t.Fatal("unregistered task accepted")
	}
}

func TestSimpleChainDependency(t *testing.T) {
	rt := newRT(t, 4)
	add := addTask(t, rt)
	f1, err := rt.InvokeOne(add, In(1), In(2))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := rt.InvokeOne(add, In(f1), In(10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := f2.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 13 {
		t.Fatalf("result = %v, want 13", v)
	}
	if !rt.Graph().HasEdge(1, 2) {
		t.Fatal("dependency edge missing from graph")
	}
}

func TestFanOutParallelism(t *testing.T) {
	rt := newRT(t, 8)
	var inflight, peak int64
	par := rt.MustRegister(TaskDef{
		Name:    "par",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			n := atomic.AddInt64(&inflight, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt64(&inflight, -1)
			return []any{args[0]}, nil
		},
	})
	for i := 0; i < 8; i++ {
		if _, err := rt.InvokeOne(par, In(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2", p)
	}
}

func TestWorkerLimitRespected(t *testing.T) {
	rt := newRT(t, 2)
	var inflight, peak int64
	par := rt.MustRegister(TaskDef{
		Name:    "lim",
		Outputs: 0,
		Fn: func(args []any) ([]any, error) {
			n := atomic.AddInt64(&inflight, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(3 * time.Millisecond)
			atomic.AddInt64(&inflight, -1)
			return nil, nil
		},
	})
	for i := 0; i < 10; i++ {
		if _, err := rt.Invoke(par); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > 2 {
		t.Fatalf("peak concurrency = %d exceeds 2 workers", p)
	}
}

func TestMultiCoreConstraintNoDeadlock(t *testing.T) {
	rt := newRT(t, 4)
	wide := rt.MustRegister(TaskDef{
		Name:        "wide",
		Outputs:     0,
		Constraints: Constraints{Cores: 3},
		Fn: func(args []any) ([]any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		},
	})
	for i := 0; i < 6; i++ {
		if _, err := rt.Invoke(wide); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- rt.Barrier() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock with multi-core tasks")
	}
}

func TestConstraintWiderThanPoolClamped(t *testing.T) {
	rt := newRT(t, 2)
	huge := rt.MustRegister(TaskDef{
		Name:        "huge",
		Outputs:     1,
		Constraints: Constraints{Cores: 64},
		Fn:          func(args []any) ([]any, error) { return []any{"ok"}, nil },
	})
	f, err := rt.InvokeOne(huge)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.Get(); err != nil || v != "ok" {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestSharedInOutChainSerialized(t *testing.T) {
	rt := newRT(t, 8)
	s := rt.NewShared("counter", 0)
	inc := rt.MustRegister(TaskDef{
		Name:    "inc",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			return []any{args[0].(int) + 1}, nil
		},
	})
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := rt.Invoke(inc, InOut(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := s.Value().(int); got != n {
		t.Fatalf("shared counter = %d, want %d (writers must serialize)", got, n)
	}
	if s.Version() != n {
		t.Fatalf("version = %d, want %d", s.Version(), n)
	}
}

func TestSharedReadersBlockLaterWriter(t *testing.T) {
	rt := newRT(t, 8)
	s := rt.NewShared("data", 100)
	var readSaw int64
	read := rt.MustRegister(TaskDef{
		Name:    "read",
		Outputs: 0,
		Fn: func(args []any) ([]any, error) {
			time.Sleep(5 * time.Millisecond)
			atomic.StoreInt64(&readSaw, int64(args[0].(int)))
			return nil, nil
		},
	})
	write := rt.MustRegister(TaskDef{
		Name:    "write",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			return []any{999}, nil
		},
	})
	if _, err := rt.Invoke(read, In(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(write, InOut(s)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&readSaw); got != 100 {
		t.Fatalf("reader saw %d, want 100 (WAR dependency violated)", got)
	}
	if s.Value().(int) != 999 {
		t.Fatalf("final value = %v, want 999", s.Value())
	}
}

func TestFutureMustBeIn(t *testing.T) {
	rt := newRT(t, 2)
	add := addTask(t, rt)
	f, err := rt.InvokeOne(add, In(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(add, Param{dir: DirInOut, val: f}); err == nil {
		t.Fatal("future with INOUT direction accepted")
	}
}

func TestFailFastAbortsWorkflow(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	boom := rt.MustRegister(TaskDef{
		Name:    "boom",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return nil, errors.New("kaput") },
	})
	add := rt.MustRegister(TaskDef{
		Name:    "after",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{1}, nil },
	})
	f, err := rt.InvokeOne(boom)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rt.InvokeOne(add, In(f))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); !errors.Is(err, ErrWorkflowFailed) {
		t.Fatalf("Barrier err = %v, want ErrWorkflowFailed", err)
	}
	if _, err := g.Get(); err == nil {
		t.Fatal("successor of failed task should error")
	}
	if _, err := rt.InvokeOne(add, In(1)); !errors.Is(err, ErrWorkflowFailed) {
		t.Fatalf("post-abort invoke err = %v", err)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	rt := newRT(t, 2)
	var attempts int64
	flaky := rt.MustRegister(TaskDef{
		Name:    "flaky",
		Outputs: 1,
		Retries: 3,
		Fn: func(args []any) ([]any, error) {
			if atomic.AddInt64(&attempts, 1) < 3 {
				return nil, errors.New("transient")
			}
			return []any{"recovered"}, nil
		},
	})
	f, err := rt.InvokeOne(flaky)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v != "recovered" || atomic.LoadInt64(&attempts) != 3 {
		t.Fatalf("v=%v attempts=%d", v, attempts)
	}
}

func TestIgnorePolicyContinuesSuccessors(t *testing.T) {
	rt := newRT(t, 2)
	bad := rt.MustRegister(TaskDef{
		Name:      "bad",
		Outputs:   1,
		OnFailure: Ignore,
		Fn:        func(args []any) ([]any, error) { return nil, errors.New("nope") },
	})
	after := rt.MustRegister(TaskDef{
		Name:    "cont",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			if args[0] == nil {
				return []any{"ran with null input"}, nil
			}
			return []any{"unexpected"}, nil
		},
	})
	f, _ := rt.InvokeOne(bad)
	g, _ := rt.InvokeOne(after, In(f))
	if err := rt.Barrier(); err != nil {
		t.Fatalf("ignored failure must not fail workflow: %v", err)
	}
	v, err := g.Get()
	if err != nil || v != "ran with null input" {
		t.Fatalf("successor got %v, %v", v, err)
	}
	st := rt.Stats()
	if st.Ignored != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCancelSuccessorsPolicy(t *testing.T) {
	rt := newRT(t, 4)
	bad := rt.MustRegister(TaskDef{
		Name:      "badcs",
		Outputs:   1,
		OnFailure: CancelSuccessors,
		Fn:        func(args []any) ([]any, error) { return nil, errors.New("dead branch") },
	})
	ok := rt.MustRegister(TaskDef{
		Name:    "okbranch",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{7}, nil },
	})
	dep := rt.MustRegister(TaskDef{
		Name:    "dep",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{args[0]}, nil },
	})
	fbad, _ := rt.InvokeOne(bad)
	fdep, _ := rt.InvokeOne(dep, In(fbad))
	fdep2, _ := rt.InvokeOne(dep, In(fdep)) // transitive successor
	fok, _ := rt.InvokeOne(ok)
	if err := rt.Barrier(); err != nil {
		t.Fatalf("cancel-successors must not abort workflow: %v", err)
	}
	if _, err := fdep.Get(); err == nil {
		t.Fatal("direct successor should be cancelled/failed")
	}
	if _, err := fdep2.Get(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("transitive successor err = %v, want ErrCancelled", err)
	}
	if v, err := fok.Get(); err != nil || v.(int) != 7 {
		t.Fatalf("independent branch got %v, %v", v, err)
	}
	st := rt.Stats()
	if st.Cancelled < 1 || st.Failed != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanicIsolatedAsError(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	p := rt.MustRegister(TaskDef{
		Name:      "panics",
		Outputs:   1,
		OnFailure: Ignore,
		Fn:        func(args []any) ([]any, error) { panic("boom") },
	})
	f, _ := rt.InvokeOne(p)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if v, err := f.Get(); v != nil || err != nil {
		t.Fatalf("ignored panic got %v, %v", v, err)
	}
}

func TestWrongOutputCountIsFailure(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	p := rt.MustRegister(TaskDef{
		Name:    "short",
		Outputs: 2,
		Fn:      func(args []any) ([]any, error) { return []any{1}, nil },
	})
	if _, err := rt.Invoke(p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); !errors.Is(err, ErrWorkflowFailed) {
		t.Fatalf("err = %v, want workflow failure for wrong arity", err)
	}
}

func TestTryGetAndDone(t *testing.T) {
	rt := newRT(t, 1)
	slow := rt.MustRegister(TaskDef{
		Name:    "slow",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			time.Sleep(20 * time.Millisecond)
			return []any{1}, nil
		},
	})
	f, _ := rt.InvokeOne(slow)
	if _, ok := f.TryGet(); ok {
		t.Fatal("TryGet should not resolve immediately")
	}
	if _, err := f.Get(); err != nil {
		t.Fatal(err)
	}
	if !f.Done() {
		t.Fatal("Done should be true after Get")
	}
	if v, ok := f.TryGet(); !ok || v.(int) != 1 {
		t.Fatalf("TryGet after done = %v, %v", v, ok)
	}
}

func TestGraphMatchesInvocations(t *testing.T) {
	rt := newRT(t, 4)
	add := addTask(t, rt)
	a, _ := rt.InvokeOne(add, In(1))
	b, _ := rt.InvokeOne(add, In(2))
	if _, err := rt.InvokeOne(add, In(a), In(b)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	g := rt.Graph()
	if g.Len() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("graph %d nodes %d edges, want 3/2", g.Len(), g.EdgeCount())
	}
	w, err := g.MaxWidth()
	if err != nil || w != 2 {
		t.Fatalf("width = %d (%v), want 2", w, err)
	}
}

func TestTracingRecordsEvents(t *testing.T) {
	rt := newRT(t, 2)
	add := addTask(t, rt)
	if _, err := rt.InvokeOne(add, In(5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	tasks := rt.Provenance("trace").Tasks
	if len(tasks) != 1 || tasks[0].Name != "add" || tasks[0].State != "DONE" {
		t.Fatalf("provenance tasks = %+v", tasks)
	}
}

func TestClusterPlacementLocality(t *testing.T) {
	c := cluster.New(2, 4, 4096)
	rt := NewRuntime(Config{Workers: 4, Cluster: c})
	defer rt.Shutdown()
	produce := rt.MustRegister(TaskDef{
		Name:    "produce",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{42}, nil },
	})
	consume := rt.MustRegister(TaskDef{
		Name:    "consume",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{args[0]}, nil },
	})
	f, _ := rt.InvokeOne(produce)
	g, _ := rt.InvokeOne(consume, In(f))
	if _, err := g.Get(); err != nil {
		t.Fatal(err)
	}
	// The produced value was placed somewhere; the consumer should have
	// found it locally, so no transfer happened.
	if st := c.Stats(); st.Transfers != 0 {
		t.Fatalf("transfers = %d, want 0 (locality placement)", st.Transfers)
	}
}

func TestStatsCounts(t *testing.T) {
	rt := newRT(t, 2)
	add := addTask(t, rt)
	for i := 0; i < 5; i++ {
		if _, err := rt.InvokeOne(add, In(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Invoked != 5 || st.Done != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: a random two-layer fan graph always computes the same sums a
// sequential evaluation would.
func TestDeterministicResultsProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 24 {
			vals = vals[:24]
		}
		rt := NewRuntime(Config{Workers: 4})
		defer rt.Shutdown()
		add, _ := rt.Register(TaskDef{
			Name:    "add",
			Outputs: 1,
			Fn: func(args []any) ([]any, error) {
				s := 0
				for _, a := range args {
					s += a.(int)
				}
				return []any{s}, nil
			},
		})
		futs := make([]*Future, len(vals))
		want := 0
		for i, v := range vals {
			futs[i], _ = rt.InvokeOne(add, In(int(v)), In(i))
			want += int(v) + i
		}
		total, _ := rt.InvokeOne(add, futureParams(futs)...)
		got, err := total.Get()
		return err == nil && got.(int) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func futureParams(fs []*Future) []Param {
	out := make([]Param, len(fs))
	for i, f := range fs {
		out[i] = In(f)
	}
	return out
}

// Property: for any interleaving of reader and writer invocations on a
// Shared datum, every reader observes exactly the value produced by
// the writes invoked before it, and the final value equals the
// sequential sum — program order defines the dataflow, not execution
// timing.
func TestSharedOrderingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		rt := NewRuntime(Config{Workers: 4})
		defer rt.Shutdown()
		s := rt.NewShared("v", 0)
		addN := rt.MustRegister(TaskDef{
			Name:    "addn",
			Outputs: 1,
			Fn: func(args []any) ([]any, error) {
				return []any{args[0].(int) + args[1].(int)}, nil
			},
		})
		observe := rt.MustRegister(TaskDef{
			Name:    "observe",
			Outputs: 1,
			Fn: func(args []any) ([]any, error) {
				return []any{args[0].(int)}, nil
			},
		})
		type expectation struct {
			fut  *Future
			want int
		}
		var reads []expectation
		expected := 0
		for _, op := range ops {
			if op%3 == 0 { // write: add op
				inc := int(op)
				if _, err := rt.Invoke(addN, InOut(s), In(inc)); err != nil {
					return false
				}
				expected += inc
			} else { // read
				fut, err := rt.InvokeOne(observe, In(s))
				if err != nil {
					return false
				}
				reads = append(reads, expectation{fut: fut, want: expected})
			}
		}
		if err := rt.Barrier(); err != nil {
			return false
		}
		for _, r := range reads {
			v, err := r.fut.Get()
			if err != nil || v.(int) != r.want {
				return false
			}
		}
		return s.Value().(int) == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortCancelsPendingKeepsRunning(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	slow := rt.MustRegister(TaskDef{
		Name:    "slowabort",
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			close(started)
			<-release
			return []any{"finished"}, nil
		},
	})
	quick := rt.MustRegister(TaskDef{
		Name:    "quickabort",
		Outputs: 1,
		Fn:      func(args []any) ([]any, error) { return []any{1}, nil },
	})
	running, _ := rt.InvokeOne(slow)
	// a dependent waits on the running task and must be cancelled
	pending, _ := rt.InvokeOne(quick, In(running))
	<-started
	rt.Abort("operator stop")
	close(release)
	if err := rt.Barrier(); !errors.Is(err, ErrWorkflowFailed) {
		t.Fatalf("Barrier err = %v", err)
	}
	// the in-flight task completed normally
	if v, err := running.Get(); err != nil || v != "finished" {
		t.Fatalf("running task got %v, %v", v, err)
	}
	if _, err := pending.Get(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("pending task err = %v, want ErrCancelled", err)
	}
	if _, err := rt.InvokeOne(quick, In(1)); !errors.Is(err, ErrWorkflowFailed) {
		t.Fatalf("post-abort invoke err = %v", err)
	}
	rt.Abort("idempotent") // second abort is a no-op
}

func TestDirectionAndPolicyStrings(t *testing.T) {
	cases := map[string]string{
		DirIn.String():             "IN",
		DirOut.String():            "OUT",
		DirInOut.String():          "INOUT",
		FailFast.String():          "FAIL_FAST",
		Ignore.String():            "IGNORE",
		CancelSuccessors.String():  "CANCEL_SUCCESSORS",
		stateRecovered.String():    "RECOVERED",
		Direction(9).String():      "Direction(9)",
		FailurePolicy(9).String():  "FailurePolicy(9)",
		fmt.Sprint(taskState(99)):  "taskState(99)",
		fmt.Sprint(statePending):   "PENDING",
		fmt.Sprint(stateRunning):   "RUNNING",
		fmt.Sprint(stateReady):     "READY",
		fmt.Sprint(stateDone):      "DONE",
		fmt.Sprint(stateFailed):    "FAILED",
		fmt.Sprint(stateCancelled): "CANCELLED",
		fmt.Sprint(stateIgnored):   "IGNORED",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("string %q != %q", got, want)
		}
	}
}
