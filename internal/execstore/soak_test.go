package execstore

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakHandler is a deterministic function of the task payload: it
// hashes the payload, "works" for a payload-derived duration (honoring
// ctx so killed replicas stop promptly), and returns a canonical JSON
// output. Determinism is what upgrades exactly-once COMPLETION into
// byte-identical OUTPUTS even when a crash forces re-execution.
func soakHandler(execCount *sync.Map) Handler {
	return func(ctx context.Context, t TaskView) (json.RawMessage, error) {
		if execCount != nil {
			c, _ := execCount.LoadOrStore(t.ID, new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
		}
		h := fnv.New64a()
		h.Write([]byte(t.ID))
		h.Write(t.Payload)
		sum := h.Sum64()
		work := time.Duration(sum%20+5) * time.Millisecond
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(work):
		}
		out, _ := json.Marshal(map[string]any{"id": t.ID, "digest": fmt.Sprintf("%016x", sum)})
		return out, nil
	}
}

// runCleanSoak executes the task set on one healthy replica and returns
// the reference outputs.
func runCleanSoak(t *testing.T, tasks []Task) map[string]string {
	t.Helper()
	s := openStore(t, Config{MaxPending: 1 << 14, LeaseTTL: 500 * time.Millisecond})
	r, err := NewReplica(ReplicaConfig{ID: "clean-1", Store: s, Workers: 8, Handler: soakHandler(nil)})
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	defer r.Kill()
	for _, task := range tasks {
		mustSubmit(t, s, task)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("clean run did not finish: %v", err)
	}
	return collectOutputs(t, s, tasks)
}

func collectOutputs(t *testing.T, s *Store, tasks []Task) map[string]string {
	t.Helper()
	outs := make(map[string]string, len(tasks))
	for _, task := range tasks {
		v, ok := s.Get(task.ID)
		if !ok {
			t.Fatalf("task %s lost", task.ID)
		}
		if v.State != StateDone {
			t.Fatalf("task %s ended %s (err %q), want DONE", task.ID, v.State, v.Err)
		}
		outs[task.ID] = string(v.Output)
	}
	return outs
}

// TestReplicaSoakKillRestart is the chaos soak from the issue: N
// replicas drain a multi-tenant backlog while a chaos loop repeatedly
// kills one mid-run and starts a replacement. Every task must complete
// exactly once with output byte-identical to a clean (no-chaos) run.
func TestReplicaSoakKillRestart(t *testing.T) {
	nTasks, minKills := 400, 3
	if testing.Short() {
		nTasks, minKills = 150, 1 // smoke: one kill still proves reclaim+fence
	}
	const nTenants = 10
	tasks := make([]Task, nTasks)
	for i := range tasks {
		tasks[i] = Task{
			ID:      fmt.Sprintf("soak-%03d", i),
			Tenant:  fmt.Sprintf("tenant-%d", i%nTenants),
			Kind:    []string{"sim", "post", "ml"}[i%3],
			Payload: json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i*7919)),
		}
	}
	reference := runCleanSoak(t, tasks)

	// Chaotic run: 3 replicas, short leases so reclaim is fast, and a
	// killer loop cycling through them.
	s := openStore(t, Config{
		MaxPending: 1 << 14,
		LeaseTTL:   250 * time.Millisecond,
		SweepEvery: 20 * time.Millisecond,
	})
	var execCount sync.Map
	newRep := func(id string) *Replica {
		r, err := NewReplica(ReplicaConfig{
			ID: id, Store: s, Workers: 4, Handler: soakHandler(&execCount),
		})
		if err != nil {
			t.Fatalf("NewReplica(%s): %v", id, err)
		}
		return r
	}
	var mu sync.Mutex
	reps := []*Replica{newRep("rep-0"), newRep("rep-1"), newRep("rep-2")}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range reps {
			r.Kill()
		}
	})

	stopChaos := make(chan struct{})
	chaosDone := make(chan int)
	go func() {
		kills := 0
		gen := 3
		for {
			select {
			case <-stopChaos:
				chaosDone <- kills
				return
			case <-time.After(60 * time.Millisecond):
			}
			mu.Lock()
			victim := reps[kills%len(reps)]
			victim.Kill() // crash: held leases are silently abandoned
			kills++
			reps[(kills-1)%len(reps)] = newRep(fmt.Sprintf("rep-%d", gen))
			gen++
			mu.Unlock()
		}
	}()

	// Concurrent submitting clients, retrying on shed like real ones.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < nTasks; i += 4 {
				for {
					_, err := s.Submit(tasks[i])
					if err == nil {
						break
					}
					se, ok := AsShed(err)
					if !ok {
						t.Errorf("Submit(%s): %v", tasks[i].ID, err)
						return
					}
					time.Sleep(se.RetryAfter)
				}
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("chaotic run did not converge: %v (stats %+v)", err, s.Stats())
	}
	close(stopChaos)
	kills := <-chaosDone
	if kills < minKills {
		t.Fatalf("chaos loop only killed %d replicas; soak too short to mean anything", kills)
	}

	// Zero lost, zero double-completed, outputs byte-identical.
	got := collectOutputs(t, s, tasks)
	for id, want := range reference {
		if got[id] != want {
			t.Fatalf("task %s output diverged:\n  clean: %s\n  chaos: %s", id, want, got[id])
		}
	}
	st := s.Stats()
	if st.Completed != uint64(nTasks) {
		t.Fatalf("Completed = %d, want exactly %d", st.Completed, nTasks)
	}
	if st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("failed=%d canceled=%d, want 0/0", st.Failed, st.Canceled)
	}

	// Re-executions are allowed (that's what reclaim is for) but every
	// surplus execution must correspond to a reclaimed or fenced
	// attempt, and there must be some if kills landed mid-run.
	var reexecs int64
	execCount.Range(func(_, v any) bool {
		if n := v.(*atomic.Int64).Load(); n > 1 {
			reexecs += n - 1
		}
		return true
	})
	t.Logf("soak: %d kills, %d reclaims, %d fenced, %d re-executions, epoch %d",
		kills, st.Reclaimed, st.Fenced, reexecs, st.Epoch)
	if reexecs > 0 && st.Reclaimed == 0 && st.Fenced == 0 {
		t.Fatal("re-executions happened without any reclaim/fence — exactly-once bookkeeping is broken")
	}
}

// TestReplicaKilledDispatchStaysSilent replays the soak's rare
// interleaving deterministically: fetchLoop holds a fresh lease when
// Kill closes the local queue, so dispatch's submit fails. A killed
// replica must abandon that lease (it expires and is reclaimed), not
// report a failure that would burn the task's retry budget.
func TestReplicaKilledDispatchStaysSilent(t *testing.T) {
	s := openStore(t, Config{MaxPending: 16, LeaseTTL: time.Hour})
	r, err := NewReplica(ReplicaConfig{ID: "r", Store: s, Workers: 1,
		Handler: func(context.Context, TaskView) (json.RawMessage, error) { return json.RawMessage(`"ok"`), nil }})
	if err != nil {
		t.Fatal(err)
	}
	r.Kill()
	mustSubmit(t, s, Task{ID: "k-1", Tenant: "x"})
	ls := s.TryAcquire("r", 1)
	if len(ls) != 1 {
		t.Fatalf("acquired %d leases, want 1", len(ls))
	}
	r.dispatch(ls[0])
	if v, _ := s.Get("k-1"); v.State != StateLeased {
		t.Fatalf("task state after dispatch on a killed replica = %s (err %q), want %s", v.State, v.Err, StateLeased)
	}
}

// TestReplicaDrainHandsBackWork verifies graceful shutdown: a draining
// replica finishes its running tasks and the rest of the backlog stays
// available to a peer.
func TestReplicaDrainHandsBackWork(t *testing.T) {
	s := openStore(t, Config{MaxPending: 1 << 10, LeaseTTL: time.Second})
	var execs atomic.Int64
	handler := func(ctx context.Context, tv TaskView) (json.RawMessage, error) {
		execs.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		return json.RawMessage(`"ok"`), nil
	}
	r1, err := NewReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 2, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustSubmit(t, s, Task{ID: fmt.Sprintf("d-%d", i), Tenant: "x"})
	}
	time.Sleep(10 * time.Millisecond) // let r1 start chewing
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := r1.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	r2, err := NewReplica(ReplicaConfig{ID: "r2", Store: s, Workers: 4, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Kill()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := s.WaitIdle(wctx); err != nil {
		t.Fatalf("backlog never drained after handoff: %v (stats %+v)", err, s.Stats())
	}
	if st := s.Stats(); st.Completed != 50 {
		t.Fatalf("Completed = %d, want 50", st.Completed)
	}
}
