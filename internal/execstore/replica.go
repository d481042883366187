package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Handler executes one leased task and returns its output. Handlers
// must be deterministic functions of the task payload for the
// exactly-once guarantee to extend to outputs: a reclaimed task may be
// EXECUTED more than once (the first holder died mid-run), but only one
// execution's output passes the epoch fence, and determinism makes the
// survivor byte-identical to what the dead holder would have produced.
type Handler func(ctx context.Context, t TaskView) (json.RawMessage, error)

// ReplicaConfig parameterizes one executor replica.
type ReplicaConfig struct {
	// ID names the replica in leases and metrics ("replica-1"...).
	ID string
	// Store is the shared execution store the replica pulls from.
	Store *Store
	// Workers is the local execution parallelism (default 4). The
	// replica holds at most 2×Workers leases: one running per worker
	// and up to Workers prefetched in the hand-off.
	Workers int
	// Handler runs each task.
	Handler Handler
}

// Replica is one stateless executor: a fetch loop that leases tasks
// from the shared store and hands them to a fixed pool of Workers
// goroutines over a bounded channel, and a renew loop that keeps held
// leases alive at TTL/3. All durable state lives in the store — Kill a
// replica and nothing is lost: its leases expire, the store reclaims the
// tasks, and a peer replica (or this one after restart) re-runs them
// behind the epoch fence.
type Replica struct {
	cfg        ReplicaConfig
	renewEvery time.Duration
	// leases hands leases from the fetch loop to the workers. Its
	// capacity, Workers, is the prefetch: with every worker busy the
	// fetch loop may hold Workers more leases, and capacity() never
	// lets held exceed 2×Workers, so a send never waits on a full
	// channel for long.
	leases chan Lease
	held   atomic.Int64  // leases dispatched and not yet finished by a worker
	freed  chan struct{} // cap 1: wakes a saturated fetch loop when a worker finishes

	fetchCtx  context.Context // fetch loop; canceled by Drain and Kill
	stopFetch context.CancelFunc
	runCtx    context.Context // handlers and the renew loop
	stopRun   context.CancelFunc
	fetchDone chan struct{}
	renewDone chan struct{}
	workers   sync.WaitGroup

	mu     sync.Mutex
	killed bool
	closed bool                // leases channel closed
	local  map[string]localJob // taskID -> local execution
}

// localJob is one lease the replica holds; cancel is set once a worker
// has started the handler.
type localJob struct {
	lease  Lease
	cancel context.CancelFunc
}

// NewReplica starts an executor replica against the store.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Store == nil {
		return nil, errors.New("execstore: replica needs a store")
	}
	if cfg.Handler == nil {
		return nil, errors.New("execstore: replica needs a handler")
	}
	if cfg.ID == "" {
		return nil, errors.New("execstore: replica needs an id")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	r := &Replica{
		cfg:        cfg,
		renewEvery: max(cfg.Store.cfg.LeaseTTL/3, time.Millisecond),
		leases:     make(chan Lease, cfg.Workers),
		freed:      make(chan struct{}, 1),
		fetchDone:  make(chan struct{}),
		renewDone:  make(chan struct{}),
		local:      make(map[string]localJob),
	}
	r.fetchCtx, r.stopFetch = context.WithCancel(context.Background())
	r.runCtx, r.stopRun = context.WithCancel(context.Background())
	cfg.Store.RegisterReplica(cfg.ID, cfg.Workers)
	r.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	go r.fetchLoop()
	go r.renewLoop()
	return r, nil
}

// ID returns the replica's name.
func (r *Replica) ID() string { return r.cfg.ID }

// fetchLoop pulls leases from the store whenever the pool has capacity
// and hands each to the workers.
func (r *Replica) fetchLoop() {
	defer close(r.fetchDone)
	for {
		want := r.capacity()
		if want == 0 {
			// Pool saturated; wait for a worker to finish a lease.
			select {
			case <-r.fetchCtx.Done():
				return
			case <-r.freed:
			}
			continue
		}
		leases, err := r.cfg.Store.AwaitAcquire(r.fetchCtx, r.cfg.ID, want)
		if err != nil {
			return // ctx canceled or store closed
		}
		for _, l := range leases {
			r.dispatch(l)
		}
	}
}

// capacity is how many more leases the pool can take: up to Workers
// per fetch, and never more than 2×Workers held in total.
func (r *Replica) capacity() int {
	free := 2*r.cfg.Workers - int(r.held.Load())
	return max(0, min(free, r.cfg.Workers))
}

// dispatch hands one lease to the workers. The send never waits long:
// the fetch loop only acquires what capacity allows, so either the
// channel has room or a worker is idle. A replica that has stopped says
// nothing and lets the lease expire, so the store reclaims the task
// without burning its retry budget.
func (r *Replica) dispatch(l Lease) {
	r.mu.Lock()
	if r.killed || r.closed {
		r.mu.Unlock()
		return
	}
	r.local[l.TaskID] = localJob{lease: l}
	r.mu.Unlock()
	r.held.Add(1)
	r.leases <- l
}

// worker runs handed-off leases until the channel closes.
func (r *Replica) worker() {
	defer r.workers.Done()
	for l := range r.leases {
		r.run(l)
		r.held.Add(-1)
		select {
		case r.freed <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// run executes one lease and reports the outcome to the STORE: retry
// policy is global (task.Retries, store backoff). A lease that was
// canceled before it started, or that a killed or timed-out replica
// never started, is skipped without a report.
func (r *Replica) run(l Lease) {
	ctx, cancel := context.WithCancel(r.runCtx)
	defer cancel()
	r.mu.Lock()
	lj, ok := r.local[l.TaskID]
	if r.killed || ctx.Err() != nil || !ok || lj.lease.Epoch != l.Epoch {
		r.forgetLocked(l)
		r.mu.Unlock()
		return
	}
	lj.cancel = cancel
	r.local[l.TaskID] = lj
	r.mu.Unlock()

	out, err := r.invoke(ctx, l.Task)

	r.mu.Lock()
	dead := r.killed
	r.forgetLocked(l)
	r.mu.Unlock()
	if dead {
		return // abandoned: say nothing, let the lease expire
	}
	// A report fails only when the task moved on without this lease
	// (reclaimed, canceled, evicted); nothing is left to do here.
	if err != nil {
		_ = r.cfg.Store.Fail(l, err)
		return
	}
	_ = r.cfg.Store.Complete(l, out)
}

// invoke runs the handler, turning a panic into a permanent failure so
// the task finalizes FAILED instead of sitting LEASED forever.
func (r *Replica) invoke(ctx context.Context, t TaskView) (out json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = chaos.Permanent(fmt.Errorf("execstore: handler panicked on task %s: %v", t.ID, p))
		}
	}()
	return r.cfg.Handler(ctx, t)
}

// forgetLocked drops the local entry for l, unless the task has since
// been re-leased to this replica under a newer epoch.
func (r *Replica) forgetLocked(l Lease) {
	if lj, ok := r.local[l.TaskID]; ok && lj.lease.Epoch == l.Epoch {
		delete(r.local, l.TaskID)
	}
}

// renewLoop extends held leases at TTL/3 and cancels local jobs whose
// store-side task got a cancel request. It keeps running through a
// drain, so tasks finishing during shutdown are not reclaimed.
func (r *Replica) renewLoop() {
	defer close(r.renewDone)
	tick := time.NewTicker(r.renewEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.runCtx.Done():
			return
		case <-tick.C:
			_, canceled := r.cfg.Store.Renew(r.cfg.ID)
			for _, id := range canceled {
				r.cancelLocal(id)
			}
		}
	}
}

// cancelLocal stops the local job executing the given task, then fails
// the lease back as canceled. A job still waiting in the hand-off is
// skipped by its worker; a running one has its context canceled and its
// own report is fenced as a no-op — either way the task finalizes
// exactly once.
func (r *Replica) cancelLocal(taskID string) {
	r.mu.Lock()
	lj, ok := r.local[taskID]
	delete(r.local, taskID)
	r.mu.Unlock()
	if !ok {
		return
	}
	if lj.cancel != nil {
		lj.cancel()
	}
	_ = r.cfg.Store.Fail(lj.lease, context.Canceled) // fenced if the task already finished
}

// closeLeases ends the hand-off once the fetch loop has exited; the
// workers run (or, after Kill, skip) what it still holds and return.
func (r *Replica) closeLeases() {
	<-r.fetchDone
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.leases)
	}
	r.mu.Unlock()
}

// Drain gracefully stops the replica: no new leases are fetched, and
// every lease already held runs and reports while the renew loop keeps
// it alive. If ctx expires first, running handlers are canceled (each
// still reports its outcome), leases not yet started are abandoned for
// the store to reclaim, and Drain returns ctx.Err().
func (r *Replica) Drain(ctx context.Context) error {
	r.stopFetch()
	r.closeLeases()
	done := make(chan struct{})
	go func() {
		r.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.stopRun()
		<-done
	}
	r.stopRun()
	<-r.renewDone
	r.cfg.Store.DeregisterReplica(r.cfg.ID)
	return err
}

// Kill simulates a crash or partition: loops stop, running handlers
// are canceled, and nothing is reported to the store — held leases
// simply stop being renewed and expire, at which point the store
// reclaims the tasks for other replicas. This is the chaos entry point.
func (r *Replica) Kill() {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	r.mu.Unlock()
	r.stopFetch()
	r.stopRun()
	r.closeLeases()
	r.workers.Wait()
	<-r.renewDone
}
