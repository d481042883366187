package hpcwaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/execstore"
)

// newQueuedService builds a deployed service on a deliberately small
// store so admission control is observable.
func newQueuedService(t *testing.T, cfg serviceConfig, app AppFunc) (*Frontend, *execstore.Store, *httptest.Server) {
	t.Helper()
	cfg.Deployer = newTestDeployer(t)
	reg := NewRegistry()
	if err := reg.Register(demoEntry("climate", app)); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Lookup("climate")
	if _, err := cfg.Deployer.Deploy(e, "zeus"); err != nil {
		t.Fatal(err)
	}
	return newService(t, reg, cfg)
}

// TestConcurrentAPIStress fires many parallel POST /api/executions from
// two principals against a small store and asserts quota enforcement,
// 429/503 + Retry-After semantics and that every accepted execution
// reaches exactly one terminal state (run with -race).
func TestConcurrentAPIStress(t *testing.T) {
	const quota = 3
	svc, store, srv := newQueuedService(t, serviceConfig{
		Store:   execstore.Config{MaxPending: 4, PerTenantLimit: quota, Retention: 4096},
		Workers: 2,
	}, func(params map[string]string) (map[string]string, error) {
		time.Sleep(2 * time.Millisecond)
		return map[string]string{"ok": "1"}, nil
	})
	svc.AuthorizeToken("tok-alice", "alice")
	svc.AuthorizeToken("tok-bob", "bob")

	post := func(token string) (int, string, string, error) {
		body, _ := json.Marshal(map[string]any{"workflow": "climate"})
		req, _ := http.NewRequest("POST", srv.URL+"/api/executions", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := srv.Client().Do(req)
		if err != nil {
			return 0, "", "", err
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		id, _ := out["id"].(string)
		return resp.StatusCode, id, resp.Header.Get("Retry-After"), nil
	}

	const perPrincipal = 30
	var (
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	var wg sync.WaitGroup
	for _, token := range []string{"tok-alice", "tok-bob"} {
		for i := 0; i < perPrincipal; i++ {
			wg.Add(1)
			go func(token string) {
				defer wg.Done()
				code, id, retryAfter, err := post(token)
				if err != nil {
					t.Error(err)
					return
				}
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, id)
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
						t.Errorf("%d without usable Retry-After: %q", code, retryAfter)
					}
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d", code)
				}
			}(token)
		}
	}
	// concurrently observe the store: per-principal live executions
	// must respect the quota at every sample
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			live := map[string]int{}
			for _, v := range store.List("") {
				if !v.State.Terminal() {
					live[v.Tenant]++
				}
			}
			for p, n := range live {
				if n > quota {
					t.Errorf("principal %s over quota: %d live executions", p, n)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()

	mu.Lock()
	ids := append([]string(nil), accepted...)
	nRejected := rejected
	mu.Unlock()
	if len(ids)+nRejected != 2*perPrincipal {
		t.Fatalf("accepted %d + rejected %d != %d", len(ids), nRejected, 2*perPrincipal)
	}
	if len(ids) == 0 || nRejected == 0 {
		t.Fatalf("load did not exercise admission: accepted=%d rejected=%d", len(ids), nRejected)
	}
	if stats := store.Stats(); stats.Shed["tenant-quota"]+stats.Shed["depth"] == 0 {
		t.Fatalf("no admission rejections recorded: %+v", stats)
	}

	waitIdle(t, store)

	// no lost or duplicated terminal states: every accepted ID appears
	// exactly once in the listing, DONE
	req, _ := http.NewRequest("GET", srv.URL+"/api/executions", nil)
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var list []Execution
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	seen := make(map[string]int)
	for _, ex := range list {
		seen[ex.ID]++
		if ex.Status != ExecDone {
			t.Errorf("execution %s status = %s, want DONE", ex.ID, ex.Status)
		}
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("accepted execution %s listed %d times", id, seen[id])
		}
	}
	if len(list) != len(ids) {
		t.Fatalf("listing has %d executions, accepted %d", len(list), len(ids))
	}
}

// TestExecutionRetention: old completed records evict, evicted IDs
// answer 410 on GET and DELETE, and unknown IDs stay 404.
func TestExecutionRetention(t *testing.T) {
	_, store, srv := newQueuedService(t, serviceConfig{
		Store:   execstore.Config{Retention: 3},
		Workers: 1,
	}, func(params map[string]string) (map[string]string, error) {
		return map[string]string{"ok": "1"}, nil
	})

	for i := 0; i < 6; i++ {
		mustExecute(t, srv, "climate", nil)
		waitIdle(t, store) // serialize so eviction order is deterministic
	}
	list := store.List("")
	if len(list) != 3 {
		t.Fatalf("retained %d records, want 3", len(list))
	}
	if list[0].ID != "task-4" || list[2].ID != "task-6" {
		t.Fatalf("retained window = %s..%s, want task-4..task-6", list[0].ID, list[2].ID)
	}

	// evicted ID: distinct "expired" signal, REST answers 410
	if _, st := store.Lookup("task-1"); st != execstore.LookupExpired {
		t.Fatalf("task-1 lookup = %v, want LookupExpired", st)
	}
	if _, ok := store.Get("task-1"); ok {
		t.Fatal("Get returned an evicted record")
	}
	if _, st := store.Lookup("task-999"); st != execstore.LookupUnknown {
		t.Fatalf("task-999 lookup = %v, want LookupUnknown", st)
	}
	code, _ := restCall(t, srv, "GET", "/api/executions/task-1", nil)
	if code != http.StatusGone {
		t.Fatalf("evicted GET code = %d, want 410", code)
	}
	code, _ = restCall(t, srv, "DELETE", "/api/executions/task-1", nil)
	if code != http.StatusGone {
		t.Fatalf("evicted DELETE code = %d, want 410", code)
	}
	code, _ = restCall(t, srv, "GET", "/api/executions/nonsense", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown GET code = %d, want 404", code)
	}
	code, _ = restCall(t, srv, "DELETE", "/api/executions/task-999", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown DELETE code = %d, want 404", code)
	}
}

// TestListExecutionsOrderAndFilter covers the stable submission order
// and the ?status= filter.
func TestListExecutionsOrderAndFilter(t *testing.T) {
	fail := make(map[string]bool)
	var mu sync.Mutex
	_, store, srv := newQueuedService(t, serviceConfig{Workers: 1},
		func(params map[string]string) (map[string]string, error) {
			mu.Lock()
			bad := fail[params["n"]]
			mu.Unlock()
			if bad {
				return nil, errors.New("synthetic failure")
			}
			return map[string]string{"ok": "1"}, nil
		})

	mu.Lock()
	fail["1"] = true
	mu.Unlock()
	for i := 0; i < 4; i++ {
		mustExecute(t, srv, "climate", map[string]string{"n": strconv.Itoa(i)})
	}
	waitIdle(t, store)

	resp, err := srv.Client().Get(srv.URL + "/api/executions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Execution
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 4 {
		t.Fatalf("list len = %d", len(list))
	}
	for i, ex := range list {
		if want := "task-" + strconv.Itoa(i+1); ex.ID != want {
			t.Fatalf("list[%d] = %s, want %s (stable submission order)", i, ex.ID, want)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/api/executions?status=failed")
	if err != nil {
		t.Fatal(err)
	}
	var failed []Execution
	json.NewDecoder(resp.Body).Decode(&failed)
	resp.Body.Close()
	if len(failed) != 1 || failed[0].ID != "task-2" || failed[0].Status != ExecFailed {
		t.Fatalf("failed filter = %+v", failed)
	}

	resp, err = srv.Client().Get(srv.URL + "/api/executions?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus filter code = %d", resp.StatusCode)
	}
}

// TestCancelEndpoint exercises DELETE /api/executions/{id} for queued
// and terminal records.
func TestCancelEndpoint(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	_, store, srv := newQueuedService(t, serviceConfig{
		Store:   execstore.Config{LeaseTTL: 60 * time.Millisecond},
		Workers: 1,
	}, func(params map[string]string) (map[string]string, error) {
		once.Do(func() { close(started) })
		<-gate
		return map[string]string{"ok": "1"}, nil
	})

	// first occupies the worker; second waits its turn
	mustExecute(t, srv, "climate", nil)
	<-started
	queued := mustExecute(t, srv, "climate", nil)
	if queued.Status != ExecQueued {
		t.Fatalf("second execution status = %s, want QUEUED", queued.Status)
	}

	code, body := restCall(t, srv, "DELETE", "/api/executions/"+queued.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel code = %d %v", code, body)
	}
	// the canceled execution finalizes without its turn on the worker
	deadline := time.Now().Add(5 * time.Second)
	for getExecution(t, store, queued.ID).Status != ExecCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("canceled execution = %+v", getExecution(t, store, queued.ID))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	waitIdle(t, store)
	// terminal record: conflict
	code, _ = restCall(t, srv, "DELETE", "/api/executions/"+queued.ID, nil)
	if code != http.StatusConflict {
		t.Fatalf("double cancel code = %d", code)
	}
	code, _ = restCall(t, srv, "DELETE", "/api/executions/ghost", nil)
	if code != http.StatusNotFound {
		t.Fatalf("ghost cancel code = %d", code)
	}
}

// TestQueueEndpointAndDrain exercises GET /api/store and the graceful
// drain path.
func TestQueueEndpointAndDrain(t *testing.T) {
	svc, store, srv := newQueuedService(t, serviceConfig{
		Store:   execstore.Config{MaxPending: 8},
		Workers: 2,
	}, func(params map[string]string) (map[string]string, error) {
		time.Sleep(time.Millisecond)
		return map[string]string{"ok": "1"}, nil
	})

	for i := 0; i < 6; i++ {
		mustExecute(t, srv, "climate", nil)
	}
	code, stats := restCall(t, srv, "GET", "/api/store", nil)
	if code != http.StatusOK {
		t.Fatalf("store stats code = %d", code)
	}
	if stats["submitted"].(float64) != 6 || stats["replicas_live"].(float64) != 1 {
		t.Fatalf("store stats = %v", stats)
	}

	// drain: intake stops, the backlog finishes, the executor exits
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	store.Drain()
	if err := store.WaitIdle(ctx); err != nil {
		t.Fatalf("store drain: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("executor drain: %v", err)
	}
	// intake rejected after drain
	if code, _ := execute(t, srv, "climate", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain execute code = %d, want 503", code)
	}
	// all six finished
	if done := store.List(execstore.StateDone); len(done) != 6 {
		t.Fatalf("done executions = %d, want 6", len(done))
	}
	code, stats = restCall(t, srv, "GET", "/api/store", nil)
	if code != http.StatusOK || stats["draining"] != true {
		t.Fatalf("post-drain stats = %d %v", code, stats)
	}
}

// TestJournalRecoveryAcrossServices covers crash recovery at the
// service layer: executions pending in a first service's store journal
// are re-run by a second service opened on the same journal.
func TestJournalRecoveryAcrossServices(t *testing.T) {
	journal := t.TempDir() + "/exec-journal.jsonl"
	gate := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})

	d := newTestDeployer(t)
	reg := NewRegistry()
	if err := reg.Register(demoEntry("climate", func(params map[string]string) (map[string]string, error) {
		once.Do(func() { close(started) })
		<-gate
		return map[string]string{"ok": "1"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Lookup("climate")
	if _, err := d.Deploy(e, "zeus"); err != nil {
		t.Fatal(err)
	}

	store1, err := execstore.Open(execstore.Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := NewFrontend(FrontendConfig{ID: "api-1", Store: store1, Registry: reg, Deployer: d, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	for i := 0; i < 3; i++ {
		mustExecute(t, srv1, "climate", map[string]string{"n": strconv.Itoa(i)})
	}
	<-started
	// "crash": the executor dies without reporting and the store goes
	// away; the journal still lists all three as live.
	srv1.Close()
	svc1.KillExecutor()
	store1.Close()

	// the recovered service runs the app to completion
	reg2 := NewRegistry()
	var mu sync.Mutex
	ran := map[string]bool{}
	if err := reg2.Register(demoEntry("climate", func(params map[string]string) (map[string]string, error) {
		mu.Lock()
		ran[params["n"]] = true
		mu.Unlock()
		return map[string]string{"recovered": "yes"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	_, store2, srv2 := newService(t, reg2, serviceConfig{
		Store:    execstore.Config{JournalPath: journal},
		Workers:  2,
		Deployer: d,
	})
	waitIdle(t, store2)

	mu.Lock()
	n := len(ran)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("recovered runs = %d, want 3", n)
	}
	list := store2.List(execstore.StateDone)
	if len(list) != 3 {
		t.Fatalf("recovered DONE records = %d, want 3", len(list))
	}
	for _, v := range list {
		if ex := toExecution(v); ex.Results["recovered"] != "yes" {
			t.Fatalf("recovered record missing results: %+v", ex)
		}
	}
	// new IDs allocate past the recovered ones
	ex := mustExecute(t, srv2, "climate", nil)
	if ex.ID != "task-4" {
		t.Fatalf("post-recovery ID = %s, want task-4", ex.ID)
	}
	waitIdle(t, store2)
	close(gate) // release the abandoned application goroutine
}

// TestPriorityViaREST covers the priority field on POST /api/executions:
// among one principal's pending executions, the higher priority runs
// first.
func TestPriorityViaREST(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string
	_, store, srv := newQueuedService(t, serviceConfig{Workers: 1},
		func(params map[string]string) (map[string]string, error) {
			once.Do(func() { close(started) })
			switch params["tag"] {
			case "head":
				<-gate
			case "fill":
			default:
				mu.Lock()
				order = append(order, params["tag"])
				mu.Unlock()
			}
			return map[string]string{}, nil
		})

	mustExecute(t, srv, "climate", map[string]string{"tag": "head"})
	<-started
	// One worker: "fill" takes the executor's prefetch slot, so the
	// next two stay pending in the store, where priority orders them.
	fill := mustExecute(t, srv, "climate", map[string]string{"tag": "fill"})
	for getExecution(t, store, fill.ID).Status != ExecRunning {
		time.Sleep(time.Millisecond)
	}
	for _, sub := range []struct {
		tag string
		pri int
	}{{"low", 0}, {"high", 9}} {
		code, body := restCall(t, srv, "POST", "/api/executions", map[string]any{
			"workflow": "climate",
			"params":   map[string]string{"tag": sub.tag},
			"priority": sub.pri,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d %v", sub.tag, code, body)
		}
		if sub.pri > 0 && body["priority"] != float64(sub.pri) {
			t.Fatalf("submit %s: priority %v not echoed", sub.tag, body["priority"])
		}
	}
	close(gate)
	waitIdle(t, store)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("dispatch order = %v, want [high low]", order)
	}
}
