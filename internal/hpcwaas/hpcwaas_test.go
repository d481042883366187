package hpcwaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dls"
	"repro/internal/execstore"
	"repro/internal/imagebuilder"
	"repro/internal/tosca"
)

func demoEntry(name string, app AppFunc) Entry {
	if app == nil {
		app = func(params map[string]string) (map[string]string, error) {
			return map[string]string{"echo": params["msg"]}, nil
		}
	}
	return Entry{
		Name:        name,
		Version:     "1.0",
		Description: "test workflow",
		Topology:    tosca.ClimateTopology("zeus"),
		App:         app,
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(demoEntry("wf", nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("wf"); !ok {
		t.Fatal("lookup failed")
	}
	if got := r.List(); len(got) != 1 || got[0] != "wf" {
		t.Fatalf("list = %v", got)
	}
	// replace = new version
	e := demoEntry("wf", nil)
	e.Version = "2.0"
	if err := r.Register(e); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup("wf")
	if got.Version != "2.0" {
		t.Fatalf("version = %q", got.Version)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	e := demoEntry("", nil)
	if err := r.Register(e); err == nil {
		t.Fatal("anonymous entry accepted")
	}
	e = demoEntry("x", nil)
	e.App = nil
	if err := r.Register(e); err == nil {
		t.Fatal("app-less entry accepted")
	}
	e = demoEntry("x", nil)
	e.Topology = nil
	if err := r.Register(e); err == nil {
		t.Fatal("topology-less entry accepted")
	}
	e = demoEntry("x", nil)
	e.Topology = &tosca.Topology{Name: "bad", Nodes: []tosca.Node{{Name: "a", HostedOn: "ghost"}}}
	if err := r.Register(e); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func newTestDeployer(t *testing.T) *Deployer {
	t.Helper()
	d := NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"})
	// provide the climatology pipeline the topology references
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "clim.nc"), []byte("CLIM"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.DLS.Catalog.Register(dls.Dataset{Name: "climatology", Root: src, Files: []string{"clim.nc"}})
	d.Pipelines["stage-in-climatology"] = dls.Pipeline{
		Name:  "stage-in-climatology",
		Steps: []dls.Step{{Kind: "stage_in", Dataset: "climatology", Dir: filepath.Join(t.TempDir(), "staged")}},
	}
	return d
}

func TestDeployWalksTopology(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != StatusDeployed {
		t.Fatalf("status = %v, log: %v", dep.Status, dep.Log)
	}
	if len(dep.Images) != 1 || dep.Images[0].Tag != "climate-ml:x86_64" {
		t.Fatalf("images = %+v", dep.Images)
	}
	joined := strings.Join(dep.Log, "\n")
	for _, frag := range []string{"allocate hpc_cluster", "install esm_model", "pipeline stage-in-climatology complete", "publish extremes_workflow"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("log missing %q:\n%s", frag, joined)
		}
	}
	// cluster allocated before workflow published
	if strings.Index(joined, "allocate hpc_cluster") > strings.Index(joined, "publish extremes_workflow") {
		t.Fatal("lifecycle order violated")
	}
	if !d.ActiveFor("climate") {
		t.Fatal("deployment not active")
	}
}

func TestDeployFailsOnMissingPipeline(t *testing.T) {
	d := NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64"})
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err == nil {
		t.Fatal("missing pipeline accepted")
	}
	if dep.Status != StatusFailed {
		t.Fatalf("status = %v", dep.Status)
	}
	if d.ActiveFor("climate") {
		t.Fatal("failed deployment counted active")
	}
}

func TestUndeploy(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Undeploy(dep.ID, e.Topology); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Get(dep.ID)
	if got.Status != StatusUndeployed {
		t.Fatalf("status = %v", got.Status)
	}
	if d.ActiveFor("climate") {
		t.Fatal("undeployed workflow still active")
	}
	if err := d.Undeploy("dep-999", e.Topology); err == nil {
		t.Fatal("unknown deployment undeployed")
	}
}

// serviceConfig shapes the single-server deployment most tests run
// against: one store and one Frontend with an embedded executor.
type serviceConfig struct {
	Store    execstore.Config
	Workers  int       // default 4
	Deployer *Deployer // nil: a fresh default deployer
}

// newService starts a store, a Frontend with a Deployer over it and an
// HTTP server for its API; everything stops at test cleanup.
func newService(t *testing.T, reg *Registry, cfg serviceConfig) (*Frontend, *execstore.Store, *httptest.Server) {
	t.Helper()
	if reg == nil {
		reg = NewRegistry()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Deployer == nil {
		cfg.Deployer = NewDeployer(nil, nil, imagebuilder.Platform{})
	}
	store := openTestStore(t, cfg.Store)
	f := newTestFrontend(t, FrontendConfig{
		ID: "api-0", Store: store, Registry: reg, Deployer: cfg.Deployer, Workers: cfg.Workers,
	})
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, store, srv
}

// execute submits through POST /api/executions and returns the status
// code and the decoded body.
func execute(t *testing.T, srv *httptest.Server, workflow string, params map[string]string) (int, Execution) {
	t.Helper()
	resp := postExecution(t, srv.URL, workflow, params)
	defer resp.Body.Close()
	var ex Execution
	_ = json.NewDecoder(resp.Body).Decode(&ex)
	return resp.StatusCode, ex
}

// mustExecute submits and fails the test unless the execution is
// admitted.
func mustExecute(t *testing.T, srv *httptest.Server, workflow string, params map[string]string) Execution {
	t.Helper()
	code, ex := execute(t, srv, workflow, params)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s: %d %+v", workflow, code, ex)
	}
	return ex
}

// waitIdle blocks until no execution is pending or running.
func waitIdle(t *testing.T, s *execstore.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("executions still live: %v (stats %+v)", err, s.Stats())
	}
}

// getExecution reads one execution through the store.
func getExecution(t *testing.T, s *execstore.Store, id string) Execution {
	t.Helper()
	v, ok := s.Get(id)
	if !ok {
		t.Fatalf("execution %s not retained", id)
	}
	return toExecution(v)
}

func TestExecuteLifecycle(t *testing.T) {
	d := newTestDeployer(t)
	reg := NewRegistry()
	reg.Register(demoEntry("climate", nil))
	_, store, srv := newService(t, reg, serviceConfig{Deployer: d})
	e, _ := reg.Lookup("climate")
	if code, _ := execute(t, srv, "climate", nil); code != http.StatusConflict {
		t.Fatalf("execution without deployment: %d, want 409", code)
	}
	if _, err := d.Deploy(e, "zeus"); err != nil {
		t.Fatal(err)
	}
	ex := mustExecute(t, srv, "climate", map[string]string{"msg": "hi"})
	if ex.Status != ExecQueued || ex.ID != "task-1" {
		t.Fatalf("accepted execution = %+v, want task-1 QUEUED", ex)
	}
	waitIdle(t, store)
	got := getExecution(t, store, ex.ID)
	if got.Status != ExecDone || got.Results["echo"] != "hi" {
		t.Fatalf("execution = %+v", got)
	}
	if code, _ := execute(t, srv, "ghost", nil); code != http.StatusNotFound {
		t.Fatalf("unknown workflow: %d, want 404", code)
	}
}

func TestExecuteFailuresCaptured(t *testing.T) {
	d := newTestDeployer(t)
	reg := NewRegistry()
	reg.Register(demoEntry("bad", func(map[string]string) (map[string]string, error) {
		return nil, errors.New("app exploded")
	}))
	reg.Register(demoEntry("panics", func(map[string]string) (map[string]string, error) {
		panic("kaboom")
	}))
	_, store, srv := newService(t, reg, serviceConfig{Deployer: d})
	for _, name := range []string{"bad", "panics"} {
		e, _ := reg.Lookup(name)
		if _, err := d.Deploy(e, "zeus"); err != nil {
			t.Fatal(err)
		}
		ex := mustExecute(t, srv, name, nil)
		waitIdle(t, store)
		got := getExecution(t, store, ex.ID)
		if got.Status != ExecFailed || got.Error == "" {
			t.Fatalf("%s: execution = %+v", name, got)
		}
	}
}

// --- REST API ------------------------------------------------------------

func restCall(t *testing.T, srv *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(data)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestRESTEndToEnd(t *testing.T) {
	d := newTestDeployer(t)
	reg := NewRegistry()
	reg.Register(demoEntry("climate", nil))
	_, _, srv := newService(t, reg, serviceConfig{Deployer: d})

	// list
	resp, err := srv.Client().Get(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0]["name"] != "climate" {
		t.Fatalf("list = %v", list)
	}

	// detail
	code, detail := restCall(t, srv, "GET", "/api/workflows/climate", nil)
	if code != http.StatusOK || detail["topology"] == nil {
		t.Fatalf("detail = %d %v", code, detail)
	}
	if code, _ := restCall(t, srv, "GET", "/api/workflows/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost detail code = %d", code)
	}

	// execute before deploy → conflict
	code, _ = restCall(t, srv, "POST", "/api/executions", map[string]any{"workflow": "climate"})
	if code != http.StatusConflict {
		t.Fatalf("pre-deploy execute code = %d", code)
	}

	// deploy
	code, dep := restCall(t, srv, "POST", "/api/workflows/climate/deploy", map[string]any{"target": "zeus"})
	if code != http.StatusCreated || dep["Status"] != "DEPLOYED" {
		t.Fatalf("deploy = %d %v", code, dep)
	}
	depID := dep["ID"].(string)

	// deployment status
	code, got := restCall(t, srv, "GET", "/api/deployments/"+depID, nil)
	if code != http.StatusOK || got["Workflow"] != "climate" {
		t.Fatalf("deployment get = %d %v", code, got)
	}

	// execute
	code, ex := restCall(t, srv, "POST", "/api/executions",
		map[string]any{"workflow": "climate", "params": map[string]string{"msg": "via REST"}})
	if code != http.StatusAccepted {
		t.Fatalf("execute code = %d (%v)", code, ex)
	}
	exID := ex["id"].(string)

	// poll until done
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, got = restCall(t, srv, "GET", "/api/executions/"+exID, nil)
		if code != http.StatusOK {
			t.Fatalf("poll code = %d", code)
		}
		if got["status"] == "DONE" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("execution stuck: %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	results := got["results"].(map[string]any)
	if results["echo"] != "via REST" {
		t.Fatalf("results = %v", results)
	}

	// undeploy
	code, _ = restCall(t, srv, "POST", "/api/deployments/"+depID+"/undeploy", nil)
	if code != http.StatusOK {
		t.Fatalf("undeploy code = %d", code)
	}
	code, _ = restCall(t, srv, "POST", "/api/executions", map[string]any{"workflow": "climate"})
	if code != http.StatusConflict {
		t.Fatalf("post-undeploy execute code = %d", code)
	}
}

func TestRESTValidation(t *testing.T) {
	_, _, srv := newService(t, nil, serviceConfig{})

	if code, _ := restCall(t, srv, "GET", "/api/executions/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost execution code = %d", code)
	}
	if code, _ := restCall(t, srv, "GET", "/api/deployments/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost deployment code = %d", code)
	}
	if code, _ := restCall(t, srv, "POST", "/api/workflows/ghost/deploy", map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("ghost deploy code = %d", code)
	}
	if code, _ := restCall(t, srv, "POST", "/api/executions", map[string]any{"workflow": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("ghost execute code = %d", code)
	}
	// malformed body
	req, _ := http.NewRequest("POST", srv.URL+"/api/executions", strings.NewReader("{broken"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body code = %d", resp.StatusCode)
	}
}

func TestHealthAndExecutionList(t *testing.T) {
	d := newTestDeployer(t)
	reg := NewRegistry()
	reg.Register(demoEntry("climate", nil))
	_, store, srv := newService(t, reg, serviceConfig{Deployer: d})

	code, health := restCall(t, srv, "GET", "/api/health", nil)
	if code != http.StatusOK || health["status"] != "ok" || health["workflows"].(float64) != 1 {
		t.Fatalf("health = %d %v", code, health)
	}
	e, _ := reg.Lookup("climate")
	if _, err := d.Deploy(e, "zeus"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustExecute(t, srv, "climate", map[string]string{"msg": "x"})
	}
	waitIdle(t, store)
	resp, err := srv.Client().Get(srv.URL + "/api/executions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Execution
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 3 || list[0].ID != "task-1" {
		t.Fatalf("executions = %+v", list)
	}
	for _, ex := range list {
		if ex.Status != ExecDone {
			t.Fatalf("execution %s status %s", ex.ID, ex.Status)
		}
	}
}

func TestTokenAuth(t *testing.T) {
	d := newTestDeployer(t)
	reg := NewRegistry()
	reg.Register(demoEntry("climate", nil))
	svc, _, srv := newService(t, reg, serviceConfig{Deployer: d})
	if err := svc.AuthorizeToken("", "x"); err == nil {
		t.Fatal("empty token accepted")
	}
	if err := svc.AuthorizeToken("secret-1", "alice"); err != nil {
		t.Fatal(err)
	}

	// no token → 401
	resp, err := srv.Client().Get(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated code = %d", resp.StatusCode)
	}
	// wrong token → 401
	req, _ := http.NewRequest("GET", srv.URL+"/api/workflows", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad-token code = %d", resp.StatusCode)
	}
	// right token → 200
	req, _ = http.NewRequest("GET", srv.URL+"/api/workflows", nil)
	req.Header.Set("Authorization", "Bearer secret-1")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated code = %d", resp.StatusCode)
	}
}

func TestNoTokensMeansOpenAPI(t *testing.T) {
	_, _, srv := newService(t, nil, serviceConfig{})
	resp, err := srv.Client().Get(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-mode code = %d", resp.StatusCode)
	}
}

func TestDeployerCacheAcrossDeployments(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	if _, err := d.Deploy(&e, "zeus"); err != nil {
		t.Fatal(err)
	}
	dep2, err := d.Deploy(&e, "marenostrum")
	if err != nil {
		t.Fatal(err)
	}
	if !dep2.Images[0].Cached {
		t.Fatal("second deployment rebuilt the image")
	}
	if d.Builder.Builds() != 1 {
		t.Fatalf("builds = %d", d.Builder.Builds())
	}
}

func ExampleFrontend() {
	// Developers register a workflow and deploy it; users run it
	// through the REST API.
	reg := NewRegistry()
	_ = reg.Register(Entry{
		Name:     "hello",
		Topology: tosca.ClimateTopology("zeus"),
		App: func(p map[string]string) (map[string]string, error) {
			return map[string]string{"greeting": "hello " + p["who"]}, nil
		},
	})
	d := NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64"})
	d.Pipelines["stage-in-climatology"] = dls.Pipeline{Name: "noop"}
	e, _ := reg.Lookup("hello")
	_, _ = d.Deploy(e, "zeus")

	store, _ := execstore.Open(execstore.Config{})
	defer store.Close()
	f, _ := NewFrontend(FrontendConfig{ID: "api-0", Store: store, Registry: reg, Deployer: d, Workers: 1})
	defer f.KillExecutor()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	body := strings.NewReader(`{"workflow":"hello","params":{"who":"climate"}}`)
	resp, _ := http.Post(srv.URL+"/api/executions", "application/json", body)
	var ex Execution
	_ = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	_ = store.WaitIdle(context.Background())

	resp, _ = http.Get(srv.URL + "/api/executions/" + ex.ID)
	_ = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	fmt.Println(ex.Status, ex.Results["greeting"])
	// Output: DONE hello climate
}
