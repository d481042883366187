package cubecluster

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// tcpShard is one TCP replica: engine + server, reachable at addr.
type tcpShard struct {
	engine *datacube.Engine
	srv    *cubeserver.Server
}

func startTCPShard(t *testing.T) *tcpShard {
	t.Helper()
	engine := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	srv, err := cubeserver.Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); engine.Close() })
	return &tcpShard{engine: engine, srv: srv}
}

// poolCluster wires shards×replicas TCP replicas behind PoolTransports
// and returns the coordinator plus the replica grid (for killing).
func poolCluster(t *testing.T, shards, replicas, poolSize int) (*Cluster, [][]*tcpShard) {
	t.Helper()
	transports := make([][]Transport, shards)
	grid := make([][]*tcpShard, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			rep := startTCPShard(t)
			grid[s] = append(grid[s], rep)
			tr, err := DialPoolTransport(rep.srv.Addr(), poolSize)
			if err != nil {
				t.Fatal(err)
			}
			transports[s] = append(transports[s], tr)
		}
	}
	cl, err := New(Config{Replicas: replicas, SpoolDir: t.TempDir()}, transports)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, grid
}

// TestClusterOverV2TCPShards is the cluster equivalence suite on the
// new wire path: 1/2/4/8 shards behind pooled multiplexed v2
// transports, at tolerance 0 and eps>0, must reproduce the single
// engine exactly (DeepEqual).
func TestClusterOverV2TCPShards(t *testing.T) {
	// lat=16, lon=4 → 64 rows; every shard split 1/2/4/8 lands part
	// offsets on multiples of 8, the coarsest-tier block size, so
	// tolerant runs stay aligned and comparable to the single engine.
	path := writeClusterFile(t, t.TempDir(), 16, 4, 16)
	pipe := func(tol float64) []cubeserver.PipelineStep {
		return []cubeserver.PipelineStep{
			{Op: "apply", Expr: "x-10"},
			{Op: "reducegroup", RowOp: "max", Group: 4, Tolerance: tol},
			{Op: "aggrows", RowOp: "avg"},
		}
	}
	for _, eps := range []float64{0, 0.5} {
		want := engineRef(t, []string{path}, pipe(eps))
		for _, shards := range []int{1, 2, 4, 8} {
			cl, _ := poolCluster(t, shards, 1, 2)
			got := clusterRun(t, cl, []string{path}, pipe(eps))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%g on %d v2 shards diverged from single engine:\ngot  %v\nwant %v",
					eps, shards, got, want)
			}
		}
	}
}

// TestClusterV2SentinelIdentity pins errors.Is identity across the
// full stack: client → coordinator over v2 TCP → shard over v2 TCP.
func TestClusterV2SentinelIdentity(t *testing.T) {
	cl, _ := poolCluster(t, 2, 1, 2)
	front, err := cubeserver.ServeDispatcher("127.0.0.1:0", cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	client, err := cubeserver.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ghost := cubeserver.NewRemoteCube(client, "cube-404")
	if _, err := ghost.Apply("x+1"); !errors.Is(err, datacube.ErrNotFound) {
		t.Fatalf("want ErrNotFound through coordinator over v2, got %v", err)
	}
}

// TestPoolFailoverMidStream kills a replica's server process
// mid-workload while concurrent reads hammer the coordinator; the pool
// reports transport errors, the coordinator fails over to the
// surviving replica, and results stay byte-identical.
func TestPoolFailoverMidStream(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 4, 16)
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "reducegroup", RowOp: "max", Group: 4},
		{Op: "aggrows", RowOp: "avg"},
	}
	want := engineRef(t, []string{path}, pipe)

	cl, grid := poolCluster(t, 2, 2, 2)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})

	// Concurrent read load across the kill from several goroutines; the
	// coordinator serializes ops but the callers race the failure.
	var wg sync.WaitGroup
	killed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Primary replica of shard 1 dies mid-stream: server and engine
		// both go away, so pooled conns break and re-dials fail.
		grid[1][0].srv.Close()
		grid[1][0].engine.Close()
		close(killed)
	}()
	results := make([][][]float32, 4)
	for g := 0; g < len(results); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 2 {
				<-killed // at least one run strictly after the kill
			}
			out := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
			results[g] = mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d across replica kill diverged:\ngot  %v\nwant %v", g, got, want)
		}
	}
}

// TestPoolEvictsAndRedials breaks every pooled connection by bouncing
// the server, then demands the pool heal itself against the restarted
// replica at the same address.
func TestPoolEvictsAndRedials(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	srv, err := cubeserver.Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	pool, err := DialPoolTransport(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Do(&cubeserver.Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// Every pooled conn is now broken; Do reports transport failures
	// until the replica returns.
	sawFailure := false
	for i := 0; i < 6; i++ {
		if _, err := pool.Do(&cubeserver.Request{Op: "ping"}); err != nil {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("no transport failure reported while replica was down")
	}

	srv2, err := cubeserver.Serve(addr, engine)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ok := false
	for i := 0; i < 6 && !ok; i++ {
		_, err := pool.Do(&cubeserver.Request{Op: "ping"})
		ok = err == nil
	}
	if !ok {
		t.Fatal("pool never recovered after replica restart")
	}
}
