package cubecluster

import (
	"reflect"
	"testing"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// TestClusterOverTCP rebuilds the equivalence check with real
// cubeserver TCP replicas, each reached through one dialed
// cubeserver.Client used directly as the Transport, and additionally
// serves the coordinator itself over TCP — client → coordinator →
// shards, all v2. This pins the shard-plane wire fields (Dims, Values,
// Partials, ErrCode) through actual encoding.
func TestClusterOverTCP(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 4, 16)
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "aggtrailing", RowOp: "max"},
		{Op: "subsetrows", Lo: 1, Hi: 7},
		{Op: "aggrows", RowOp: "avg"},
	}
	want := engineRef(t, []string{path}, pipe)

	const shards = 2
	transports := make([][]Transport, shards)
	for s := 0; s < shards; s++ {
		engine := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
		srv, err := cubeserver.Serve("127.0.0.1:0", engine)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cubeserver.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		transports[s] = []Transport{tr}
		t.Cleanup(func() { srv.Close(); engine.Close() })
	}
	cl, err := New(Config{SpoolDir: t.TempDir()}, transports)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Front the coordinator with its own TCP server and drive it with a
	// plain cubeserver client.
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

	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	out, err := cube.Pipeline(pipe...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Values()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP cluster diverged:\ngot  %v\nwant %v", got, want)
	}
}
