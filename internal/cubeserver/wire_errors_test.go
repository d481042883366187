package cubeserver

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/obs"
)

// These tests pin the wire protocol's error fidelity: classified
// server-side failures must restore their sentinels on the client, a
// transport failure must poison the client for good, and protocol
// garbage must be counted rather than silently swallowed.

func TestWireErrorNotFoundSentinel(t *testing.T) {
	client, _ := startServer(t)
	for _, op := range []string{"apply", "shape", "delete"} {
		_, err := client.call(&Request{Op: op, CubeID: "cube-404", Expr: "x"})
		if !errors.Is(err, datacube.ErrNotFound) {
			t.Fatalf("%s on ghost cube: want datacube.ErrNotFound across the wire, got %v", op, err)
		}
	}
	// The server's message survives alongside the sentinel.
	_, err := client.call(&Request{Op: "shape", CubeID: "cube-404"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Fatalf("want RemoteError with code %q, got %#v", CodeNotFound, err)
	}
}

func TestWireErrorEngineClosedSentinel(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	srv, err := Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	engine.Close()
	if _, err := cube.Apply("x+1"); !errors.Is(err, datacube.ErrEngineClosed) {
		t.Fatalf("apply on closed engine: want datacube.ErrEngineClosed across the wire, got %v", err)
	}
}

func TestWireErrorUnknownOpSentinel(t *testing.T) {
	client, _ := startServer(t)
	if _, err := client.call(&Request{Op: "explode"}); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp across the wire, got %v", err)
	}
	// Unknown pipeline step ops classify the same way.
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Pipeline(PipelineStep{Op: "explode"}); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp for unknown pipeline step, got %v", err)
	}
}

// TestClientPoisonedAfterTransportError breaks the connection under a
// live client and demands the first call report the transport failure
// and every later call fail fast with ErrClientBroken — a desynced
// frame stream must never serve another request.
func TestClientPoisonedAfterTransportError(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	srv, err := Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}

	srv.Close() // kills the server-side conn mid-session
	if err := client.Ping(); err == nil || errors.Is(err, ErrClientBroken) {
		t.Fatalf("first call after break: want the raw transport error, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Ping(); !errors.Is(err, ErrClientBroken) {
			t.Fatalf("call %d after break: want ErrClientBroken, got %v", i, err)
		}
	}
}

// TestServerCountsProtocolGarbage opens connections that fail the
// version check — raw garbage bytes, and the gob stream a retired
// legacy client would send — and checks the server drops and counts
// each while it keeps serving well-formed clients.
func TestServerCountsProtocolGarbage(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	reg := obs.NewRegistry()
	srv, err := ServeDispatcher("127.0.0.1:0", EngineDispatcher(engine), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	for i, opening := range [][]byte{[]byte("\xff\xfe this is not a frame \x00\x01"), legacy.Bytes()} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatal(err)
		}
		// the server hangs up instead of answering
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Fatalf("opening %d: want server hangup, got %d bytes, %v", i, n, err)
		}
		conn.Close()
		deadline := time.Now().Add(2 * time.Second)
		for srv.met.protoErrs.Value() < float64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("opening %d: proto-error counter never incremented", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := srv.met.conns.With("v2").Value(); got != 0 {
		t.Fatalf("rejected connections counted as v2 sessions: %v", got)
	}

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatalf("server should survive protocol garbage, ping failed: %v", err)
	}
}
