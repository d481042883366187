package cubeserver

// wire_server.go is the server side of the v2 protocol: a per-connection
// frame loop that decodes requests off pooled buffers, dispatches each
// one on its own bounded worker goroutine, and interleaves responses in
// completion order — the counterpart of the client mux in mux.go.

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// meteredCounter accumulates byte counts locally until the connection
// passes the version check, then streams them into the obs counter, so
// rejected connections are never billed as v2 traffic. attach
// happens-before any concurrent use: the server wires counters up right
// after the check, before spawning response workers.
type meteredCounter struct {
	pending int64
	ctr     *obs.Counter
}

func (m *meteredCounter) add(n int) {
	if m.ctr != nil {
		m.ctr.Add(float64(n))
		return
	}
	m.pending += int64(n)
}

func (m *meteredCounter) attach(c *obs.Counter) {
	c.Add(float64(m.pending))
	m.pending = 0
	m.ctr = c
}

type meteredReader struct {
	r io.Reader
	m *meteredCounter
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.m.add(n)
	return n, err
}

type meteredWriter struct {
	w io.Writer
	m *meteredCounter
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.m.add(n)
	return n, err
}

// reqPool recycles Request structs across the v2 handle loop. Decoding
// overwrites every field and allocates fresh slices, so a dispatcher
// may retain a request (the residency layer keeps them as rebuild
// recipes) while the struct itself cycles back through the pool.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// handleV2 serves one multiplexed v2 session. The read loop pulls
// frames; each request dispatches on its own goroutine (bounded by
// Options.MaxConcurrent) and writes its response under a shared write
// lock, so slow operations don't block fast ones behind them — the
// server-side half of what makes client pipelining pay off.
func (s *Server) handleV2(conn net.Conn, br *bufio.Reader, w io.Writer) {
	var (
		wmu      sync.Mutex
		workers  sync.WaitGroup
		inflight atomic.Int64
	)
	sem := make(chan struct{}, s.opts.MaxConcurrent)
	defer workers.Wait()

	for {
		s.armIdle(conn)
		ftype, id, frame, body, consumed, err := readFrame(br)
		if err != nil {
			switch {
			case isTimeout(err):
				// A deadline with no header bytes consumed and requests
				// still executing is a busy connection, not an idle one:
				// re-arm and keep reading. Partial header bytes mean the
				// peer stalled mid-frame — that conn is gone either way.
				if !consumed && inflight.Load() > 0 {
					continue
				}
				s.met.connTimeouts.Inc()
			case !connDone(err):
				s.met.protoErrs.Inc()
			}
			return
		}
		if ftype != frameRequest {
			putBuf(frame)
			s.met.protoErrs.Inc()
			return
		}
		req := reqPool.Get().(*Request)
		if err := DecodeRequestV2(body, req); err != nil {
			putBuf(frame)
			reqPool.Put(req)
			s.met.protoErrs.Inc()
			// Framing is intact (the frame was fully delimited), so the
			// session survives; answer the id so the caller isn't left
			// hanging on a request the server threw away.
			if werr := s.writeV2(conn, w, &wmu, id, &Response{Err: "cubeserver: bad v2 request frame: " + err.Error()}); werr != nil {
				return
			}
			continue
		}
		putBuf(frame)

		sem <- struct{}{}
		inflight.Add(1)
		s.met.inflight.Inc()
		workers.Add(1)
		go func(id uint64, req *Request) {
			defer func() {
				s.met.inflight.Dec()
				inflight.Add(-1)
				<-sem
				workers.Done()
			}()
			resp := s.disp.Dispatch(req)
			*req = Request{}
			reqPool.Put(req)
			if err := s.writeV2(conn, w, &wmu, id, resp); err != nil {
				// The write path is broken; tear the conn down so the read
				// loop (and the client) find out now rather than at the
				// next deadline.
				conn.Close()
			}
		}(id, req)
	}
}

// writeV2 encodes resp into a pooled frame and writes it under the
// connection's write lock with a fresh write deadline.
func (s *Server) writeV2(conn net.Conn, w io.Writer, wmu *sync.Mutex, id uint64, resp *Response) error {
	buf := encodeResponseFrame(getBuf(), id, resp)
	wmu.Lock()
	s.armWrite(conn)
	_, err := w.Write(buf)
	wmu.Unlock()
	putBuf(buf)
	if err != nil {
		if isTimeout(err) {
			s.met.connTimeouts.Inc()
		} else if !connDone(err) {
			s.met.protoErrs.Inc()
		}
	}
	return err
}
