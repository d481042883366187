package cubecluster

// pool.go gives each replica a pool of multiplexed connections instead
// of one. A single v2 connection already pipelines concurrent requests,
// but one TCP stream still serializes bytes; with the coordinator
// scattering to N shards × R replicas concurrently, a handful of
// connections per replica lets bulk payloads move in parallel and keeps
// one slow exchange from back-pressuring everything behind it.

import (
	"fmt"
	"sync"

	"repro/internal/cubeserver"
)

// DefaultPoolSize is the per-replica connection count used when a pool
// is created with size <= 0.
const DefaultPoolSize = 4

// PoolTransport is a Transport backed by a fixed-size pool of
// cubeserver clients to one replica address. Connections are dialed
// lazily on first use, handed out round-robin, and evicted and
// re-dialed once broken (poisoned by a transport error), so a replica
// restart heals the pool without intervention.
type PoolTransport struct {
	addr string

	mu     sync.Mutex
	conns  []*cubeserver.Client
	next   int
	closed bool
}

// NewPoolTransport builds a pool of size connections to addr
// (DefaultPoolSize if size <= 0). No connection is dialed until the
// first Do.
func NewPoolTransport(addr string, size int) *PoolTransport {
	if size <= 0 {
		size = DefaultPoolSize
	}
	return &PoolTransport{addr: addr, conns: make([]*cubeserver.Client, size)}
}

// DialPoolTransport is NewPoolTransport plus an eager dial of the
// first connection, so an unreachable replica surfaces at wiring time
// rather than mid-scatter.
func DialPoolTransport(addr string, size int) (*PoolTransport, error) {
	p := NewPoolTransport(addr, size)
	c, err := cubeserver.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.conns[0] = c
	return p, nil
}

// acquire returns the next healthy client in rotation, dialing into
// empty or broken slots. The dial happens under the pool lock: that
// serializes concurrent re-dials of the same dead replica (cheap — the
// failure is immediate) and means a healthy pool never blocks on it.
func (p *PoolTransport) acquire() (*cubeserver.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("cubecluster: pool transport to %s is closed", p.addr)
	}
	slot := p.next % len(p.conns)
	p.next++
	c := p.conns[slot]
	if c != nil && !c.Broken() {
		return c, nil
	}
	if c != nil {
		c.Close() // evict the poisoned connection
		p.conns[slot] = nil
	}
	nc, err := cubeserver.Dial(p.addr)
	if err != nil {
		return nil, err
	}
	p.conns[slot] = nc
	return nc, nil
}

// Do performs one exchange on a pooled connection. A transport failure
// is reported to the caller (the coordinator's failover logic owns the
// retry decision); the broken connection is left in its slot and
// replaced on the next acquire that lands there.
func (p *PoolTransport) Do(req *cubeserver.Request) (*cubeserver.Response, error) {
	c, err := p.acquire()
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// Close closes every pooled connection. Idempotent; concurrent Do
// calls fail with a closed-pool or transport error.
func (p *PoolTransport) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	for i, c := range p.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		p.conns[i] = nil
	}
	return first
}
