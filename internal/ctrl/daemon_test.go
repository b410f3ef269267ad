package ctrl

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// newTestHandler boots a handler over a loopback listener and returns
// it together with a dialer for fresh client connections. The listener
// dies at test cleanup and Serve's return is checked for a clean exit.
func newTestHandler(t *testing.T, cfg Config, tick unit.Seconds) (*Handler, func() *Client) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	h := NewHandler(s, tick)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- h.Serve(l) }()
	var conns []net.Conn
	var mu sync.Mutex
	t.Cleanup(func() {
		// Kill order matters: Serve drains per-connection goroutines
		// before returning, so clients hang up first, then the listener.
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		l.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v on clean shutdown", err)
		}
	})
	dial := func() *Client {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		return NewClient(conn)
	}
	return h, dial
}

// TestDaemonEndToEnd drives the full RPC surface through a real TCP
// connection: establish, health, reroute, release.
func TestDaemonEndToEnd(t *testing.T) {
	_, dial := newTestHandler(t, Config{Seed: 21, Audit: invariant.Paranoid}, unit.Microsecond)
	c := dial()

	est, err := c.Establish(0, 9, 2, unit.Millisecond)
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if est.Width != 2 || est.Degraded {
		t.Fatalf("establish granted %+v, want full width 2", est)
	}
	hr, err := c.Health()
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if hr.Circuits != 1 {
		t.Fatalf("health reports %d circuits, want 1", hr.Circuits)
	}
	if len(hr.Regions) == 0 {
		t.Fatal("health report carries no breaker regions")
	}
	// Reroute re-establishes under a fresh ID; the old one dies with
	// the old path.
	rr, err := c.Reroute(est.Circuit, unit.Millisecond)
	if err != nil {
		t.Fatalf("reroute of a healthy circuit: %v", err)
	}
	if err := c.Release(rr.Circuit); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := c.Release(rr.Circuit); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("double release: %v, want ErrUnknownCircuit", err)
	}
}

// TestDaemonConcurrentClients hammers one handler from several
// connections at once. Under -race this proves the mutex actually
// covers every server touch; functionally it checks conservation:
// every request is answered and the final health tally balances.
func TestDaemonConcurrentClients(t *testing.T) {
	h, dial := newTestHandler(t, Config{Seed: 22, Audit: invariant.Paranoid, QueueCap: 4096}, 500*unit.Nanosecond)

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial()
			for j := 0; j < perClient; j++ {
				resp, err := c.Establish(id%8, 20+j%9, 1, 0)
				switch {
				case err == nil:
					if j%2 == 0 {
						if err := c.Release(resp.Circuit); err != nil {
							t.Errorf("client %d: release: %v", id, err)
							return
						}
					}
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBreakerOpen),
					resp.Status == StatusNoPath:
					// Expected under contention: shed, exhausted tiles, or
					// the breaker tripped by the resulting no-path streak.
				default:
					t.Errorf("client %d: unclassified establish failure: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	stats := h.Stats()
	// Each client issues perClient establishes plus a release for every
	// even j that succeeded; successes vary with interleaving, so pin
	// the lower bound and the conservation invariant.
	if stats.Arrivals < clients*perClient {
		t.Fatalf("stats saw %d arrivals, want at least %d", stats.Arrivals, clients*perClient)
	}
	answered := stats.Served + stats.Shed + stats.DeadlineMiss + stats.BreakerRejects +
		stats.NoPath + stats.EndpointFailed + stats.BadRequest + stats.UnknownCircuit
	if answered != stats.Arrivals {
		t.Fatalf("answered %d of %d arrivals: some vanished", answered, stats.Arrivals)
	}
}

// TestDaemonBadFrameCostsOneConn sends garbage down one connection and
// checks the blast radius: that connection dies, the daemon keeps
// serving everyone else.
func TestDaemonBadFrameCostsOneConn(t *testing.T) {
	_, dial := newTestHandler(t, Config{Seed: 23, Audit: invariant.Paranoid}, unit.Microsecond)

	good := dial()
	if _, err := good.Establish(1, 30, 1, 0); err != nil {
		t.Fatalf("pre-hostility establish: %v", err)
	}

	// Dial through the same helper so cleanup closes the raw conn if
	// the server somehow doesn't.
	hc := dial()
	rawConn := hc.conn.(net.Conn)
	if _, err := rawConn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	// The daemon must close this connection: read until it does.
	buf := make([]byte, 64)
	for {
		if _, err := rawConn.Read(buf); err != nil {
			break
		}
	}

	// Everyone else is unaffected.
	if _, err := good.Health(); err != nil {
		t.Fatalf("post-hostility health on the good conn: %v", err)
	}
	fresh := dial()
	if _, err := fresh.Establish(2, 31, 1, 0); err != nil {
		t.Fatalf("post-hostility establish on a fresh conn: %v", err)
	}
}

// TestHandlerTickAdvancesClock pins the logical-time contract: each
// submitted request lands tick seconds after the previous one, so the
// virtual clock is a pure function of the request count.
func TestHandlerTickAdvancesClock(t *testing.T) {
	s, err := NewServer(Config{Seed: 24, Audit: invariant.Paranoid})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	tick := 3 * unit.Microsecond
	h := NewHandler(s, tick)
	for i := 0; i < 10; i++ {
		h.Submit(Request{Op: OpHealth})
	}
	// The 10th request arrived at 9*tick; the clock clamps to the last
	// arrival, never beyond it.
	if got, want := s.Clock(), 9*tick; got != want {
		t.Fatalf("clock %v after 10 ticks, want %v", got, want)
	}
}

// TestHandlerPeriodicCheckpoint arms SetCheckpoint and checks a
// snapshot exists after the configured number of requests and restores
// to the handler's exact state.
func TestHandlerPeriodicCheckpoint(t *testing.T) {
	cfg := Config{Seed: 25, Audit: invariant.Paranoid}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invariant.ResetGlobal)
	h := NewHandler(s, unit.Microsecond)
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	h.SetCheckpoint(path, 8)

	for i := 0; i < 8; i++ {
		h.Submit(Request{Op: OpEstablish, A: i % 4, B: 30 + i%4, Width: 1})
	}
	if err := h.CheckpointErr(); err != nil {
		t.Fatalf("periodic checkpoint failed: %v", err)
	}
	r, err := LoadCheckpoint(cfg, path)
	if err != nil {
		t.Fatalf("restore of the periodic checkpoint: %v", err)
	}
	if r.Stats() != s.Stats() {
		t.Fatalf("periodic checkpoint restored stale stats %+v, want %+v", r.Stats(), s.Stats())
	}

	// A failing path latches the error and disarms instead of breaking
	// service.
	h.SetCheckpoint(filepath.Join(t.TempDir(), "no-such-dir", "x", "y.ckpt"), 1)
	h.Submit(Request{Op: OpHealth})
	if h.CheckpointErr() == nil {
		t.Fatal("unwritable checkpoint path did not latch an error")
	}
	resp := h.Submit(Request{Op: OpHealth})
	if resp.Status != StatusOK {
		t.Fatalf("service degraded after checkpoint failure: %+v", resp)
	}
}
