// Client↔coordinator integration over real HTTP: roundtrips, the
// degradation contract (unreachable server, breaker fast-fail, 401),
// and the heartbeater keeping a short-TTL lease alive.

package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"activemem/internal/remote"
)

// startCoord serves an authed coordinator on an httptest server.
func startCoord(t *testing.T, opts Options, token string) (*httptest.Server, *Coordinator) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	co := NewCoordinator(opts)
	srv := httptest.NewServer(remote.RequireAuth(token, NewHandler(co)))
	t.Cleanup(srv.Close)
	return srv, co
}

// newTestClient builds a fast-failing client against url.
func newTestClient(t *testing.T, url string, mod func(*ClientOptions)) *Client {
	t.Helper()
	o := ClientOptions{
		BaseURL: url,
		Worker:  "test-worker",
		LinkOptions: remote.LinkOptions{
			Timeout:          2 * time.Second,
			Retries:          -1, // no retries unless a test opts in
			BackoffBase:      time.Millisecond,
			BreakerThreshold: 1000, // effectively off unless a test opts in
		},
		HeartbeatEvery: time.Hour,
	}
	if mod != nil {
		mod(&o)
	}
	c, err := NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClientRoundtrip(t *testing.T) {
	srv, co := startCoord(t, Options{}, "")
	c := newTestClient(t, srv.URL, nil)

	d := c.Claim("k1")
	if d.Action != ActionRun {
		t.Fatalf("claim = %+v, want run", d)
	}
	// A second identity must wait, with a positive poll hint.
	c2 := newTestClient(t, srv.URL, func(o *ClientOptions) { o.Worker = "other" })
	if d2 := c2.Claim("k1"); d2.Action != ActionWait || d2.RetryIn <= 0 {
		t.Fatalf("concurrent claim = %+v, want wait", d2)
	}
	if !c.Done("k1") {
		t.Fatal("ack under live lease rejected")
	}
	if d2 := c2.Claim("k1"); d2.Action != ActionDone {
		t.Fatalf("claim after done = %+v, want done", d2)
	}
	// Acking a cell we never leased is a local late ack, no RPC.
	if c.Done("k1") {
		t.Fatal("unheld ack accepted")
	}
	st := c.Stats()
	if st.Leased != 1 || st.Done != 1 || st.LateAcks != 1 || st.RPCErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s := co.Status(); s.CellsDone != 1 {
		t.Fatalf("coordinator status = %+v", s)
	}
}

func TestClientFailAborts(t *testing.T) {
	srv, co := startCoord(t, Options{}, "")
	c := newTestClient(t, srv.URL, nil)

	if d := c.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("claim = %+v", d)
	}
	if !c.Fail("k1", "compute exploded") {
		t.Fatal("first-error fail did not report abort")
	}
	if d := c.Claim("k2"); d.Action != ActionAbort || d.Err != "compute exploded" {
		t.Fatalf("post-abort claim = %+v", d)
	}
	if s := co.Status(); !s.Aborted {
		t.Fatalf("coordinator status = %+v", s)
	}
}

// An unreachable coordinator degrades every claim to solo compute and,
// once the breaker trips, stops paying the dial timeout per cell.
func TestClientUnreachableDegradesAndTrips(t *testing.T) {
	srv, _ := startCoord(t, Options{}, "")
	srv.Close() // nothing listens there any more
	c := newTestClient(t, srv.URL, func(o *ClientOptions) {
		o.Timeout = 200 * time.Millisecond
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
	})

	for i := 0; i < 5; i++ {
		if d := c.Claim("k1"); d.Action != ActionUnreachable {
			t.Fatalf("claim %d = %+v, want unreachable", i, d)
		}
	}
	st := c.Stats()
	if st.Degraded != 5 {
		t.Fatalf("degraded = %d, want 5", st.Degraded)
	}
	if st.FastFails == 0 {
		t.Fatal("breaker never fast-failed")
	}
	if st.RPCErrors != uint64(c.Stats().RPCs) {
		t.Fatalf("stats = %+v: every attempted RPC should have errored", st)
	}
}

// Retryable failures (5xx) are replayed — safe because every fleet RPC
// is idempotent — so a blip is absorbed without degrading the claim.
func TestClientRetriesServerErrors(t *testing.T) {
	var calls atomic.Int64
	real := remote.RequireAuth("", NewHandler(NewCoordinator(Options{LeaseTTL: 10 * time.Second})))
	flip := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway) // retryable 5xx
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flip.Close)

	c := newTestClient(t, flip.URL, func(o *ClientOptions) { o.Retries = 2 })
	if d := c.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("claim through flaky link = %+v, want run", d)
	}
	if st := c.Stats(); st.Retries != 1 || st.RPCErrors != 0 {
		t.Fatalf("stats = %+v, want exactly one retry and no errors", st)
	}
}

// A 200 whose JSON answer is torn mid-body is retried like a 5xx: the
// RPC is idempotent, and the second answer is the one the worker uses.
func TestClientRetriesTornAnswer(t *testing.T) {
	var calls atomic.Int64
	real := NewHandler(NewCoordinator(Options{LeaseTTL: 10 * time.Second}))
	torn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"action":"ru`))
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(torn.Close)

	c := newTestClient(t, torn.URL, func(o *ClientOptions) { o.Retries = 1 })
	if d := c.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("claim through a torn answer = %+v, want run", d)
	}
	if st := c.Stats(); st.Retries != 1 || st.RPCs != 2 || st.RPCErrors != 0 {
		t.Fatalf("stats = %+v, want one retry over two RPCs and no errors", st)
	}
}

// A wrong token downs the link permanently: one 401, then local
// fast-fails with no further RPCs.
func TestClientUnauthorizedRunsSolo(t *testing.T) {
	srv, co := startCoord(t, Options{}, "right-token")
	c := newTestClient(t, srv.URL, func(o *ClientOptions) { o.AuthToken = "wrong-token" })

	for i := 0; i < 3; i++ {
		if d := c.Claim("k1"); d.Action != ActionUnreachable {
			t.Fatalf("claim %d = %+v, want unreachable", i, d)
		}
	}
	st := c.Stats()
	if st.RPCs != 1 {
		t.Fatalf("rpcs = %d, want exactly 1 (the 401) before the link downs itself", st.RPCs)
	}
	if s := co.Status(); s.Cells != 0 {
		t.Fatalf("unauthorized claims registered cells: %+v", s)
	}

	// The right token works against the same server.
	ok := newTestClient(t, srv.URL, func(o *ClientOptions) { o.AuthToken = "right-token" })
	if d := ok.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("authed claim = %+v, want run", d)
	}
}

// The heartbeater keeps a short-TTL lease alive across many TTL windows.
func TestHeartbeaterExtendsLease(t *testing.T) {
	srv, co := startCoord(t, Options{LeaseTTL: 100 * time.Millisecond}, "")
	c := newTestClient(t, srv.URL, func(o *ClientOptions) { o.HeartbeatEvery = 0 }) // TTL/3

	if d := c.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("claim = %+v", d)
	}
	time.Sleep(500 * time.Millisecond) // five TTLs
	if !c.Done("k1") {
		t.Fatal("lease expired despite heartbeats")
	}
	s := co.Status()
	if s.Expired != 0 || s.CellsDone != 1 {
		t.Fatalf("status = %+v", s)
	}
}

// Without heartbeats the lease expires and the late ack is counted,
// locally and on the coordinator.
func TestSilentWorkerLosesLease(t *testing.T) {
	srv, co := startCoord(t, Options{LeaseTTL: 50 * time.Millisecond}, "")
	c := newTestClient(t, srv.URL, nil) // HeartbeatEvery: 1h — effectively silent

	if d := c.Claim("k1"); d.Action != ActionRun {
		t.Fatalf("claim = %+v", d)
	}
	time.Sleep(120 * time.Millisecond)
	if c.Done("k1") {
		t.Fatal("ack accepted after TTL with no heartbeats")
	}
	if st := c.Stats(); st.LateAcks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s := co.Status(); s.Expired != 1 || s.LateAcks != 1 || s.CellsDone != 0 {
		t.Fatalf("status = %+v", s)
	}
}

func TestClientRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "ftp://x", "http://", "://nope"} {
		if _, err := NewClient(ClientOptions{BaseURL: bad}); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
	// A bare host:port is assumed http.
	c, err := NewClient(ClientOptions{BaseURL: "127.0.0.1:9", HeartbeatEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BaseURL() != "http://127.0.0.1:9" {
		t.Fatalf("BaseURL = %q", c.BaseURL())
	}
}
