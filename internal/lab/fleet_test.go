// Chaos suite for distributed campaigns: several executors share one
// coordinator + cache server and the campaign must complete with results
// bit-identical to a single-process, fleet-less baseline while workers
// crash (abandoned leases), stall (stolen cells), lose the coordinator
// (restart mid-campaign) or lose the network (faultnet partition). The
// suite is the executable form of the fleet's one invariant: a fleet can
// change a campaign's speed, never its bytes.
package lab

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activemem/internal/faultnet"
	"activemem/internal/fleet"
	"activemem/internal/remote"
	"activemem/internal/store"
)

// fleetMux mounts the cell protocol and the campaign protocol on one
// handler, exactly as labcached -coord does.
func fleetMux(st *store.Store, co *fleet.Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(remote.CellPathPrefix, remote.NewHandler(st))
	mux.Handle(fleet.PathPrefix, fleet.NewHandler(co))
	return mux
}

// startFleetServer serves a fresh store + coordinator; the returned swap
// function replaces the live handler (coordinator "restart").
func startFleetServer(t *testing.T, fo fleet.Options) (*httptest.Server, *fleet.Coordinator, *store.Store, func(http.Handler)) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Schema: ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	co := fleet.NewCoordinator(fo)
	var live atomic.Value
	live.Store(fleetMux(st, co))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, co, st, func(h http.Handler) { live.Store(h) }
}

// newFleetClient builds a fast-failing worker link against url.
func newFleetClient(t *testing.T, url, worker string, mod func(*fleet.ClientOptions)) *fleet.Client {
	t.Helper()
	o := fleet.ClientOptions{
		BaseURL: url,
		Worker:  worker,
		LinkOptions: remote.LinkOptions{
			Timeout:          2 * time.Second,
			Retries:          -1,
			BackoffBase:      time.Millisecond,
			BreakerThreshold: 1000,
		},
	}
	if mod != nil {
		mod(&o)
	}
	c, err := fleet.NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newWorker assembles one campaign worker: an executor whose remote tier
// and fleet link both point at srvURL, as -worker-of would build it.
func newWorker(t *testing.T, srvURL, name string, mod func(*fleet.ClientOptions)) *Executor {
	t.Helper()
	rc := newRemoteClient(t, srvURL, nil)
	fc := newFleetClient(t, srvURL, name, mod)
	ex := New(Config{Workers: 2, Remote: rc, Fleet: fc})
	t.Cleanup(ex.Close)
	return ex
}

// runCampaignE is runCampaign for worker goroutines, where t.Fatal is
// off-limits.
func runCampaignE(ex *Executor, cells int) ([]cacheResult, error) {
	out := make([]cacheResult, cells)
	for i := 0; i < cells; i++ {
		v, err := Memo(ex, KeyOf("remote-fault-cell", i), func() (cacheResult, error) {
			return campaignCell(i), nil
		})
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// Three workers race one grid; every worker prints the full report and
// all of them are bit-identical to the fleet-less baseline, with each
// cell computed under exactly one accepted lease.
func TestFleetCampaignSplitsWork(t *testing.T) {
	const cells, workers = 12, 3
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	exs := make([]*Executor, workers)
	for w := range exs {
		exs[w] = newWorker(t, srv.URL, fmt.Sprintf("w%d", w), nil)
	}
	outs := make([][]cacheResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range exs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = runCampaignE(exs[w], cells)
		}(w)
	}
	wg.Wait()

	var leased, degraded uint64
	for w := range exs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		wantIdentical(t, outs[w], want)
		fs := exs[w].Fleet().Stats()
		leased += fs.Leased
		degraded += fs.Degraded
	}
	s := co.Status()
	if s.CellsDone != cells || s.Failed != 0 {
		t.Fatalf("coordinator status = %+v", s)
	}
	if leased != cells || degraded != 0 {
		t.Fatalf("leased = %d (want %d), degraded = %d (want 0)", leased, cells, degraded)
	}
}

// A worker crashes mid-cell: it claims a lease and goes silent — the
// in-process analog of SIGKILL, and exactly what Close leaves behind.
// The lease expires, the cell re-leases, and the survivor finishes the
// whole campaign bit-identically.
func TestFleetAbandonedLeaseIsReleased(t *testing.T) {
	const cells = 8
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 50 * time.Millisecond})
	want := baseline(t, cells)

	// The crasher leases cell 0 and never heartbeats, acks, or publishes.
	crasher := newFleetClient(t, srv.URL, "crasher", func(o *fleet.ClientOptions) {
		o.HeartbeatEvery = time.Hour
	})
	if d := crasher.Claim(string(KeyOf("remote-fault-cell", 0))); d.Action != fleet.ActionRun {
		t.Fatalf("crasher claim = %+v", d)
	}

	got, err := runCampaignE(newWorker(t, srv.URL, "survivor", nil), cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	s := co.Status()
	if s.Expired < 1 || s.Requeued < 1 {
		t.Fatalf("no expiry recorded: %+v", s)
	}
	if s.CellsDone != cells {
		t.Fatalf("status = %+v", s)
	}
	// The crasher's ghost ack — had the process survived to send it — is
	// rejected, so the cell still completed exactly once.
	if crasher.Done(string(KeyOf("remote-fault-cell", 0))) {
		t.Fatal("abandoned lease's late ack accepted")
	}
}

// A worker stalls but keeps heartbeating — alive, just stuck. Past
// StealAfter the cell is duplicated to a healthy worker; the staller's
// eventual ack is a counted late ack and the cell completes once.
func TestFleetStalledCellIsStolen(t *testing.T) {
	const cells = 6
	srv, co, _, _ := startFleetServer(t, fleet.Options{
		LeaseTTL:   100 * time.Millisecond,
		StealAfter: 150 * time.Millisecond,
	})
	want := baseline(t, cells)

	staller := newFleetClient(t, srv.URL, "staller", nil) // heartbeats at TTL/3
	if d := staller.Claim(string(KeyOf("remote-fault-cell", 0))); d.Action != fleet.ActionRun {
		t.Fatalf("staller claim = %+v", d)
	}

	got, err := runCampaignE(newWorker(t, srv.URL, "thief", nil), cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	s := co.Status()
	if s.Steals < 1 {
		t.Fatalf("no steal recorded: %+v", s)
	}
	if s.Expired != 0 {
		t.Fatalf("staller's lease expired despite heartbeats: %+v", s)
	}
	if s.CellsDone != cells {
		t.Fatalf("status = %+v", s)
	}
	// The staller finally "finishes": too late, the thief won.
	if staller.Done(string(KeyOf("remote-fault-cell", 0))) {
		t.Fatal("stolen cell acked twice")
	}
}

// The coordinator dies and restarts empty mid-campaign. Nothing is
// re-computed unnecessarily and nothing is lost: completed cells live in
// the shared cache, so the replacement coordinator only ever hears about
// the remainder.
func TestFleetCoordinatorRestartMidCampaign(t *testing.T) {
	const cells = 10
	srv, coA, st, swap := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	ex := newWorker(t, srv.URL, "w1", nil)
	firstHalf, err := runCampaignE(ex, cells/2)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, firstHalf, want[:cells/2])

	// Crash-replace the coordinator with a blank one. The cache store
	// must survive the restart (labcached persists it on disk); the
	// coordinator's in-memory state is the part that evaporates.
	coB := fleet.NewCoordinator(fleet.Options{LeaseTTL: 5 * time.Second})
	swap(fleetMux(st, coB))

	got, err := runCampaignE(ex, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	if sA, sB := coA.Status(), coB.Status(); sA.CellsDone != cells/2 || sB.CellsDone != cells-cells/2 {
		t.Fatalf("done split = %d + %d, want %d + %d", sA.CellsDone, sB.CellsDone, cells/2, cells-cells/2)
	}

	// A worker joining after the restart needs no leases at all: every
	// cell is a remote-tier hit, and the new coordinator never hears of
	// them.
	late := newWorker(t, srv.URL, "latecomer", nil)
	got2, err := runCampaignE(late, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got2, want)
	if fs := late.Fleet().Stats(); fs.Leased != 0 || fs.Degraded != 0 {
		t.Fatalf("latecomer stats = %+v, want no leases and no degradation", fs)
	}
}

// A worker's coordinator link partitions mid-campaign (faultnet
// blackhole); its cache link stays up. Claims degrade to solo compute
// and the campaign still completes bit-identically.
func TestFleetPartitionedWorkerRunsSolo(t *testing.T) {
	const cells = 8
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	// The partition takes the fleet link only, after the third request.
	proxy, err := faultnet.New(srv.URL, faultnet.After(3, faultnet.Fault{Kind: faultnet.Drop}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	rc := newRemoteClient(t, srv.URL, nil) // cache link: direct, healthy
	fc := newFleetClient(t, proxy.URL(), "islander", func(o *fleet.ClientOptions) {
		o.Timeout = 200 * time.Millisecond
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
	})
	ex := New(Config{Workers: 2, Remote: rc, Fleet: fc})
	t.Cleanup(ex.Close)

	got, err := runCampaignE(ex, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	fs := fc.Stats()
	if fs.Degraded < 1 {
		t.Fatalf("no degraded claims through the partition: %+v", fs)
	}
	if fs.Leased+fs.Degraded < cells {
		t.Fatalf("cells unaccounted for: %+v", fs)
	}
	// Cells computed solo were still published through the healthy cache
	// link; only the coordinator's view is partial.
	if s := co.Status(); s.CellsDone > fs.Leased {
		t.Fatalf("coordinator saw more completions than leases: %+v vs %+v", s, fs)
	}
	sum := ex.FleetSummary()
	if sum == "" {
		t.Fatal("empty fleet summary")
	}
}
