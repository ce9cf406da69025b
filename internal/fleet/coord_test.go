// Lease-lifecycle edge cases under an injected clock: expiry mid-compute
// (late ack rejected, exactly one done per cell), heartbeats landing
// exactly on the deadline, steal-vs-original completion races, the two
// failure policies, and the bounded per-worker table. Every test drives
// the coordinator directly — the clock never sleeps.

package fleet

import (
	"fmt"
	"testing"
	"time"
)

// testClock is a manually advanced clock for Options.Now.
type testClock struct{ now time.Time }

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestCoord(clk *testClock, mod func(*Options)) *Coordinator {
	o := Options{
		LeaseTTL:   10 * time.Second,
		StealAfter: 30 * time.Second,
		Now:        clk.Now,
	}
	if mod != nil {
		mod(&o)
	}
	return NewCoordinator(o)
}

func mustClaimRun(t *testing.T, c *Coordinator, key, worker string) ClaimResponse {
	t.Helper()
	resp := c.Claim(ClaimRequest{Key: key, Worker: worker})
	if resp.Action != ActionRun {
		t.Fatalf("claim(%s by %s) = %+v, want run", key, worker, resp)
	}
	return resp
}

func TestLeaseLifecycle(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	r := mustClaimRun(t, c, "k1", "w1")
	if r.TTLMillis != 10_000 || r.Steal {
		t.Fatalf("grant = %+v", r)
	}
	// A second worker must wait while the lease is live.
	if resp := c.Claim(ClaimRequest{Key: "k1", Worker: "w2"}); resp.Action != ActionWait || resp.RetryMillis <= 0 {
		t.Fatalf("concurrent claim = %+v, want wait", resp)
	}
	// Completion wins; the waiter now sees done.
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w1", Lease: r.Lease}); !d.Accepted {
		t.Fatal("ack under a live lease rejected")
	}
	if resp := c.Claim(ClaimRequest{Key: "k1", Worker: "w2"}); resp.Action != ActionDone {
		t.Fatalf("claim after done = %+v", resp)
	}
	s := c.Status()
	if s.Done != 1 || s.CellsDone != 1 || s.LeasesGranted != 1 || s.Expired != 0 {
		t.Fatalf("status = %+v", s)
	}
}

// A lease expiring mid-compute: the cell is re-leased to another worker,
// and the original's late ack must not produce a second completion.
func TestExpiryMidComputeRejectsLateAck(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	r1 := mustClaimRun(t, c, "k1", "w1")
	clk.Advance(10*time.Second + time.Nanosecond) // past the deadline

	// The cell is requeued and re-leased.
	r2 := mustClaimRun(t, c, "k1", "w2")
	if r2.Lease == r1.Lease {
		t.Fatal("re-lease reused the expired lease id")
	}
	s := c.Status()
	if s.Expired != 1 || s.Requeued != 1 {
		t.Fatalf("expiry accounting = %+v", s)
	}

	// w1 finishes its (now orphaned) compute and acks late: rejected.
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w1", Lease: r1.Lease}); d.Accepted {
		t.Fatal("late ack accepted")
	}
	// w2's ack is the completion of record.
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w2", Lease: r2.Lease}); !d.Accepted {
		t.Fatal("live ack rejected")
	}
	// A replay of w2's own ack is also late now.
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w2", Lease: r2.Lease}); d.Accepted {
		t.Fatal("duplicate ack accepted")
	}
	s = c.Status()
	if s.CellsDone != 1 || s.LateAcks != 2 {
		t.Fatalf("exactly-one accounting = %+v", s)
	}
}

// A heartbeat arriving exactly at the deadline saves the lease (expiry
// is strictly now > deadline); one nanosecond later loses it.
func TestHeartbeatExactlyAtDeadline(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	r := mustClaimRun(t, c, "k1", "w1")
	clk.Advance(10 * time.Second) // exactly the deadline
	hb := c.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []LeaseRef{{Key: "k1", Lease: r.Lease}}})
	if len(hb.Lost) != 0 {
		t.Fatalf("on-deadline heartbeat lost leases: %v", hb.Lost)
	}
	// The heartbeat re-armed the full TTL.
	clk.Advance(10 * time.Second)
	hb = c.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []LeaseRef{{Key: "k1", Lease: r.Lease}}})
	if len(hb.Lost) != 0 {
		t.Fatalf("re-armed heartbeat lost leases: %v", hb.Lost)
	}
	// Now miss the window by a nanosecond.
	clk.Advance(10*time.Second + time.Nanosecond)
	hb = c.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []LeaseRef{{Key: "k1", Lease: r.Lease}}})
	if len(hb.Lost) != 1 || hb.Lost[0] != "k1" {
		t.Fatalf("expired heartbeat = %+v, want lost [k1]", hb)
	}
	if s := c.Status(); s.Expired != 1 {
		t.Fatalf("status = %+v", s)
	}
}

// Work-stealing: a cell leased past StealAfter is duplicated to an idle
// claimant; whichever ack lands first wins and the other is late.
func TestStealRaceExactlyOneCompletion(t *testing.T) {
	for _, winner := range []string{"original", "thief"} {
		t.Run(winner, func(t *testing.T) {
			clk := newTestClock()
			c := newTestCoord(clk, nil)

			r1 := mustClaimRun(t, c, "k1", "w1")
			// Keep w1's lease alive with heartbeats inside each TTL window
			// while wall time approaches the steal threshold.
			hb := func() {
				t.Helper()
				resp := c.Heartbeat(HeartbeatRequest{Worker: "w1", Leases: []LeaseRef{{Key: "k1", Lease: r1.Lease}}})
				if len(resp.Lost) != 0 {
					t.Fatalf("heartbeat lost leases: %v", resp.Lost)
				}
			}
			for i := 0; i < 3; i++ { // t = 27s, before StealAfter=30s
				clk.Advance(9 * time.Second)
				hb()
			}
			if resp := c.Claim(ClaimRequest{Key: "k1", Worker: "w2"}); resp.Action != ActionWait {
				t.Fatalf("pre-threshold claim = %+v, want wait", resp)
			}
			// Past StealAfter (measured from the grant) a duplicate is handed out.
			clk.Advance(5 * time.Second) // t = 32s; w1's deadline is 37s
			r2 := mustClaimRun(t, c, "k1", "w2")
			if !r2.Steal {
				t.Fatalf("duplicate grant not marked steal: %+v", r2)
			}
			// maxLeases caps further duplicates.
			if resp := c.Claim(ClaimRequest{Key: "k1", Worker: "w3"}); resp.Action != ActionWait {
				t.Fatalf("over-cap claim = %+v, want wait", resp)
			}

			first, second := DoneRequest{Key: "k1", Worker: "w1", Lease: r1.Lease},
				DoneRequest{Key: "k1", Worker: "w2", Lease: r2.Lease}
			if winner == "thief" {
				first, second = second, first
			}
			if d := c.Done(first); !d.Accepted {
				t.Fatalf("%s's ack rejected", winner)
			}
			if d := c.Done(second); d.Accepted {
				t.Fatal("losing ack accepted: two completions for one cell")
			}
			s := c.Status()
			if s.CellsDone != 1 || s.Steals != 1 || s.LateAcks != 1 {
				t.Fatalf("steal accounting = %+v", s)
			}
		})
	}
}

// A worker retrying a claim whose response it lost gets its own lease
// re-affirmed (same id, extended deadline), not a wait verdict.
func TestReclaimIsIdempotent(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	r1 := mustClaimRun(t, c, "k1", "w1")
	clk.Advance(9 * time.Second)
	r2 := mustClaimRun(t, c, "k1", "w1")
	if r2.Lease != r1.Lease {
		t.Fatalf("re-claim minted a new lease: %d vs %d", r2.Lease, r1.Lease)
	}
	// The re-claim extended the deadline: 9s later the lease still lives.
	clk.Advance(9 * time.Second)
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w1", Lease: r1.Lease}); !d.Accepted {
		t.Fatal("ack after extension rejected")
	}
	if s := c.Status(); s.LeasesGranted != 1 {
		t.Fatalf("re-claim counted as a new lease: %+v", s)
	}
}

func TestFirstErrorPolicyAborts(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	r := mustClaimRun(t, c, "k1", "w1")
	mustClaimRun(t, c, "k2", "w2")
	f := c.Fail(FailRequest{Key: "k1", Worker: "w1", Lease: r.Lease, Error: "boom"})
	if !f.Aborted {
		t.Fatal("first-error fail did not abort")
	}
	// Every later claim — new cells included — answers abort.
	if resp := c.Claim(ClaimRequest{Key: "k3", Worker: "w2"}); resp.Action != ActionAbort || resp.Error != "boom" {
		t.Fatalf("post-abort claim = %+v", resp)
	}
	s := c.Status()
	if !s.Aborted || s.AbortError != "boom" || s.Failed != 1 {
		t.Fatalf("status = %+v", s)
	}
}

func TestKeepGoingRetriesThenFailsPermanently(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, func(o *Options) { o.KeepGoing = true; o.MaxRetries = 2 })

	// MaxRetries re-leases after failures: attempts 1..3 fail, the cell
	// only then becomes permanent.
	for attempt := 1; attempt <= 3; attempt++ {
		r := mustClaimRun(t, c, "k1", "w1")
		f := c.Fail(FailRequest{Key: "k1", Worker: "w1", Lease: r.Lease,
			Error: fmt.Sprintf("boom %d", attempt)})
		if f.Aborted {
			t.Fatalf("keep-going aborted on attempt %d", attempt)
		}
	}
	resp := c.Claim(ClaimRequest{Key: "k1", Worker: "w2"})
	if resp.Action != ActionFailed || resp.Error != "boom 3" {
		t.Fatalf("claim on spent cell = %+v, want failed", resp)
	}
	// Other cells are unaffected.
	mustClaimRun(t, c, "k2", "w2")
	s := c.Status()
	if s.Aborted || s.Failed != 1 || s.CellsFailed != 1 {
		t.Fatalf("status = %+v", s)
	}
}

// Expiries are not failures: a cell can expire endlessly without eating
// its keep-going failure budget.
func TestExpiryDoesNotConsumeFailureBudget(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, func(o *Options) { o.KeepGoing = true; o.MaxRetries = 1 })

	for i := 0; i < 5; i++ {
		mustClaimRun(t, c, "k1", "w1")
		clk.Advance(11 * time.Second)
	}
	r := mustClaimRun(t, c, "k1", "w2")
	if d := c.Done(DoneRequest{Key: "k1", Worker: "w2", Lease: r.Lease}); !d.Accepted {
		t.Fatal("cell unusable after repeated expiries")
	}
	if s := c.Status(); s.Expired != 5 || s.Failed != 0 {
		t.Fatalf("status = %+v", s)
	}
}

// The worker table is bounded: the stalest row is evicted, aggregate
// counters stay exact.
func TestWorkerTableBounded(t *testing.T) {
	clk := newTestClock()
	c := newTestCoord(clk, nil)

	const workers = workerTableSize + 1
	for i := 0; i < workers; i++ {
		clk.Advance(time.Second)
		key := fmt.Sprintf("k%d", i)
		worker := fmt.Sprintf("w%03d", i)
		r := mustClaimRun(t, c, key, worker)
		c.Done(DoneRequest{Key: key, Worker: worker, Lease: r.Lease})
	}
	s := c.Status()
	if len(s.Workers) != workerTableSize {
		t.Fatalf("worker table holds %d rows, want %d", len(s.Workers), workerTableSize)
	}
	for _, w := range s.Workers {
		if w.ID == "w000" {
			t.Fatalf("stale worker %s survived eviction", w.ID)
		}
	}
	if s.CellsDone != workers || s.LeasesGranted != workers {
		t.Fatalf("aggregate counters inexact after eviction: %+v", s)
	}
}
