// The circuit breaker inside every Link (link.go), so both the memo-tier
// cache client and the fleet coordinator client use it. A sick server
// must cost a campaign at most one deadline budget per probe window, not
// one per cell: after threshold consecutive failures the breaker opens
// and requests fast-fail locally (a counted miss, no dial, no deadline
// spent) until cooldown elapses; then exactly one probe request is let
// through half-open — its success closes the breaker, its failure
// re-opens the window.

package remote

import (
	"sync"
	"time"

	"activemem/internal/telemetry"
)

// Breaker states, exported as the remote_breaker_state and
// fleet_client_breaker_state gauges.
const (
	BreakerClosed   = 0
	BreakerHalfOpen = 1
	BreakerOpen     = 2
)

// breaker is a closed→open→half-open circuit breaker. Construct with
// newBreaker; the zero value is not ready for use.
type breaker struct {
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open duration before a half-open probe

	mu        sync.Mutex
	state     int
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last opened
	openCount uint64    // total transitions to open

	opens *telemetry.Counter // transitions-to-open counter, may be nil
	gauge *telemetry.Gauge   // state gauge, may be nil
}

// newBreaker returns a breaker that opens after threshold consecutive
// failures and probes again after cooldown. The optional instruments
// (either may be nil) receive open transitions and state changes, so each
// client family exposes its own breaker series.
func newBreaker(threshold int, cooldown time.Duration, opens *telemetry.Counter, state *telemetry.Gauge) *breaker {
	if threshold <= 0 {
		threshold = 1
	}
	return &breaker{threshold: threshold, cooldown: cooldown, opens: opens, gauge: state}
}

func (b *breaker) setGauge(v int64) {
	if b.gauge != nil {
		b.gauge.Set(v)
	}
}

// Allow reports whether a request may go out. In the open state it
// returns false until the cooldown has elapsed, then admits a single
// half-open probe; concurrent callers during the probe keep fast-failing,
// so a struggling server sees one request per window, not a stampede.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // the one probe is already in flight
	default: // BreakerOpen
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.setGauge(BreakerHalfOpen)
		return true
	}
}

// Success records a request that completed against the server (any
// protocol-level answer, including 404 — the server is healthy even when
// the cache is cold).
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state != BreakerClosed {
		b.state = BreakerClosed
		b.setGauge(BreakerClosed)
	}
}

// Failure records a connection-level failure, timeout, server error or
// corrupt body. A failing half-open probe re-opens immediately; while
// closed, Threshold consecutive failures open the breaker.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.open()
		return
	}
	if b.state == BreakerOpen {
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.open()
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.failures = 0
	b.openedAt = time.Now()
	b.openCount++
	if b.opens != nil {
		b.opens.Inc()
	}
	b.setGauge(BreakerOpen)
}

// State returns the current breaker state constant.
func (b *breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has opened.
func (b *breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}
