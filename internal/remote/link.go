// The one resilient HTTP call path of this repository, shared by the
// memo-tier cache client (client.go) and the fleet coordinator client
// (internal/fleet). A Link owns everything the two have in common: the
// base-URL normalisation, a per-attempt deadline, bounded retries with
// jittered exponential backoff, the circuit breaker (one Success or
// Failure per logical call), the bearer header, the 401 latch that
// disables the link for the process lifetime with one warning, and the
// bounded drain and close of every response body. A caller supplies
// only a request builder and a response classifier; what a status code
// means — and whether it is worth retrying — stays with the verb.

package remote

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"activemem/internal/telemetry"
)

// LinkOptions tunes a Link. The zero value of every field selects the
// default documented on it.
type LinkOptions struct {
	// Timeout bounds each request attempt (default 2s). No call waits on
	// the link longer than Timeout×(1+Retries) plus backoff sleeps.
	Timeout time.Duration
	// Retries is the number of re-attempts after a retryable failure
	// (default 2; negative means none).
	Retries int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// retries (defaults 50ms and 1s); each sleep is jittered in [d/2, d].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the number of consecutive failed calls that
	// open the circuit breaker (default 3). BreakerCooldown is how long
	// it stays open before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (o *LinkOptions) withDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
}

// LinkMetrics names the process-wide instruments a link feeds; any may
// be nil. Each client family passes its own, so the remote tier and the
// fleet link expose separate series.
type LinkMetrics struct {
	Attempts     *telemetry.Counter // every request attempt sent
	Retries      *telemetry.Counter // attempts beyond the first
	BreakerOpens *telemetry.Counter // breaker transitions to open
	BreakerState *telemetry.Gauge   // breaker state (BreakerClosed…)
}

// Verdict is a classifier's reading of one response.
type Verdict int

const (
	// Answered: the call is complete; the breaker records a success.
	Answered Verdict = iota
	// Retry: no verdict was reached (torn body, 5xx); the link tries
	// again while the retry budget lasts, then records a failure.
	Retry
	// Failed: a definitive failure; the breaker records a failure.
	Failed
	// Refused: a definitive failure from a healthy server (a 412 schema
	// mismatch); no retry, and the breaker records a success.
	Refused
)

// CallResult is how one logical call on a link ended.
type CallResult int

const (
	// CallDone: the classifier's last verdict (Answered, Failed or
	// Refused) stands; the caller reads its own outcome.
	CallDone CallResult = iota
	// CallExhausted: every attempt failed to reach a verdict.
	CallExhausted
	// CallUnauthorized: the server answered 401; the link is now disabled.
	CallUnauthorized
	// CallFastFailed: the breaker is open; no request was sent.
	CallFastFailed
	// CallDisabled: the link was already disabled; no request was sent.
	CallDisabled
)

// Link is a fault-tolerant handle on one HTTP server. Safe for
// concurrent use.
type Link struct {
	base     string
	token    string
	who      string // "remote: cache", names the server in errors and warnings
	fallback string // what the process does once the link is disabled
	opts     LinkOptions
	hc       *http.Client
	br       *breaker
	m        LinkMetrics

	disabled          atomic.Bool
	attempts, retries atomic.Uint64
}

// NewLink returns a link to the server at rawURL. A bare host:port is
// assumed http. token, when non-empty, rides every request as a bearer
// token. who names the server in errors and the one disable warning
// (e.g. "fleet: coordinator"); fallback says what the process does
// instead once the link is disabled (e.g. "running solo"). The only
// error is a malformed URL.
func NewLink(rawURL, token, who, fallback string, o LinkOptions, m LinkMetrics) (*Link, error) {
	o.withDefaults()
	base := rawURL
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if rawURL == "" || err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("%s URL %q is not an http(s) URL", who, rawURL)
	}
	return &Link{
		base:     strings.TrimRight(base, "/"),
		token:    token,
		who:      who,
		fallback: fallback,
		opts:     o,
		// The transport-level timeout stays off: per-attempt contexts carry
		// the deadline so retries get a fresh budget each.
		hc: &http.Client{},
		br: newBreaker(o.BreakerThreshold, o.BreakerCooldown, m.BreakerOpens, m.BreakerState),
		m:  m,
	}, nil
}

// Base returns the normalised server URL.
func (l *Link) Base() string { return l.base }

// Attempts returns how many request attempts the link has sent.
func (l *Link) Attempts() uint64 { return l.attempts.Load() }

// Retries returns how many of those attempts were retries.
func (l *Link) Retries() uint64 { return l.retries.Load() }

// Do runs one logical call: the disable and breaker gates, then up to
// 1+Retries attempts, each built by build under its own deadline and
// read by classify. A transport error (dial, timeout, reset) is a Retry.
// classify may read the body; Do drains a bounded remainder and closes
// it. The breaker records one Success or Failure per call that sent a
// request.
func (l *Link) Do(build func(context.Context) (*http.Request, error), classify func(*http.Response) Verdict) CallResult {
	if l.disabled.Load() {
		return CallDisabled
	}
	if !l.br.Allow() {
		return CallFastFailed
	}
	for attempt := 0; ; attempt++ {
		v, unauthorized := l.attempt(build, classify)
		switch {
		case unauthorized:
			l.br.Success() // the server answered; our credential is bad
			l.disable("rejected our auth token (401)")
			return CallUnauthorized
		case v == Answered || v == Refused:
			l.br.Success()
			return CallDone
		case v == Failed:
			l.br.Failure()
			return CallDone
		case attempt >= l.opts.Retries:
			l.br.Failure()
			return CallExhausted
		}
		l.retries.Add(1)
		if l.m.Retries != nil {
			l.m.Retries.Inc()
		}
		time.Sleep(JitteredBackoff(l.opts.BackoffBase, l.opts.BackoffMax, attempt))
	}
}

// attempt sends one request under its own deadline.
func (l *Link) attempt(build func(context.Context) (*http.Request, error), classify func(*http.Response) Verdict) (v Verdict, unauthorized bool) {
	l.attempts.Add(1)
	if l.m.Attempts != nil {
		l.m.Attempts.Inc()
	}
	ctx, cancel := context.WithTimeout(context.Background(), l.opts.Timeout)
	defer cancel()
	req, err := build(ctx)
	if err != nil {
		return Failed, false
	}
	if l.token != "" {
		req.Header.Set("Authorization", "Bearer "+l.token)
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return Retry, false // dial/timeout/reset: never reached a verdict
	}
	defer func() {
		// Drain a little so the connection can be reused, then close.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusUnauthorized {
		return Failed, true
	}
	return classify(resp), false
}

// disable turns the link off for the process lifetime and warns once. A
// server that rejects this process's credential, or speaks another
// result-schema generation, can never serve it a usable byte, so further
// requests would be pure overhead.
func (l *Link) disable(why string) {
	if l.disabled.CompareAndSwap(false, true) {
		fmt.Fprintf(os.Stderr, "%s at %s %s; %s\n", l.who, l.base, why, l.fallback)
	}
}

// Close releases idle connections.
func (l *Link) Close() { l.hc.CloseIdleConnections() }

// JitteredBackoff returns the delay before retry attempt+1 of an
// exponential-backoff schedule: base<<attempt capped at max, jittered on
// the upper half ([d/2, d]) so a fleet of workers retrying against one
// recovering server never synchronises into thundering herds.
func JitteredBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d/2+1)
}
