// The client half of the remote memo tier. Every public entry point is
// infallible by design: Get answers (typeName, payload, ok) and PutAsync
// answers nothing, because the only correct reaction to any remote
// failure is a local cache miss. The failure modes are contained by
// single-flight — concurrent fetches of one key collapse into one
// request, and waiters share the verified payload — and by the Link
// (link.go) every request goes through: per-attempt deadlines, bounded
// jittered retries and a circuit breaker. The retry policy is per verb:
// a GET retries on dial errors, torn bodies and 5xx; a PUT only on
// connection-level failures, where the request provably never changed
// server state.
//
// Bodies are verified against their CRC-32 header before anything may
// decode them — a corrupt payload is a counted miss, never a result —
// and a 412 schema mismatch disables the tier for the process lifetime
// (one warning, then silence: a wrong-generation cache is useless, not
// retryable). Write-back runs on a background worker behind a bounded
// queue that drops when full; a slow server sheds write-back load
// instead of back-pressuring the campaign.

package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"activemem/internal/telemetry"
)

// putQueue bounds the asynchronous write-back queue; when full, further
// write-backs are counted and dropped.
const putQueue = 256

// Options parameterises a Client. The zero value of every tuning field
// selects the default documented on it; BaseURL and Schema are required.
type Options struct {
	// BaseURL locates the labcached server, e.g. "http://10.0.0.7:8344".
	// A bare host:port is accepted and assumed http.
	BaseURL string
	// Schema is the result-schema generation this process speaks
	// (lab.ResultSchemaVersion). Sent on every request; a server that
	// disagrees answers 412 and the tier disables itself.
	Schema string

	// LinkOptions tunes the deadline, retry and breaker budget shared
	// with the fleet client. No cell ever waits on the remote tier longer
	// than Timeout×(1+Retries) plus backoff sleeps.
	LinkOptions

	// DrainTimeout bounds how long Close waits for queued write-backs
	// (default 2s).
	DrainTimeout time.Duration

	// AuthToken, when non-empty, is sent as a bearer token on every
	// request (the server's -auth-token shared secret). A 401 answer
	// disables the tier for the process lifetime with one warning, like a
	// schema mismatch: a server that rejects our credential can never
	// serve us a byte.
	AuthToken string
}

// Client is a fault-tolerant handle on one labcached server. Safe for
// concurrent use by any number of executor workers.
type Client struct {
	schema       string
	drainTimeout time.Duration
	link         *Link

	flightMu sync.Mutex
	flight   map[string]*flightCall

	putCh     chan putJob
	drainReq  chan struct{}
	drainDone chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	// Per-client counters backing Stats (the /metrics families in
	// metrics.go are process-wide and aggregate across clients).
	nGets, nHits, nMisses            atomic.Uint64
	nErrors, nCorrupt, nSchemaMiss   atomic.Uint64
	nFastFails                       atomic.Uint64
	nPutsStored, nPutsExists         atomic.Uint64
	nPutErrors, nPutsDropped         atomic.Uint64
	nPutsShed                        atomic.Uint64
	nSingleflightShared, nQueueDepth atomic.Int64
}

type flightCall struct {
	done     chan struct{}
	typeName string
	payload  []byte
	ok       bool
}

type putJob struct {
	key, typeName string
	payload       []byte
}

// New returns a client for the server at o.BaseURL. The only errors are
// a malformed URL and an empty schema — everything that can go wrong at
// runtime degrades to cache misses instead.
func New(o Options) (*Client, error) {
	if o.Schema == "" {
		return nil, fmt.Errorf("remote: empty schema version")
	}
	link, err := NewLink(o.BaseURL, o.AuthToken, "remote: cache", "remote tier disabled for this run",
		o.LinkOptions, LinkMetrics{Retries: mRetries, BreakerOpens: mBreakerOpens, BreakerState: mBreakerState})
	if err != nil {
		return nil, err
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 2 * time.Second
	}
	c := &Client{
		schema:       o.Schema,
		drainTimeout: o.DrainTimeout,
		link:         link,
		flight:       map[string]*flightCall{},
		putCh:        make(chan putJob, putQueue),
		drainReq:     make(chan struct{}),
		drainDone:    make(chan struct{}),
	}
	go c.putWorker()
	return c, nil
}

// BaseURL returns the normalised server URL.
func (c *Client) BaseURL() string { return c.link.Base() }

// Get fetches key's record. A false report means "not available from the
// remote tier right now" for any reason — miss, dead server, timeout,
// open breaker, corrupt body, schema mismatch — and the caller computes.
// Concurrent Gets for the same key collapse into one request.
func (c *Client) Get(key string) (typeName string, payload []byte, ok bool) {
	if c == nil || c.closed.Load() {
		return "", nil, false
	}
	c.nGets.Add(1)
	if c.link.disabled.Load() {
		c.nSchemaMiss.Add(1)
		mGets[getSchemaMiss].Inc()
		return "", nil, false
	}

	c.flightMu.Lock()
	if f, dup := c.flight[key]; dup {
		c.flightMu.Unlock()
		c.nSingleflightShared.Add(1)
		<-f.done
		return f.typeName, f.payload, f.ok
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[key] = f
	c.flightMu.Unlock()

	f.typeName, f.payload, f.ok = c.getCall(key)

	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(f.done)
	return f.typeName, f.payload, f.ok
}

// Answers a cell response can carry, as read by the GET and PUT
// classifiers.
const (
	outHit        = iota // GET 200 with a verified body; PUT 201 stored
	outMiss              // GET 404; PUT 200 already present
	outSchemaMiss        // 412: the server speaks another schema generation
	outCorrupt           // body arrived but cannot be trusted; retrying won't help
	outFail              // unexpected but definitive answer
)

// getCall runs one logical GET through the link and accounts its outcome.
func (c *Client) getCall(key string) (string, []byte, bool) {
	var typeName string
	var body []byte
	out := outFail
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	res := c.link.Do(func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.link.Base()+CellPathPrefix+key, nil)
		if err == nil {
			req.Header.Set(HeaderSchema, c.schema)
		}
		return req, err
	}, func(resp *http.Response) Verdict {
		var v Verdict
		typeName, body, out, v = readCell(resp)
		return v
	})
	switch res {
	case CallFastFailed:
		c.nFastFails.Add(1)
		mGets[getBreakerOpen].Inc()
		return "", nil, false
	case CallDisabled:
		c.nSchemaMiss.Add(1)
		mGets[getSchemaMiss].Inc()
		return "", nil, false
	}
	if timed {
		mGetSeconds.Observe(telemetry.NowNs() - startNs)
	}
	if res != CallDone {
		out = outFail // retries spent, or a 401
	}
	switch out {
	case outHit:
		c.nHits.Add(1)
		mGets[getHit].Inc()
		return typeName, body, true
	case outMiss:
		c.nMisses.Add(1)
		mGets[getMiss].Inc()
	case outSchemaMiss:
		c.noteSchemaMismatch()
		c.nSchemaMiss.Add(1)
		mGets[getSchemaMiss].Inc()
	case outCorrupt:
		c.nCorrupt.Add(1)
		mGets[getCorrupt].Inc()
	default:
		c.nErrors.Add(1)
		mGets[getError].Inc()
	}
	return "", nil, false
}

// readCell classifies one GET response, reading and verifying the body
// of a 200.
func readCell(resp *http.Response) (string, []byte, int, Verdict) {
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, MaxPayload+1))
		if err != nil {
			return "", nil, outFail, Retry // torn body: connection died mid-transfer
		}
		if int64(len(body)) > MaxPayload {
			return "", nil, outCorrupt, Failed
		}
		if cl := resp.ContentLength; cl >= 0 && cl != int64(len(body)) {
			return "", nil, outFail, Retry // short read the transport didn't flag
		}
		typeName := resp.Header.Get(HeaderType)
		if typeName == "" || !ChecksumMatches(resp.Header.Get(HeaderChecksum), body) {
			return "", nil, outCorrupt, Failed
		}
		return typeName, body, outHit, Answered
	case resp.StatusCode == http.StatusNotFound:
		return "", nil, outMiss, Answered // a cold cache is healthy
	case resp.StatusCode == http.StatusPreconditionFailed:
		return "", nil, outSchemaMiss, Refused
	case resp.StatusCode >= 500:
		return "", nil, outFail, Retry
	default:
		return "", nil, outFail, Failed
	}
}

// PutAsync queues a computed record for best-effort write-back. It never
// blocks: a full queue (or a disabled/closed tier) drops the record —
// the result is already safe in the local tiers, the remote copy is an
// optimisation.
func (c *Client) PutAsync(key, typeName string, payload []byte) {
	if c == nil || c.closed.Load() {
		return
	}
	if c.link.disabled.Load() {
		// Count the refusal: these records never reach the server and the
		// epilogue warns about them, same as the breaker-open sync path.
		c.nPutsShed.Add(1)
		mPuts[putShed].Inc()
		return
	}
	if len(payload) > MaxPayload || len(key) > MaxKeyLen {
		return
	}
	select {
	case c.putCh <- putJob{key: key, typeName: typeName, payload: payload}:
		c.nQueueDepth.Add(1)
		mPutQueueDepth.Add(1)
	default:
		c.nPutsDropped.Add(1)
		mPuts[putDropped].Inc()
	}
}

// putWorker serialises write-backs. One worker is deliberate: write-back
// is a background optimisation and must never compete with the campaign
// for connections or CPU; the bounded queue plus drop-on-full absorbs
// bursts.
func (c *Client) putWorker() {
	for {
		select {
		case j := <-c.putCh:
			c.nQueueDepth.Add(-1)
			mPutQueueDepth.Add(-1)
			c.putCall(j)
		case <-c.drainReq:
			for {
				select {
				case j := <-c.putCh:
					c.nQueueDepth.Add(-1)
					mPutQueueDepth.Add(-1)
					c.putCall(j)
				default:
					close(c.drainDone)
					return
				}
			}
		}
	}
}

// Put writes one record synchronously and reports whether the server
// now holds it. Workers in a fleet use this to publish a computed cell
// before acking its lease — the ack must not race the write-back queue,
// or a peer told "done" could miss the bytes. Failures degrade to false;
// the caller's result is already safe in the local tiers.
func (c *Client) Put(key, typeName string, payload []byte) bool {
	if c == nil || c.closed.Load() {
		return false
	}
	if len(payload) > MaxPayload || len(key) > MaxKeyLen {
		return false
	}
	return c.putCall(putJob{key: key, typeName: typeName, payload: payload})
}

// putCall runs one logical PUT and reports whether the record is on the
// server (stored now or already present). Only connection-level failures
// retry: there the request provably never changed server state. (A PUT
// of a content-addressed record is idempotent anyway, but staying within
// the idempotency argument keeps the retry policy self-evidently safe.)
func (c *Client) putCall(j putJob) bool {
	out := outFail
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	res := c.link.Do(func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			c.link.Base()+CellPathPrefix+j.key, bytes.NewReader(j.payload))
		if err == nil {
			req.Header.Set(HeaderSchema, c.schema)
			req.Header.Set(HeaderType, j.typeName)
			req.Header.Set(HeaderChecksum, Checksum(j.payload))
		}
		return req, err
	}, func(resp *http.Response) Verdict {
		switch resp.StatusCode {
		case http.StatusCreated:
			out = outHit
			return Answered
		case http.StatusOK:
			out = outMiss
			return Answered
		case http.StatusPreconditionFailed:
			out = outSchemaMiss
			return Refused
		default:
			// Including 5xx: the server answered, so the transport worked,
			// but a 5xx PUT may or may not have been applied. Content
			// addressing makes a replay harmless, yet the bounded-retry
			// budget is better spent on reads — fail the write-back, the
			// next campaign will offer the record again.
			return Failed
		}
	})
	if res == CallFastFailed || res == CallDisabled {
		// Shed, not dropped: the record never entered the queue race — the
		// tier itself refused it (disabled or breaker-open).
		c.nPutsShed.Add(1)
		mPuts[putShed].Inc()
		return false
	}
	if timed {
		mPutSeconds.Observe(telemetry.NowNs() - startNs)
	}
	switch {
	case res == CallDone && out == outHit:
		c.nPutsStored.Add(1)
		mPuts[putStored].Inc()
		return true
	case res == CallDone && out == outMiss:
		c.nPutsExists.Add(1)
		mPuts[putExists].Inc()
		return true
	case res == CallDone && out == outSchemaMiss:
		c.noteSchemaMismatch()
	}
	c.nPutErrors.Add(1)
	mPuts[putError].Inc()
	return false
}

// noteSchemaMismatch disables the tier for the process lifetime and warns
// once. A server of another schema generation can never serve this
// process a usable byte, so further requests would be pure overhead.
func (c *Client) noteSchemaMismatch() {
	c.link.disable(fmt.Sprintf("speaks a different result-schema generation than %q", c.schema))
}

// Close drains queued write-backs (bounded by DrainTimeout) and releases
// connections. Get/PutAsync on a closed client are safe no-ops.
func (c *Client) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.drainReq)
		select {
		case <-c.drainDone:
		case <-time.After(c.drainTimeout):
		}
		c.link.Close()
	})
}

// Stats is a snapshot of the client's counters, served on /statusz and
// printed in the CLIs' cache epilogue.
type Stats struct {
	Gets             uint64 `json:"gets"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Errors           uint64 `json:"errors"`
	Corrupt          uint64 `json:"corrupt"`
	SchemaMismatches uint64 `json:"schema_mismatches"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	Retries          uint64 `json:"retries"`
	BreakerOpens     uint64 `json:"breaker_opens"`
	BreakerState     int    `json:"breaker_state"`
	SingleflightHits int64  `json:"singleflight_hits"`
	PutsStored       uint64 `json:"puts_stored"`
	PutsExists       uint64 `json:"puts_exists"`
	PutErrors        uint64 `json:"put_errors"`
	PutsDropped      uint64 `json:"puts_dropped"`
	PutsShed         uint64 `json:"puts_shed"`
	PutQueueDepth    int64  `json:"put_queue_depth"`
}

// Stats returns a snapshot of the client's activity.
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Gets:             c.nGets.Load(),
		Hits:             c.nHits.Load(),
		Misses:           c.nMisses.Load(),
		Errors:           c.nErrors.Load(),
		Corrupt:          c.nCorrupt.Load(),
		SchemaMismatches: c.nSchemaMiss.Load(),
		BreakerFastFails: c.nFastFails.Load(),
		Retries:          c.link.Retries(),
		BreakerOpens:     c.link.br.Opens(),
		BreakerState:     c.link.br.State(),
		SingleflightHits: c.nSingleflightShared.Load(),
		PutsStored:       c.nPutsStored.Load(),
		PutsExists:       c.nPutsExists.Load(),
		PutErrors:        c.nPutErrors.Load(),
		PutsDropped:      c.nPutsDropped.Load(),
		PutsShed:         c.nPutsShed.Load(),
		PutQueueDepth:    c.nQueueDepth.Load(),
	}
}
