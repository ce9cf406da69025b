// The worker side of the fleet: a fault-tolerant client over the
// coordinator RPCs, built from the same machinery that keeps the remote
// memo tier harmless when its server misbehaves — per-attempt deadlines,
// jittered exponential backoff on retryable failures, and a circuit
// breaker so a dead coordinator costs the campaign one deadline budget
// per probe window, not one per cell. The degradation contract is the
// heart of it: any claim the client cannot complete within its budget is
// answered locally with ActionUnreachable, and the executor computes the
// cell solo. A flapping coordinator therefore degrades a distributed
// campaign toward N independent single-process runs — slower, never
// wrong, because the results were byte-identical to begin with.
//
// A background heartbeater extends every held lease at a third of the
// coordinator's advertised TTL. Leases the coordinator reports lost are
// dropped locally; the in-flight compute is left to finish, its Done
// falls through as a counted late ack, and its bytes are still valid.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activemem/internal/remote"
)

// ClientOptions parameterises a worker's coordinator link. Zero tuning
// fields select the defaults documented on each.
type ClientOptions struct {
	// BaseURL locates the coordinator (labcached -coord),
	// e.g. "http://10.0.0.7:8344". A bare host:port is assumed http.
	BaseURL string
	// Worker identifies this process in leases and per-worker accounting
	// (default DefaultWorkerID()).
	Worker string
	// AuthToken, when non-empty, rides every RPC as a bearer token. A
	// 401 marks the coordinator unreachable for the process lifetime.
	AuthToken string

	// Timeout bounds each RPC attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of re-attempts after a retryable failure
	// (default 2; all fleet RPCs are idempotent — a re-claimed lease is
	// re-affirmed, a replayed ack is a counted late ack).
	Retries int
	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between retries (defaults 50ms, 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// BreakerThreshold consecutive failed RPCs open the breaker
	// (default 3); BreakerCooldown is the open window (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// HeartbeatEvery overrides the heartbeat cadence (default: a third
	// of the TTL the coordinator advertises on each granted lease).
	HeartbeatEvery time.Duration
}

func (o *ClientOptions) withDefaults() {
	if o.Worker == "" {
		o.Worker = DefaultWorkerID()
	}
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

// ClientOptionsFromEnv builds ClientOptions for baseURL, honouring
//
//	ACTIVEMEM_FLEET_TIMEOUT   per-attempt RPC deadline (Go duration)
//	ACTIVEMEM_FLEET_RETRIES   re-attempts after a retryable failure
//	ACTIVEMEM_FLEET_WORKER    worker identity override
//	ACTIVEMEM_CACHE_TOKEN     shared-secret bearer token
//
// Unset or unparsable variables keep the defaults.
func ClientOptionsFromEnv(baseURL string) ClientOptions {
	o := ClientOptions{
		BaseURL:   baseURL,
		Worker:    os.Getenv("ACTIVEMEM_FLEET_WORKER"),
		AuthToken: remote.TokenFromEnv(),
	}
	if d, err := time.ParseDuration(os.Getenv("ACTIVEMEM_FLEET_TIMEOUT")); err == nil && d > 0 {
		o.Timeout = d
	}
	if n, err := strconv.Atoi(os.Getenv("ACTIVEMEM_FLEET_RETRIES")); err == nil && n >= 0 {
		o.Retries = n
		if n == 0 {
			o.Retries = -1 // withDefaults maps 0 to the default; -1 means "no retries"
		}
	}
	return o
}

// Decision is the client-side claim verdict handed to the executor.
type Decision struct {
	Action  string        // ActionRun … ActionUnreachable
	Steal   bool          // this lease duplicates a slow one
	RetryIn time.Duration // suggested poll delay for ActionWait
	Err     string        // cell/campaign error for ActionFailed/ActionAbort
}

// Client is one worker's coordinator link. Safe for concurrent use by
// all executor workers in the process.
type Client struct {
	base string
	opts ClientOptions
	hc   *http.Client
	br   *remote.Breaker

	mu   sync.Mutex
	held map[string]uint64 // cell key → live lease id

	ttlNs atomic.Int64  // lease TTL learned from claim responses
	wake  chan struct{} // pokes the heartbeater when the TTL changes

	stop      chan struct{}
	hbDone    chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	authBad  atomic.Bool
	authOnce sync.Once

	nLeased, nStolen, nWaited, nDegraded atomic.Uint64
	nDone, nLateAcks, nLost, nFailed     atomic.Uint64
	nRPCs, nErrors, nRetries, nFastFails atomic.Uint64
}

// NewClient returns a client for the coordinator at o.BaseURL and starts
// its heartbeater. The only error is a malformed URL: runtime failures
// degrade to solo compute instead.
func NewClient(o ClientOptions) (*Client, error) {
	o.withDefaults()
	base := o.BaseURL
	if base == "" {
		return nil, fmt.Errorf("fleet: empty coordinator URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("fleet: invalid coordinator URL %q", o.BaseURL)
	}
	c := &Client{
		base:   strings.TrimRight(base, "/"),
		opts:   o,
		hc:     &http.Client{},
		br:     remote.NewBreaker(o.BreakerThreshold, o.BreakerCooldown, mClientBreakerOpens, mClientBreakerState),
		held:   map[string]uint64{},
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		hbDone: make(chan struct{}),
	}
	c.ttlNs.Store(int64(15 * time.Second)) // coordinator default until learned
	go c.heartbeater()
	return c, nil
}

// Worker returns this client's fleet identity.
func (c *Client) Worker() string { return c.opts.Worker }

// BaseURL returns the normalised coordinator URL.
func (c *Client) BaseURL() string { return c.base }

// Claim asks for the right to compute key. Every failure mode folds
// into Decision{Action: ActionUnreachable}: the caller computes solo.
func (c *Client) Claim(key, label string) Decision {
	var resp ClaimResponse
	err := c.post("claim", ClaimRequest{Key: key, Label: label, Worker: c.opts.Worker}, &resp)
	if err != nil {
		c.nDegraded.Add(1)
		mClientDegraded.Inc()
		return Decision{Action: ActionUnreachable}
	}
	d := Decision{Action: resp.Action, Steal: resp.Steal, Err: resp.Error}
	switch resp.Action {
	case ActionRun:
		if ttl := resp.TTLMillis * int64(time.Millisecond); ttl > 0 && ttl != c.ttlNs.Swap(ttl) {
			// The heartbeater may be mid-sleep on the stale cadence — with a
			// short real TTL that sleep outlives the lease. Re-arm it.
			select {
			case c.wake <- struct{}{}:
			default:
			}
		}
		c.mu.Lock()
		c.held[key] = resp.Lease
		c.mu.Unlock()
		c.nLeased.Add(1)
		if resp.Steal {
			c.nStolen.Add(1)
		}
	case ActionWait:
		c.nWaited.Add(1)
		d.RetryIn = time.Duration(resp.RetryMillis) * time.Millisecond
		if d.RetryIn <= 0 {
			d.RetryIn = 250 * time.Millisecond
		}
	case ActionDone, ActionFailed, ActionAbort:
		// Terminal verdicts carry no client state.
	default:
		// A coordinator speaking a newer dialect: treat like unreachable.
		c.nDegraded.Add(1)
		mClientDegraded.Inc()
		d = Decision{Action: ActionUnreachable}
	}
	return d
}

// Done acks a computed-and-published cell. False means the ack was late
// (lease lost, or another worker finished first) — the local value is
// still valid, it just wasn't the completion of record.
func (c *Client) Done(key string) bool {
	c.mu.Lock()
	id, ok := c.held[key]
	delete(c.held, key)
	c.mu.Unlock()
	if !ok {
		c.nLateAcks.Add(1)
		return false
	}
	var resp DoneResponse
	if err := c.post("done", DoneRequest{Key: key, Worker: c.opts.Worker, Lease: id}, &resp); err != nil {
		return false
	}
	if resp.Accepted {
		c.nDone.Add(1)
	} else {
		c.nLateAcks.Add(1)
	}
	return resp.Accepted
}

// Fail reports a compute error under the held lease and returns whether
// the campaign is now aborted.
func (c *Client) Fail(key, errMsg string) (aborted bool) {
	c.mu.Lock()
	id, ok := c.held[key]
	delete(c.held, key)
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.nFailed.Add(1)
	var resp FailResponse
	if err := c.post("fail", FailRequest{Key: key, Worker: c.opts.Worker, Lease: id, Error: errMsg}, &resp); err != nil {
		return false
	}
	return resp.Aborted
}

// PostManifest pre-registers cells with the coordinator (advisory).
func (c *Client) PostManifest(cells []ManifestCell) error {
	var resp ManifestResponse
	return c.post("manifest", ManifestRequest{Cells: cells}, &resp)
}

// heartbeater extends held leases at a third of the advertised TTL.
func (c *Client) heartbeater() {
	defer close(c.hbDone)
	for {
		interval := c.opts.HeartbeatEvery
		if interval <= 0 {
			interval = time.Duration(c.ttlNs.Load()) / 3
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		select {
		case <-c.stop:
			return
		case <-c.wake:
			continue // TTL changed: recompute the cadence before sleeping on it
		case <-time.After(interval):
		}
		c.mu.Lock()
		refs := make([]LeaseRef, 0, len(c.held))
		for k, id := range c.held {
			refs = append(refs, LeaseRef{Key: k, Lease: id})
		}
		c.mu.Unlock()
		if len(refs) == 0 {
			continue
		}
		var resp HeartbeatResponse
		if err := c.post("heartbeat", HeartbeatRequest{Worker: c.opts.Worker, Leases: refs}, &resp); err != nil {
			continue // the breaker owns the back-off; leases may expire
		}
		if len(resp.Lost) > 0 {
			c.mu.Lock()
			for _, k := range resp.Lost {
				if _, ok := c.held[k]; ok {
					delete(c.held, k)
					c.nLost.Add(1)
				}
			}
			c.mu.Unlock()
		}
	}
}

var (
	errFastFail     = errors.New("fleet: breaker open")
	errUnauthorized = errors.New("fleet: unauthorized")
	errClosed       = errors.New("fleet: client closed")
)

// post runs one logical RPC: breaker gate, bounded retry loop, JSON
// decode into resp.
func (c *Client) post(endpoint string, req, resp any) error {
	if c.closed.Load() {
		return errClosed
	}
	if c.authBad.Load() {
		return errUnauthorized
	}
	if !c.br.Allow() {
		c.nFastFails.Add(1)
		return errFastFail
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.br.Success() // not the server's fault
		return err
	}
	for attempt := 0; ; attempt++ {
		c.nRPCs.Add(1)
		mClientRPCs.Inc()
		err := c.postOnce(endpoint, body, resp)
		if err == nil {
			c.br.Success()
			return nil
		}
		if errors.Is(err, errUnauthorized) {
			c.br.Success() // the server answered; our credential is bad
			c.noteUnauthorized()
			return err
		}
		if !retryable(err) || attempt >= c.opts.Retries {
			c.br.Failure()
			c.nErrors.Add(1)
			mClientErrors.Inc()
			return err
		}
		c.nRetries.Add(1)
		time.Sleep(remote.JitteredBackoff(c.opts.BackoffBase, c.opts.BackoffMax, attempt))
	}
}

// retryableError marks failures where the RPC may have never reached a
// verdict; fleet RPCs are idempotent, so replaying them is always safe.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

func retryable(err error) bool {
	var r retryableError
	return errors.As(err, &r)
}

// postOnce performs one attempt under its own deadline.
func (c *Client) postOnce(endpoint string, body []byte, resp any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+PathPrefix+endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.opts.AuthToken != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return retryableError{err} // dial/timeout/reset: no verdict reached
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 4<<10))
		hresp.Body.Close()
	}()
	switch {
	case hresp.StatusCode == http.StatusOK:
		dec := json.NewDecoder(io.LimitReader(hresp.Body, maxBody))
		if err := dec.Decode(resp); err != nil {
			return retryableError{fmt.Errorf("fleet: torn response: %w", err)}
		}
		return nil
	case hresp.StatusCode == http.StatusUnauthorized:
		return errUnauthorized
	case hresp.StatusCode >= 500:
		return retryableError{fmt.Errorf("fleet: server error %d", hresp.StatusCode)}
	default:
		return fmt.Errorf("fleet: unexpected status %d", hresp.StatusCode)
	}
}

// noteUnauthorized downs the link for the process lifetime with one
// warning; every later claim degrades to solo compute.
func (c *Client) noteUnauthorized() {
	if c.authBad.CompareAndSwap(false, true) {
		c.authOnce.Do(func() {
			fmt.Fprintf(os.Stderr,
				"fleet: coordinator at %s rejected our auth token (401); running solo\n", c.base)
		})
	}
}

// Close stops the heartbeater and releases connections. Held leases are
// deliberately left to expire on the coordinator: a worker shutting down
// mid-cell looks exactly like a worker crashing, and the expiry path is
// the recovery path.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.stop)
		<-c.hbDone
		c.hc.CloseIdleConnections()
	})
}

// ClientStats is a snapshot of the worker's fleet activity for the CLI
// epilogue and /statusz.
type ClientStats struct {
	Worker    string `json:"worker"`
	Leased    uint64 `json:"leased"`
	Stolen    uint64 `json:"stolen"`
	Waited    uint64 `json:"waited"`
	Degraded  uint64 `json:"degraded"`
	Done      uint64 `json:"done"`
	LateAcks  uint64 `json:"late_acks"`
	Lost      uint64 `json:"lost"`
	Failed    uint64 `json:"failed"`
	RPCs      uint64 `json:"rpcs"`
	RPCErrors uint64 `json:"rpc_errors"`
	Retries   uint64 `json:"retries"`
	FastFails uint64 `json:"fast_fails"`
}

// Stats snapshots the client.
func (c *Client) Stats() ClientStats {
	if c == nil {
		return ClientStats{}
	}
	return ClientStats{
		Worker:    c.opts.Worker,
		Leased:    c.nLeased.Load(),
		Stolen:    c.nStolen.Load(),
		Waited:    c.nWaited.Load(),
		Degraded:  c.nDegraded.Load(),
		Done:      c.nDone.Load(),
		LateAcks:  c.nLateAcks.Load(),
		Lost:      c.nLost.Load(),
		Failed:    c.nFailed.Load(),
		RPCs:      c.nRPCs.Load(),
		RPCErrors: c.nErrors.Load(),
		Retries:   c.nRetries.Load(),
		FastFails: c.nFastFails.Load(),
	}
}
