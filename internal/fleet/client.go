// The worker side of the fleet: a fault-tolerant client over the
// coordinator RPCs, sent through the same remote.Link that keeps the
// remote memo tier harmless when its server misbehaves — per-attempt
// deadlines, jittered exponential backoff on retryable failures, and a
// circuit breaker so a dead coordinator costs the campaign one deadline
// budget per probe window, not one per cell. The degradation contract is the
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
	"io"
	"net/http"
	"os"
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

	// LinkOptions tunes the per-RPC deadline, retries and breaker, with
	// the same defaults as the remote tier. Every fleet RPC is idempotent
	// — a re-claimed lease is re-affirmed, a replayed ack is a counted
	// late ack — so all of them retry.
	remote.LinkOptions

	// HeartbeatEvery overrides the heartbeat cadence (default: a third
	// of the TTL the coordinator advertises on each granted lease).
	HeartbeatEvery time.Duration
}

// ClientOptionsFromEnv builds ClientOptions for baseURL, honouring
//
//	ACTIVEMEM_FLEET_WORKER    worker identity override
//	ACTIVEMEM_CACHE_TOKEN     shared-secret bearer token
func ClientOptionsFromEnv(baseURL string) ClientOptions {
	return ClientOptions{
		BaseURL:   baseURL,
		Worker:    os.Getenv("ACTIVEMEM_FLEET_WORKER"),
		AuthToken: remote.TokenFromEnv(),
	}
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
	worker         string
	heartbeatEvery time.Duration
	link           *remote.Link

	mu   sync.Mutex
	held map[string]uint64 // cell key → live lease id

	ttlNs atomic.Int64  // lease TTL learned from claim responses
	wake  chan struct{} // pokes the heartbeater when the TTL changes

	stop      chan struct{}
	hbDone    chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	nLeased, nStolen, nWaited, nDegraded atomic.Uint64
	nDone, nLateAcks, nLost, nFailed     atomic.Uint64
	nErrors, nFastFails                  atomic.Uint64
}

// NewClient returns a client for the coordinator at o.BaseURL and starts
// its heartbeater. The only error is a malformed URL: runtime failures
// degrade to solo compute instead.
func NewClient(o ClientOptions) (*Client, error) {
	link, err := remote.NewLink(o.BaseURL, o.AuthToken, "fleet: coordinator", "running solo",
		o.LinkOptions, remote.LinkMetrics{Attempts: mClientRPCs,
			BreakerOpens: mClientBreakerOpens, BreakerState: mClientBreakerState})
	if err != nil {
		return nil, err
	}
	if o.Worker == "" {
		o.Worker = DefaultWorkerID()
	}
	c := &Client{
		worker:         o.Worker,
		heartbeatEvery: o.HeartbeatEvery,
		link:           link,
		held:           map[string]uint64{},
		wake:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		hbDone:         make(chan struct{}),
	}
	c.ttlNs.Store(int64(15 * time.Second)) // coordinator default until learned
	go c.heartbeater()
	return c, nil
}

// BaseURL returns the normalised coordinator URL.
func (c *Client) BaseURL() string { return c.link.Base() }

// Claim asks for the right to compute key. Every failure mode folds
// into Decision{Action: ActionUnreachable}: the caller computes solo.
func (c *Client) Claim(key string) Decision {
	var resp ClaimResponse
	if !c.post("claim", ClaimRequest{Key: key, Worker: c.worker}, &resp) {
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
	if !c.post("done", DoneRequest{Key: key, Worker: c.worker, Lease: id}, &resp) {
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
	if !c.post("fail", FailRequest{Key: key, Worker: c.worker, Lease: id, Error: errMsg}, &resp) {
		return false
	}
	return resp.Aborted
}

// heartbeater extends held leases at a third of the advertised TTL.
func (c *Client) heartbeater() {
	defer close(c.hbDone)
	for {
		interval := c.heartbeatEvery
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
		if !c.post("heartbeat", HeartbeatRequest{Worker: c.worker, Leases: refs}, &resp) {
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

// post runs one RPC through the link and decodes the JSON answer into
// resp, reporting whether it arrived. A dial error, a 5xx or a torn
// answer retries; any other status fails the call.
func (c *Client) post(endpoint string, req, resp any) bool {
	if c.closed.Load() {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	answered := false
	res := c.link.Do(func(ctx context.Context) (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.link.Base()+PathPrefix+endpoint, bytes.NewReader(body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
		return hreq, err
	}, func(hresp *http.Response) remote.Verdict {
		switch {
		case hresp.StatusCode == http.StatusOK:
			if json.NewDecoder(io.LimitReader(hresp.Body, maxBody)).Decode(resp) != nil {
				return remote.Retry // torn response
			}
			answered = true
			return remote.Answered
		case hresp.StatusCode >= 500:
			return remote.Retry
		default:
			return remote.Failed
		}
	})
	switch {
	case answered:
		return true
	case res == remote.CallFastFailed:
		c.nFastFails.Add(1)
	case res == remote.CallDone || res == remote.CallExhausted:
		// The breaker counted a failure: the coordinator is sick, not
		// merely refusing our credential.
		c.nErrors.Add(1)
		mClientErrors.Inc()
	}
	return false
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
		c.link.Close()
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
		Worker:    c.worker,
		Leased:    c.nLeased.Load(),
		Stolen:    c.nStolen.Load(),
		Waited:    c.nWaited.Load(),
		Degraded:  c.nDegraded.Load(),
		Done:      c.nDone.Load(),
		LateAcks:  c.nLateAcks.Load(),
		Lost:      c.nLost.Load(),
		Failed:    c.nFailed.Load(),
		RPCs:      c.link.Attempts(),
		RPCErrors: c.nErrors.Load(),
		Retries:   c.link.Retries(),
		FastFails: c.nFastFails.Load(),
	}
}
