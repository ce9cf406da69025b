// The server half of the remote memo tier: an http.Handler over a
// writable store.Store, mounted by cmd/labcached beside the telemetry
// handler. Results are immutable and content-addressed, so every 200
// carries Cache-Control: immutable, and a 412 answers whenever the peer
// speaks a different schema generation — wrong-schema bytes never cross
// the wire in either direction. PUTs are verified against their checksum
// header before touching the store, so a client (or a middlebox) that
// corrupts a body cannot poison the shared cache.

package remote

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"activemem/internal/store"
)

// Handler serves the /v1/cell/ protocol over one store.
type Handler struct {
	st *store.Store
}

// NewHandler returns the cell handler for st (which must be writable for
// PUTs to succeed; a read-only store serves GETs and fails PUTs).
func NewHandler(st *store.Store) *Handler { return &Handler{st: st} }

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := cellKey(r.URL.Path)
	if !ok {
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "malformed cell path", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h.get(w, r, key)
	case http.MethodPut:
		h.put(w, r, key)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// checkSchema enforces schema negotiation: a mismatch answers 412 and
// reports false. GETs may omit the header (curl-friendliness — the
// response still carries the server's schema so the caller can tell what
// it got); PUTs must send it, because admitting a record of unknown
// generation would corrupt the cache for every reader.
func (h *Handler) checkSchema(w http.ResponseWriter, r *http.Request, required bool, mismatchOutcome int) bool {
	got := r.Header.Get(HeaderSchema)
	if got == h.st.Schema() || (got == "" && !required) {
		return true
	}
	w.Header().Set(HeaderSchema, h.st.Schema())
	mSrvRequests[mismatchOutcome].Inc()
	http.Error(w, fmt.Sprintf("result schema mismatch: server speaks %q, request says %q",
		h.st.Schema(), got), http.StatusPreconditionFailed)
	return false
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, key string) {
	if !h.checkSchema(w, r, false, srvGetSchemaMiss) {
		return
	}
	typeName, payload, ok := h.st.Get(key)
	if !ok {
		mSrvRequests[srvGetMiss].Inc()
		http.Error(w, "cell not cached", http.StatusNotFound)
		return
	}
	hdr := w.Header()
	// Content addressing makes every 200 immutable: the bytes behind a key
	// can never change, only vanish (GC) — and a revalidation after that is
	// a 404, not different bytes.
	hdr.Set("Cache-Control", "public, max-age=31536000, immutable")
	hdr.Set(HeaderSchema, h.st.Schema())
	hdr.Set(HeaderType, typeName)
	hdr.Set(HeaderChecksum, Checksum(payload))
	hdr.Set("Content-Type", "application/octet-stream")
	hdr.Set("Content-Length", strconv.Itoa(len(payload)))
	mSrvRequests[srvGetHit].Inc()
	if r.Method == http.MethodHead {
		return
	}
	// Stream rather than one Write: large cluster-phase payloads flow
	// through the response's chunk-sized copies instead of forcing a
	// single contiguous socket write.
	io.Copy(w, bytes.NewReader(payload))
}

func (h *Handler) put(w http.ResponseWriter, r *http.Request, key string) {
	if !h.checkSchema(w, r, true, srvPutSchemaMiss) {
		return
	}
	typeName := r.Header.Get(HeaderType)
	if typeName == "" || len(typeName) > MaxKeyLen {
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "missing or oversized "+HeaderType+" header", http.StatusBadRequest)
		return
	}
	if r.ContentLength > MaxPayload {
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "payload exceeds record limit", http.StatusRequestEntityTooLarge)
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, MaxPayload+1))
	if err != nil {
		// The body died mid-transfer; the connection is gone, but account
		// for it — a fleet of torn PUTs is worth seeing on /metrics.
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "body read failed", http.StatusBadRequest)
		return
	}
	if int64(len(payload)) > MaxPayload {
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "payload exceeds record limit", http.StatusRequestEntityTooLarge)
		return
	}
	// The checksum is mandatory on PUT: a record admitted here is served
	// to every teammate, so a corrupt upload must die at the door.
	if !ChecksumMatches(r.Header.Get(HeaderChecksum), payload) {
		mSrvRequests[srvBadRequest].Inc()
		http.Error(w, "payload checksum missing or mismatched", http.StatusBadRequest)
		return
	}
	added, err := h.st.Put(key, typeName, payload)
	if err != nil {
		mSrvRequests[srvError].Inc()
		http.Error(w, "store write failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if added {
		mSrvRequests[srvPutStored].Inc()
		w.WriteHeader(http.StatusCreated)
	} else {
		mSrvRequests[srvPutExists].Inc()
		w.WriteHeader(http.StatusOK)
	}
}
