// The coordinator's HTTP surface: four POST endpoints taking small JSON
// bodies plus a GET status page, all under PathPrefix. The handler is
// mounted beside labcached's cell store (one process serves both the
// results and the leases); auth is layered on top by the caller via
// remote.RequireAuth, so the wire posture matches the cell endpoints
// exactly.

package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
)

// maxBody bounds request and response bodies. A heartbeat is the largest
// payload: one ~90-byte lease reference per cell the worker holds, which
// is at most one per executor worker — a few KiB, far under this.
const maxBody = 1 << 20

// NewHandler serves c under PathPrefix.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decode(w, r, &req) || !require(w, req.Key != "" && req.Worker != "") {
			return
		}
		reply(w, c.Claim(req))
	})
	mux.HandleFunc(PathPrefix+"done", func(w http.ResponseWriter, r *http.Request) {
		var req DoneRequest
		if !decode(w, r, &req) || !require(w, req.Key != "" && req.Worker != "") {
			return
		}
		reply(w, c.Done(req))
	})
	mux.HandleFunc(PathPrefix+"fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decode(w, r, &req) || !require(w, req.Key != "" && req.Worker != "") {
			return
		}
		reply(w, c.Fail(req))
	})
	mux.HandleFunc(PathPrefix+"heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) || !require(w, req.Worker != "") {
			return
		}
		reply(w, c.Heartbeat(req))
	})
	mux.HandleFunc(PathPrefix+"status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		reply(w, c.Status())
	})
	return mux
}

// decode enforces POST + bounded JSON body into v, answering the error
// itself when the request is malformed.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), code)
		return false
	}
	return true
}

// require 400s when a decoded request misses mandatory fields.
func require(w http.ResponseWriter, ok bool) bool {
	if !ok {
		http.Error(w, "bad request: missing key/worker", http.StatusBadRequest)
	}
	return ok
}

// reply writes v as JSON.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
