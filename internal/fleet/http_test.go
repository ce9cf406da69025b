// The coordinator's HTTP surface on hostile input: an oversize body is a
// 413, and arbitrary methods, endpoints and bodies never panic the
// handler, never answer outside the protocol's status set and never
// break the cell-state accounting.

package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// serve sends one request straight to h. Building the request by hand
// rather than with httptest.NewRequest lets fuzzed methods and paths
// through unvalidated, as a hostile peer's bytes would arrive.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := &http.Request{
		Method:        method,
		URL:           &url.URL{Path: path},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "coordinator",
		RequestURI:    path,
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// A heartbeat naming enough leases to exceed maxBody is refused with 413
// before the coordinator sees it; one under the bound is served.
func TestOversizeHeartbeatIs413(t *testing.T) {
	c := newTestCoord(newTestClock(), nil)
	h := NewHandler(c)
	heartbeat := func(leases int) []byte {
		req := HeartbeatRequest{Worker: "w1"}
		for i := 0; i < leases; i++ {
			req.Leases = append(req.Leases, LeaseRef{Key: fmt.Sprintf("%064d", i), Lease: uint64(i)})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	small := heartbeat(10)
	if rec := serve(h, http.MethodPost, PathPrefix+"heartbeat", small); rec.Code != http.StatusOK {
		t.Fatalf("small heartbeat = %d %q, want 200", rec.Code, rec.Body)
	}
	big := heartbeat(maxBody / 80)
	if len(big) <= maxBody {
		t.Fatalf("test heartbeat is %d bytes, not over maxBody %d", len(big), maxBody)
	}
	if rec := serve(h, http.MethodPost, PathPrefix+"heartbeat", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize heartbeat = %d %q, want 413", rec.Code, rec.Body)
	}
}

// served names the coordinator's endpoints under PathPrefix.
var served = map[string]bool{"claim": true, "done": true, "fail": true, "heartbeat": true, "status": true}

// FuzzCoordinatorHandler drives the coordinator's handler with arbitrary
// methods, endpoint suffixes and bodies against a coordinator holding two
// live leases. A served endpoint must answer 200, 400, 405 or 413 (and a
// 200 carries JSON); any other suffix must answer the mux's 404, or its
// 301 to a cleaned path, and leave the coordinator untouched. After
// every request each cell is in exactly one state.
func FuzzCoordinatorHandler(f *testing.F) {
	for _, s := range []struct{ method, endpoint, body string }{
		{"POST", "claim", `{"key":"k1","worker":"w2"}`},
		{"POST", "claim", `{"key":"k9","worker":"w1"}`},
		{"POST", "claim", `{"key":"","worker":"w1"}`},
		{"POST", "claim", `{"key":"k1"`},
		{"POST", "done", `{"key":"k1","worker":"w1","lease":1}`},
		{"POST", "done", `{"key":"k1","worker":"w2","lease":7}`},
		{"POST", "fail", `{"key":"k2","worker":"w1","lease":2,"error":"boom"}`},
		{"POST", "heartbeat", `{"worker":"w1","leases":[{"key":"k1","lease":1},{"key":"zz","lease":9}]}`},
		{"POST", "heartbeat", `{"worker":"w1","leases":null}`},
		{"GET", "status", ""},
		{"POST", "status", ""},
		{"GET", "claim", `{"key":"k1","worker":"w1"}`},
		{"PUT", "done", `[]`},
		{"POST", "manifest", `{"cells":[{"key":"k1"}]}`},
		{"POST", "../cell/k1", ""},
		{"CONNECT", "claim/", ""},
	} {
		f.Add(s.method, s.endpoint, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, method, endpoint string, body []byte) {
		c := newTestCoord(newTestClock(), nil)
		mustClaimRun(t, c, "k1", "w1") // lease 1
		mustClaimRun(t, c, "k2", "w1") // lease 2
		before := c.Status()

		rec := serve(NewHandler(c), method, PathPrefix+endpoint, body)
		s := c.Status()
		if served[endpoint] {
			switch rec.Code {
			case http.StatusOK:
				if !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("%s %s: 200 with a non-JSON body %q", method, endpoint, rec.Body)
				}
			case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s %s: status %d outside {200,400,405,413}", method, endpoint, rec.Code)
			}
		} else {
			if rec.Code != http.StatusNotFound && rec.Code != http.StatusMovedPermanently {
				t.Fatalf("%s %q: status %d for an unserved endpoint, want 404 or 301", method, endpoint, rec.Code)
			}
			if s.Cells != before.Cells || s.Leased != before.Leased || s.LeasesGranted != before.LeasesGranted {
				t.Fatalf("%s %q: an unserved endpoint changed the coordinator: %+v -> %+v", method, endpoint, before, s)
			}
		}
		if s.Pending+s.Leased+s.Done+s.Failed != s.Cells {
			t.Fatalf("%s %s %q: cell states %d+%d+%d+%d do not sum to %d cells", method, endpoint,
				strings.TrimSpace(string(body)), s.Pending, s.Leased, s.Done, s.Failed, s.Cells)
		}
	})
}
