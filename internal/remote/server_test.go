// The cell handler on hostile input: arbitrary methods, paths, headers
// and bodies must never panic it, never answer outside the protocol's
// status set, never serve a body its checksum header does not verify,
// and never admit a PUT whose checksum does not match.

package remote

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"activemem/internal/store"
)

// FuzzCellHandler drives the cell handler over one store that already
// holds a record, seeded with the requests real clients send.
func FuzzCellHandler(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	const key = "cafe01"
	payload := []byte("cell-payload-bytes")
	if _, err := st.Put(key, "core.Metrics", payload); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(st)

	for _, s := range []struct {
		method, path, schema, typ, sum string
		body                           []byte
	}{
		{"GET", CellPathPrefix + key, testSchema, "", "", nil},
		{"GET", CellPathPrefix + key, "", "", "", nil},
		{"HEAD", CellPathPrefix + key, testSchema, "", "", nil},
		{"GET", CellPathPrefix + "feedbeef", testSchema, "", "", nil},
		{"GET", CellPathPrefix + key, "other-schema-v9", "", "", nil},
		{"PUT", CellPathPrefix + "goodput", testSchema, "t", Checksum([]byte("data")), []byte("data")},
		{"PUT", CellPathPrefix + "badput", testSchema, "t", Checksum([]byte("not-the-payload")), []byte("data")},
		{"PUT", CellPathPrefix + "nosum", testSchema, "t", "", []byte("data")},
		{"PUT", CellPathPrefix + "notype", testSchema, "", Checksum([]byte("data")), []byte("data")},
		{"PUT", CellPathPrefix + key, testSchema, "core.Metrics", Checksum([]byte("x")), []byte("x")},
		{"PUT", CellPathPrefix + "k", "other-schema-v9", "t", Checksum([]byte("d")), []byte("d")},
		{"DELETE", CellPathPrefix + key, testSchema, "", "", nil},
		{"GET", "/v1/cell/", "", "", "", nil},
		{"GET", "/v1/cell/a/b", "", "", "", nil},
		{"PUT", "/elsewhere", testSchema, "t", Checksum(nil), nil},
	} {
		f.Add(s.method, s.path, s.schema, s.typ, s.sum, s.body)
	}
	f.Fuzz(func(t *testing.T, method, path, schema, typ, sum string, body []byte) {
		k, isCell := cellKey(path)
		var prevType string
		var prev []byte
		var had bool
		if isCell {
			prevType, prev, had = st.Get(k)
		}
		req := &http.Request{
			Method:        method,
			URL:           &url.URL{Path: path},
			Header:        http.Header{},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
		}
		for name, v := range map[string]string{HeaderSchema: schema, HeaderType: typ, HeaderChecksum: sum} {
			if v != "" {
				req.Header.Set(name, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusCreated, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusPreconditionFailed, http.StatusRequestEntityTooLarge,
			http.StatusInternalServerError:
		default:
			t.Fatalf("%s %q: status %d outside the protocol", method, path, rec.Code)
		}
		if method == http.MethodGet && rec.Code == http.StatusOK &&
			!ChecksumMatches(rec.Header().Get(HeaderChecksum), rec.Body.Bytes()) {
			t.Fatalf("GET %q served a body its checksum header does not verify", path)
		}
		if !isCell {
			return
		}
		gotType, got, has := st.Get(k)
		switch {
		case had && (gotType != prevType || !bytes.Equal(got, prev)):
			t.Fatalf("%s %q replaced a stored record", method, path)
		case !had && has && (method != http.MethodPut || !ChecksumMatches(sum, body)):
			t.Fatalf("%s %q with checksum %q stored a record it must not admit", method, path, sum)
		case !had && has && (gotType != typ || !bytes.Equal(got, body)):
			t.Fatalf("PUT %q stored (%q, %q), sent (%q, %q)", path, gotType, got, typ, body)
		}
	})
}
