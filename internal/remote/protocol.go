// Package remote is the result-serving HTTP tier over the persistent
// store: the protocol spoken between cmd/labcached (the server half,
// server.go) and the executor's remote memo tier (the client half,
// client.go).
//
// The protocol is deliberately plain HTTP, because the cache is
// content-addressed and immutable:
//
//	GET /v1/cell/{key}   -> 200 (body = payload), 404 or 412
//	PUT /v1/cell/{key}   -> 201 created, 200 already present, 412, 4xx
//
// A cell key fingerprints the full input content of an experiment cell
// including the result schema version (lab.KeyOf), so a key's bytes can
// never change: every 200 is immutable and infinitely cacheable. Schema
// negotiation runs over an explicit header — a client and server of
// different simulator generations answer 412 Precondition Failed instead
// of ever exchanging bytes that would decode into wrong results. Payloads carry an explicit
// CRC-32 so both ends verify bodies end to end: a corrupted body is a
// counted miss, never a decoded result.
//
// Robustness contract (the reason this package exists at all): every
// result is recomputable from its content-addressed key, so the client
// treats every failure — connection refused, timeout, 5xx, torn or
// corrupt body, schema mismatch — as a cache miss and degrades to
// compute. A dead, slow, flaky or corrupting server can never fail a
// campaign, change its bytes, or stall it past the configured deadline
// budget. The per-request deadlines, bounded retries and circuit breaker
// that enforce this live in one place, Link (link.go), which the fleet
// coordinator client (internal/fleet) reuses.
package remote

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Wire constants. The byte limits mirror the store's record limits so a
// record that fits the store fits the wire and vice versa.
const (
	// CellPathPrefix is the result endpoint; the cell key follows it.
	CellPathPrefix = "/v1/cell/"

	// HeaderSchema negotiates the result schema version
	// (lab.ResultSchemaVersion). PUT requires it; a GET may omit it (plain
	// curl inspection) but a mismatch on either verb answers 412.
	HeaderSchema = "X-Activemem-Schema"
	// HeaderType carries the registered result type name (the store's
	// decoder selector, e.g. "core.Metrics").
	HeaderType = "X-Activemem-Type"
	// HeaderChecksum carries the payload's CRC-32 (IEEE, eight hex
	// digits). Servers verify it on PUT before admitting a record; clients
	// verify it on GET before a payload may be decoded.
	HeaderChecksum = "X-Activemem-Crc32"

	// MaxKeyLen/MaxPayload mirror the store's limits.
	MaxKeyLen  = 1 << 10
	MaxPayload = 1 << 26
)

// Checksum renders a payload's CRC-32 for HeaderChecksum.
func Checksum(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
}

// ChecksumMatches verifies a HeaderChecksum value against a payload. An
// empty header reports false: both halves of this protocol always send
// the checksum, so its absence means the body crossed something that
// stripped it and must not be trusted.
func ChecksumMatches(header string, payload []byte) bool {
	want, err := strconv.ParseUint(strings.TrimSpace(header), 16, 32)
	if err != nil {
		return false
	}
	return uint32(want) == crc32.ChecksumIEEE(payload)
}

// cellKey extracts and validates the key of a /v1/cell/ request path.
func cellKey(path string) (string, bool) {
	key, ok := strings.CutPrefix(path, CellPathPrefix)
	if !ok || key == "" || len(key) > MaxKeyLen || strings.ContainsAny(key, "/ ") {
		return "", false
	}
	return key, true
}
