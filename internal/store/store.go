// Package store is the on-disk half of the experiment memoization system:
// a content-addressed, crash-safe result store that outlives the process.
// The in-memory memo of internal/lab deduplicates cells within one run;
// this store persists them across runs, commands and machines, so an
// interrupted `validate -grid paper` campaign resumes with only the missing
// cells simulated and a finished campaign can be exported to a colleague.
//
// Layout: a cache directory holds two files. results.seg is the one
// append-only segment, and LOCK is its cross-process lock. The segment
// starts with a header naming the binary format and the caller's schema
// version (the simulator/result version stamp); entries follow as
// self-delimiting records:
//
//	entryMagic  uint32   per-record sync marker
//	keyLen      uint16
//	typeLen     uint16
//	payloadLen  uint32
//	stamp       int64    unix seconds at write (GC age input)
//	key         keyLen bytes (content-addressed: a lab.Key hex digest)
//	typeName    typeLen bytes (decoder selector, e.g. "core.Metrics")
//	payload     payloadLen bytes
//	crc         uint32   IEEE CRC-32 of everything above
//
// The segment is also the commit log. A put appends its record with a
// single write under the exclusive lock, then returns once an fsync of the
// segment covers it. That fsync runs after the locks are released and is
// group-committed: one flush acknowledges every put that queued behind
// it. So the only possible inconsistency is a torn record at the tail (a
// crashed writer), which Open and the next writer truncate away. A
// corrupted record body (bit rot, a flipped byte) fails its checksum and
// is skipped — the key simply misses and its cell recomputes — while
// records after it stay reachable: even when the damage hits a length
// field and desynchronises parsing, the scan resynchronises on the next
// per-record magic marker instead of giving up on the rest of the
// segment. Stale schema versions discard the whole store at Open: results
// produced by a different simulator version must never be served. The
// store is a cache, so the previous version's sharded layout (a shards/
// directory) is treated the same way: a read-write Open removes it and its
// cells recompute.
//
// Concurrency: one Store is safe for concurrent use by any number of
// goroutines, and any number of processes (or Stores in one process) may
// share a directory. Writers serialise on the segment's lock. The hit path
// is lock-free: the segment publishes its index as an immutable snapshot
// (swapped atomically on append, rescan and compaction), so a Get of an
// indexed key acquires no mutex and no file lock; committed bytes are
// immutable, which is what makes the unlocked read sound. An index miss
// falls to a locked slow path whose shared-lock tail rescan makes results
// appended by sibling processes visible mid-run.
//
// In front of the segment sits an optional admission-controlled in-memory
// hot set (Options.HotBytes; see hotset.go): repeated reads of the same
// keys are served from memory without the pread, checksum re-verification
// or decode, under TinyLFU admission so one-shot scans cannot flush the
// actually-hot working set.
package store

import (
	"archive/tar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"activemem/internal/telemetry"
)

// Options configures Open.
type Options struct {
	// Schema is the result schema / simulator version stamp (see
	// lab.ResultSchemaVersion). A read-write Open of a store written under
	// a different schema discards its contents — stale results
	// self-invalidate; a read-only Open reports an error instead.
	Schema string
	// ReadOnly opens for inspection: Get and the maintenance scans work,
	// Put/GC/Import fail, and torn tails are tolerated rather than
	// truncated. A read-only Open of a directory without results.seg
	// fails.
	ReadOnly bool
	// HotBytes bounds the in-memory hot set in front of the segment; zero
	// disables the memory tier entirely (every Get goes to the segment).
	HotBytes int64
}

// opCounters are the store's cumulative operation counters. They exist so
// tests (and curious callers) can verify the concurrency contract — e.g.
// that a Get of an indexed key acquires no mutex and no file lock — from
// the outside.
type opCounters struct {
	gets           atomic.Uint64
	puts           atomic.Uint64
	hotHits        atomic.Uint64
	snapshotHits   atomic.Uint64
	slowGets       atomic.Uint64
	mutexAcqs      atomic.Uint64
	flockAcqs      atomic.Uint64
	groupCommits   atomic.Uint64
	groupedAppends atomic.Uint64
}

// OpCounters is a point-in-time snapshot of the store's operation
// counters.
type OpCounters struct {
	// Gets and Puts count public Get/GetDecoded/Put calls.
	Gets, Puts uint64
	// HotHits counts gets served by the in-memory hot set: no disk
	// access, no mutex — the hit path is a lock-free map load plus a
	// read-ring store (policy work is drained by later locked ops).
	HotHits uint64
	// SnapshotHits counts gets served lock-free from the segment's
	// published index snapshot: no mutex, no file lock, one pread.
	SnapshotHits uint64
	// SlowGets counts gets that fell to the segment's locked slow path
	// (index misses and verification failures).
	SlowGets uint64
	// MutexAcqs counts segment mutex acquisitions across all operations.
	MutexAcqs uint64
	// FlockAcqs counts cross-process file-lock acquisitions.
	FlockAcqs uint64
	// GroupCommits counts segment fsyncs; GroupedAppends counts the
	// appends those fsyncs acknowledged. Their ratio is the achieved
	// group-commit batch size: GroupedAppends/GroupCommits ≈ 1 means every
	// put paid its own fsync, larger means concurrent puts amortised it.
	GroupCommits, GroupedAppends uint64
}

// Store is an open result store. Methods are safe for concurrent use.
type Store struct {
	dir    string
	schema string

	seg *segment
	hot *hotSet
	ops opCounters
}

// Open opens (creating if necessary, unless read-only) the store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if opts.Schema == "" {
		return nil, fmt.Errorf("store: empty schema version")
	}
	s := &Store{dir: dir, schema: opts.Schema}
	if opts.HotBytes > 0 {
		s.hot = newHotSet(opts.HotBytes)
	}
	seg, err := openSegment(dir, opts.Schema, opts.ReadOnly, &s.ops)
	if err != nil {
		return nil, err
	}
	s.seg = seg
	return s, nil
}

// Get returns the entry for key, or ok == false when it is absent or its
// record fails verification. The hot set is consulted first; a disk hit is
// offered back to it for admission. An index miss rescans the segment's
// tail, so entries appended by other processes sharing the directory are
// found.
func (s *Store) Get(key string) (typeName string, payload []byte, ok bool) {
	s.ops.gets.Add(1)
	tmGets.Inc()
	if telemetry.Active() {
		startNs := telemetry.NowNs()
		defer func() { tmGetSeconds.Observe(telemetry.NowNs() - startNs) }()
	}
	if s.hot != nil {
		if v, hit := s.hot.get(key); hit && v.payload != nil {
			s.ops.hotHits.Add(1)
			tmHotHits.Inc()
			return v.typeName, v.payload, true
		}
	}
	typeName, payload, ok = s.seg.get(key)
	if ok && s.hot != nil {
		s.hot.add(key, typeName, payload, nil)
	}
	return typeName, payload, ok
}

// GetDecoded returns the decoded value a previous AddDecoded attached to
// key, if the hot set still holds it. It is the fastest tier: no disk
// read, no verification, no decode.
func (s *Store) GetDecoded(key string) (any, bool) {
	if s.hot == nil {
		return nil, false
	}
	s.ops.gets.Add(1)
	tmGets.Inc()
	if v, hit := s.hot.get(key); hit && v.value != nil {
		s.ops.hotHits.Add(1)
		tmHotHits.Inc()
		return v.value, true
	}
	return nil, false
}

// AddDecoded offers key's decoded value to the hot set, so future
// GetDecoded calls skip the decode as well as the disk. payloadLen (the
// encoded size) stands in as the admission cost. Decoded values are shared
// across callers and must be treated as immutable.
func (s *Store) AddDecoded(key string, value any, payloadLen int64) {
	if s.hot == nil || value == nil {
		return
	}
	s.hot.attach(key, value, payloadLen)
}

// Put appends an entry to the segment and returns once an fsync covers
// it, reporting whether it wrote: a key already present is left untouched
// and reports false (results are content-addressed — same key, same value
// — so concurrent writers that raced on a computation converge on one
// record).
func (s *Store) Put(key, typeName string, payload []byte) (added bool, err error) {
	if len(key) == 0 || len(key) > maxKeyLen || len(typeName) > maxTypeLen {
		return false, fmt.Errorf("store: bad key/type length %d/%d", len(key), len(typeName))
	}
	if len(payload) > maxPayload {
		return false, fmt.Errorf("store: payload %d exceeds %d bytes", len(payload), maxPayload)
	}
	s.ops.puts.Add(1)
	tmPuts.Inc()
	if telemetry.Active() {
		startNs := telemetry.NowNs()
		defer func() { tmPutSeconds.Observe(telemetry.NowNs() - startNs) }()
	}
	added, err = s.seg.put(key, typeName, payload, time.Now().Unix())
	if err == nil && s.hot != nil {
		s.hot.add(key, typeName, payload, nil)
	}
	return added, err
}

// Invalidate drops key from the segment's index (so the next Put for it
// appends a fresh record, which last-wins over the old one at every future
// scan) and from the hot set. The executor's disk tier uses it when a
// checksum-valid record fails to decode — a stale payload encoding that,
// left in place, would force every future run to recompute the cell
// without ever being able to repair it.
func (s *Store) Invalidate(key string) {
	if s.hot != nil {
		s.hot.remove(key)
	}
	s.seg.invalidate(key)
}

// Close syncs any append whose own fsync failed and releases the store's
// file handles.
func (s *Store) Close() error { return s.seg.close() }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the schema version the store was opened with.
func (s *Store) Schema() string { return s.schema }

// Len returns the number of live entries.
func (s *Store) Len() int { return s.seg.state.Load().live() }

// ResetOnOpen reports whether Open discarded previous contents because
// their layout, format or schema version did not match.
func (s *Store) ResetOnOpen() bool { return s.seg.reset }

// Counters returns a snapshot of the store's operation counters.
func (s *Store) Counters() OpCounters {
	return OpCounters{
		Gets:           s.ops.gets.Load(),
		Puts:           s.ops.puts.Load(),
		HotHits:        s.ops.hotHits.Load(),
		SnapshotHits:   s.ops.snapshotHits.Load(),
		SlowGets:       s.ops.slowGets.Load(),
		MutexAcqs:      s.ops.mutexAcqs.Load(),
		FlockAcqs:      s.ops.flockAcqs.Load(),
		GroupCommits:   s.ops.groupCommits.Load(),
		GroupedAppends: s.ops.groupedAppends.Load(),
	}
}

// HotStats returns the hot set's counters; the zero value when the memory
// tier is disabled.
func (s *Store) HotStats() HotStats {
	if s.hot == nil {
		return HotStats{}
	}
	return s.hot.stats()
}

// EntryInfo describes one live entry.
type EntryInfo struct {
	Key          string
	Type         string
	PayloadBytes int
	Stamp        time.Time
}

// keyedRef pairs a key with its index entry.
type keyedRef struct {
	key string
	ref entryRef
}

// sortRefsByOff orders refs by segment offset (write order).
func sortRefsByOff(refs []keyedRef) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].ref.off < refs[j].ref.off })
}

// Entries lists live entries ordered by write stamp (oldest first), with
// the key as tiebreak.
func (s *Store) Entries() []EntryInfo {
	var out []EntryInfo
	for k, ref := range s.seg.state.Load().merged() {
		out = append(out, EntryInfo{Key: k, Type: ref.typeName,
			PayloadBytes: ref.payloadLen, Stamp: time.Unix(ref.stamp, 0)})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Stamp.Equal(out[j].Stamp) {
			return out[i].Stamp.Before(out[j].Stamp)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Summary aggregates the store's state.
type Summary struct {
	Dir     string
	Schema  string
	Entries int
	// Bytes is the segment file size (header, live entries, and any stale
	// or corrupt records GC has not yet compacted away).
	Bytes          int64
	PerType        map[string]int
	Oldest, Newest time.Time
}

// Stats returns a summary of the store.
func (s *Store) Stats() Summary {
	sum := Summary{Dir: s.dir, Schema: s.schema, PerType: map[string]int{}}
	st := s.seg.state.Load()
	if fi, err := st.f.Stat(); err == nil {
		sum.Bytes = fi.Size()
	}
	sum.Entries = st.live()
	for _, ref := range st.merged() {
		sum.PerType[ref.typeName]++
		t := time.Unix(ref.stamp, 0)
		if sum.Oldest.IsZero() || t.Before(sum.Oldest) {
			sum.Oldest = t
		}
		if t.After(sum.Newest) {
			sum.Newest = t
		}
	}
	return sum
}

// VerifyResult reports a full-store checksum scan.
type VerifyResult struct {
	// Records is the number of complete records parsed (live + stale).
	Records int
	// Live is the number of currently reachable entries.
	Live int
	// Corrupt counts records whose checksum failed.
	Corrupt int
	// TornBytes is the length of an unparseable segment tail, zero when
	// the segment ends cleanly.
	TornBytes int64
	// GarbageBytes counts mid-segment bytes the scan had to resynchronise
	// past (e.g. a record whose length fields were corrupted).
	GarbageBytes int64
}

// Verify re-reads every record in the segment and checks its checksum.
func (s *Store) Verify() (VerifyResult, error) { return s.seg.verify() }

// GCPolicy selects which entries a compaction keeps.
type GCPolicy struct {
	// MaxAge evicts entries written longer ago; zero keeps all ages.
	MaxAge time.Duration
	// MaxBytes bounds the surviving record bytes,
	// evicting oldest-first; zero means unbounded.
	MaxBytes int64
}

// GCResult reports a compaction.
type GCResult struct {
	Kept, Evicted           int
	BytesBefore, BytesAfter int64
}

// GC compacts the segment: stale duplicates, checksum-failed records and
// entries outside the policy are dropped, survivors are rewritten to a
// temporary segment which atomically replaces the old one (temp file +
// rename). The policy is decided and applied under the segment's exclusive
// lock, so no append can slip between the two. Other Stores sharing the
// directory follow the new segment at their next tail rescan.
func (s *Store) GC(policy GCPolicy) (GCResult, error) {
	if s.seg.readOnly {
		return GCResult{}, fmt.Errorf("store: read-only")
	}
	return s.seg.compact(policy.survivors)
}

// survivors returns the entries of live the policy keeps.
func (p GCPolicy) survivors(live []keyedRef) []keyedRef {
	if p.MaxAge > 0 {
		cutoff := time.Now().Add(-p.MaxAge).Unix()
		young := live[:0]
		for _, e := range live {
			if e.ref.stamp >= cutoff {
				young = append(young, e)
			}
		}
		live = young
	}
	if p.MaxBytes > 0 {
		// Evict oldest-first until the surviving records fit.
		sort.Slice(live, func(i, j int) bool {
			if live[i].ref.stamp != live[j].ref.stamp {
				return live[i].ref.stamp > live[j].ref.stamp
			}
			return live[i].key > live[j].key
		})
		var total int64
		kept := live[:0]
		for _, e := range live {
			if total+e.ref.recLen <= p.MaxBytes {
				total += e.ref.recLen
				kept = append(kept, e)
			}
		}
		live = kept
	}
	return live
}

// bundleManifest is the first file of an export bundle.
const bundleManifestName = "MANIFEST"

// Export writes every live entry as a tar bundle: a MANIFEST naming the
// format and schema, then one file per record in write order. Bundles move
// results between machines; Import on the receiving side verifies every
// checksum.
func (s *Store) Export(w io.Writer) (int, error) {
	st := s.seg.state.Load()
	live := st.liveRefs()
	tw := tar.NewWriter(w)
	manifest := fmt.Sprintf("activemem-store-bundle v1\nformat: %s\nschema: %s\nentries: %d\n",
		fileMagic, s.schema, len(live))
	if err := writeTarFile(tw, bundleManifestName, []byte(manifest)); err != nil {
		return 0, err
	}
	n := 0
	for _, p := range live {
		rec := make([]byte, p.ref.recLen)
		if _, err := st.f.ReadAt(rec, p.ref.off); err != nil {
			return n, fmt.Errorf("store: %w", err)
		}
		if err := writeTarFile(tw, "entries/"+p.key, rec); err != nil {
			return n, err
		}
		n++
	}
	if err := tw.Close(); err != nil {
		return n, fmt.Errorf("store: %w", err)
	}
	return n, nil
}

func writeTarFile(tw *tar.Writer, name string, data []byte) error {
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644,
		Size: int64(len(data))}); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tw.Write(data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Import reads an Export bundle and appends entries whose keys are absent.
// Records are checksum-verified before they are admitted — original
// stamps and bytes are preserved — and a bundle exported under a
// different schema version is rejected outright. Every record is verified
// before any is appended, and the batch is appended under one lock with
// one fsync.
func (s *Store) Import(r io.Reader) (added, skipped int, err error) {
	if s.seg.readOnly {
		return 0, 0, fmt.Errorf("store: read-only")
	}
	tr := tar.NewReader(r)
	hdr, err := tr.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("store: bad bundle: %w", err)
	}
	if hdr.Name != bundleManifestName {
		return 0, 0, fmt.Errorf("store: bundle starts with %q, want %s", hdr.Name, bundleManifestName)
	}
	manifest, err := io.ReadAll(io.LimitReader(tr, 1<<16))
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	schema, ok := manifestField(string(manifest), "schema")
	if !ok {
		return 0, 0, fmt.Errorf("store: bundle manifest has no schema line")
	}
	if schema != s.schema {
		return 0, 0, fmt.Errorf("store: bundle schema %q does not match store schema %q", schema, s.schema)
	}

	var recs [][]byte
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("store: bad bundle: %w", err)
		}
		if !strings.HasPrefix(hdr.Name, "entries/") {
			continue
		}
		if hdr.Size > fixedHdrLen+maxKeyLen+maxTypeLen+maxPayload+crcLen {
			return 0, 0, fmt.Errorf("store: bundle entry %q too large", hdr.Name)
		}
		rec, err := io.ReadAll(tr)
		if err != nil {
			return 0, 0, fmt.Errorf("store: %w", err)
		}
		parsed, status := parseRecord(rec)
		if status != recGood || parsed.recLen != int64(len(rec)) {
			return 0, 0, fmt.Errorf("store: bundle entry %q fails verification", hdr.Name)
		}
		recs = append(recs, rec)
	}
	return s.seg.appendBatch(recs)
}

// manifestField extracts "name: value" from a bundle manifest.
func manifestField(manifest, name string) (string, bool) {
	for _, line := range strings.Split(manifest, "\n") {
		if rest, ok := strings.CutPrefix(line, name+": "); ok {
			return rest, true
		}
	}
	return "", false
}
