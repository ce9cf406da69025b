// Error-path tests for the put pipeline, driven through the failpoint
// seams (failpoint.go): a segment append or group-commit fsync that fails
// must surface as a put error, must never leave the store unreadable, and
// must never let a torn record be served.
package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var errInjected = errors.New("injected I/O failure")

// failWrites installs a write fault for one op and removes it when the
// test ends. short > 0 also lands that many leading bytes (a torn
// append).
func failWrites(t *testing.T, op string, short int) {
	t.Helper()
	fn := writeFaultFn(func(gotOp string, b []byte, off int64) (int, error) {
		if gotOp != op {
			return 0, nil
		}
		if short >= len(b) {
			t.Fatalf("short %d >= record length %d", short, len(b))
		}
		return short, errInjected
	})
	writeFault.Store(&fn)
	t.Cleanup(func() { writeFault.Store(nil) })
}

func clearFaults() {
	writeFault.Store(nil)
	fsyncFault.Store(nil)
}

// A torn segment append (half the record lands, then the write fails, as
// a full disk or a crash mid-write leaves it): the put errors, the torn
// record is never served, other entries stay readable, and retrying the
// put truncates the tear and succeeds.
func TestPutSurfacesTornSegmentAppend(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	put(t, s, "key-a", "t", "payload-a")

	failWrites(t, fpSegAppend, 10)
	if _, err := s.Put("key-b", "t", []byte("payload-b")); !errors.Is(err, errInjected) {
		t.Fatalf("Put under seg-append fault: err = %v, want %v", err, errInjected)
	}
	clearFaults()

	// The torn half-record sits past the committed tail; it must miss, and
	// must not have taken the rest of the store with it.
	wantMiss(t, s, "key-b")
	wantEntry(t, s, "key-a", "t", "payload-a")

	// The retry rescans under the exclusive lock, truncates the tear and
	// appends at a clean boundary.
	put(t, s, "key-b", "t", "payload-b")
	wantEntry(t, s, "key-b", "t", "payload-b")
	res, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.TornBytes != 0 || res.GarbageBytes != 0 {
		t.Fatalf("after retry: %+v, want no corruption, no torn tail", res)
	}
	if res.Live != 2 {
		t.Fatalf("Live = %d, want 2", res.Live)
	}

	// And the repair survives a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t", "payload-a")
	wantEntry(t, s2, "key-b", "t", "payload-b")
}

// A group-commit fsync failure of the segment (the store's commit log):
// the put must report it, the synced watermark must not advance past the
// failed fsync, and the next put's group commit must cover the stranded
// append.
func TestPutSurfacesCommitLogFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()

	fn := fsyncFaultFn(func(op string) error {
		if op == fpSegFsync {
			return errInjected
		}
		return nil
	})
	fsyncFault.Store(&fn)
	t.Cleanup(clearFaults)

	if _, err := s.Put("key-a", "t", []byte("payload-a")); !errors.Is(err, errInjected) {
		t.Fatalf("Put under seg-fsync fault: err = %v, want %v", err, errInjected)
	}
	clearFaults()
	if c := s.Counters(); c.GroupCommits != 0 {
		t.Fatalf("failed fsync counted as a group commit: %+v", c)
	}

	put(t, s, "key-b", "t", "payload-b")
	if c := s.Counters(); c.GroupCommits != 1 || c.GroupedAppends != 2 {
		t.Fatalf("counters = %+v, want one fsync covering both appends", c)
	}
	wantEntry(t, s, "key-a", "t", "payload-a")
	wantEntry(t, s, "key-b", "t", "payload-b")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t", "payload-a")
	wantEntry(t, s2, "key-b", "t", "payload-b")
}

// A flipped byte in the commit log's newest record — the segment's tail,
// in a store abandoned without Close: Verify reports it and no open serves
// it, while the earlier record stays served. A read-write open then
// truncates the damaged tail like a torn append.
func TestVerifyFlagsCorruptCommitLog(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "key-a", "t", "payload-a")
	put(t, s, "key-b", "t", "payload-b")
	segPath := filepath.Join(dir, segName)
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0x40 // inside key-b's payload/CRC region
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir, Options{Schema: testSchema, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	wantEntry(t, ro, "key-a", "t", "payload-a")
	wantMiss(t, ro, "key-b")
	res, err := ro.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 || res.Live != 1 || res.TornBytes == 0 {
		t.Fatalf("verify = %+v, want 1 corrupt tail record and 1 live", res)
	}

	rw := openT(t, dir)
	defer rw.Close()
	wantEntry(t, rw, "key-a", "t", "payload-a")
	wantMiss(t, rw, "key-b")
	if res, err := rw.Verify(); err != nil || res.Corrupt != 0 || res.TornBytes != 0 || res.Live != 1 {
		t.Fatalf("verify after read-write open = (%+v, %v), want the damaged tail truncated", res, err)
	}
}
