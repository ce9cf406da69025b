package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activemem/internal/lab"
	"activemem/internal/store"
)

// fillStore writes three records into a fresh store in dir.
func fillStore(t *testing.T, dir string) {
	t.Helper()
	s, err := store.Open(dir, store.Options{Schema: lab.ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"key-a", "key-b", "key-c"} {
		if _, err := s.Put(k, "t", []byte("payload-of-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func runVerify(t *testing.T, dir string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"verify", "-dir", dir}, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

// TestVerifyExitCodes pins the contract scripts and CI rely on: 0 for a
// clean store, 1 once a record fails its checksum, 2 when there is no
// store to read.
func TestVerifyExitCodes(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir)
	if code, out := runVerify(t, dir); code != 0 || !strings.Contains(out, "ok") {
		t.Fatalf("clean store: exit %d, output %q", code, out)
	}

	// Flip one payload byte of the middle record.
	segPath := filepath.Join(dir, "results.seg")
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte("payload-of-key-b"))
	if i < 0 {
		t.Fatal("payload not found in the segment")
	}
	b[i] ^= 0x40
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runVerify(t, dir); code != 1 || !strings.Contains(out, "corrupt: 1") {
		t.Fatalf("flipped payload byte: exit %d, output %q", code, out)
	}

	if code, out := runVerify(t, filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Fatalf("missing dir: exit %d, output %q", code, out)
	}

	// A directory holding only the previous sharded layout has no store
	// this version can read.
	legacy := t.TempDir()
	if err := os.MkdirAll(filepath.Join(legacy, "shards"), 0o755); err != nil {
		t.Fatal(err)
	}
	if code, out := runVerify(t, legacy); code != 2 {
		t.Fatalf("shards/-only dir: exit %d, output %q", code, out)
	}
}
