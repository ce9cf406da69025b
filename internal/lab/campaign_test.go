package lab

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"activemem/internal/store"
)

// exitCalled carries a campaign's exit code out of the exit seam, which
// must not return: production exits never do.
type exitCalled int

// startTestCampaign parses args into the shared campaign flags and
// starts a campaign whose stderr is captured and whose exit panics with
// exitCalled.
func startTestCampaign(t *testing.T, stderr *bytes.Buffer, args ...string) *Campaign {
	t.Helper()
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	f := registerCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.start(stderr, func(code int) { panic(exitCalled(code)) })
}

// exitCode runs fn and returns the code it exited with, or -1 when it
// returned normally.
func exitCode(fn func()) (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCalled)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	fn()
	return -1
}

// computeCells memoizes cells 0..n-1 through the campaign's executor on
// one worker, calling at(i) after each.
func computeCells(c *Campaign, n int, at func(i int)) error {
	return c.Exec.Run(n, func(i int) error {
		if _, err := Memo(c.Exec, KeyOf("campaign-cell", i), func() (float64, error) {
			return float64(i), nil
		}); err != nil {
			return err
		}
		at(i)
		return nil
	})
}

// verifyCheckpointed reopens the store read-only and checks that the
// shutdown left every computed cell in the segment and no torn or corrupt
// record behind.
func verifyCheckpointed(t *testing.T, dir string, live int) {
	t.Helper()
	s, err := store.Open(dir, store.Options{Schema: ResultSchemaVersion, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != live || res.Corrupt != 0 || res.TornBytes != 0 {
		t.Fatalf("verify = %+v, want %d live cells, none corrupt or torn", res, live)
	}
}

func wantNonEmpty(t *testing.T, path string) {
	t.Helper()
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("%s: (%v, %v), want a non-empty file", path, fi, err)
	}
}

// An interrupted campaign drains, prints its epilogue once, closes the
// store, finishes both profiles and exits 130.
func TestCampaignInterruptShutsDownOnce(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stderr bytes.Buffer
	c := startTestCampaign(t, &stderr, "-j", "1", "-cache-dir", cacheDir,
		"-cpuprofile", cpu, "-memprofile", mem)

	err := computeCells(c, 10, func(i int) {
		if i != 3 {
			return
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Error(err)
			return
		}
		for deadline := time.Now().Add(5 * time.Second); !c.Exec.Interrupted(); {
			if time.Now().After(deadline) {
				t.Error("SIGINT did not interrupt the campaign")
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run = %v, want ErrInterrupted", err)
	}
	if code := exitCode(func() { c.Check(err) }); code != 130 {
		t.Fatalf("exit code = %d, want 130\n%s", code, stderr.String())
	}
	out := stderr.String()
	if n := strings.Count(out, "cache: "); n != 1 {
		t.Fatalf("%d cache: lines, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "interrupted: finished cells are persisted") {
		t.Fatalf("no resume hint:\n%s", out)
	}
	verifyCheckpointed(t, cacheDir, 4)
	wantNonEmpty(t, cpu)
	wantNonEmpty(t, mem)
}

// A failed campaign and a finished one take the same shutdown path;
// only the exit code differs.
func TestCampaignFailureAndFinishShareShutdown(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(c *Campaign)
		code int
	}{
		{"failure", func(c *Campaign) { c.Check(errors.New("boom")) }, 1},
		{"finish", func(c *Campaign) { c.Check(nil); c.Finish() }, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cacheDir := filepath.Join(dir, "cache")
			cpu := filepath.Join(dir, "cpu.prof")
			var stderr bytes.Buffer
			c := startTestCampaign(t, &stderr, "-cache-dir", cacheDir, "-cpuprofile", cpu)
			if err := computeCells(c, 5, func(int) {}); err != nil {
				t.Fatal(err)
			}
			if code := exitCode(func() { tc.end(c) }); code != tc.code {
				t.Fatalf("exit code = %d, want %d\n%s", code, tc.code, stderr.String())
			}
			out := stderr.String()
			if n := strings.Count(out, "cache: computed=5 "); n != 1 {
				t.Fatalf("%d cache: lines with computed=5, want 1:\n%s", n, out)
			}
			if got := strings.Contains(out, "boom"); got != (tc.code == 1) {
				t.Fatalf("error reported = %v:\n%s", got, out)
			}
			verifyCheckpointed(t, cacheDir, 5)
			wantNonEmpty(t, cpu)
		})
	}
}

// A malformed URL fails the start before the store opens: no cache
// directory is created.
func TestCampaignStartRejectsBadURLBeforeOpeningStore(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	var stderr bytes.Buffer
	code := exitCode(func() {
		startTestCampaign(t, &stderr, "-cache-dir", cacheDir, "-cache-url", "ftp://nowhere")
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, stderr.String())
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Fatalf("cache directory created before the URL was checked: %v", err)
	}
}
