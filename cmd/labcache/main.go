// Command labcache inspects and maintains the persistent experiment-result
// cache that cmd/validate, cmd/appstudy and cmd/activemem populate through
// -cache-dir (see internal/store for the on-disk format).
//
// Usage:
//
//	labcache stats   [-dir DIR]
//	labcache ls      [-dir DIR] [-type NAME] [-n N] [-full]
//	labcache verify  [-dir DIR]
//	labcache gc      [-dir DIR] [-max-age DUR] [-max-size BYTES]
//	labcache export  [-dir DIR] [-o FILE]
//	labcache import  [-dir DIR] [-i FILE]
//
// Every subcommand defaults -dir to $ACTIVEMEM_CACHE_DIR. verify exits
// 1 when any record fails its checksum and 2 when the store cannot be
// read, gc compacts the segment (dropping stale duplicates and entries
// outside the age/size policy), and export/import move results between
// machines as a checksum-verified tar bundle:
//
//	machine-a$ labcache export -dir ~/.cache/activemem -o results.tar
//	machine-b$ labcache import -dir ~/.cache/activemem -i results.tar
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"activemem/internal/lab"
	"activemem/internal/store"
	"activemem/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a command-line error: exit 2, like a flag parse error.
var errUsage = errors.New("usage")

// run executes one subcommand and returns the process exit code: 0 on
// success, 1 on failure, 2 on a usage error (and, for verify, on a store
// that cannot be read at all).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "verify":
		return cmdVerify(rest, stdout, stderr)
	case "stats":
		err = cmdStats(rest, stdout, stderr)
	case "ls":
		err = cmdLs(rest, stdout, stderr)
	case "gc":
		err = cmdGC(rest, stdout, stderr)
	case "export":
		err = cmdExport(rest, stdout, stderr)
	case "import":
		err = cmdImport(rest, stdout, stderr)
	default:
		return usage(stderr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "labcache:", err)
	return 1
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: labcache <stats|ls|verify|gc|export|import> [-dir DIR] [flags]
run "labcache <subcommand> -h" for subcommand flags`)
	return 2
}

// flags is a subcommand flag set with the shared -dir flag.
type flags struct {
	*flag.FlagSet
	dir *string
}

func newFlags(name string, stderr io.Writer) flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
		"cache directory (default $ACTIVEMEM_CACHE_DIR)")
	return flags{fs, dir}
}

// parse parses args and opens the store, read-only for inspection
// subcommands. A parse error has already been printed by the flag set.
func (f flags) parse(args []string, readOnly bool) (*store.Store, error) {
	if err := f.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage
	}
	if *f.dir == "" {
		return nil, fmt.Errorf("no cache directory: pass -dir or set $ACTIVEMEM_CACHE_DIR")
	}
	return store.Open(*f.dir, store.Options{Schema: lab.ResultSchemaVersion, ReadOnly: readOnly})
}

func cmdStats(args []string, stdout, stderr io.Writer) error {
	s, err := newFlags("stats", stderr).parse(args, true)
	if err != nil {
		return err
	}
	defer s.Close()
	sum := s.Stats()
	fmt.Fprintf(stdout, "dir:     %s\n", sum.Dir)
	fmt.Fprintf(stdout, "schema:  %s\n", sum.Schema)
	fmt.Fprintf(stdout, "entries: %d\n", sum.Entries)
	fmt.Fprintf(stdout, "size:    %s\n", units.FormatBytes(sum.Bytes))
	if sum.Entries > 0 {
		fmt.Fprintf(stdout, "oldest:  %s\n", sum.Oldest.Format(time.RFC3339))
		fmt.Fprintf(stdout, "newest:  %s\n", sum.Newest.Format(time.RFC3339))
	}
	types := make([]string, 0, len(sum.PerType))
	for t := range sum.PerType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(stdout, "  %-24s %d\n", t, sum.PerType[t])
	}
	// Operation counters for this open: stats itself does a segment scan,
	// so the numbers show what inspecting the store cost (the campaign CLIs
	// print their own cumulative "store:" epilogue line; see also /statusz
	// under -telemetry).
	ops := s.Counters()
	fmt.Fprintf(stdout, "ops (this open):\n")
	fmt.Fprintf(stdout, "  gets=%d puts=%d hot_hits=%d snapshot_hits=%d slow_gets=%d\n",
		ops.Gets, ops.Puts, ops.HotHits, ops.SnapshotHits, ops.SlowGets)
	fmt.Fprintf(stdout, "  mutex_acqs=%d flock_acqs=%d group_commits=%d grouped_appends=%d\n",
		ops.MutexAcqs, ops.FlockAcqs, ops.GroupCommits, ops.GroupedAppends)
	return nil
}

func cmdLs(args []string, stdout, stderr io.Writer) error {
	f := newFlags("ls", stderr)
	typeFilter := f.String("type", "", "only list entries of this result type")
	limit := f.Int("n", 0, "list at most N entries (0 = all)")
	full := f.Bool("full", false, "print full keys instead of a 12-character prefix")
	s, err := f.parse(args, true)
	if err != nil {
		return err
	}
	defer s.Close()
	n := 0
	for _, e := range s.Entries() {
		if *typeFilter != "" && e.Type != *typeFilter {
			continue
		}
		if *limit > 0 && n >= *limit {
			fmt.Fprintln(stdout, "...")
			break
		}
		key := e.Key
		if !*full && len(key) > 12 {
			key = key[:12] + "…"
		}
		fmt.Fprintf(stdout, "%-14s %-24s %8s  %s\n", key, e.Type,
			units.FormatBytes(int64(e.PayloadBytes)), e.Stamp.Format(time.RFC3339))
		n++
	}
	return nil
}

// cmdVerify has a pinned exit-code contract for scripts and CI: 0 means
// every record checks out, 1 means corruption was found, 2 means the
// store could not be read at all.
func cmdVerify(args []string, stdout, stderr io.Writer) int {
	s, err := newFlags("verify", stderr).parse(args, true)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "labcache:", err)
		return 2
	}
	defer s.Close()
	res, err := s.Verify()
	if err != nil {
		fmt.Fprintln(stderr, "labcache:", err)
		return 2
	}
	fmt.Fprintf(stdout, "records: %d (%d live, %d superseded)\n", res.Records, res.Live,
		res.Records-res.Live-res.Corrupt)
	fmt.Fprintf(stdout, "corrupt: %d\n", res.Corrupt)
	if res.GarbageBytes > 0 {
		fmt.Fprintf(stdout, "garbage: %s of unparseable mid-segment bytes (gc will drop them)\n",
			units.FormatBytes(res.GarbageBytes))
	}
	if res.TornBytes > 0 {
		fmt.Fprintf(stdout, "torn tail: %s (a read-write open will truncate it)\n",
			units.FormatBytes(res.TornBytes))
	}
	if res.Corrupt > 0 || res.TornBytes > 0 || res.GarbageBytes > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ok")
	return 0
}

func cmdGC(args []string, stdout, stderr io.Writer) error {
	f := newFlags("gc", stderr)
	maxAge := f.Duration("max-age", 0, "evict entries older than this (0 = keep all ages)")
	maxSize := f.Int64("max-size", 0, "evict oldest entries until this many bytes remain (0 = unbounded)")
	s, err := f.parse(args, false)
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.GC(store.GCPolicy{MaxAge: *maxAge, MaxBytes: *maxSize})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "kept %d entries, evicted %d; segment %s -> %s\n",
		res.Kept, res.Evicted, units.FormatBytes(res.BytesBefore), units.FormatBytes(res.BytesAfter))
	return nil
}

func cmdExport(args []string, stdout, stderr io.Writer) error {
	f := newFlags("export", stderr)
	out := f.String("o", "", "bundle file to write (default stdout)")
	s, err := f.parse(args, true)
	if err != nil {
		return err
	}
	defer s.Close()
	w := stdout
	var file *os.File
	if *out != "" {
		if file, err = os.Create(*out); err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	n, err := s.Export(w)
	if err != nil {
		return err
	}
	// A failed close means buffered bytes never reached the disk: the
	// bundle is truncated, so report it instead of claiming success.
	if file != nil {
		if err := file.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "exported %d entries\n", n)
	return nil
}

func cmdImport(args []string, stdout, stderr io.Writer) error {
	f := newFlags("import", stderr)
	in := f.String("i", "", "bundle file to read (default stdin)")
	s, err := f.parse(args, false)
	if err != nil {
		return err
	}
	defer s.Close()
	var r io.Reader = os.Stdin
	if *in != "" {
		file, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer file.Close()
		r = file
	}
	added, skipped, err := s.Import(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "imported %d entries (%d already present)\n", added, skipped)
	return nil
}
