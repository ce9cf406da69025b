// The campaign CLIs' shared bootstrap. cmd/validate, cmd/appstudy and
// cmd/activemem each run their experiments through one executor over the
// same tiers; this file declares the flags they share, opens the tiers,
// and owns the one ordered shutdown that every exit path — a finished
// campaign, a failed one, an interrupted one — goes through, so an
// exiting campaign always leaves its finished cells durable and its store
// closed, its epilogue printed and its profiles written.

package lab

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"activemem/internal/telemetry"
)

// CampaignFlags holds the shared campaign flag values between
// RegisterCampaignFlags (before flag.Parse) and Start (after it).
type CampaignFlags struct {
	jobs       *int
	progress   *bool
	cacheDir   *string
	cacheURL   *string
	workerOf   *string
	telemetry  *string
	cpuProfile *string
	memProfile *string
}

// RegisterCampaignFlags registers the flags every campaign CLI shares on
// the default flag set. Call it before flag.Parse.
func RegisterCampaignFlags() *CampaignFlags { return registerCampaignFlags(flag.CommandLine) }

func registerCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	return &CampaignFlags{
		jobs:     fs.Int("j", 0, "parallel experiment cells (0 = all CPUs, 1 = serial)"),
		progress: fs.Bool("progress", false, "report per-batch experiment progress on stderr"),
		cacheDir: fs.String("cache-dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
			"persist results to this on-disk store and resume from it (default $ACTIVEMEM_CACHE_DIR)"),
		cacheURL: fs.String("cache-url", os.Getenv("ACTIVEMEM_CACHE_URL"),
			"also consult a labcached server at this URL as a best-effort remote tier (default $ACTIVEMEM_CACHE_URL)"),
		workerOf: fs.String("worker-of", os.Getenv("ACTIVEMEM_FLEET_URL"),
			"run as one worker of the fleet coordinator at this URL (default $ACTIVEMEM_FLEET_URL); implies -cache-url there unless set"),
		telemetry: fs.String("telemetry", "",
			"serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:0); empty = disabled"),
		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write an allocation profile to this file on exit"),
	}
}

// Campaign is a running campaign process: its executor and the tiers,
// listeners and profiles attached to it. End it with Finish, or with
// Check on the first error.
type Campaign struct {
	// Exec is the campaign's one executor. Every figure and sweep runs
	// through it, so its memo deduplicates identical cells across them.
	Exec *Executor

	progress      bool
	cpuProfile    *os.File
	memProfile    string
	stopSignals   func()
	stopTelemetry func()

	stderr io.Writer
	log    *log.Logger
	exit   func(code int)
}

// Start begins profiling, opens the cache tiers, creates the executor,
// installs SIGINT/SIGTERM handling (NotifyShutdown) and starts the
// telemetry listener, as the parsed flags ask. A failure part-way exits
// through Check, releasing whatever was already open.
func (f *CampaignFlags) Start() *Campaign { return f.start(os.Stderr, os.Exit) }

func (f *CampaignFlags) start(stderr io.Writer, exit func(int)) *Campaign {
	c := &Campaign{progress: *f.progress, memProfile: *f.memProfile, stderr: stderr,
		log: log.New(stderr, log.Prefix(), log.Flags()), exit: exit}
	if *f.cpuProfile != "" {
		pf, err := os.Create(*f.cpuProfile)
		c.Check(err)
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			c.Check(err)
		}
		c.cpuProfile = pf
		// Label samples with their campaign cell, so the profile attributes
		// them without requiring the telemetry listener.
		telemetry.SetCellLabels(true)
	}

	// A fleet worker publishes results through the shared cache its peers
	// read from; the coordinator address doubles as that cache unless the
	// operator split them explicitly (labcached -coord serves both).
	cacheURL := *f.cacheURL
	if *f.workerOf != "" && cacheURL == "" {
		cacheURL = *f.workerOf
	}
	// The URLs are checked before the store opens, so a malformed one
	// leaves no cache directory behind.
	rc, err := OpenRemote(cacheURL)
	c.Check(err)
	fc, err := OpenFleet(*f.workerOf)
	c.Check(err)
	// No hot set: the executor's memo already holds every key this process
	// resolves, so a decoded copy in the store could never serve a hit.
	cache, err := OpenCacheSized(*f.cacheDir, 0)
	c.Check(err)
	c.Exec = New(Config{Workers: *f.jobs, Progress: StderrProgress(*f.progress),
		Cache: cache, Remote: rc, Fleet: fc})
	c.stopSignals = NotifyShutdown(c.Exec, stderr)
	c.stopTelemetry, err = startTelemetry(*f.telemetry, c.Exec, stderr)
	c.Check(err)
	return c
}

// Check ends the campaign when err is non-nil: it runs the shutdown,
// then exits 130 for an interrupted campaign (ErrInterrupted), whose
// finished cells are persisted for a resume, and 1 for any other error.
func (c *Campaign) Check(err error) {
	if err == nil {
		return
	}
	if serr := c.shutdown(); serr != nil {
		c.log.Print(serr)
	}
	if errors.Is(err, ErrInterrupted) {
		c.log.Println("interrupted: finished cells are persisted; rerun with the same flags to resume")
		c.exit(130)
		return
	}
	c.log.Print(err)
	c.exit(1)
}

// Finish ends a campaign that ran to completion: it runs the shutdown
// and exits 1 only when that fails (a store that cannot close, a profile
// that cannot be written).
func (c *Campaign) Finish() {
	if err := c.shutdown(); err != nil {
		c.log.Print(err)
		c.exit(1)
	}
}

// shutdown tears the campaign down in order: drain the executor,
// print the epilogue, close the fleet, remote and store tiers (the store
// close retries the fsync of any put whose own fsync failed), stop the
// telemetry listener and the signal handler, and finally stop the CPU
// profile and write the allocation profile, so both cover the teardown.
func (c *Campaign) shutdown() error {
	var err error
	if ex := c.Exec; ex != nil {
		ex.Close()
		ex.PrintCacheSummary(c.stderr)
		if c.progress {
			ex.PrintPoolSummary(c.stderr)
		}
		if fc := ex.Fleet(); fc != nil {
			fc.Close()
		}
		ex.Remote().Close()
		if st := ex.Cache(); st != nil {
			err = st.Close()
		}
	}
	if c.stopTelemetry != nil {
		c.stopTelemetry()
	}
	if c.stopSignals != nil {
		c.stopSignals()
	}
	if c.cpuProfile != nil {
		pprof.StopCPUProfile()
		err = errors.Join(err, c.cpuProfile.Close())
	}
	if c.memProfile != "" {
		err = errors.Join(err, writeAllocProfile(c.memProfile))
	}
	return err
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Settle the heap first so the profile separates live data from
	// garbage the next collection would have reclaimed.
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startTelemetry starts the telemetry HTTP listener when addr is
// non-empty, announces the bound address on w (the ephemeral-port form
// 127.0.0.1:0 is useless unannounced; CI's telemetry smoke parses the
// "telemetry: listening on" line), and binds the executor's point-in-time
// snapshots — lab.Stats, and the disk tier's OpCounters when a cache is
// attached — into /statusz. Starting the listener also
// activates latency timing and pprof cell labelling process-wide
// (telemetry.Serve). With an empty addr nothing is activated and the
// returned stop function is nil.
func startTelemetry(addr string, ex *Executor, w io.Writer) (stop func(), err error) {
	if addr == "" {
		return nil, nil
	}
	telemetry.Default.AddStatus("lab", func() any { return ex.Stats() })
	if c := ex.Cache(); c != nil {
		telemetry.Default.AddStatus("store_ops", func() any { return c.Counters() })
	}
	if rc := ex.Remote(); rc != nil {
		// Degradation at a glance: hits vs errors/corrupt, breaker state
		// and opens, write-back queue depth and drops.
		telemetry.Default.AddStatus("remote", func() any { return rc.Stats() })
	}
	srv, err := telemetry.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "telemetry: listening on http://%s\n", srv.Addr())
	return func() { srv.Close() }, nil
}
