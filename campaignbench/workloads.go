package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"activemem/internal/core"
	"activemem/internal/experiments"
	"activemem/internal/lab"
	"activemem/internal/remote"
	"activemem/internal/store"
	"activemem/internal/units"
)

// scale is the machine scale every workload runs at.
const scale = 8

// bench is one run's configuration, shared by set-up and every campaign.
type bench struct {
	seed    uint64
	workers int
	dir     string // scratch root inside the checkout
	tr      *tracer
	resume  resumeGrid
	quick   bool // capacity workload at GridQuick (the ungated reference)
	nDirs   int
}

// tempDir returns a fresh directory under the scratch root.
func (b *bench) tempDir(prefix string) (string, error) {
	b.nDirs++
	d := filepath.Join(b.dir, prefix+"-"+strconv.Itoa(b.nDirs))
	return d, os.MkdirAll(d, 0o755)
}

// resumeGrid is the §III-C3 calibration resume-remote fills and
// replays: nBufs buffer sizes × nDists Table II patterns × computes ×
// k = 0..maxThreads.
type resumeGrid struct {
	nBufs, nDists, maxThreads int
	computes                  []int
	warmup, window            units.Cycles
}

func (g resumeGrid) cells() int { return g.nBufs * g.nDists * len(g.computes) * (g.maxThreads + 1) }

// paperResume is the GridPaper capacity grid, 3,960 cells. The windows are
// far shorter than the paper's so set-up takes seconds; they change only
// the simulated values inside the keys, not the payload types, the cell
// count or the replay path. They are long enough that the values differ
// between cells and seeds, so the byte-for-byte check catches a replay
// that serves one cell's record for another.
var paperResume = resumeGrid{nBufs: 22, nDists: 10, maxThreads: 5,
	computes: []int{1, 10, 100}, warmup: 200_000, window: 100_000}

// workload is one benchmark workload: a set-up and a campaign that every
// timed iteration repeats with the same seed.
type workload struct {
	name      string
	setupReps int // set-ups per run; set-up time is their median
	setup     func(b *bench, fx *fixture) error
	run       func(b *bench, fx *fixture, c *campaign) error
}

// fixture is what set-up leaves for the campaigns.
type fixture struct {
	dir    string      // the set-up's scratch directory; resume-remote: the filled store
	want   [32]byte    // resume-remote: digest of the set-up calibration's rendering
	server *httpServer // resume-remote: the loopback cache server
}

// close stops the fixture's server, if any; a second call does nothing.
func (f *fixture) close() error {
	if f == nil || f.server == nil {
		return nil
	}
	err := f.server.close()
	f.server = nil
	return err
}

// discard closes the fixture and removes its directory.
func (f *fixture) discard() error {
	err := f.close()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// campaign is one campaign's trace context and outcome.
type campaign struct {
	id, root int
	b        *bench
	out      outcome
}

// outcome is what a campaign produced and what its checks found.
type outcome struct {
	digest   [32]byte // SHA-256 of the rendered report
	stats    lab.Stats
	store    store.OpCounters
	remote   remote.Stats
	modelErr float64
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// span times fn as a child span of the campaign.
func (c *campaign) span(name string, fn func()) {
	id := c.b.tr.begin(name, c.root, c.id)
	fn()
	c.b.tr.end(id)
}

// openStore opens a result store as the CLIs' -cache-dir does.
func (c *campaign) openStore(dir string) (st *store.Store, err error) {
	c.span("store.open", func() { st, err = lab.OpenCacheSized(dir, lab.DefaultHotBytes) })
	return st, err
}

func (c *campaign) closeStore(st *store.Store) (err error) {
	c.span("store.close", func() { err = st.Close() })
	return err
}

// render renders the campaign's report and keeps its digest.
func (c *campaign) render(fn func(w *strings.Builder)) {
	c.span("report.render", func() {
		var w strings.Builder
		fn(&w)
		c.out.digest = sha256.Sum256([]byte(w.String()))
	})
}

// coldSetupReps is large because a cold set-up takes milliseconds: its
// median over many repetitions is steady from run to run.
const coldSetupReps = 15

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{
		name:      "capacity-cold",
		setupReps: coldSetupReps,
		setup:     setupCold,
		run:       runCapacityCold,
	},
	{
		name:      "appstudy-cold",
		setupReps: coldSetupReps,
		setup:     setupCold,
		run:       runAppstudyCold,
	},
	{
		name:      "resume-remote",
		setupReps: 3,
		setup:     setupResume,
		run:       runResumeRemote,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newExecutor builds a campaign's executor: nproc workers, no progress.
func (b *bench) newExecutor(st *store.Store, rc *remote.Client) *lab.Executor {
	return lab.New(lab.Config{Workers: b.workers, Cache: st, Remote: rc})
}

// setupCold opens and closes an empty result store in the set-up
// directory, as a -cache-dir campaign starts; each campaign then opens a
// fresh empty store of its own.
func setupCold(_ *bench, fx *fixture) error {
	st, err := lab.OpenCacheSized(fx.dir, lab.DefaultHotBytes)
	if err != nil {
		return err
	}
	return st.Close()
}

func runCapacityCold(b *bench, _ *fixture, c *campaign) error {
	dir, err := b.tempDir("cold")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := c.openStore(dir)
	if err != nil {
		return err
	}
	ex := b.newExecutor(st, nil)
	grid := experiments.GridSmoke
	if b.quick {
		grid = experiments.GridQuick
	}
	opt := experiments.Options{Scale: scale, Grid: grid, Exec: ex, Seed: b.seed}
	var fig5 experiments.Fig5Result
	var fig6 experiments.Fig6Result
	c.span("experiments.fig5", func() { fig5, err = experiments.Fig5(opt) })
	if err == nil {
		c.span("experiments.fig6", func() { fig6, err = experiments.Fig6(opt) })
	}
	ex.Close()
	c.out.stats = ex.Stats()
	c.out.store = st.Counters()
	if cerr := c.closeStore(st); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.render(func(w *strings.Builder) {
		fmt.Fprintf(w, "%s\ngrid: %s\n\n", opt.ScaleNote(), opt.Grid)
		fmt.Fprintln(w, fig5.Table().String())
		for _, t := range fig6.Tables() {
			fmt.Fprintln(w, t.String())
		}
	})
	checkCold(&c.out)
	checkFig5(&c.out, fig5)
	for i, cal := range fig6.PerCompute {
		for k := 1; k < len(cal.Points); k++ {
			if cal.Points[k].MeanBytes > cal.Points[k-1].MeanBytes {
				c.out.fail("Fig. 6 c=%d: capacity grows from k=%d to k=%d", fig6.Computes[i], k-1, k)
			}
		}
	}
	return nil
}

// checkFig5 holds the Fig. 5 model error inside the band the experiments
// tests allow and records its mean over the grid as the campaign's model
// error. Every buffer size averages the same number of patterns, so the
// mean of the rows is the mean over samples.
func checkFig5(o *outcome, fig5 experiments.Fig5Result) {
	var sum float64
	for _, row := range fig5.Rows {
		sum += row.MeanAbsErr
		if row.MeanAbsErr > 0.12 {
			o.fail("Fig. 5 buffer %s: mean abs err %.4f above 0.12",
				units.FormatBytes(row.BufferBytes), row.MeanAbsErr)
		}
	}
	if len(fig5.Rows) > 0 {
		o.modelErr = sum / float64(len(fig5.Rows))
	}
}

func runAppstudyCold(b *bench, _ *fixture, c *campaign) error {
	dir, err := b.tempDir("cold")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := c.openStore(dir)
	if err != nil {
		return err
	}
	ex := b.newExecutor(st, nil)
	opt := experiments.Options{Scale: scale, Grid: experiments.GridSmoke, Exec: ex, Seed: b.seed}
	var (
		capAvail, bwAvail []float64
		mcb, lulesh       experiments.StudyResult
		mcbP, luleshP     experiments.ProfileResult
	)
	c.span("experiments.study_calibrations", func() { capAvail, bwAvail, err = experiments.StudyCalibrations(opt) })
	if err == nil {
		c.span("experiments.fig9", func() { mcb, err = experiments.Fig9MCB(opt) })
	}
	if err == nil {
		c.span("experiments.build_profiles", func() { mcbP, err = experiments.BuildProfiles(opt, mcb, capAvail, bwAvail, 0.05) })
	}
	if err == nil {
		c.span("experiments.fig11", func() { lulesh, err = experiments.Fig11Lulesh(opt) })
	}
	if err == nil {
		c.span("experiments.build_profiles", func() {
			luleshP, err = experiments.BuildProfiles(opt, lulesh, capAvail, bwAvail, 0.05)
		})
	}
	// The study's own calibration has only uniform-pattern samples, whose
	// Eq. 4 error is noise around zero; the Fig. 5 grid on the same
	// executor (its uniform cells are memo hits) gives the campaign a
	// model error that means something.
	var fig5 experiments.Fig5Result
	if err == nil {
		c.span("experiments.fig5", func() { fig5, err = experiments.Fig5(opt) })
	}
	ex.Close()
	c.out.stats = ex.Stats()
	c.out.store = st.Counters()
	if cerr := c.closeStore(st); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.render(func(w *strings.Builder) {
		fmt.Fprintf(w, "%s\ngrid: %s\n\n", opt.ScaleNote(), opt.Grid)
		w.WriteString("effective L3 per CSThr count (MB):")
		for _, v := range capAvail {
			fmt.Fprintf(w, " %.2f", v/(1<<20))
		}
		w.WriteString("\navailable GB/s per BWThr count:  ")
		for _, v := range bwAvail {
			fmt.Fprintf(w, " %.2f", v)
		}
		w.WriteString("\n\n")
		for _, t := range mcb.Tables() {
			fmt.Fprintln(w, t.String())
		}
		fmt.Fprintln(w, mcbP.Table().String())
		for _, t := range lulesh.Tables() {
			fmt.Fprintln(w, t.String())
		}
		fmt.Fprintln(w, luleshP.Table().String())
		fmt.Fprintln(w, fig5.Table().String())
	})
	checkCold(&c.out)
	checkFig5(&c.out, fig5)
	return nil
}

// modelAbsErr is the mean |Eq. 4 predicted − simulated| L3 miss rate over
// the no-interference samples of the resume calibrations.
func modelAbsErr(cals []core.CapacityCalibration) float64 {
	var sum float64
	var n int
	for _, cal := range cals {
		for _, s := range cal.Points[0].Samples {
			sum += math.Abs(s.PredictedMiss - s.MeasuredMiss)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// checkCold requires that a campaign on an empty store served nothing
// from disk.
func checkCold(o *outcome) {
	if o.stats.DiskHits != 0 || o.stats.HotHits != 0 {
		o.fail("cold campaign served %d disk and %d hot-set hits", o.stats.DiskHits, o.stats.HotHits)
	}
	if o.stats.Computed == 0 {
		o.fail("cold campaign computed no cells")
	}
}

// calibrateResume runs the resume grid's calibrations on ex, one
// CalibrateCapacity call per compute intensity.
func (b *bench) calibrateResume(ex *lab.Executor, c *campaign) ([]core.CapacityCalibration, error) {
	g := b.resume
	spec := experiments.Options{Scale: scale}.Spec()
	bufs, dists := core.DefaultCalibrationGrid(spec, g.nBufs)
	dists = dists[:g.nDists]
	var cals []core.CapacityCalibration
	for _, comp := range g.computes {
		var cal core.CapacityCalibration
		var err error
		run := func() {
			cal, err = core.CalibrateCapacity(core.CalibrationConfig{
				MeasureConfig:  core.MeasureConfig{Spec: spec, Warmup: g.warmup, Window: g.window, Seed: b.seed},
				MaxThreads:     g.maxThreads,
				BufferBytes:    bufs,
				Dists:          dists,
				ComputePerLoad: comp,
				ElemSize:       4,
				Exec:           ex,
			})
		}
		if c != nil {
			c.span("core.calibrate_capacity", run)
		} else {
			run()
		}
		if err != nil {
			return nil, err
		}
		cals = append(cals, cal)
	}
	return cals, nil
}

// renderResume renders the calibrations as Fig. 6 tables followed by every
// sample at full precision, so byte equality means equal results.
func (b *bench) renderResume(w *strings.Builder, cals []core.CapacityCalibration) {
	spec := experiments.Options{Scale: scale}.Spec()
	fig6 := experiments.Fig6Result{Spec: spec, Computes: b.resume.computes, PerCompute: cals}
	for _, t := range fig6.Tables() {
		fmt.Fprintln(w, t.String())
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, cal := range cals {
		for _, p := range cal.Points {
			for _, s := range p.Samples {
				fmt.Fprintf(w, "c=%d k=%d %d %s %s %s %s\n", b.resume.computes[i], p.Threads,
					s.BufferBytes, s.DistName, g(s.MeasuredMiss), g(s.PredictedMiss), g(s.EffectiveBytes))
			}
		}
	}
}

// setupResume fills a store with the resume grid, then serves it on a
// loopback HTTP server as `labcached -cache-mem 0` would: with no hot set,
// every GET reads its record from the store's segment files.
func setupResume(b *bench, fx *fixture) error {
	st, err := lab.OpenCacheSized(fx.dir, lab.DefaultHotBytes)
	if err != nil {
		return err
	}
	ex := b.newExecutor(st, nil)
	cals, err := b.calibrateResume(ex, nil)
	ex.Close()
	if err == nil && ex.Stats().Persisted != b.resume.cells() {
		err = fmt.Errorf("set-up persisted %d of %d cells", ex.Stats().Persisted, b.resume.cells())
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var w strings.Builder
	b.renderResume(&w, cals)
	fx.want = sha256.Sum256([]byte(w.String()))
	if st, err = lab.OpenCacheSized(fx.dir, 0); err != nil {
		return err
	}
	if fx.server, err = startServer(st, b.tr); err != nil {
		st.Close()
	}
	return err
}

// runResumeRemote replays the grid through a remote-only executor, as
// `validate -cache-url` runs without -cache-dir: every cell is a
// checksummed GET and a decode. A local store would add a commit-log fsync
// per cell, whose latency on a shared disk swings the campaign time by
// more than any bound the benchmark could hold.
func runResumeRemote(b *bench, fx *fixture, c *campaign) error {
	rc, err := lab.OpenRemote(fx.server.url)
	if err != nil {
		return err
	}
	srvBefore := fx.server.st.Counters()
	ex := b.newExecutor(nil, rc)
	cals, err := b.calibrateResume(ex, c)
	ex.Close()
	rc.Close()
	c.out.stats = ex.Stats()
	c.out.remote = rc.Stats()
	c.out.store = subCounters(fx.server.st.Counters(), srvBefore)
	if err != nil {
		return err
	}
	c.render(func(w *strings.Builder) { b.renderResume(w, cals) })
	c.out.modelErr = modelAbsErr(cals)
	checkResume(b, fx, &c.out)
	if n := b.resume.cells(); c.out.stats.RemoteHits != n {
		c.out.fail("resume-remote served %d of %d cells remotely", c.out.stats.RemoteHits, n)
	}
	return nil
}

// checkResume requires that a resume campaign computed nothing and
// reproduced the set-up calibration byte for byte.
func checkResume(b *bench, fx *fixture, o *outcome) {
	if o.stats.Computed != 0 {
		o.fail("resume campaign computed %d cells", o.stats.Computed)
	}
	if o.digest != fx.want {
		o.fail("resume campaign rendered %x, set-up rendered %x", o.digest[:8], fx.want[:8])
	}
}

// subCounters returns a − b: what a store did between two snapshots.
func subCounters(a, b store.OpCounters) store.OpCounters {
	return store.OpCounters{Gets: a.Gets - b.Gets, Puts: a.Puts - b.Puts, HotHits: a.HotHits - b.HotHits,
		SnapshotHits: a.SnapshotHits - b.SnapshotHits, SlowGets: a.SlowGets - b.SlowGets,
		MutexAcqs: a.MutexAcqs - b.MutexAcqs, FlockAcqs: a.FlockAcqs - b.FlockAcqs,
		GroupCommits: a.GroupCommits - b.GroupCommits, GroupedAppends: a.GroupedAppends - b.GroupedAppends}
}

// httpServer is the loopback cache server of resume-remote: the same
// handler labcached mounts, wrapped in a middleware that times each
// request when tracing is on.
type httpServer struct {
	st   *store.Store
	url  string
	srv  *http.Server
	done chan error

	mu    sync.Mutex
	times []float64 // seconds per request, traced runs only
	tr    *tracer
}

func startServer(st *store.Store, tr *tracer) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{st: st, url: "http://" + ln.Addr().String(), done: make(chan error, 1), tr: tr}
	h := remote.NewHandler(st)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Seconds()
		s.mu.Lock()
		s.times = append(s.times, d)
		s.mu.Unlock()
	})}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// takeTimes returns and clears the recorded request times.
func (s *httpServer) takeTimes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.times
	s.times = nil
	return t
}

// close stops the server, waits for it to exit and closes its store.
func (s *httpServer) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}
