// Command campaignbench runs whole Active Measurement campaigns in-process,
// through the same public calls the CLIs make, and reports their end-to-end
// cost and accuracy; a traced run attributes that cost to the repository's
// modules. BENCHMARK.json describes the workloads and metrics.
//
// Usage:
//
//	campaignbench -workload NAME -seed N -seconds S -trace 0|1 [-dir DIR] [-go GO]
//
// Each run sets up the workload several times and reports the median, then
// runs campaigns one at a time (a closed loop) until S seconds have passed
// and at least three campaigns have run, every campaign with the same seed
// and a fresh executor. The last line of
// standard output is one JSON object: the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1. The exit status is 1 when a campaign
// fails or a correctness check does not hold.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"activemem/internal/lab"
	"activemem/internal/telemetry"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: capacity-cold, appstudy-cold or resume-remote")
		seed    = flag.Uint64("seed", 1, "workload seed, passed to the program as Options.Seed")
		seconds = flag.Float64("seconds", 10, "how long to run campaigns")
		trace   = flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
		dir     = flag.String("dir", ".bench_build/run", "scratch directory, removed at exit")
		goBin   = flag.String("go", "go", "go command, for go tool pprof in the traced run")
		quick   = flag.Bool("quick", false, "capacity-cold at GridQuick: the ungated reference run")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*quick && w.name != "capacity-cold") {
		fmt.Fprintln(os.Stderr, "campaignbench: bad arguments; see -h")
		os.Exit(2)
	}
	root, err := filepath.Abs(*dir)
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, workers: runtime.NumCPU(), dir: root,
		tr: newTracer(), resume: paperResume, quick: *quick}
	res, err := execute(b, w, time.Duration(*seconds*float64(time.Second)), *trace == 1, *goBin)
	if rerr := os.RemoveAll(root); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w.name, b); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// campResult is one campaign's measurements and outcome.
type campResult struct {
	wall, cpu        float64
	allocMB, gcCount float64
	out              outcome
	err              error
}

func (c campResult) failed() bool { return c.err != nil || len(c.out.problems) > 0 }

// result is one run's measurements.
type result struct {
	setup    []float64
	camps    []campResult // untraced campaigns
	traced   []campResult // traced campaigns (traced run only)
	peakRSS  float64
	layer    map[string]float64
	mismatch []string // campaigns whose rendering differs from the first's
}

func (r *result) all() []campResult {
	return append(append([]campResult(nil), r.camps...), r.traced...)
}

func (r *result) failures() int {
	n := len(r.mismatch)
	for _, c := range r.all() {
		if c.failed() {
			n++
		}
	}
	return n
}

func (r *result) correct() bool { return r.failures() == 0 }

// minCampaigns is the fewest campaigns a timed run measures: their median
// is the run's campaign time.
const minCampaigns = 3

// execute sets the workload up w.setupReps times, then runs the campaign
// loop: at least minCampaigns campaigns in a timed run, and in a traced run at
// least one untraced and one traced campaign, each over half the time.
func execute(b *bench, w workload, d time.Duration, traced bool, goBin string) (*result, error) {
	res := &result{}
	var fx *fixture
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		f, err := setupOnce(b, w)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if i < w.setupReps-1 {
			if err := f.discard(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		} else {
			fx = f
		}
	}
	defer fx.close()
	if !traced {
		res.camps = loop(b, w, fx, d, minCampaigns, 0)
	} else {
		res.camps = loop(b, w, fx, d/2, 1, 0)
		var err error
		if res.traced, res.layer, err = tracedLoop(b, w, fx, d/2, len(res.camps), goBin); err != nil {
			return nil, err
		}
		res.layer["trace.overhead_ratio"] = median(walls(res.traced)) / median(walls(res.camps))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	res.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.checkDigests()
	return res, fx.close()
}

// checkDigests requires every campaign of the run to render the bytes the
// first one rendered.
func (r *result) checkDigests() {
	all := r.all()
	for i, c := range all {
		if !c.failed() && !all[0].failed() && c.out.digest != all[0].out.digest {
			r.mismatch = append(r.mismatch, fmt.Sprintf("campaign %d rendered %x, campaign 0 rendered %x",
				i, c.out.digest[:8], all[0].out.digest[:8]))
		}
	}
}

// setupOnce creates a fresh scratch directory and runs the workload's own
// set-up in it.
func setupOnce(b *bench, w workload) (*fixture, error) {
	dir, err := b.tempDir("setup")
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir}
	return fx, w.setup(b, fx)
}

// loop runs campaigns one at a time until d has passed and at least atLeast
// campaigns have run.
func loop(b *bench, w workload, fx *fixture, d time.Duration, atLeast, firstID int) []campResult {
	var out []campResult
	start := time.Now()
	for id := firstID; len(out) < atLeast || time.Since(start) < d; id++ {
		out = append(out, runCampaign(b, w, fx, id))
	}
	return out
}

// runCampaign runs and measures one campaign.
func runCampaign(b *bench, w workload, fx *fixture, id int) campResult {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	c := &campaign{id: id, b: b}
	c.root = b.tr.begin("campaign", -1, id)
	err := w.run(b, fx, c)
	b.tr.end(c.root)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	return campResult{wall: wall, cpu: cpu, out: c.out, err: err,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcCount: float64(ms1.NumGC - ms0.NumGC)}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeMedians returns the median MiB allocated and GC cycles per
// campaign.
func runtimeMedians(cs []campResult) (allocMB, gcCycles float64) {
	var allocs, gcs []float64
	for _, c := range cs {
		allocs, gcs = append(allocs, c.allocMB), append(gcs, c.gcCount)
	}
	return median(allocs), median(gcs)
}

// cellsOf is the number of cells an executor resolved, computed or served.
func cellsOf(st lab.Stats) int {
	return st.Computed + st.Hits + st.HotHits + st.DiskHits + st.RemoteHits
}

func walls(cs []campResult) []float64 {
	var out []float64
	for _, c := range cs {
		out = append(out, c.wall)
	}
	return out
}

// tracedLoop runs campaigns with the program's instrumentation on, a CPU
// profile recording and harness spans kept, and reduces them to the
// per-layer metrics.
func tracedLoop(b *bench, w workload, fx *fixture, d time.Duration, firstID int, goBin string) ([]campResult, map[string]float64, error) {
	traceDir := filepath.Join(filepath.Dir(b.dir), "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	telemetry.SetActive(true)
	telemetry.SetCellLabels(true)
	defer telemetry.SetActive(false)
	defer telemetry.SetCellLabels(false)
	b.tr.setOn(true)
	defer b.tr.setOn(false)

	before, err := parseExposition(telemetry.Default.WritePrometheus())
	if err != nil {
		return nil, nil, err
	}
	pf, err := os.Create(base + ".pprof")
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, nil, err
	}
	cpu0 := cpuSeconds()
	camps := loop(b, w, fx, d, 1, firstID)
	cpu := cpuSeconds() - cpu0
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, nil, err
	}
	after, err := parseExposition(telemetry.Default.WritePrometheus())
	if err != nil {
		return nil, nil, err
	}
	if err := b.tr.write(base + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	top, err := pprofTop(goBin, base+".pprof")
	if err != nil {
		return nil, nil, err
	}
	rows, err := parseTop(top)
	if err != nil {
		return nil, nil, err
	}
	var serverTimes []float64
	if fx.server != nil {
		serverTimes = fx.server.takeTimes()
	}
	m := layerMetrics(camps, b.tr.spans, before, after, rows, serverTimes, cpu, b.workers)
	return camps, m, nil
}

// layerMetrics reduces one traced loop to the per-layer metrics. Counts
// and CPU are per campaign; latency quantiles pool every observation.
func layerMetrics(camps []campResult, spans []span, before, after expo, rows []topRow,
	serverTimes []float64, cpu float64, workers int) map[string]float64 {
	n := float64(len(camps))
	m := map[string]float64{"campaigns": n}
	var ids []int
	var wallSum float64
	for _, c := range camps {
		wallSum += c.wall
	}
	for _, s := range spans {
		if s.Name == "campaign" {
			ids = append(ids, s.Campaign)
		}
	}
	self := spanSelfPerCampaign(spans, ids)
	for _, s := range spanNames {
		m[s+"_s"] = self[s]
	}
	m["harness.self_s"] = self["campaign"]
	for k, v := range groupProfile(rows) {
		m[k] = v / n
	}

	// The outcome counters repeat exactly across campaigns of one run.
	st, so, rs := camps[0].out.stats, camps[0].out.store, camps[0].out.remote
	cells := cellsOf(st)
	m["lab.cells"], m["lab.computed"], m["lab.memo_hits"] = float64(cells), float64(st.Computed), float64(st.Hits)
	m["lab.hot_hits"], m["lab.disk_hits"], m["lab.remote_hits"] = float64(st.HotHits), float64(st.DiskHits), float64(st.RemoteHits)
	m["lab.persisted"] = float64(st.Persisted)
	m["lab.served_ratio"] = ratio(float64(cells-st.Computed), float64(cells))
	m["store.gets"], m["store.puts"] = float64(so.Gets), float64(so.Puts)
	m["store.snapshot_hits"], m["store.slow_gets"], m["store.hot_hits"] = float64(so.SnapshotHits), float64(so.SlowGets), float64(so.HotHits)
	m["store.group_commits"], m["store.grouped_appends"] = float64(so.GroupCommits), float64(so.GroupedAppends)
	m["remote.gets"], m["remote.hits"], m["remote.misses"] = float64(rs.Gets), float64(rs.Hits), float64(rs.Misses)
	m["remote.retries"], m["remote.corrupt"], m["remote.breaker_opens"] = float64(rs.Retries), float64(rs.Corrupt), float64(rs.BreakerOpens)
	m["remote.singleflight_hits"] = float64(rs.SingleflightHits)
	m["remote.hit_ratio"] = ratio(float64(rs.Hits), float64(rs.Gets))

	counter := func(name string) float64 { return after.counter(name) - before.counter(name) }
	h := func(name string, labels map[string]string) hist {
		return histDelta(after.hist(name, labels), before.hist(name, labels))
	}
	accesses := counter("sim_demand_accesses_total")
	m["engine.runs"] = counter("sim_engine_runs_total") / n
	m["engine.demand_accesses"] = accesses / n
	m["engine.prefetches_issued"] = counter("sim_prefetches_issued_total") / n
	m["engine.sim_accesses_per_cpu_s"] = ratio(accesses, cpu)
	m["mem.prefetches_per_access"] = ratio(counter("sim_prefetches_issued_total"), accesses)

	m["runtime.alloc_mb_per_campaign"], m["runtime.gc_cycles_per_campaign"] = runtimeMedians(camps)

	run := h("lab_cell_run_seconds", nil)
	m["lab.workers_busy_frac"] = ratio(run.Sum, float64(workers)*wallSum)
	m["lab.resolve_disk_s_p50"] = h("lab_cell_seconds", map[string]string{"tier": "disk"}).p50().Value
	m["lab.resolve_remote_s_p50"] = h("lab_cell_seconds", map[string]string{"tier": "remote"}).p50().Value
	tails := map[string]hist{
		"lab.queue_wait_s": h("lab_cell_queue_seconds", nil),
		"lab.cell_run_s":   run,
		"store.get_s":      h("store_get_seconds", nil),
		"store.put_s":      h("store_put_seconds", nil),
		"store.fsync_s":    h("store_wal_fsync_seconds", nil),
		"remote.get_s":     h("remote_get_seconds", nil),
	}
	for name, hs := range tails {
		setQuantiles(m, name, hs.p50(), hs.tail())
	}
	srv := quantile{Value: median(serverTimes), Pct: 50, N: int64(len(serverTimes))}
	setQuantiles(m, "remote.server_s", srv, sampleTail(serverTimes))
	return m
}

func setQuantiles(m map[string]float64, name string, p50, tail quantile) {
	m[name+"_p50"], m[name+"_tail"] = p50.Value, tail.Value
	m[name+"_tail_pct"], m[name+"_n"] = tail.Pct, float64(p50.N)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues computes the untraced run's metrics.
func (r *result) endToEndValues() map[string]float64 {
	var cpus []float64
	var cells, wall float64
	for _, c := range r.camps {
		cpus = append(cpus, c.cpu)
		cells += float64(cellsOf(c.out.stats))
		wall += c.wall
	}
	return map[string]float64{
		"setup_s":            median(r.setup),
		"campaign_s_p50":     median(walls(r.camps)),
		"cpu_s_per_campaign": median(cpus),
		"cells_per_s":        ratio(cells, wall),
		"peak_rss_mb":        r.peakRSS,
		"model_abs_err":      r.camps[0].out.modelErr,
	}
}

// print writes the human-readable report and then the result line.
func (r *result) print(f *os.File, name string, b *bench) error {
	all := r.all()
	fmt.Fprintf(f, "workload %s  seed %d  workers %d  scale %d\n", name, b.seed, b.workers, scale)
	fmt.Fprintf(f, "set-up seconds (%d): %s\n", len(r.setup), floats(r.setup))
	for i, c := range all {
		kind := "timed"
		if i >= len(r.camps) {
			kind = "traced"
		}
		st := c.out.stats
		fmt.Fprintf(f, "campaign %d (%s): wall %.4f s  cpu %.4f s  computed %d  memo %d  hot %d  disk %d  remote %d  digest %x\n",
			i, kind, c.wall, c.cpu, st.Computed, st.Hits, st.HotHits, st.DiskHits, st.RemoteHits, c.out.digest[:8])
		if c.err != nil {
			fmt.Fprintf(f, "  FAILED: %v\n", c.err)
		}
		for _, p := range c.out.problems {
			fmt.Fprintf(f, "  CHECK FAILED: %s\n", p)
		}
	}
	for _, p := range r.mismatch {
		fmt.Fprintf(f, "CHECK FAILED: %s\n", p)
	}
	c0 := all[0]
	st, so, rs := c0.out.stats, c0.out.store, c0.out.remote
	fmt.Fprintf(f, "per campaign: lab.cells=%d lab.computed=%d lab.memo_hits=%d lab.hot_hits=%d lab.disk_hits=%d lab.remote_hits=%d lab.persisted=%d\n",
		cellsOf(st), st.Computed, st.Hits, st.HotHits, st.DiskHits, st.RemoteHits, st.Persisted)
	fmt.Fprintf(f, "per campaign: store.gets=%d store.puts=%d store.snapshot_hits=%d store.slow_gets=%d store.hot_hits=%d store.group_commits=%d store.grouped_appends=%d\n",
		so.Gets, so.Puts, so.SnapshotHits, so.SlowGets, so.HotHits, so.GroupCommits, so.GroupedAppends)
	fmt.Fprintf(f, "per campaign: remote.gets=%d remote.hits=%d remote.misses=%d remote.retries=%d remote.corrupt=%d remote.breaker_opens=%d remote.singleflight_hits=%d\n",
		rs.Gets, rs.Hits, rs.Misses, rs.Retries, rs.Corrupt, rs.BreakerOpens, rs.SingleflightHits)
	alloc, gcs := runtimeMedians(r.camps)
	fmt.Fprintf(f, "per campaign: runtime.alloc_mb_per_campaign=%.4f runtime.gc_cycles_per_campaign=%g\n", alloc, gcs)
	fmt.Fprintf(f, "fail_ratio = %d/%d\n", r.failures(), len(all))
	fmt.Fprintf(f, "digest %s\n", hex.EncodeToString(c0.out.digest[:]))

	values, defs := r.endToEndValues(), endToEnd
	fmt.Fprintf(f, "campaign_s_p50 over n=%d campaigns\n", len(r.camps))
	if r.layer != nil {
		values, defs = r.layer, perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(f, "  %-36s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), len(all), r.failures(), metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

func floats(xs []float64) string {
	var s []string
	for _, x := range xs {
		s = append(s, fmt.Sprintf("%.4f", x))
	}
	return strings.Join(s, " ")
}
