package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		pct  float64
		rank int64
		ok   bool
	}{
		{n: 0}, {n: 19},
		{n: 20, pct: 50, rank: 10, ok: true},
		{n: 99, pct: 50, rank: 50, ok: true},
		{n: 100, pct: 90, rank: 90, ok: true},
		{n: 999, pct: 90, rank: 900, ok: true},
		{n: 1000, pct: 99, rank: 990, ok: true},
		{n: 9999, pct: 99, rank: 9900, ok: true},
		{n: 10000, pct: 99.9, rank: 9990, ok: true},
		{n: 1_000_000, pct: 99.999, rank: 999_990, ok: true},
	} {
		pct, rank, ok := tailRank(tc.n)
		if pct != tc.pct || rank != tc.rank || ok != tc.ok {
			t.Errorf("tailRank(%d) = %v, %d, %v; want %v, %d, %v", tc.n, pct, rank, ok, tc.pct, tc.rank, tc.ok)
		}
		if ok && tc.n-rank < 10 {
			t.Errorf("tailRank(%d): only %d samples beyond rank %d", tc.n, tc.n-rank, rank)
		}
	}
}

func TestSampleTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if q := sampleTail(xs); q.Value != 90 || q.Pct != 90 || q.N != 100 {
		t.Fatalf("sampleTail(1..100) = %+v, want p90 = 90", q)
	}
	if q := sampleTail(xs[:15]); q.Value != 0 || q.Pct != 0 || q.N != 15 {
		t.Fatalf("sampleTail of 15 samples = %+v, want no tail", q)
	}
}

// cannedExposition is a histogram in the registry's text form: three
// observations in (1µs, 2µs], one in (2µs, 4µs] and 96 in (4µs, 8µs],
// split over two shards.
const cannedExposition = `# HELP store_get_seconds Get latency by shard.
# TYPE store_get_seconds histogram
store_get_seconds_bucket{shard="00",le="1.024e-06"} 0
store_get_seconds_bucket{shard="00",le="2.048e-06"} 3
store_get_seconds_bucket{shard="00",le="4.096e-06"} 4
store_get_seconds_bucket{shard="00",le="8.192e-06"} 50
store_get_seconds_bucket{shard="00",le="+Inf"} 50
store_get_seconds_sum{shard="00"} 0.0003
store_get_seconds_count{shard="00"} 50
store_get_seconds_bucket{shard="01",le="1.024e-06"} 0
store_get_seconds_bucket{shard="01",le="2.048e-06"} 0
store_get_seconds_bucket{shard="01",le="4.096e-06"} 0
store_get_seconds_bucket{shard="01",le="8.192e-06"} 50
store_get_seconds_bucket{shard="01",le="+Inf"} 50
store_get_seconds_sum{shard="01"} 0.0003
store_get_seconds_count{shard="01"} 50
# TYPE sim_engine_runs_total counter
sim_engine_runs_total 7
`

func TestExpositionHistogram(t *testing.T) {
	e, err := parseExposition(cannedExposition)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.counter("sim_engine_runs_total"); got != 7 {
		t.Fatalf("counter = %v, want 7", got)
	}
	h := e.hist("store_get_seconds", nil)
	if h.count() != 100 || math.Abs(h.Sum-0.0006) > 1e-12 {
		t.Fatalf("merged histogram: count %d sum %v", h.count(), h.Sum)
	}
	// The median sits in the (4.096µs, 8.192µs] bucket; the tail rule picks
	// p90 for 100 samples, rank 90, also in that bucket.
	if p := h.p50(); p.Value <= 4.096e-6 || p.Value > 8.192e-6 || p.N != 100 {
		t.Fatalf("p50 = %+v", p)
	}
	if q := h.tail(); q.Pct != 90 || q.Value <= 4.096e-6 || q.Value > 8.192e-6 {
		t.Fatalf("tail = %+v", q)
	}
	d := histDelta(h, e.hist("store_get_seconds", map[string]string{"shard": "01"}))
	if d.count() != 50 {
		t.Fatalf("delta count = %d, want shard 00's 50", d.count())
	}
}

// cannedTop is `go tool pprof -top` output in the form the traced run
// parses, with the standard library already hidden into its callers.
const cannedTop = `File: campaignbench
Type: cpu
Duration: 6.62s, Total samples = 11.65s (175.93%)
Showing nodes accounting for 11.65s, 100% of 11.65s total
      flat  flat%   sum%        cum   cum%
        3s 25.75% 25.75%      3.04s 26.09%  activemem/internal/dist.stdPhi (inline)
     1.93s 16.57% 42.32%      8.32s 71.42%  activemem/internal/dist.LineMasses
     1.20s 10.30% 52.62%      1.50s 12.88%  activemem/internal/mem.(*Cache).probe
     0.30s  2.58% 55.19%      0.30s  2.58%  activemem/internal/mem.(*Cache).victimWay
     0.59s  5.06% 60.26%      1.66s 14.25%  runtime.scanobject
    1500ms 12.88% 73.13%     1500ms 12.88%  activemem/internal/workload/interfere.(*CSThr).Step
     0.25s  2.15% 75.28%      2.33s 20.00%  activemem/internal/workload/interfere.(*BWThr).Step
     0.24s  2.06% 77.34%      0.24s  2.06%  activemem/internal/store.faultSync
     0.13s  1.12% 78.46%      0.13s  1.12%  net.(*netFD).Write
     0.06s  0.52% 78.97%      0.19s  1.63%  activemem/internal/lab.RegisterResult[go.shape.struct { Threads int; Work int64 }].func2
     0.05s  0.43% 79.40%      0.05s  0.43%  main.runCampaign
     0.04s  0.34% 79.74%      0.04s  0.34%  activemem/internal/report.(*Table).String
     0.02s  0.17% 79.91%      0.02s  0.17%  activemem/internal/xrand.(*Rand).Uint64
    2340ms 20.09%   100%     2340ms 20.09%  activemem/internal/apps/lulesh.(*App).Step
         0     0%   100%      1.10s  9.44%  runtime.gcBgMarkWorker
         0     0%   100%      0.20s  1.72%  runtime.gcAssistAlloc
         0     0%   100%      0.40s  3.43%  activemem/internal/mem.(*Hierarchy).writebackToL2
         0     0%   100%      0.10s  0.86%  activemem/internal/mem.(*Hierarchy).writebackToL3
`

func TestGroupProfile(t *testing.T) {
	rows, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("parsed %d rows, want 18", len(rows))
	}
	got := groupProfile(rows)
	want := map[string]float64{
		"dist.cpu_s":                4.93,
		"mem.cpu_s":                 1.50,
		"runtime.cpu_s":             0.59,
		"workload.csthr.cpu_s":      1.50,
		"workload.bwthr.cpu_s":      0.25,
		"store.cpu_s":               0.24,
		"remote.cpu_s":              0.13,
		"lab.cpu_s":                 0.06,
		"harness.cpu_s":             0.05,
		"experiments.cpu_s":         0.04,
		"other.cpu_s":               0.02,
		"apps.lulesh.cpu_s":         2.34,
		"core.cpu_s":                0,
		"mem.probe.cpu_s":           1.50,
		"mem.victim_way.cpu_s":      0.30,
		"mem.writeback.cpu_s":       0.50,
		"mem.presence_remove.cpu_s": 0,
		"runtime.gc.cpu_s":          1.30,
		"workload.csthr.cum_cpu_s":  1.50,
		"workload.bwthr.cum_cpu_s":  2.33,
		"profile.cpu_s":             11.65,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, l := range layers {
		if _, ok := got[l+".cpu_s"]; !ok {
			t.Errorf("layer %s missing from the grouping", l)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{"1.5s": 1.5, "830ms": 0.83, "2mins": 120, "10us": 1e-5, "0": 0} {
		if got, err := parseDuration(s); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseTop("no header here\n"); err == nil {
		t.Error("parseTop accepted text without a header")
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "campaign", StartNs: 0, EndNs: 10e9, Parent: -1, Campaign: 0},
		{ID: 1, Name: "store.open", StartNs: 1e9, EndNs: 2e9, Parent: 0, Campaign: 0},
		{ID: 2, Name: "core.calibrate_capacity", StartNs: 2e9, EndNs: 5e9, Parent: 0, Campaign: 0},
		{ID: 3, Name: "core.calibrate_capacity", StartNs: 5e9, EndNs: 9e9, Parent: 0, Campaign: 0},
	}
	self := spanSelfPerCampaign(spans, []int{0})
	if self["campaign"] != 2 || self["core.calibrate_capacity"] != 7 || self["store.open"] != 1 {
		t.Fatalf("self seconds = %v", self)
	}
}

// tinyResume is an eight-cell resume grid for tests.
var tinyResume = resumeGrid{nBufs: 2, nDists: 2, maxThreads: 1, computes: []int{1}, warmup: 200_000, window: 100_000}

func testBench(t *testing.T) *bench {
	return &bench{seed: 3, workers: 2, dir: t.TempDir(), tr: newTracer(), resume: tinyResume}
}

// TestWorkloadsPass runs the fewest campaigns of every workload (the resume
// workloads on the tiny grid) and requires every check to hold.
func TestWorkloadsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole campaigns")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := testBench(t)
			res, err := execute(b, w, time.Nanosecond, false, "go")
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || len(res.camps) != minCampaigns {
				t.Fatalf("%d campaigns, %d failures: %+v", len(res.camps), res.failures(), res.camps[0].out.problems)
			}
			if v := res.endToEndValues(); v["model_abs_err"] <= 0 || v["cells_per_s"] <= 0 {
				t.Fatalf("end-to-end values %v", v)
			}
		})
	}
}

// TestResumeChecksFail shows that a resume campaign fails its checks when
// its rendering differs from set-up's or when a cell had to be computed.
func TestResumeChecksFail(t *testing.T) {
	w, _ := findWorkload("resume-remote")
	t.Run("digest", func(t *testing.T) {
		b := testBench(t)
		fx, err := setupOnce(b, w)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		fx.want[0] ^= 1
		c := runCampaign(b, w, fx, 0)
		if c.err != nil || !c.failed() || !strings.Contains(strings.Join(c.out.problems, "\n"), "set-up rendered") {
			t.Fatalf("corrupted digest: err %v, problems %v", c.err, c.out.problems)
		}
	})
	t.Run("computed", func(t *testing.T) {
		b := testBench(t)
		fx, err := setupOnce(b, w)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		// The server forgets one record: that cell misses every tier.
		fx.server.st.Invalidate(fx.server.st.Entries()[0].Key)
		c := runCampaign(b, w, fx, 0)
		if c.err != nil || c.out.stats.Computed != 1 || !strings.Contains(strings.Join(c.out.problems, "\n"), "computed 1 cells") {
			t.Fatalf("computed cell: err %v, computed %d, problems %v", c.err, c.out.stats.Computed, c.out.problems)
		}
	})
}

// TestDigestMismatchFails runs the traced loop, then shows that campaigns
// of one run must render the same bytes.
func TestDigestMismatchFails(t *testing.T) {
	w, _ := findWorkload("resume-remote")
	b := testBench(t)
	res, err := execute(b, w, time.Nanosecond, true, "go")
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || len(res.traced) != 1 || res.layer["lab.remote_hits"] != float64(tinyResume.cells()) {
		t.Fatalf("traced run: %d failures, layer metrics %v", res.failures(), res.layer)
	}
	for _, d := range perLayer {
		if _, ok := res.layer[d.Name]; !ok {
			t.Errorf("traced run does not report %s", d.Name)
		}
	}
	res.traced[0].out.digest[0] ^= 1
	res.mismatch = nil
	res.checkDigests()
	if res.correct() || res.failures() != 1 {
		t.Fatalf("a differing rendering gave %d failures", res.failures())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json's metric lists in step with the
// metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
