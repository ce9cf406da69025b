package core

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/store"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
	"activemem/internal/workload/synthetic"
)

// uniformApp returns a factory for a uniform-random synthetic benchmark
// with the given buffer size.
func uniformApp(bufBytes int64, compute int) WorkloadFactory {
	return func(alloc *mem.Alloc, seed uint64) engine.Workload {
		return synthetic.New(synthetic.Config{
			Dist:           dist.NewUniform(bufBytes / 4),
			ElemSize:       4,
			ComputePerLoad: compute,
		}, alloc)
	}
}

func quickCfg(spec machine.Spec) MeasureConfig {
	return MeasureConfig{Spec: spec, Warmup: 12_000_000, Window: 8_000_000, Seed: 1}
}

func TestKindString(t *testing.T) {
	if Storage.String() != "storage" || Bandwidth.String() != "bandwidth" {
		t.Fatal("kind names")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind name")
	}
}

func TestMeasureValidation(t *testing.T) {
	spec := machine.Scaled(8)
	cfg := quickCfg(spec)
	app := uniformApp(4<<20, 1)
	if _, err := MeasureWithInterference(cfg, app, Storage, 8, interfere.BWConfig{}, interfere.CSConfig{}); err == nil {
		t.Error("8 threads on an 8-core socket (1 used by app) accepted")
	}
	bad := cfg
	bad.Window = 0
	if _, err := MeasureWithInterference(bad, app, Storage, 1, interfere.BWConfig{}, interfere.CSConfig{}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := MeasureWithInterference(cfg, app, Kind(9), 1, interfere.BWConfig{}, interfere.CSConfig{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMeasureBaselineMetrics(t *testing.T) {
	spec := machine.Scaled(8)
	m, err := MeasureWithInterference(quickCfg(spec), uniformApp(5<<20, 1), Storage, 0,
		interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Work <= 0 || m.Rate <= 0 {
		t.Fatalf("no work measured: %+v", m)
	}
	if m.L3MissRate <= 0.2 || m.L3MissRate > 1 {
		t.Fatalf("uniform 2x-L3 benchmark miss rate = %v, want ~0.5+", m.L3MissRate)
	}
	if m.InterfGBs != 0 || m.InterfHeldBytes != 0 {
		t.Fatalf("phantom interference: %+v", m)
	}
	if m.AppGBs <= 0 {
		t.Fatal("app consumed no bandwidth")
	}
}

func TestStorageInterferenceRaisesMissRate(t *testing.T) {
	spec := machine.Scaled(8)
	cfg := quickCfg(spec)
	app := uniformApp(5<<20, 1)
	m0, err := MeasureWithInterference(cfg, app, Storage, 0, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := MeasureWithInterference(cfg, app, Storage, 3, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.L3MissRate <= m0.L3MissRate {
		t.Fatalf("3 CSThrs did not raise miss rate: %.3f vs %.3f", m3.L3MissRate, m0.L3MissRate)
	}
	if m3.Rate >= m0.Rate {
		t.Fatalf("3 CSThrs did not slow the app: %.0f vs %.0f", m3.Rate, m0.Rate)
	}
	if m3.InterfHeldBytes <= 0 {
		t.Fatal("CSThr occupancy not recorded")
	}
}

func TestBandwidthInterferenceSlowsApp(t *testing.T) {
	spec := machine.Scaled(8)
	cfg := quickCfg(spec)
	app := uniformApp(8<<20, 1) // far beyond L3: bandwidth/latency bound
	m0, err := MeasureWithInterference(cfg, app, Bandwidth, 0, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MeasureWithInterference(cfg, app, Bandwidth, 2, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Rate >= m0.Rate {
		t.Fatalf("2 BWThrs did not slow the app: %.0f vs %.0f", m2.Rate, m0.Rate)
	}
	if m2.InterfGBs < 2 {
		t.Fatalf("2 BWThrs consumed only %.2f GB/s", m2.InterfGBs)
	}
}

func TestRunSweepSlowdownsMonotoneUnderStorage(t *testing.T) {
	spec := machine.Scaled(8)
	s, err := RunSweep(SweepConfig{
		MeasureConfig: quickCfg(spec),
		Kind:          Storage,
		MaxThreads:    4,
	}, "uniform", uniformApp(5<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	sl := s.Slowdowns()
	if sl[0] != 0 {
		t.Fatalf("baseline slowdown = %v", sl[0])
	}
	// Expect broadly increasing degradation; allow small non-monotonicity.
	if sl[4] < sl[1] {
		t.Fatalf("slowdowns not increasing: %v", sl)
	}
	if sl[4] <= 0.02 {
		t.Fatalf("4 CSThrs caused negligible slowdown: %v", sl)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	spec := machine.Scaled(8)
	cfg := SweepConfig{MeasureConfig: quickCfg(spec), Kind: Storage, MaxThreads: 2,
		Exec: lab.New(lab.Config{Workers: 1})}
	ser, err := RunSweep(cfg, "u", uniformApp(4<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = lab.New(lab.Config{Workers: 8})
	par, err := RunSweep(cfg, "u", uniformApp(4<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	for k := range ser.Points {
		if ser.Points[k] != par.Points[k] {
			t.Fatalf("parallel sweep diverges at %d:\n%+v\n%+v", k, ser.Points[k], par.Points[k])
		}
	}
}

// TestCalibrationParallelMatchesSerial is the calibration-grid counterpart:
// a worker pool of any width must reproduce the serial grid bit for bit.
func TestCalibrationParallelMatchesSerial(t *testing.T) {
	spec := machine.Scaled(8)
	mk := func(workers int) CapacityCalibration {
		cal, err := CalibrateCapacity(CalibrationConfig{
			MeasureConfig:  MeasureConfig{Spec: spec, Warmup: 12_000_000, Window: 6_000_000, Seed: 1},
			MaxThreads:     2,
			BufferBytes:    []int64{spec.L3.Size * 2, spec.L3.Size * 3},
			Dists:          []func(n int64) dist.Dist{func(n int64) dist.Dist { return dist.NewUniform(n) }},
			ComputePerLoad: 1,
			ElemSize:       4,
			Exec:           lab.New(lab.Config{Workers: workers}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	ser, par := mk(1), mk(8)
	if !reflect.DeepEqual(ser, par) {
		t.Fatalf("parallel calibration diverges from serial:\n%+v\n%+v", ser, par)
	}
}

// countingDist counts every CDF evaluation of the pattern it wraps, which is
// the work of a Σ F² line sweep.
type countingDist struct {
	dist.Dist
	cdfs *atomic.Int64
}

func (d countingDist) CDF(x int64) float64 {
	d.cdfs.Add(1)
	return d.Dist.CDF(x)
}

// TestSumSquaredOncePerPair proves the calibration evaluates Eq. 4's Σ F²
// term once per (buffer, pattern), however many CSThr counts share the
// pair and however many workers run the grid, and that the table does not
// make the result depend on the pool width.
func TestSumSquaredOncePerPair(t *testing.T) {
	spec := machine.Scaled(8)
	bufs := []int64{spec.L3.Size * 2, spec.L3.Size*3 + 4096}
	var cdfs atomic.Int64
	counted := func(mk func(n int64) dist.Dist) func(n int64) dist.Dist {
		return func(n int64) dist.Dist { return countingDist{mk(n), &cdfs} }
	}
	table2 := Table2Constructors()
	dists := []func(n int64) dist.Dist{counted(table2[0]), counted(table2[3])}
	const elemSize = 4
	var oneSweep int64
	for _, b := range bufs {
		oneSweep += int64(len(dists)) * dist.NumLines(dist.NewUniform(b/elemSize), spec.LineSize()/elemSize)
	}
	run := func(maxThreads, workers int) (CapacityCalibration, int64) {
		cdfs.Store(0)
		cal, err := CalibrateCapacity(CalibrationConfig{
			MeasureConfig:  MeasureConfig{Spec: spec, Warmup: 20_000, Window: 10_000, Seed: 1},
			MaxThreads:     maxThreads,
			BufferBytes:    bufs,
			Dists:          dists,
			ComputePerLoad: 1,
			ElemSize:       elemSize,
			Exec:           lab.New(lab.Config{Workers: workers}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cal, cdfs.Load()
	}
	_, k0 := run(0, 2)
	ser, k3 := run(3, 1)
	par, k3par := run(3, 2)
	if k0 != oneSweep || k3 != oneSweep || k3par != oneSweep {
		t.Fatalf("CDF evaluations: k=0..0 %d, k=0..3 serial %d, k=0..3 on 2 workers %d; want %d each (one line sweep per pair)",
			k0, k3, k3par, oneSweep)
	}
	if !reflect.DeepEqual(ser, par) {
		t.Fatalf("calibration differs between 1 and 2 workers:\n%+v\n%+v", ser, par)
	}
}

// TestSharedBaselineMeasuredOnce proves the memoization contract: a storage
// and a bandwidth sweep of the same application on one executor share their
// k=0 baseline, so 3+3 requested cells simulate only 5 experiments.
func TestSharedBaselineMeasuredOnce(t *testing.T) {
	spec := machine.Scaled(8)
	ex := lab.New(lab.Config{Workers: 4})
	cfg := quickCfg(spec)
	app := uniformApp(4<<20, 1)
	st, err := RunSweep(SweepConfig{MeasureConfig: cfg, Kind: Storage, MaxThreads: 2, Exec: ex}, "u", app)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := RunSweep(SweepConfig{MeasureConfig: cfg, Kind: Bandwidth, MaxThreads: 2, Exec: ex}, "u", app)
	if err != nil {
		t.Fatal(err)
	}
	stats := ex.Stats()
	if stats.Computed != 5 || stats.Hits != 1 {
		t.Fatalf("executor ran %d experiments with %d hits, want 5 with 1 (shared baseline)",
			stats.Computed, stats.Hits)
	}
	if st.Points[0] != bw.Points[0] {
		t.Fatalf("baselines diverge: %+v vs %+v", st.Points[0], bw.Points[0])
	}
}

// TestExperimentKeyDiscriminates pins the memo-key semantics: k=0 cells
// collapse onto one kind-independent baseline, everything else separates.
func TestExperimentKeyDiscriminates(t *testing.T) {
	spec := machine.Scaled(8)
	cfg := quickCfg(spec)
	noBW, noCS := interfere.BWConfig{}, interfere.CSConfig{}
	if ExperimentKey(cfg, "u", Storage, 0, noBW, noCS) != ExperimentKey(cfg, "u", Bandwidth, 0, noBW, noCS) {
		t.Fatal("k=0 baseline key depends on interference kind")
	}
	if ExperimentKey(cfg, "u", Storage, 1, noBW, noCS) == ExperimentKey(cfg, "u", Bandwidth, 1, noBW, noCS) {
		t.Fatal("k=1 keys collide across kinds")
	}
	if ExperimentKey(cfg, "u", Storage, 1, noBW, noCS) == ExperimentKey(cfg, "u", Storage, 2, noBW, noCS) {
		t.Fatal("keys collide across thread counts")
	}
	if ExperimentKey(cfg, "u", Storage, 1, noBW, noCS) == ExperimentKey(cfg, "v", Storage, 1, noBW, noCS) {
		t.Fatal("keys collide across workloads")
	}
	// A zero-valued interference config resolves to the machine default, so
	// explicit-default and zero-valued requests share one key.
	if ExperimentKey(cfg, "u", Storage, 1, noBW, interfere.DefaultCSConfig(spec.L3.Size)) !=
		ExperimentKey(cfg, "u", Storage, 1, noBW, noCS) {
		t.Fatal("explicit default CS config changes the key")
	}
	other := cfg
	other.Seed = 2
	if ExperimentKey(cfg, "u", Storage, 0, noBW, noCS) == ExperimentKey(other, "u", Storage, 0, noBW, noCS) {
		t.Fatal("keys collide across seeds")
	}
	// Invalid kinds must not alias a valid cell (they fail at run time and
	// their cached error must never poison a real sweep).
	if ExperimentKey(cfg, "u", Kind(9), 1, noBW, noCS) == ExperimentKey(cfg, "u", Storage, 1, noBW, noCS) {
		t.Fatal("invalid kind aliases a storage cell")
	}
}

func TestRunSweepRejectsUnknownKind(t *testing.T) {
	spec := machine.Scaled(8)
	_, err := RunSweep(SweepConfig{MeasureConfig: quickCfg(spec), Kind: Kind(9), MaxThreads: 1},
		"u", uniformApp(4<<20, 1))
	if err == nil {
		t.Fatal("unknown sweep kind accepted")
	}
}

func TestKneeDetection(t *testing.T) {
	mk := func(rates ...float64) Sweep {
		s := Sweep{}
		for k, r := range rates {
			s.Points = append(s.Points, Metrics{Threads: k, Rate: r})
		}
		return s
	}
	// Degradation appears at k=3 (rate 100 -> 80 = 25% slowdown).
	s := mk(100, 99, 98, 80, 70)
	lastOK, first := s.Knee(0.05)
	if lastOK != 2 || first != 3 {
		t.Fatalf("knee = (%d,%d), want (2,3)", lastOK, first)
	}
	// Never degrades.
	s = mk(100, 99, 100, 99)
	lastOK, first = s.Knee(0.05)
	if lastOK != 3 || first != -1 {
		t.Fatalf("knee = (%d,%d), want (3,-1)", lastOK, first)
	}
	// Degrades immediately.
	s = mk(100, 50)
	lastOK, first = s.Knee(0.05)
	if lastOK != 0 || first != 1 {
		t.Fatalf("knee = (%d,%d), want (0,1)", lastOK, first)
	}
}

func TestCalibrateBandwidth(t *testing.T) {
	spec := machine.Scaled(8)
	cal, err := CalibrateBandwidth(MeasureConfig{Spec: spec, Warmup: 1_000_000, Window: 4_000_000, Seed: 1},
		3, interfere.BWConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.AvailableGBs[0]-cal.PeakGBs) > 1e-9 {
		t.Fatalf("avail[0] = %v, want peak %v", cal.AvailableGBs[0], cal.PeakGBs)
	}
	// One BWThr consumes the calibrated ~2.8 GB/s band.
	if cal.ConsumedGBs[1] < 2.3 || cal.ConsumedGBs[1] > 3.4 {
		t.Fatalf("1 BWThr consumed %.2f GB/s", cal.ConsumedGBs[1])
	}
	for k := 1; k < len(cal.AvailableGBs); k++ {
		if cal.AvailableGBs[k] >= cal.AvailableGBs[k-1] {
			t.Fatalf("availability not decreasing: %v", cal.AvailableGBs)
		}
	}
}

func TestCalibrateCapacitySmallGrid(t *testing.T) {
	spec := machine.Scaled(8)
	bufs := []int64{spec.L3.Size * 2, spec.L3.Size * 3}
	cal, err := CalibrateCapacity(CalibrationConfig{
		MeasureConfig:  MeasureConfig{Spec: spec, Warmup: 30_000_000, Window: 12_000_000, Seed: 1},
		MaxThreads:     2,
		BufferBytes:    bufs,
		Dists:          []func(n int64) dist.Dist{func(n int64) dist.Dist { return dist.NewUniform(n) }},
		ComputePerLoad: 1,
		ElemSize:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	avail := cal.AvailableBytes()
	l3 := float64(spec.L3.Size)
	// No interference: the inversion must recover roughly the physical L3.
	if avail[0] < 0.75*l3 || avail[0] > 1.15*l3 {
		t.Fatalf("avail[0] = %.0f, want ~%.0f", avail[0], l3)
	}
	// Each CSThr pins ~its 512KB buffer.
	for k := 1; k <= 2; k++ {
		if avail[k] >= avail[k-1] {
			t.Fatalf("availability not decreasing: %v", avail)
		}
	}
	stolen := avail[0] - avail[1]
	buf := float64(512 * units.KB)
	if stolen < 0.5*buf || stolen > 2.0*buf {
		t.Fatalf("1 CSThr stole %.0f bytes, want ~%.0f", stolen, buf)
	}
	// Samples carry the Fig. 5 ingredients.
	s := cal.Points[0].Samples[0]
	if s.MeasuredMiss <= 0 || s.PredictedMiss <= 0 || s.DistName == "" {
		t.Fatalf("sample incomplete: %+v", s)
	}
}

func TestDefaultCalibrationGrid(t *testing.T) {
	spec := machine.Scaled(8)
	bufs, dists := DefaultCalibrationGrid(spec, 5)
	if len(bufs) != 5 || len(dists) != 10 {
		t.Fatalf("grid = %d bufs, %d dists", len(bufs), len(dists))
	}
	if bufs[0] < spec.L3.Size*14/10 || bufs[4] > spec.L3.Size*4 {
		t.Fatalf("buffer span wrong: %v", bufs)
	}
	for i := 1; i < len(bufs); i++ {
		if bufs[i] <= bufs[i-1] {
			t.Fatalf("buffer sizes not increasing: %v", bufs)
		}
	}
	d := dists[9](1 << 16)
	if d.Name() != "Uni" {
		t.Fatalf("last dist = %s, want Uni", d.Name())
	}
}

func TestCurve(t *testing.T) {
	c, err := NewCurve([]float64{20, 15, 10, 5}, []float64{0, 0.02, 0.10, 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(25); got != 0 {
		t.Fatalf("above range = %v", got)
	}
	if got := c.At(2); got != 0.30 {
		t.Fatalf("below range = %v", got)
	}
	if got := c.At(12.5); math.Abs(got-0.06) > 1e-9 {
		t.Fatalf("midpoint = %v, want 0.06", got)
	}
	if got := c.At(15); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("exact point = %v, want 0.02", got)
	}
	if _, err := NewCurve([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("increasing availability accepted")
	}
	if _, err := NewCurve([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBuildProfilePaperExample(t *testing.T) {
	// Reconstruct the paper's MCB p=4 example: availability 20,15,12 MB;
	// degradation first at 1 CSThr => bounds [15/4, 20/4] MB.
	mkSweep := func(rates ...float64) Sweep {
		s := Sweep{}
		for k, r := range rates {
			s.Points = append(s.Points, Metrics{Threads: k, Rate: r})
		}
		return s
	}
	storage := mkSweep(100, 80, 70)
	storageAvail := []float64{20e6, 15e6, 12e6}
	bandwidth := mkSweep(100, 99, 80)
	bandwidthAvail := []float64{17, 14.2, 11.4}
	p, err := BuildProfile("mcb", 4, 0.05, storage, storageAvail, bandwidth, bandwidthAvail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.CapacityLow-15e6/4) > 1 || math.Abs(p.CapacityHigh-20e6/4) > 1 {
		t.Fatalf("capacity bounds = [%.0f, %.0f], want [3.75e6, 5e6]", p.CapacityLow, p.CapacityHigh)
	}
	// Bandwidth degrades first at 2 BWThrs: bounds [11.4/4, 14.2/4].
	if math.Abs(p.BandwidthLow-11.4/4) > 1e-9 || math.Abs(p.BandwidthHigh-14.2/4) > 1e-9 {
		t.Fatalf("bandwidth bounds = [%v, %v]", p.BandwidthLow, p.BandwidthHigh)
	}
	if p.String() == "" {
		t.Error("empty profile rendering")
	}
	// Prediction composes both curves; at full resources it must be ~0.
	if s := p.PredictSlowdown(20e6, 17); math.Abs(s) > 1e-9 {
		t.Fatalf("full-resource prediction = %v, want 0", s)
	}
	if s := p.PredictSlowdown(12e6, 11.4); s < 0.4 {
		t.Fatalf("constrained prediction = %v, want >= 0.4 (both curves bind)", s)
	}
}

func TestBuildProfileNeverDegraded(t *testing.T) {
	mkSweep := func(rates ...float64) Sweep {
		s := Sweep{}
		for k, r := range rates {
			s.Points = append(s.Points, Metrics{Threads: k, Rate: r})
		}
		return s
	}
	flat := mkSweep(100, 100, 100)
	avail := []float64{20e6, 15e6, 12e6}
	bw := mkSweep(100, 100, 100)
	bwAvail := []float64{17, 14.2, 11.4}
	p, err := BuildProfile("tiny", 1, 0.05, flat, avail, bw, bwAvail)
	if err != nil {
		t.Fatal(err)
	}
	if p.CapacityLow != 0 || p.CapacityHigh != 12e6 {
		t.Fatalf("never-degraded bounds = [%v, %v], want [0, 12e6]", p.CapacityLow, p.CapacityHigh)
	}
}

func TestBuildProfileErrors(t *testing.T) {
	s := Sweep{Points: []Metrics{{Rate: 1}}}
	if _, err := BuildProfile("x", 0, 0.05, s, []float64{1}, s, []float64{1}); err == nil {
		t.Error("zero processes accepted")
	}
	if _, err := BuildProfile("x", 1, 0.05, s, nil, s, []float64{1}); err == nil {
		t.Error("short calibration accepted")
	}
}

// TestRunSweepAdaptiveKnee pins the -knee contract against the full sweep:
// the adaptive sweep measures exactly the ascending prefix ending
// KneePatience levels past the first sustained over-threshold slowdown,
// bit-identical to the same levels of the full sweep, and a generous
// threshold reproduces the full sweep exactly.
func TestRunSweepAdaptiveKnee(t *testing.T) {
	spec := machine.Scaled(8)
	ex := lab.New(lab.Config{})
	base := SweepConfig{MeasureConfig: quickCfg(spec), Kind: Storage, MaxThreads: 4, Exec: ex}
	app := uniformApp(5<<20, 1)

	full, err := RunSweep(base, "u", app)
	if err != nil {
		t.Fatal(err)
	}
	sl := full.Slowdowns()

	for _, patience := range []int{1, 2} {
		// Pick a threshold the full sweep is known to cross, then derive the
		// level the adaptive sweep must stop at.
		threshold := sl[len(sl)-1] / 2
		if threshold <= 0 {
			t.Fatalf("full sweep never slowed down: %v", sl)
		}
		wantLen := len(full.Points)
		over := 0
		for k := 1; k < len(sl); k++ {
			if sl[k] > threshold {
				over++
			} else {
				over = 0
			}
			if over >= patience {
				wantLen = k + 1
				break
			}
		}

		cfg := base
		cfg.Knee, cfg.KneePatience = threshold, patience
		adaptive, err := RunSweep(cfg, "u", app)
		if err != nil {
			t.Fatal(err)
		}
		if len(adaptive.Points) != wantLen {
			t.Fatalf("patience %d: adaptive sweep measured %d levels, want %d (slowdowns %v)",
				patience, len(adaptive.Points), wantLen, sl)
		}
		for k := range adaptive.Points {
			if adaptive.Points[k] != full.Points[k] {
				t.Fatalf("adaptive point %d diverges from full sweep", k)
			}
		}
	}

	// A threshold nothing crosses measures every level.
	cfg := base
	cfg.Knee = 1000
	all, err := RunSweep(cfg, "u", app)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Points) != len(full.Points) {
		t.Fatalf("uncrossed threshold still truncated the sweep: %d levels", len(all.Points))
	}
	// Shared executor: the adaptive runs hit the full sweep's memo, so the
	// whole test simulated each cell exactly once.
	if st := ex.Stats(); st.Computed != len(full.Points) {
		t.Fatalf("adaptive sweeps re-simulated cells: %+v", st)
	}
}

// TestSweepResumesFromDiskStore is the acceptance criterion in miniature:
// a sweep persisted through the executor's disk tier re-runs on a fresh
// executor (fresh process equivalent) without invoking the simulator, and
// the resumed result is bit-identical to the cold one.
func TestSweepResumesFromDiskStore(t *testing.T) {
	spec := machine.Scaled(8)
	dir := t.TempDir()
	cfg := SweepConfig{MeasureConfig: quickCfg(spec), Kind: Storage, MaxThreads: 2}

	st1, err := store.Open(dir, store.Options{Schema: lab.ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = lab.New(lab.Config{Cache: st1})
	cold, err := RunSweep(cfg, "u", uniformApp(4<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := cfg.Exec.Stats(); s.Persisted != 3 {
		t.Fatalf("cold run persisted %d of 3 cells", s.Persisted)
	}
	st1.Close()

	st2, err := store.Open(dir, store.Options{Schema: lab.ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Exec = lab.New(lab.Config{Cache: st2})
	warm, err := RunSweep(cfg, "u", uniformApp(4<<20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := cfg.Exec.Stats(); s.Computed != 0 || s.DiskHits != 3 {
		t.Fatalf("warm run stats = %+v, want pure disk hits", s)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("resumed sweep diverges:\n%+v\n%+v", cold, warm)
	}
}

// TestCalibrateBandwidthMemoizes proves the §III-A ladder runs through the
// executor's memo cache: a second calibration on the same executor reuses
// every level instead of re-simulating the BWThr ladder.
func TestCalibrateBandwidthMemoizes(t *testing.T) {
	spec := machine.Scaled(8)
	ex := lab.New(lab.Config{})
	cfg := MeasureConfig{Spec: spec, Warmup: 1_000_000, Window: 4_000_000, Seed: 1}
	first, err := CalibrateBandwidth(cfg, 2, interfere.BWConfig{}, ex)
	if err != nil {
		t.Fatal(err)
	}
	before := ex.Stats()
	second, err := CalibrateBandwidth(cfg, 2, interfere.BWConfig{}, ex)
	if err != nil {
		t.Fatal(err)
	}
	after := ex.Stats()
	if after.Computed != before.Computed {
		t.Fatalf("second calibration re-simulated %d cells", after.Computed-before.Computed)
	}
	if after.Hits <= before.Hits {
		t.Fatal("second calibration did not hit the memo cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memoized calibration differs: %+v vs %+v", first, second)
	}
}
