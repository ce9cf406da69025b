package experiments

import (
	"reflect"
	"strings"
	"testing"

	"activemem/internal/lab"
	"activemem/internal/store"
	"activemem/internal/units"
)

// smoke returns fast options on the 1/8-scale machine (default worker pool).
func smoke() Options {
	return Options{Scale: 8, Grid: GridSmoke, Seed: 1}
}

func TestGridString(t *testing.T) {
	if GridSmoke.String() != "smoke" || GridQuick.String() != "quick" ||
		GridPaper.String() != "paper" || Grid(9).String() != "Grid(9)" {
		t.Fatal("grid names")
	}
	for _, g := range []Grid{GridSmoke, GridQuick, GridPaper} {
		if got, err := ParseGrid(g.String()); got != g || err != nil {
			t.Fatalf("ParseGrid(%q) = (%v, %v)", g, got, err)
		}
	}
	if _, err := ParseGrid("huge"); err == nil {
		t.Fatal("ParseGrid accepted an unknown grid")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.Spec().Name != "Xeon20MB" {
		t.Fatalf("default machine = %s", o.Spec().Name)
	}
	if !strings.Contains(o.ScaleNote(), "full geometry") {
		t.Fatalf("scale note = %q", o.ScaleNote())
	}
	if !strings.Contains(smoke().ScaleNote(), "multiply capacities by 8") {
		t.Fatalf("scaled note = %q", smoke().ScaleNote())
	}
}

func TestTableIAndII(t *testing.T) {
	if !strings.Contains(TableI(smoke()), "L3") {
		t.Fatal("Table I missing L3")
	}
	tab := TableII(smoke())
	if len(tab.Rows) != 10 {
		t.Fatalf("Table II has %d patterns, want 10", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "Norm 4") || !strings.Contains(tab.String(), "Uni") {
		t.Fatal("Table II missing patterns")
	}
}

func TestSecIIIAShape(t *testing.T) {
	r, err := SecIIIA(smoke())
	if err != nil {
		t.Fatal(err)
	}
	cal := r.Cal
	if len(cal.ConsumedGBs) != 8 {
		t.Fatalf("expected 8 levels, got %d", len(cal.ConsumedGBs))
	}
	// Single thread in the paper's 2.8 GB/s band; seven near saturation.
	if cal.ConsumedGBs[1] < 2.3 || cal.ConsumedGBs[1] > 3.4 {
		t.Errorf("1 BWThr = %.2f GB/s", cal.ConsumedGBs[1])
	}
	if cal.ConsumedGBs[7] < 0.9*cal.PeakGBs {
		t.Errorf("7 BWThrs = %.2f of %.2f peak", cal.ConsumedGBs[7], cal.PeakGBs)
	}
	if !strings.Contains(r.Table().String(), "BWThrs") {
		t.Error("table rendering")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(smoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("too few rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The paper's headline: mean error < ~10%.
		if row.MeanAbsErr > 0.12 {
			t.Errorf("buffer %s: model error %.3f above Fig. 5 band",
				units.FormatBytes(row.BufferBytes), row.MeanAbsErr)
		}
	}
	// Error shrinks (or at least does not grow) with buffer size.
	first, last := r.Rows[0].MeanAbsErr, r.Rows[len(r.Rows)-1].MeanAbsErr
	if last > first+0.02 {
		t.Errorf("error grew with buffer size: %.3f -> %.3f", first, last)
	}
	if !strings.Contains(r.Table().String(), "Mean abs err") {
		t.Error("table rendering")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(smoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCompute) != 1 { // smoke grid: compute=1 only
		t.Fatalf("compute intensities = %v", r.Computes)
	}
	cal := r.PerCompute[0]
	phys := float64(r.Spec.L3.Size)
	// No interference recovers roughly the physical capacity.
	if cal.Points[0].MeanBytes < 0.7*phys || cal.Points[0].MeanBytes > 1.15*phys {
		t.Errorf("k=0 capacity = %.0f vs physical %.0f", cal.Points[0].MeanBytes, phys)
	}
	// Capacity decreases monotonically with CSThr count.
	for k := 1; k < len(cal.Points); k++ {
		if cal.Points[k].MeanBytes >= cal.Points[k-1].MeanBytes {
			t.Errorf("capacity not decreasing at k=%d: %v", k, cal.AvailableBytes())
		}
	}
	if len(r.Tables()) != 1 {
		t.Error("table rendering")
	}
}

func TestFig7Flatness(t *testing.T) {
	r, err := Fig7(smoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	base := r.Rows[0]
	for _, row := range r.Rows[1:] {
		// The paper's claim: BWThr is unaffected by CSThrs. Allow 15%.
		if rel(row.BWGBs, base.BWGBs) > 0.15 {
			t.Errorf("k=%d: BWThr bandwidth moved %.2f -> %.2f", row.CSThrs, base.BWGBs, row.BWGBs)
		}
		if rel(row.SecondsPer1e7, base.SecondsPer1e7) > 0.15 {
			t.Errorf("k=%d: BWThr loop time moved", row.CSThrs)
		}
		if row.L3MissRate < 0.85 {
			t.Errorf("k=%d: BWThr miss rate %.3f", row.CSThrs, row.L3MissRate)
		}
	}
}

func TestFig8Knee(t *testing.T) {
	r, err := Fig8(smoke())
	if err != nil {
		t.Fatal(err)
	}
	base := r.Rows[0]
	// A lone CSThr uses almost no bandwidth and never misses.
	if base.CSGBs > 0.3 || base.L3MissRate > 0.02 {
		t.Fatalf("baseline CSThr: %.3f GB/s, miss %.3f", base.CSGBs, base.L3MissRate)
	}
	// One BWThr leaves the CSThr essentially untouched...
	if rel(r.Rows[1].NsPerOp, base.NsPerOp) > 0.15 {
		t.Errorf("1 BWThr moved CSThr op time %.2f -> %.2f", base.NsPerOp, r.Rows[1].NsPerOp)
	}
	// ...but heavy bandwidth interference degrades it (the §III-D bound).
	if r.Rows[5].NsPerOp < base.NsPerOp*1.5 {
		t.Errorf("5 BWThrs barely moved CSThr: %.2f -> %.2f", base.NsPerOp, r.Rows[5].NsPerOp)
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

// TestFig7ResumesFromDiskStore pins the warm-campaign contract for the
// orthogonality checks, the last figures to move onto the executor: a
// second run against the same cache directory reproduces the figure from
// disk without a single simulated cell.
func TestFig7ResumesFromDiskStore(t *testing.T) {
	dir := t.TempDir()
	run := func() (Fig7Result, lab.Stats) {
		st, err := store.Open(dir, store.Options{Schema: lab.ResultSchemaVersion})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		opt := smoke()
		opt.Exec = lab.New(lab.Config{Cache: st})
		r, err := Fig7(opt)
		if err != nil {
			t.Fatal(err)
		}
		return r, opt.Exec.Stats()
	}
	cold, coldStats := run()
	if coldStats.Computed != 6 || coldStats.Persisted != 6 {
		t.Fatalf("cold stats = %+v", coldStats)
	}
	warm, warmStats := run()
	if warmStats.Computed != 0 || warmStats.DiskHits != 6 {
		t.Fatalf("warm stats = %+v, want 6 pure disk hits", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("resumed Fig. 7 diverges:\n%+v\n%+v", cold, warm)
	}
}

// validateGridResults bundles every experiment a `validate -grid` run
// drives, so resident-pool and fresh-pool executions can be compared as one
// value.
type validateGridResults struct {
	SecIIIA SecIIIAResult
	Fig5    Fig5Result
	Fig6    Fig6Result
	Fig7    Fig7Result
	Fig8    Fig8Result
}

// TestValidateGridResidentPoolDeterminism pins the resident-pool contract
// end to end for the full `validate` grid driver set (§III-A, Figs. 5-8, as
// cmd/validate runs them): one shared executor whose resident workers serve
// every figure's batches must produce results bit-identical to fresh
// serial executors per driver — the reference ordering with no pool at all.
// (The grid runs at smoke size; the drivers and scheduling paths are
// exactly those of -grid paper, which only adds cells.)
func TestValidateGridResidentPoolDeterminism(t *testing.T) {
	run := func(opt Options) validateGridResults {
		var r validateGridResults
		var err error
		if r.SecIIIA, err = SecIIIA(opt); err != nil {
			t.Fatal(err)
		}
		if r.Fig5, err = Fig5(opt); err != nil {
			t.Fatal(err)
		}
		if r.Fig6, err = Fig6(opt); err != nil {
			t.Fatal(err)
		}
		if r.Fig7, err = Fig7(opt); err != nil {
			t.Fatal(err)
		}
		if r.Fig8, err = Fig8(opt); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Shared wide executor: one resident pool across all five drivers.
	shared := smoke()
	shared.Exec = lab.New(lab.Config{Workers: 8})
	defer shared.Exec.Close()
	resident := run(shared)
	st := shared.Exec.Stats()
	if st.WorkerSpawns != 8 || st.GroupReuses == 0 {
		t.Fatalf("shared campaign pool stats = %+v, want one spawn generation and reused batches", st)
	}

	// Fresh serial executors: each driver builds (and closes) its own
	// Workers-agnostic executor; Workers: 1 never spawns a pool.
	fresh := smoke()
	fresh.Concurrency = 1
	if got := run(fresh); !reflect.DeepEqual(resident, got) {
		t.Fatalf("resident-pool grid diverges from fresh-pool grid:\n%+v\n%+v", resident, got)
	}
}

func TestFig9MCBShapes(t *testing.T) {
	r, err := Fig9MCB(smoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mappings) == 0 || len(r.Sizes) == 0 {
		t.Fatal("empty study")
	}
	// Per the paper: more ranks per socket ⇒ degradation at fewer CSThrs.
	p1 := r.Mappings[0]
	pN := r.Mappings[len(r.Mappings)-1]
	if pN.P <= p1.P {
		t.Fatal("mappings not ordered")
	}
	slow := func(s []float64, k int) float64 { return s[k]/s[0] - 1 }
	k := 2
	if len(p1.Storage) > k && len(pN.Storage) > k {
		if slow(pN.Storage, k) <= slow(p1.Storage, k)-0.02 {
			t.Errorf("p=%d not more capacity-sensitive than p=%d at k=%d", pN.P, p1.P, k)
		}
	}
	if len(r.Tables()) != 4 {
		t.Fatalf("tables = %d, want 4", len(r.Tables()))
	}
}

// TestAppStudyDeterministicAndMemoized runs the MCB study serially and on
// a wide pool: the results must be bit-identical, and the executor's memo
// must collapse the study's repeated cells (the size panel's 20k-particle
// p=1 sweeps duplicate the mapping panel's, and every storage/bandwidth
// sweep pair shares its k=0 baseline).
func TestAppStudyDeterministicAndMemoized(t *testing.T) {
	run := func(workers int) (StudyResult, lab.Stats) {
		ex := lab.New(lab.Config{Workers: workers})
		opt := smoke()
		opt.Exec = ex
		r, err := Fig9MCB(opt)
		if err != nil {
			t.Fatal(err)
		}
		return r, ex.Stats()
	}
	serial, serialStats := run(1)
	parallel, parallelStats := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel study diverges from serial:\n%+v\n%+v", serial, parallel)
	}
	// Memo activity must match across concurrency; the pool counters differ
	// by design (a serial executor runs inline and never spawns workers), so
	// blank them before comparing and pin them separately: the parallel
	// study's 8 sweep batches share one resident pool — one spawn generation,
	// every later batch a reuse.
	if parallelStats.WorkerSpawns != 8 || parallelStats.GroupReuses != 7 {
		t.Fatalf("parallel pool stats = %+v, want 8 spawns / 7 batch reuses", parallelStats)
	}
	if serialStats.WorkerSpawns != 0 || serialStats.GroupReuses != 0 {
		t.Fatalf("serial pool stats = %+v, want none", serialStats)
	}
	serialStats.WorkerSpawns, serialStats.GroupReuses = 0, 0
	parallelStats.WorkerSpawns, parallelStats.GroupReuses = 0, 0
	if serialStats != parallelStats {
		t.Fatalf("memo stats differ across concurrency: %+v vs %+v", serialStats, parallelStats)
	}
	// Smoke grid: mappings p∈{1,4} and sizes {20k, 260k} at p=1. Requested
	// cells: p=1 (6+3) + p=4 (5+3, storage clamped to the 4 spare cores) +
	// 20k@p=1 (6+3, all duplicates of the p=1 mapping) + 260k@p=1 (6+3) =
	// 35. Distinct: 35 − 9 (duplicated sweep pair) − 3 (shared baselines of
	// the other pairs) = 23.
	if serialStats.Computed != 23 || serialStats.Hits != 12 {
		t.Fatalf("study stats = %+v, want 23 computed / 12 hits", serialStats)
	}
}

func TestStudyCalibrationsAndProfiles(t *testing.T) {
	opt := smoke()
	capAvail, bwAvail, err := StudyCalibrations(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(capAvail) != maxStorageThreads+1 || len(bwAvail) != maxBandwidthThreads+1 {
		t.Fatalf("calibration lengths %d/%d", len(capAvail), len(bwAvail))
	}
	for k := 1; k < len(capAvail); k++ {
		if capAvail[k] >= capAvail[k-1] {
			t.Fatalf("capacity calibration not decreasing: %v", capAvail)
		}
	}
	study, err := Fig9MCB(opt)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildProfiles(opt, study, capAvail, bwAvail, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Rows) != len(study.Mappings) {
		t.Fatalf("profile rows = %d", len(prof.Rows))
	}
	for _, row := range prof.Rows {
		if row.CapHighMB < row.CapLowMB || row.BWHighGBs < row.BWLowGBs {
			t.Errorf("inverted bounds: %+v", row)
		}
	}
	// The paper's Fig. 10 trend: spread-out mappings use more bandwidth
	// per process.
	first, last := prof.Rows[0], prof.Rows[len(prof.Rows)-1]
	if first.P < last.P && first.BWHighGBs <= last.BWHighGBs {
		t.Errorf("bandwidth per process should fall as ranks pack: %+v vs %+v", first, last)
	}
	if !strings.Contains(prof.Table().String(), "x8 equiv") {
		t.Error("profile table rendering")
	}
}
