package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one striped counter from many goroutines
// while readers snapshot it, then checks the quiesced sum is exact. Run
// under -race this also proves the write path takes no lock.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_counter_total", "test")
	const writers, perWriter = 16, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Load()
				_ = r.WritePrometheus()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("counter sum = %d, want %d", got, writers*perWriter)
	}
}

// TestHistogramConcurrentAndMerge checks concurrent observers against an
// exact expected distribution, and that per-writer histograms merge into
// the same snapshot as one shared histogram.
func TestHistogramConcurrentAndMerge(t *testing.T) {
	r := NewRegistry()
	shared := r.NewHistogram("t_shared_ns", "test")
	parts := make([]*Histogram, 8)
	for i := range parts {
		parts[i] = r.NewHistogram("t_part_ns", "test", Label{Key: "w", Value: fmt.Sprintf("%02d", i)})
	}
	var wg sync.WaitGroup
	for w := 0; w < len(parts); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				ns := int64(1) << uint(i%40) // exercise 40 distinct buckets
				shared.Observe(ns)
				parts[w].Observe(ns)
			}
		}(w)
	}
	wg.Wait()

	want := shared.Snapshot()
	var merged HistSnapshot
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	if merged != want {
		t.Fatalf("merged per-writer snapshots differ from the shared histogram")
	}
	if got := want.Count(); got != 8*5000 {
		t.Fatalf("histogram count = %d, want %d", got, 8*5000)
	}
	// 2^k lands in bucket k+1 (2^k <= v < 2^(k+1) ⇒ bits.Len64 = k+1).
	for k := 0; k < 40; k++ {
		if got := want.Counts[k+1]; got != 8*5000/40 {
			t.Fatalf("bucket %d count = %d, want %d", k+1, got, 8*5000/40)
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewRegistry().NewHistogram("t_edges_ns", "test")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1)
	h.Observe(2)
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	if s.Counts[0] != 2 { // <= 0
		t.Fatalf("bucket 0 = %d, want 2", s.Counts[0])
	}
	if s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("buckets 1,2 = %d,%d, want 1,1", s.Counts[1], s.Counts[2])
	}
	if s.Counts[63] != 1 {
		t.Fatalf("bucket 63 = %d, want 1 (MaxInt64)", s.Counts[63])
	}
	if got, want := s.Count(), uint64(5); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if n := len(sortedBucketUpperNs()); n != expoHiBucket-expoLoBucket+1 {
		t.Fatalf("exposition bucket count = %d", n)
	}
}

// TestTopKExact: at cardinality <= K the tracker is exact — every label's
// count and sum are precise and the error bound is zero.
func TestTopKExact(t *testing.T) {
	tk := NewRegistry().NewTopK("t_labels_seconds", "test", 8)
	counts := map[string]int{"a": 7, "b": 3, "c": 5, "d": 1}
	for label, n := range counts {
		for i := 0; i < n; i++ {
			tk.Observe(label, 1000)
		}
	}
	tk.Observe("", 42) // dropped
	rows := tk.Snapshot()
	if len(rows) != len(counts) {
		t.Fatalf("tracked %d labels, want %d", len(rows), len(counts))
	}
	if rows[0].Label != "a" || rows[0].Count != 7 {
		t.Fatalf("top row = %+v, want a/7", rows[0])
	}
	for _, row := range rows {
		if int(row.Count) != counts[row.Label] {
			t.Errorf("label %q count = %d, want %d", row.Label, row.Count, counts[row.Label])
		}
		if row.Err != 0 {
			t.Errorf("label %q error bound = %d, want 0 at small cardinality", row.Label, row.Err)
		}
		if row.SumNs != row.Count*1000 {
			t.Errorf("label %q sum = %d, want %d", row.Label, row.SumNs, row.Count*1000)
		}
	}
}

// TestTopKBounded: with more labels than K the table stays at K entries
// and a genuinely heavy label survives the churn with its observed count
// bounded by count-err <= true <= count (the space-saving guarantee).
func TestTopKBounded(t *testing.T) {
	const k = 4
	tk := NewRegistry().NewTopK("t_bounded_seconds", "test", k)
	const heavyTrue = 500
	for i := 0; i < heavyTrue; i++ {
		tk.Observe("heavy", 10)
		if i%2 == 0 {
			tk.Observe(fmt.Sprintf("light-%d", i), 10) // 250 one-shot labels
		}
	}
	rows := tk.Snapshot()
	if len(rows) != k {
		t.Fatalf("tracked %d labels, want %d", len(rows), k)
	}
	if rows[0].Label != "heavy" {
		t.Fatalf("top label = %q, want heavy", rows[0].Label)
	}
	h := rows[0]
	if h.Count < heavyTrue || h.Count-h.Err > heavyTrue {
		t.Fatalf("heavy count=%d err=%d does not bracket true count %d", h.Count, h.Err, heavyTrue)
	}
}

// TestTopKConcurrent just proves the tracker is race-clean under
// concurrent observers and snapshotters.
func TestTopKConcurrent(t *testing.T) {
	tk := NewRegistry().NewTopK("t_conc_seconds", "test", 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tk.Observe(fmt.Sprintf("label-%d", (w+i)%32), int64(i))
				if i%100 == 0 {
					_ = tk.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if rows := tk.Snapshot(); len(rows) != 16 {
		t.Fatalf("tracked %d labels, want 16", len(rows))
	}
}

func TestRegistryReregistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("t_again_total", "test", Label{Key: "k", Value: "v"})
	b := r.NewCounter("t_again_total", "test", Label{Key: "k", Value: "v"})
	if a != b {
		t.Fatalf("identical registration returned a new instrument")
	}
	c := r.NewCounter("t_again_total", "test", Label{Key: "k", Value: "w"})
	if a == c {
		t.Fatalf("distinct label value returned the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("conflicting type registration did not panic")
		}
	}()
	r.NewGauge("t_again_total", "test")
}

// TestGoldenExposition pins the /metrics text format: family ordering,
// HELP/TYPE headers, label rendering, histogram bucket trimming and the
// top-K summary form. Any format change must update this golden
// deliberately.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_cells_total", "Cells resolved.", Label{Key: "tier", Value: "compute"})
	c.Add(3)
	r.NewCounter("demo_cells_total", "Cells resolved.", Label{Key: "tier", Value: "memo"}).Add(5)
	g := r.NewGauge("demo_queue_depth", "Tasks queued.")
	g.Set(2)
	r.NewGaugeFunc("demo_ratio", "A snapshot adapter.", func() float64 { return 0.5 })
	h := r.NewHistogram("demo_latency_seconds", "Cell latency.")
	h.Observe(100)           // below exposition range: folds into first bucket
	h.Observe(1 << 10)       // 1024ns -> bucket le 2^11
	h.Observe(2_000_000_000) // 2s -> bucket le 2^31 ≈ 2.15s
	h.Observe(1 << 40)       // above range: +Inf only
	tk := r.NewTopK("demo_label_seconds", "Per-label spans.", 4)
	tk.Observe("sweep", 1_500_000_000)
	tk.Observe("sweep", 500_000_000)
	tk.Observe("grid", 1_000_000_000)

	got := r.WritePrometheus()
	want := strings.Join([]string{
		"# HELP demo_cells_total Cells resolved.",
		"# TYPE demo_cells_total counter",
		`demo_cells_total{tier="compute"} 3`,
		`demo_cells_total{tier="memo"} 5`,
		"# HELP demo_label_seconds Per-label spans.",
		"# TYPE demo_label_seconds summary",
		`demo_label_seconds_sum{label="grid"} 1`,
		`demo_label_seconds_count{label="grid"} 1`,
		`demo_label_seconds_sum{label="sweep"} 2`,
		`demo_label_seconds_count{label="sweep"} 2`,
		"# HELP demo_latency_seconds Cell latency.",
		"# TYPE demo_latency_seconds histogram",
	}, "\n") + "\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition prefix mismatch:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, line := range []string{
		`demo_latency_seconds_bucket{le="2.56e-07"} 1`,  // 100ns folded in
		`demo_latency_seconds_bucket{le="2.048e-06"} 2`, // +1024ns
		`demo_latency_seconds_bucket{le="2.147483648"} 3`,
		`demo_latency_seconds_bucket{le="17.179869184"} 3`,
		`demo_latency_seconds_bucket{le="+Inf"} 4`,
		`demo_latency_seconds_count 4`,
		"# HELP demo_queue_depth Tasks queued.",
		"# TYPE demo_queue_depth gauge",
		"demo_queue_depth 2",
		"# HELP demo_ratio A snapshot adapter.",
		"# TYPE demo_ratio gauge",
		"demo_ratio 0.5",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q\nfull output:\n%s", line, got)
		}
	}
	// Cumulative bucket monotonicity over the whole family.
	var last uint64
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "demo_latency_seconds_bucket") {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("unparsable bucket line %q", line)
			}
			if v < last {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last = v
		}
	}
}

func TestStatusSources(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_status_total", "test").Add(7)
	r.AddStatus("lab", func() any { return map[string]int{"computed": 9} })
	st := r.Status()
	if st["lab"].(map[string]int)["computed"] != 9 {
		t.Fatalf("status source missing: %v", st)
	}
	if st["metrics"].(map[string]any)["t_status_total"].(uint64) != 7 {
		t.Fatalf("condensed metrics missing: %v", st["metrics"])
	}
}

func TestWithCellLabel(t *testing.T) {
	ran := 0
	SetCellLabels(false)
	WithCellLabel("x", func() { ran++ })
	SetCellLabels(true)
	defer SetCellLabels(false)
	WithCellLabel("x", func() { ran++ })
	WithCellLabel("", func() { ran++ })
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}
