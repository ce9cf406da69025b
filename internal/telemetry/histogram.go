package telemetry

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// The histogram's bucket layout is fixed at 2^k-nanosecond boundaries —
// the bounded-memory log-bucket design eHashPipe argues for: 65 counters
// cover every representable latency from sub-nanosecond to centuries, the
// layout is identical for every histogram ever created, and two snapshots
// merge by element-wise addition with no rebucketing error.
//
// Exposition trims the range to [expoLoBucket, expoHiBucket] (256 ns to
// ~137 s): observations below fold into the first emitted bucket and
// observations above appear only in +Inf, which keeps a scrape compact
// without losing any count. The upper bound leaves room for the remote
// tier's worst legitimate spans — a campaign degrading through retry
// backoff and breaker cooldowns can spend tens of seconds on a cell and
// should still resolve to a bucket, not vanish into +Inf. The
// full-resolution array stays available via Snapshot.
const (
	histNumBuckets = 65 // bits.Len64 range: 0..64
	expoLoBucket   = 8  // le 2^8 ns = 256ns
	expoHiBucket   = 37 // le 2^37 ns ≈ 137s
)

// Histogram is a fixed-size log-bucket latency histogram. Observe is
// lock-free and wait-free: one bits.Len64, two atomic adds.
type Histogram struct {
	ls     string
	counts [histNumBuckets]atomic.Uint64
	sumNs  atomic.Uint64
}

// NewHistogram registers a histogram with the registry.
func (r *Registry) NewHistogram(name, help string, labels ...Label) *Histogram {
	ls := renderLabels(labels)
	return r.register(name, help, "histogram", ls, func() series {
		return &Histogram{ls: ls}
	}).(*Histogram)
}

// Observe records one latency in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.counts[histBucket(ns)].Add(1)
	if ns > 0 {
		h.sumNs.Add(uint64(ns))
	}
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable with
// other snapshots of the same (universal) bucket layout.
type HistSnapshot struct {
	Counts [histNumBuckets]uint64
	SumNs  uint64
}

// Snapshot copies the histogram's counters. Under concurrent writers the
// copy is torn-but-monotonic (each counter individually exact at its read
// instant); once writers quiesce it is exact.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumNs = h.sumNs.Load()
	return s
}

// Merge adds o into s element-wise. Log-bucket layouts are universal, so
// merging is exact — the property that lets per-worker
// histograms aggregate into one distribution with no resampling error.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.SumNs += o.SumNs
}

// Count returns the total number of observations in the snapshot.
func (s HistSnapshot) Count() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

func (h *Histogram) labelString() string { return h.ls }

// writeExpo renders the Prometheus histogram lines: cumulative
// 2^k-nanosecond buckets (in seconds) over the trimmed exposition range,
// then +Inf, _sum and _count.
func (h *Histogram) writeExpo(b *strings.Builder, name string) {
	s := h.Snapshot()
	writeHistExpo(b, name, h.ls, s)
}

// writeHistExpo is shared by Histogram and the top-K tracker's summary
// rendering helpers; it renders snapshot s under name with base labels ls.
func writeHistExpo(b *strings.Builder, name, ls string, s HistSnapshot) {
	var cum uint64
	bucketLine := func(le string, v uint64) {
		b.WriteString(name)
		b.WriteString("_bucket{")
		if ls != "" {
			b.WriteString(ls)
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(v, 10))
		b.WriteByte('\n')
	}
	for i := 0; i < histNumBuckets; i++ {
		if i <= expoHiBucket {
			cum += s.Counts[i]
		}
		if i >= expoLoBucket && i <= expoHiBucket {
			bucketLine(formatFloat(math.Ldexp(1, i)/1e9), cum)
		}
	}
	bucketLine("+Inf", s.Count())
	suffix := func(sfx, val string) {
		b.WriteString(name)
		b.WriteString(sfx)
		if ls != "" {
			b.WriteByte('{')
			b.WriteString(ls)
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(val)
		b.WriteByte('\n')
	}
	suffix("_sum", formatFloat(float64(s.SumNs)/1e9))
	suffix("_count", strconv.FormatUint(s.Count(), 10))
}

func (h *Histogram) statusValue() any {
	s := h.Snapshot()
	return map[string]any{"count": s.Count(), "sum_seconds": float64(s.SumNs) / 1e9}
}

// sortedBucketUpperNs lists the exposition bucket upper bounds in
// nanoseconds (for tests that pin the exposition range).
func sortedBucketUpperNs() []float64 {
	var out []float64
	for i := expoLoBucket; i <= expoHiBucket; i++ {
		out = append(out, math.Ldexp(1, i))
	}
	sort.Float64s(out)
	return out
}
