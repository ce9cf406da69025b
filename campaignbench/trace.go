package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one harness span: a named interval around a call into one layer.
// Parent is the enclosing span's ID (-1 for a campaign's root span) and
// Campaign the campaign it belongs to (-1 for set-up).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Campaign int    `json:"campaign"`
}

// tracer keeps spans in memory for the traced run; a disabled tracer
// records nothing, so the timed runs pay one branch per span.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(v bool) { t.on.Store(v) }

func (t *tracer) enabled() bool { return t.on.Load() }

// begin opens a span and returns its ID, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, campaign int) int {
	if !t.enabled() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: now, Parent: parent, Campaign: campaign})
	return id
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfSeconds returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfSeconds(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return out
}

// spanSelfPerCampaign returns, for each span name, the median over
// campaigns of the summed self time of that name's spans.
func spanSelfPerCampaign(spans []span, campaigns []int) map[string]float64 {
	self := selfSeconds(spans)
	per := map[string]map[int]float64{}
	for i, s := range spans {
		if s.Campaign < 0 {
			continue
		}
		if per[s.Name] == nil {
			per[s.Name] = map[int]float64{}
		}
		per[s.Name][s.Campaign] += self[i]
	}
	out := map[string]float64{}
	for name, byC := range per {
		vals := make([]float64, 0, len(campaigns))
		for _, c := range campaigns {
			vals = append(vals, byC[c])
		}
		out[name] = median(vals)
	}
	return out
}

// sample is one line of the Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition reads the registry's Prometheus text. The registry
// renders label values without commas or braces, which this parser relies
// on.
func parseExposition(text string) (expo, error) {
	var out expo
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %v", line, err)
		}
		s := sample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for _, kv := range strings.Split(body, ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("exposition line %q: bad label", line)
				}
				s.labels[k] = strings.Trim(val, `"`)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// expo is a parsed exposition snapshot.
type expo []sample

// counter sums every series of a counter family.
func (e expo) counter(name string) float64 {
	var t float64
	for _, s := range e {
		if s.name == name {
			t += s.value
		}
	}
	return t
}

// hist merges every series of a histogram family whose labels include
// want. Buckets are the exposition's cumulative 2^k-nanosecond bounds; the
// first bucket starts at zero and the last runs to +Inf.
func (e expo) hist(name string, want map[string]string) hist {
	cum := map[float64]float64{}
	var h hist
	for _, s := range e {
		if !labelsMatch(s.labels, want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le := math.Inf(1)
			if s.labels["le"] != "+Inf" {
				v, err := strconv.ParseFloat(s.labels["le"], 64)
				if err != nil {
					continue
				}
				le = v
			}
			cum[le] += s.value
		case name + "_sum":
			h.Sum += s.value
		}
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	prevLe, prevCum := 0.0, 0.0
	for _, le := range les {
		h.Lo = append(h.Lo, prevLe)
		h.Hi = append(h.Hi, le)
		h.Counts = append(h.Counts, cum[le]-prevCum)
		prevLe, prevCum = le, cum[le]
	}
	return h
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// delta returns after − before bucket by bucket: the observations made
// between two snapshots of one process-wide histogram.
func histDelta(after, before hist) hist {
	d := hist{Lo: after.Lo, Hi: after.Hi, Counts: make([]float64, len(after.Counts)), Sum: after.Sum - before.Sum}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}
