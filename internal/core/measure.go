// Package core implements the paper's Active Measurement methodology — its
// primary contribution. It measures an application's use of shared-cache
// storage and memory bandwidth by running interference threads (BWThr /
// CSThr) on the spare cores of a simulated socket and observing when the
// application's performance degrades (§II), calibrates the effective
// resource reduction per interference thread (§III-A, §III-C3), derives
// per-process resource-use bounds (§IV), and predicts performance under
// hypothetical resource budgets (§I).
//
// The §III-C3 calibration inverts each measured miss rate through Eq. 4.
// Its Σ F² term is computed once per (buffer, pattern) per
// CalibrateCapacity call, in an allocation-free sweep of the pattern's CDF,
// and shared by every CSThr count of that pair.
package core

import (
	"fmt"

	"activemem/internal/engine"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
)

// Kind selects which memory resource an experiment interferes with.
type Kind int

// Interference kinds.
const (
	Storage   Kind = iota // CSThr: shared-cache capacity
	Bandwidth             // BWThr: cache↔memory bandwidth
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Storage:
		return "storage"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// WorkloadFactory builds a fresh application workload for one experiment
// run. Allocations must come from alloc so runs never share address space
// with interference threads.
type WorkloadFactory func(alloc *mem.Alloc, seed uint64) engine.Workload

// MeasureConfig carries the common experiment parameters.
type MeasureConfig struct {
	Spec   machine.Spec
	Warmup units.Cycles // cache warmup before counters reset
	Window units.Cycles // measurement window length
	Seed   uint64
}

// Validate checks the configuration.
func (c MeasureConfig) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Warmup < 0 || c.Window <= 0 {
		return fmt.Errorf("core: bad warmup/window %d/%d", c.Warmup, c.Window)
	}
	return nil
}

// Metrics summarises one measurement window of an application running with
// a given number of interference threads — the quantities the paper reads
// from hardware counters plus the simulator's ground truth.
type Metrics struct {
	Threads int // interference threads present

	Work    int64   // application work units completed in the window
	Seconds float64 // window length in seconds
	Rate    float64 // work units per second (the performance metric)

	L3MissRate float64 // application's demand L3 miss rate
	AppGBs     float64 // bandwidth consumed by the application
	InterfGBs  float64 // bandwidth consumed by the interference threads
	BusUtil    float64 // total bus utilization in the window

	InterfHeldBytes int64 // L3 bytes pinned by storage interference
}

// MeasureWithInterference runs the application on core 0 of a fresh socket
// with k interference threads of the given kind on cores 1..k, then
// measures a window after warmup. The BW/CS configurations default to the
// paper's parameters scaled to the machine when zero-valued.
func MeasureWithInterference(cfg MeasureConfig, app WorkloadFactory, kind Kind, k int,
	bw interfere.BWConfig, cs interfere.CSConfig) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	if k < 0 || k >= cfg.Spec.CoresPerSocket {
		return Metrics{}, fmt.Errorf("core: %d interference threads do not fit %d spare cores",
			k, cfg.Spec.CoresPerSocket-1)
	}
	if bw == (interfere.BWConfig{}) {
		bw = interfere.DefaultBWConfig(cfg.Spec.L3.Size)
	}
	if cs == (interfere.CSConfig{}) {
		cs = interfere.DefaultCSConfig(cfg.Spec.L3.Size)
	}

	h := cfg.Spec.NewSocket(cfg.Seed)
	e := engine.New(h, cfg.Spec.MSHRs)
	alloc := mem.NewAlloc(cfg.Spec.LineSize())

	appWl := app(alloc, cfg.Seed+1)
	e.PlaceDaemon(0, appWl, cfg.Seed+1)

	var csThreads []*interfere.CSThr
	for i := 0; i < k; i++ {
		switch kind {
		case Storage:
			t := interfere.NewCSThr(cs, alloc)
			csThreads = append(csThreads, t)
			e.PlaceDaemon(1+i, t, cfg.Seed+10+uint64(i))
		case Bandwidth:
			e.PlaceDaemon(1+i, interfere.NewBWThr(bw, alloc), cfg.Seed+10+uint64(i))
		default:
			return Metrics{}, fmt.Errorf("core: unknown interference kind %v", kind)
		}
	}

	e.RunUntil(cfg.Warmup)
	workBefore := e.Ctx(0).Work()
	h.ResetStats()
	e.RunUntil(cfg.Warmup + cfg.Window)

	clock := cfg.Spec.Clock
	m := Metrics{
		Threads: k,
		Work:    e.Ctx(0).Work() - workBefore,
		Seconds: clock.Seconds(cfg.Window),
	}
	if m.Seconds > 0 {
		m.Rate = float64(m.Work) / m.Seconds
	}
	appCtr := h.PerCore[0]
	m.L3MissRate = appCtr.L3MissRate()
	m.AppGBs = clock.BandwidthGBs(appCtr.BusBytes, cfg.Window)
	var interfBytes int64
	for i := 1; i <= k; i++ {
		interfBytes += h.PerCore[i].BusBytes
	}
	m.InterfGBs = clock.BandwidthGBs(interfBytes, cfg.Window)
	m.BusUtil = mem.Utilization(h.Bus.Stats, cfg.Window)
	for _, t := range csThreads {
		lo, hi := t.BufferRange(cfg.Spec.LineSize())
		m.InterfHeldBytes += h.L3.CountLinesIn(lo, hi) * cfg.Spec.LineSize()
	}
	return m, nil
}
