// Package activemem reproduces "Active Measurement of Memory Resource
// Consumption" (Casas & Bronevetsky, IPDPS 2014): it measures how much
// shared-cache storage and memory bandwidth a workload actively uses by
// running calibrated interference threads (the paper's CSThr and BWThr) on
// the spare cores of a simulated multicore socket and observing when the
// workload's performance degrades.
//
// This package is the user-facing facade. The typical workflow:
//
//	m := activemem.NewScaledXeon(8)                  // or NewXeon20MB()
//	wl := activemem.PatternWorkload(activemem.PatternUniform, 8<<20, 10)
//	prof, err := activemem.MeasureProfile(m, "myapp", wl, nil)
//	...
//	slowdown := prof.PredictSlowdown(10e6, 8.0)      // 10 MB L3, 8 GB/s
//
// The heavy machinery lives in the internal packages: a deterministic
// discrete-event multicore memory-hierarchy simulator (internal/mem,
// internal/engine), the interference threads and synthetic benchmarks of
// the paper's §II-III (internal/workload/...), the Expected Hit Rate model
// of Eq. 4 (internal/model), the measurement methodology itself
// (internal/core), and the cluster-level application studies of §IV
// (internal/cluster, internal/apps/...). The cmd/validate and cmd/appstudy
// binaries regenerate every table and figure of the paper's evaluation.
//
// Every experiment campaign — sweeps, calibration grids, app studies —
// schedules its independent cells through the shared executor subsystem
// (internal/lab): a bounded worker pool with content-addressed result
// memoization, so e.g. one MeasureProfile call simulates the uninterfered
// baseline exactly once even though the storage sweep, the bandwidth sweep
// and the bounds analysis all consume it, and produces bit-identical
// results at every concurrency (MeasureOptions.Concurrency).
package activemem

import (
	"fmt"

	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/model"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
	"activemem/internal/workload/pchase"
	"activemem/internal/workload/synthetic"
)

// Machine describes a simulated platform; construct one with NewXeon20MB,
// NewScaledXeon or WithResources.
type Machine = machine.Spec

// NewXeon20MB returns the paper's measurement platform: 8-core 2.6 GHz
// sockets with a shared, inclusive 20 MB L3 and ≈16.6 GB/s of memory
// bandwidth (Table I of the paper).
func NewXeon20MB() Machine { return machine.Xeon20MB() }

// NewScaledXeon returns the platform shrunk by factor f (a power of two):
// all caches divide by f while latencies and bandwidth stay fixed.
// Interference phenomena are preserved under this scaling, and experiments
// run ~f times faster; multiply measured capacities by f for full-machine
// equivalents.
func NewScaledXeon(f int) Machine { return machine.Scaled(f) }

// WithResources returns a copy of m with the shared-cache capacity and
// memory bandwidth adjusted — the "future thin-memory machine" the paper's
// prediction methodology targets. The capacity is rounded down to the
// nearest valid cache geometry (power-of-two set count).
func WithResources(m Machine, l3Bytes int64, busGBs float64) (Machine, error) {
	if l3Bytes > 0 {
		setBytes := m.L3.LineSize * int64(m.L3.Assoc)
		sets := int64(1)
		for sets*2*setBytes <= l3Bytes {
			sets *= 2
		}
		m.L3.Size = sets * setBytes
	}
	if busGBs > 0 {
		bpc := m.Clock.BytesPerCycle(busGBs)
		cycles := int64(float64(m.L3.LineSize)/bpc + 0.5)
		if cycles < 1 {
			cycles = 1
		}
		m.Bus.CyclesPerChunk = units.Cycles(cycles)
		m.Bus.BytesPerChunk = m.L3.LineSize
	}
	m.Name = fmt.Sprintf("%s[custom %s, %.1fGB/s]", m.Name,
		units.FormatBytes(m.L3.Size), m.PeakBandwidthGBs())
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// Workload is a deterministic state machine the simulator runs on one core;
// the provided constructors cover the paper's workload families, and custom
// workloads can implement the interface directly (see internal/engine).
type Workload = engine.Workload

// WorkloadFactory builds a fresh workload instance for one experiment run.
type WorkloadFactory = core.WorkloadFactory

// Profile is the methodology's product: per-process resource-use bounds and
// sensitivity curves, with PredictSlowdown for what-if machines.
type Profile = core.Profile

// Sweep holds the per-interference-level measurements behind a profile.
type Sweep = core.Sweep

// Pattern selects a Table II access distribution for PatternWorkload.
type Pattern int

// Access patterns (paper Table II).
const (
	PatternUniform Pattern = iota
	PatternNormal4
	PatternNormal6
	PatternNormal8
	PatternExponential4
	PatternExponential6
	PatternExponential8
	PatternTriangular1
	PatternTriangular2
	PatternTriangular3
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	names := []string{"Uni", "Norm 4", "Norm 6", "Norm 8", "Exp 4", "Exp 6",
		"Exp 8", "Tri 1", "Tri 2", "Tri 3"}
	if int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// distFor builds the distribution over n elements.
func (p Pattern) distFor(n int64) dist.Dist {
	switch p {
	case PatternNormal4:
		return dist.NewNormal(n, 4)
	case PatternNormal6:
		return dist.NewNormal(n, 6)
	case PatternNormal8:
		return dist.NewNormal(n, 8)
	case PatternExponential4:
		return dist.NewExponential(n, 4)
	case PatternExponential6:
		return dist.NewExponential(n, 6)
	case PatternExponential8:
		return dist.NewExponential(n, 8)
	case PatternTriangular1:
		return dist.NewTriangular(n, 0.4)
	case PatternTriangular2:
		return dist.NewTriangular(n, 0.6)
	case PatternTriangular3:
		return dist.NewTriangular(n, 0.8)
	default:
		return dist.NewUniform(n)
	}
}

// PatternWorkload returns the paper's Fig. 4 probabilistic benchmark: each
// iteration samples a 4-byte element index of a bufBytes buffer from the
// pattern and performs computePerLoad integer additions.
func PatternWorkload(p Pattern, bufBytes int64, computePerLoad int) WorkloadFactory {
	return func(alloc *mem.Alloc, seed uint64) engine.Workload {
		return synthetic.New(synthetic.Config{
			Dist:           p.distFor(bufBytes / 4),
			ElemSize:       4,
			ComputePerLoad: computePerLoad,
		}, alloc)
	}
}

// PointerChaseWorkload returns a dependent-load latency probe over bufBytes.
func PointerChaseWorkload(bufBytes int64) WorkloadFactory {
	return func(alloc *mem.Alloc, seed uint64) engine.Workload {
		return pchase.New(pchase.Config{BufBytes: bufBytes, LineSize: 64, Seed: seed}, alloc)
	}
}

// MeasureOptions tunes MeasureProfile; the zero value (or nil pointer)
// selects sensible defaults.
type MeasureOptions struct {
	// MaxStorageThreads / MaxBandwidthThreads bound the interference sweeps
	// (paper limits: 5 CSThrs, 2 BWThrs — more bandwidth interference would
	// bleed into storage, §III-D). Zero selects the limits.
	MaxStorageThreads   int
	MaxBandwidthThreads int
	// Threshold is the slowdown fraction defining the degradation knee
	// (default 0.05).
	Threshold float64
	// Seed drives all stochastic components (default 1).
	Seed uint64
	// Processes divides the derived bounds (default 1).
	Processes int
	// Concurrency bounds how many experiment cells run at once: 0 selects
	// GOMAXPROCS, 1 runs serially. The measured profile is bit-identical
	// at every setting.
	Concurrency int
	// Progress, when non-nil, is called as cells of each experiment batch
	// complete (with the batch's label, the number done and the batch
	// size).
	Progress func(label string, done, total int)
	// CacheDir, when non-empty, backs the measurement with the persistent
	// content-addressed result store in that directory: finished cells are
	// written through, and cells already present — from an interrupted
	// earlier call, another process, or an imported bundle — are served
	// from disk without simulating, bit-identical to a cold run. Several
	// concurrent measurements (and the cmd/* CLIs) may share one
	// directory.
	CacheDir string
}

func (o *MeasureOptions) defaults() MeasureOptions {
	v := MeasureOptions{MaxStorageThreads: 5, MaxBandwidthThreads: 2,
		Threshold: 0.05, Seed: 1, Processes: 1}
	if o == nil {
		return v
	}
	out := *o
	if out.MaxStorageThreads == 0 {
		out.MaxStorageThreads = v.MaxStorageThreads
	}
	if out.MaxBandwidthThreads == 0 {
		out.MaxBandwidthThreads = v.MaxBandwidthThreads
	}
	if out.Threshold == 0 {
		out.Threshold = v.Threshold
	}
	if out.Seed == 0 {
		out.Seed = v.Seed
	}
	if out.Processes == 0 {
		out.Processes = v.Processes
	}
	return out
}

// measureWindows picks warmup/window cycles proportional to the machine's
// L3 size (steady state requires the cache population to turn over a few
// times): 30M/12M cycles at 2.5 MB, 240M/96M at the full 20 MB.
func measureWindows(m Machine) (warmup, window units.Cycles) {
	factor := units.Cycles(m.L3.Size / (20 * units.MB / 8))
	if factor < 1 {
		factor = 1
	}
	return 30_000_000 * factor, 12_000_000 * factor
}

// MeasureProfile runs the full Active Measurement workflow on one socket of
// m: a storage-interference sweep, a bandwidth-interference sweep, the
// §III-A and §III-C3 calibrations, and the §IV bounds analysis. All
// experiment cells run on one bounded executor whose memo cache
// deduplicates the shared uninterfered baseline across the sweeps.
func MeasureProfile(m Machine, name string, app WorkloadFactory, opts *MeasureOptions) (Profile, error) {
	o := opts.defaults()
	// No hot set: the executor's memo already serves every repeated key.
	cache, err := lab.OpenCacheSized(o.CacheDir, 0)
	if err != nil {
		return Profile{}, err
	}
	if cache != nil {
		defer cache.Close()
	}
	ex := lab.New(lab.Config{Workers: o.Concurrency, Progress: o.Progress, Cache: cache})
	defer ex.Close()
	warmup, window := measureWindows(m)
	cfg := core.MeasureConfig{Spec: m, Warmup: warmup, Window: window, Seed: o.Seed}

	storage, err := core.RunSweep(core.SweepConfig{
		MeasureConfig: cfg, Kind: core.Storage,
		MaxThreads: o.MaxStorageThreads, Exec: ex,
	}, name, app)
	if err != nil {
		return Profile{}, err
	}
	bandwidth, err := core.RunSweep(core.SweepConfig{
		MeasureConfig: cfg, Kind: core.Bandwidth,
		MaxThreads: o.MaxBandwidthThreads, Exec: ex,
	}, name, app)
	if err != nil {
		return Profile{}, err
	}

	bufs, _ := core.DefaultCalibrationGrid(m, 2)
	capCal, err := core.CalibrateCapacity(core.CalibrationConfig{
		MeasureConfig: cfg, MaxThreads: o.MaxStorageThreads,
		BufferBytes: bufs,
		Dists: []func(int64) dist.Dist{
			func(n int64) dist.Dist { return dist.NewUniform(n) },
		},
		ComputePerLoad: 1, ElemSize: 4, Exec: ex,
	})
	if err != nil {
		return Profile{}, err
	}
	bwCal, err := core.CalibrateBandwidth(core.MeasureConfig{
		Spec: m, Warmup: 2_000_000, Window: 6_000_000, Seed: o.Seed,
	}, o.MaxBandwidthThreads, interfere.BWConfig{}, ex)
	if err != nil {
		return Profile{}, err
	}
	return core.BuildProfile(name, o.Processes, o.Threshold,
		storage, capCal.AvailableBytes(), bandwidth, bwCal.AvailableGBs)
}

// BaselineRate measures the workload's uninterfered work rate (work units
// per second) on one socket of m. Comparing baseline rates across machines
// is how prediction cross-checks validate PredictSlowdown: something the
// paper could only do by buying the other machine.
func BaselineRate(m Machine, app WorkloadFactory, seed uint64) (float64, error) {
	if seed == 0 {
		seed = 1
	}
	warmup, window := measureWindows(m)
	metrics, err := core.MeasureWithInterference(
		core.MeasureConfig{Spec: m, Warmup: warmup, Window: window, Seed: seed},
		app, core.Storage, 0, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		return 0, err
	}
	return metrics.Rate, nil
}

// ModelCheck runs the paper's Fig. 5 validation for one configuration: it
// returns Eq. 4's predicted L3 miss rate for the pattern and buffer on m,
// and the miss rate the simulator actually measures with no interference.
func ModelCheck(m Machine, p Pattern, bufBytes int64, seed uint64) (predicted, measured float64, err error) {
	if seed == 0 {
		seed = 1
	}
	d := p.distFor(bufBytes / 4)
	warmup, window := measureWindows(m)
	metrics, err := core.MeasureWithInterference(
		core.MeasureConfig{Spec: m, Warmup: warmup, Window: window, Seed: seed},
		func(alloc *mem.Alloc, _ uint64) engine.Workload {
			return synthetic.New(synthetic.Config{Dist: d, ElemSize: 4, ComputePerLoad: 1}, alloc)
		},
		core.Storage, 0, interfere.BWConfig{}, interfere.CSConfig{})
	if err != nil {
		return 0, 0, err
	}
	sumSq := dist.SumSquaredLineMass(d, m.LineSize()/4)
	predicted = model.MissRate(float64(m.L3.Size/m.LineSize()), sumSq)
	return predicted, metrics.L3MissRate, nil
}
