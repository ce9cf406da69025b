package core

import (
	"fmt"
	"sync"

	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/model"
	"activemem/internal/stats"
	"activemem/internal/workload/interfere"
	"activemem/internal/workload/synthetic"
)

// CalibrationConfig drives the §III-C3 procedure: synthetic benchmarks with
// known distributions run against k CSThrs; the measured L3 miss rate is
// inverted through Eq. 4 into the effective cache capacity left to the
// benchmark.
type CalibrationConfig struct {
	MeasureConfig
	MaxThreads     int
	BufferBytes    []int64                   // benchmark buffer sizes (paper: 30..74 MB)
	Dists          []func(n int64) dist.Dist // pattern constructors (paper: Table II)
	ComputePerLoad int                       // integer adds per load (paper: 1, 10, 100)
	ElemSize       int64                     // benchmark element width (paper: 4)
	CS             interfere.CSConfig        // zero value: paper defaults
	// Exec schedules the grid's cells; nil selects a fresh executor bounded
	// at GOMAXPROCS. A shared executor memoizes cells across grids (e.g.
	// the k=0 slice of a Fig. 6 grid reuses an identical Fig. 5 grid).
	Exec *lab.Executor
}

// Validate checks the configuration.
func (c CalibrationConfig) Validate() error {
	if err := c.MeasureConfig.Validate(); err != nil {
		return err
	}
	if c.MaxThreads < 0 || c.MaxThreads >= c.Spec.CoresPerSocket {
		return fmt.Errorf("core: calibration max threads %d out of range", c.MaxThreads)
	}
	if len(c.BufferBytes) == 0 || len(c.Dists) == 0 {
		return fmt.Errorf("core: calibration needs buffer sizes and distributions")
	}
	if c.ElemSize <= 0 {
		return fmt.Errorf("core: calibration element size must be positive")
	}
	return nil
}

// DefaultCalibrationGrid fills BufferBytes and Dists with a scaled version
// of the paper's grid: nBufs buffer sizes spanning 1.5×..3.7× the machine's
// L3 (the paper's 30–74 MB against 20 MB), and the full Table II pattern
// set.
func DefaultCalibrationGrid(spec machine.Spec, nBufs int) ([]int64, []func(n int64) dist.Dist) {
	if nBufs < 2 {
		nBufs = 2
	}
	lo := spec.L3.Size * 3 / 2
	hi := spec.L3.Size * 37 / 10
	bufs := make([]int64, nBufs)
	for i := range bufs {
		b := lo + (hi-lo)*int64(i)/int64(nBufs-1)
		bufs[i] = b &^ 4095 // page-align for tidiness
	}
	return bufs, Table2Constructors()
}

// Table2Constructors returns the ten Table II distribution constructors.
func Table2Constructors() []func(n int64) dist.Dist {
	return []func(n int64) dist.Dist{
		func(n int64) dist.Dist { return dist.NewNormal(n, 4) },
		func(n int64) dist.Dist { return dist.NewNormal(n, 6) },
		func(n int64) dist.Dist { return dist.NewNormal(n, 8) },
		func(n int64) dist.Dist { return dist.NewExponential(n, 4) },
		func(n int64) dist.Dist { return dist.NewExponential(n, 6) },
		func(n int64) dist.Dist { return dist.NewExponential(n, 8) },
		func(n int64) dist.Dist { return dist.NewTriangular(n, 0.4) },
		func(n int64) dist.Dist { return dist.NewTriangular(n, 0.6) },
		func(n int64) dist.Dist { return dist.NewTriangular(n, 0.8) },
		func(n int64) dist.Dist { return dist.NewUniform(n) },
	}
}

// CapacitySample is one (buffer size, distribution) cell of the calibration
// grid at a given interference level.
type CapacitySample struct {
	BufferBytes    int64
	DistName       string
	MeasuredMiss   float64
	PredictedMiss  float64 // Eq. 4 at the full physical capacity (Fig. 5)
	EffectiveBytes float64 // Eq. 4 inverted from the measured miss (Fig. 6)
}

// CapacityPoint aggregates the grid at one interference level.
type CapacityPoint struct {
	Threads   int
	MeanBytes float64
	StdBytes  float64
	Samples   []CapacitySample
}

// CapacityCalibration is the §III-C3 result: how much effective L3 capacity
// k CSThrs leave to an application (the paper's ≈{20,15,12,7,4,3} MB for
// k = 0..5 on Xeon20MB).
type CapacityCalibration struct {
	Spec   machine.Spec
	Points []CapacityPoint // index = CSThr count
}

// AvailableBytes returns the mean effective capacity at each level, the
// lookup table the paper's §IV analysis uses.
func (c CapacityCalibration) AvailableBytes() []float64 {
	out := make([]float64, len(c.Points))
	for i, p := range c.Points {
		out[i] = p.MeanBytes
	}
	return out
}

// CalibrateCapacity runs the full calibration grid. Cells are independent
// experiments scheduled on the configured executor's bounded pool; results
// are written by index so the outcome is deterministic regardless of
// scheduling, and memoized so identical cells simulate once per executor.
//
// Eq. 4's Σ F² term depends only on the buffer and the pattern, not on the
// CSThr count, so each call keeps one table of it: the first cell of a
// (buffer, pattern) pair computes the entry on its worker, and every other
// k reuses it.
func CalibrateCapacity(cfg CalibrationConfig) (CapacityCalibration, error) {
	if err := cfg.Validate(); err != nil {
		return CapacityCalibration{}, err
	}
	ex, done := executor(cfg.Exec)
	defer done()
	cal := CapacityCalibration{Spec: cfg.Spec}
	cal.Points = make([]CapacityPoint, cfg.MaxThreads+1)
	type cell struct {
		k, bi, di int
	}
	var cells []cell
	sumSqs := make([]sumSqEntry, len(cfg.BufferBytes)*len(cfg.Dists))
	for k := 0; k <= cfg.MaxThreads; k++ {
		cal.Points[k] = CapacityPoint{
			Threads: k,
			Samples: make([]CapacitySample, len(cfg.BufferBytes)*len(cfg.Dists)),
		}
		for bi := range cfg.BufferBytes {
			for di := range cfg.Dists {
				cells = append(cells, cell{k, bi, di})
			}
		}
	}
	err := ex.RunLabeled(fmt.Sprintf("§III-C3 capacity grid c=%d, k=0..%d",
		cfg.ComputePerLoad, cfg.MaxThreads), len(cells), func(idx int) error {
		c := cells[idx]
		pair := c.bi*len(cfg.Dists) + c.di
		sample, err := cfg.runOne(ex, c.k, cfg.BufferBytes[c.bi], cfg.Dists[c.di], &sumSqs[pair])
		if err != nil {
			return err
		}
		cal.Points[c.k].Samples[pair] = sample
		return nil
	})
	if err != nil {
		return CapacityCalibration{}, err
	}
	for k := range cal.Points {
		vals := make([]float64, 0, len(cal.Points[k].Samples))
		for _, s := range cal.Points[k].Samples {
			vals = append(vals, s.EffectiveBytes)
		}
		cal.Points[k].MeanBytes, cal.Points[k].StdBytes = stats.MeanStd(vals)
	}
	return cal, nil
}

// sumSqEntry is one (buffer, pattern) pair's Σ F² term, filled once by the
// first cell of the pair that needs it.
type sumSqEntry struct {
	once sync.Once
	v    float64
}

// runOne measures one calibration cell through the executor's memo cache.
// sumSq is the cell's (buffer, pattern) entry of the Σ F² table.
func (cfg CalibrationConfig) runOne(ex *lab.Executor, k int, bufBytes int64, mk func(n int64) dist.Dist, sumSq *sumSqEntry) (CapacitySample, error) {
	d := mk(bufBytes / cfg.ElemSize)
	app := func(alloc *mem.Alloc, seed uint64) engine.Workload {
		return synthetic.New(synthetic.Config{
			Dist:           d,
			ElemSize:       cfg.ElemSize,
			ComputePerLoad: cfg.ComputePerLoad,
		}, alloc)
	}
	// The name pins the benchmark's full identity (pattern, element count,
	// width, compute intensity) so memo keys never collide across cells.
	appName := fmt.Sprintf("synthetic(%s,n=%d,elem=%d,c=%d)",
		d.Name(), d.N(), cfg.ElemSize, cfg.ComputePerLoad)
	m, err := measureMemo(ex, cfg.MeasureConfig, appName, app, Storage, k, interfere.BWConfig{}, cfg.CS)
	if err != nil {
		return CapacitySample{}, err
	}
	lineSize := cfg.Spec.LineSize()
	sumSq.once.Do(func() { sumSq.v = dist.SumSquaredLineMass(d, lineSize/cfg.ElemSize) })
	lines, err := model.InvertCapacity(m.L3MissRate, sumSq.v)
	if err != nil {
		return CapacitySample{}, err
	}
	physLines := float64(cfg.Spec.L3.Size / lineSize)
	return CapacitySample{
		BufferBytes:    bufBytes,
		DistName:       d.Name(),
		MeasuredMiss:   m.L3MissRate,
		PredictedMiss:  model.MissRate(physLines, sumSq.v),
		EffectiveBytes: lines * float64(lineSize),
	}, nil
}

// BandwidthCalibration is the §III-A result: the bandwidth consumed by k
// BWThrs and, by subtraction from the peak, the bandwidth left available
// (the paper's 17 → 14.2 → 11.4 GB/s for 0..2 threads).
type BandwidthCalibration struct {
	PeakGBs      float64
	ConsumedGBs  []float64 // per BWThr count
	AvailableGBs []float64
}

// CalibrateBandwidth measures k = 0..maxThreads BWThrs running alone on a
// socket. The per-level cells run on ex's bounded pool and are memoized by
// their full input content, so a shared executor measures the §III-A BWThr
// ladder once no matter how many sweeps, app studies or profiles consume
// it; a nil ex selects a fresh GOMAXPROCS-bounded executor.
func CalibrateBandwidth(cfg MeasureConfig, maxThreads int, bw interfere.BWConfig, ex *lab.Executor) (BandwidthCalibration, error) {
	if err := cfg.Validate(); err != nil {
		return BandwidthCalibration{}, err
	}
	if maxThreads < 0 || maxThreads >= cfg.Spec.CoresPerSocket {
		return BandwidthCalibration{}, fmt.Errorf("core: %d BWThrs exceed socket", maxThreads)
	}
	if bw == (interfere.BWConfig{}) {
		bw = interfere.DefaultBWConfig(cfg.Spec.L3.Size)
	}
	ex, done := executor(ex)
	defer done()
	cal := BandwidthCalibration{PeakGBs: cfg.Spec.PeakBandwidthGBs()}
	cal.ConsumedGBs = make([]float64, maxThreads+1)
	err := ex.RunLabeled(fmt.Sprintf("§III-A bandwidth ladder k=0..%d", maxThreads),
		maxThreads+1, func(k int) error {
			consumed, err := lab.Memo(ex,
				lab.KeyOf(cfg.Spec, cfg.Warmup, cfg.Window, cfg.Seed, "bwthr-ladder", k, bw),
				func() (float64, error) {
					return measureBWThrLadder(cfg, k, bw), nil
				})
			if err != nil {
				return err
			}
			cal.ConsumedGBs[k] = consumed
			return nil
		})
	if err != nil {
		return BandwidthCalibration{}, err
	}
	for _, consumed := range cal.ConsumedGBs {
		avail := cal.PeakGBs - consumed
		if avail < 0 {
			avail = 0
		}
		cal.AvailableGBs = append(cal.AvailableGBs, avail)
	}
	return cal, nil
}

// measureBWThrLadder simulates k BWThrs alone on a socket and returns the
// bandwidth they consume.
func measureBWThrLadder(cfg MeasureConfig, k int, bw interfere.BWConfig) float64 {
	if k == 0 {
		return 0
	}
	h := cfg.Spec.NewSocket(cfg.Seed)
	e := engine.New(h, cfg.Spec.MSHRs)
	alloc := mem.NewAlloc(cfg.Spec.LineSize())
	for i := 0; i < k; i++ {
		e.PlaceDaemon(i, interfere.NewBWThr(bw, alloc), cfg.Seed+uint64(i))
	}
	e.RunUntil(cfg.Warmup)
	h.ResetStats()
	e.RunUntil(cfg.Warmup + cfg.Window)
	return cfg.Spec.Clock.BandwidthGBs(h.Bus.Stats.Bytes, cfg.Window)
}
