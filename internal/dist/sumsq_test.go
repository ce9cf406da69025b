package dist_test

import (
	"math"
	"testing"

	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/machine"
)

// refSumSq is Σ f*f over the materialised line masses: the form
// SumSquaredLineMass streams.
func refSumSq(d dist.Dist, elemsPerLine int64) float64 {
	sum := 0.0
	for _, f := range dist.LineMasses(d, elemsPerLine) {
		sum += f * f
	}
	return sum
}

// gridGeometries returns the element counts of the paper-grid calibration
// buffers at scale 8, with the elements per line the calibration uses.
func gridGeometries() (ns []int64, elemsPerLine int64) {
	const elemSize = 4
	spec := machine.Scaled(8)
	bufs, _ := core.DefaultCalibrationGrid(spec, 22)
	for _, b := range bufs {
		ns = append(ns, b/elemSize)
	}
	return ns, spec.LineSize() / elemSize
}

// TestSumSquaredLineMassBitIdentical pins the streaming Σ F² to the
// slice-based sum bit for bit, for every Table II pattern at every
// paper-grid buffer at scale 8 and at the extreme scale-1 buffers.
func TestSumSquaredLineMassBitIdentical(t *testing.T) {
	ns, epl := gridGeometries()
	spec1 := machine.Scaled(1)
	bufs1, _ := core.DefaultCalibrationGrid(spec1, 22)
	ns = append(ns, bufs1[0]/4, bufs1[len(bufs1)-1]/4)
	for _, n := range ns {
		for _, d := range dist.Table2(n) {
			got, want := dist.SumSquaredLineMass(d, epl), refSumSq(d, epl)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: streaming Σ F² %v (%#x), slice sum %v (%#x)",
					d.Name(), n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSumSquaredLineMassAllocFree pins the streaming sweep to zero heap
// allocations.
func TestSumSquaredLineMassAllocFree(t *testing.T) {
	for _, d := range dist.Table2(1 << 16) {
		if a := testing.AllocsPerRun(5, func() { dist.SumSquaredLineMass(d, 16) }); a != 0 {
			t.Errorf("%s: %v allocations per Σ F² sweep, want 0", d.Name(), a)
		}
	}
}

// BenchmarkSumSquaredLineMass is the per-layer view of the calibration's
// Σ F² work: one op is one sweep of all ten Table II patterns at the
// middle paper-grid buffer at scale 8.
func BenchmarkSumSquaredLineMass(b *testing.B) {
	ns, epl := gridGeometries()
	ds := dist.Table2(ns[len(ns)/2])
	b.ReportAllocs()
	for b.Loop() {
		for _, d := range ds {
			dist.SumSquaredLineMass(d, epl)
		}
	}
}

// Fuzz geometry bounds: large enough for every scale-8 grid buffer, small
// enough that one input's mass slice stays at 2 MB.
const (
	fuzzMaxN     = 1 << 22
	fuzzMaxLines = 1 << 18
)

// fuzzDist maps arbitrary fuzz arguments onto a Table II family, or
// reports false when the parameter is outside every constructor's domain.
// In-range seeds map to themselves.
func fuzzDist(n int64, pattern uint8, param float64) (dist.Dist, bool) {
	p := math.Abs(param)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return nil, false
	}
	switch pattern % 4 {
	case 0, 1:
		k := int(math.Mod(p, 1<<16))
		if k == 0 {
			return nil, false
		}
		if pattern%4 == 0 {
			return dist.NewNormal(n, k), true
		}
		return dist.NewExponential(n, k), true
	case 2:
		mode := math.Mod(p, 1)
		if mode == 0 {
			return nil, false
		}
		return dist.NewTriangular(n, mode), true
	}
	return dist.NewUniform(n), true
}

// FuzzLineMasses checks the line-mass invariants Eq. 4 relies on over
// arbitrary geometries and pattern parameters: masses are non-negative and
// sum to one, Σ F² lies in [1/lines, 1], and the streaming Σ F² equals the
// slice-based sum bit for bit.
func FuzzLineMasses(f *testing.F) {
	ns, epl := gridGeometries()
	params := []float64{4, 6, 8, 4, 6, 8, 0.4, 0.6, 0.8, 0}
	patterns := []uint8{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for _, n := range ns {
		for i := range params {
			f.Add(n, epl, patterns[i], params[i])
		}
	}
	f.Add(int64(10000), int64(16), uint8(0), 4.0) // ragged last line
	f.Add(int64(1), int64(1), uint8(1), 8.0)
	f.Add(int64(7), int64(64), uint8(2), 0.5) // one line wider than the buffer
	f.Fuzz(func(t *testing.T, n, elemsPerLine int64, pattern uint8, param float64) {
		if n < 1 || n > fuzzMaxN {
			n = 1 + int64(uint64(n)%fuzzMaxN)
		}
		if elemsPerLine < 1 || elemsPerLine > fuzzMaxN {
			elemsPerLine = 1 + int64(uint64(elemsPerLine)%fuzzMaxN)
		}
		if min := (n + fuzzMaxLines - 1) / fuzzMaxLines; elemsPerLine < min {
			elemsPerLine = min
		}
		d, ok := fuzzDist(n, pattern, param)
		if !ok {
			t.Skip("parameter outside the pattern's domain")
		}
		const massTol, sumTol = 1e-15, 1e-9
		masses := dist.LineMasses(d, elemsPerLine)
		if int64(len(masses)) != dist.NumLines(d, elemsPerLine) {
			t.Fatalf("%s n=%d epl=%d: %d masses for %d lines",
				d.Name(), n, elemsPerLine, len(masses), dist.NumLines(d, elemsPerLine))
		}
		sum, sumSq := 0.0, 0.0
		for j, m := range masses {
			if !(m >= -massTol) {
				t.Fatalf("%s n=%d epl=%d: line %d mass %v", d.Name(), n, elemsPerLine, j, m)
			}
			sum += m
			sumSq += m * m
		}
		if !(math.Abs(sum-1) <= sumTol) {
			t.Fatalf("%s n=%d epl=%d: masses sum to %v", d.Name(), n, elemsPerLine, sum)
		}
		lines := float64(len(masses))
		if !(sumSq >= 1/lines-sumTol && sumSq <= 1+sumTol) {
			t.Fatalf("%s n=%d epl=%d: Σ F² = %v outside [1/%v, 1]", d.Name(), n, elemsPerLine, sumSq, lines)
		}
		if got := dist.SumSquaredLineMass(d, elemsPerLine); math.Float64bits(got) != math.Float64bits(sumSq) {
			t.Fatalf("%s n=%d epl=%d: streaming Σ F² %v, slice sum %v", d.Name(), n, elemsPerLine, got, sumSq)
		}
	})
}
