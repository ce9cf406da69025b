// Package dist implements the access-index distributions of the paper's
// Table II: the probabilistic synthetic benchmarks sample a buffer element
// index from one of these on every iteration, and the Expected Hit Rate
// model (internal/model, Eq. 4) consumes their per-cache-line access masses.
//
// Each distribution is defined by an exact CDF over element indices and a
// sampling procedure that realises precisely that CDF through the
// deterministic xrand generator. Line masses are therefore analytic (CDF
// differences at line boundaries), not estimated, which is what lets the
// model tests compare the simulator against Eq. 4 with tight tolerances.
//
// Eq. 4 needs only Σ_j F(j)², which depends on the buffer and the pattern
// alone. SumSquaredLineMass computes it in one CDF sweep without
// allocating, and core.CalibrateCapacity evaluates it once per (buffer,
// pattern) per calibration, not once per cell.
package dist

import (
	"fmt"
	"math"

	"activemem/internal/xrand"
)

// Dist is a probability distribution over buffer element indices [0, N).
type Dist interface {
	// N is the number of elements the distribution ranges over.
	N() int64
	// Name is the paper's Table II label (e.g. "Norm 4", "Uni").
	Name() string
	// Sample draws one element index from the distribution using r.
	Sample(r *xrand.Rand) int64
	// StdDev is the distribution's standard deviation in elements — the
	// moment of the distribution Sample actually draws from (i.e. the
	// truncated moment for Normal/Exponential, not the nominal
	// parameter), used in reports.
	StdDev() float64
	// CDF returns the probability that a sampled index is below x, for
	// 0 <= x <= N. It is exact for the same process Sample implements.
	CDF(x int64) float64
}

// NumLines returns the number of cache lines a buffer of d.N() elements
// occupies at elemsPerLine elements per line: ceil(N / elemsPerLine).
func NumLines(d Dist, elemsPerLine int64) int64 {
	if elemsPerLine <= 0 {
		panic("dist: non-positive elements per line")
	}
	return (d.N() + elemsPerLine - 1) / elemsPerLine
}

// LineMasses returns F(j), the probability that one access falls in cache
// line j, for every line of the buffer. This is the f vector of the EHR
// model (§III-C1).
func LineMasses(d Dist, elemsPerLine int64) []float64 {
	lines := NumLines(d, elemsPerLine)
	n := d.N()
	out := make([]float64, lines)
	prev := 0.0
	for j := int64(0); j < lines; j++ {
		end := (j + 1) * elemsPerLine
		if end > n {
			end = n
		}
		c := d.CDF(end)
		out[j] = c - prev
		prev = c
	}
	return out
}

// SumSquaredLineMass returns the Σ_j F(j)² term of Eq. 4 for the
// distribution at the given line geometry. It streams the line masses in
// LineMasses' order with the same float operations, so the result is
// bit-identical to summing f*f over LineMasses, and it allocates nothing.
func SumSquaredLineMass(d Dist, elemsPerLine int64) float64 {
	lines := NumLines(d, elemsPerLine)
	n := d.N()
	sum, prev := 0.0, 0.0
	for j := int64(0); j < lines; j++ {
		end := (j + 1) * elemsPerLine
		if end > n {
			end = n
		}
		c := d.CDF(end)
		f := c - prev
		sum += f * f
		prev = c
	}
	return sum
}

// Table2 returns the paper's ten Table II distributions over n elements, in
// the paper's order: Normal 4/6/8, Exponential 4/6/8, Triangular 1/2/3,
// Uniform.
func Table2(n int64) []Dist {
	return []Dist{
		NewNormal(n, 4), NewNormal(n, 6), NewNormal(n, 8),
		NewExponential(n, 4), NewExponential(n, 6), NewExponential(n, 8),
		NewTriangular(n, 0.4), NewTriangular(n, 0.6), NewTriangular(n, 0.8),
		NewUniform(n),
	}
}

func checkN(n int64) {
	if n <= 0 {
		panic("dist: non-positive element count")
	}
}

// Uniform is the equal-mass distribution over [0, N).
type Uniform struct {
	n int64
}

// NewUniform returns the uniform distribution over n elements.
func NewUniform(n int64) Uniform {
	checkN(n)
	return Uniform{n: n}
}

// N implements Dist.
func (d Uniform) N() int64 { return d.n }

// Name implements Dist.
func (d Uniform) Name() string { return "Uni" }

// StdDev implements Dist: n/√12.
func (d Uniform) StdDev() float64 { return float64(d.n) / math.Sqrt(12) }

// Sample implements Dist.
func (d Uniform) Sample(r *xrand.Rand) int64 { return int64(r.Intn(int(d.n))) }

// CDF implements Dist.
func (d Uniform) CDF(x int64) float64 { return float64(x) / float64(d.n) }

// Normal is a normal distribution centred on the buffer middle with
// σ = N/Div, truncated to [0, N) by rejection — the paper's "Norm 4/6/8".
type Normal struct {
	n        int64
	div      int
	mu       float64
	sigma    float64
	lo, span float64 // Φ at the truncation bounds
}

// NewNormal returns the truncated normal with σ = n/div.
func NewNormal(n int64, div int) Normal {
	checkN(n)
	if div <= 0 {
		panic("dist: non-positive normal divisor")
	}
	mu := float64(n) / 2
	sigma := float64(n) / float64(div)
	lo := stdPhi((0 - mu) / sigma)
	hi := stdPhi((float64(n) - mu) / sigma)
	return Normal{n: n, div: div, mu: mu, sigma: sigma, lo: lo, span: hi - lo}
}

// stdPhi is the standard normal CDF.
func stdPhi(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

// stdPdf is the standard normal density.
func stdPdf(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

// N implements Dist.
func (d Normal) N() int64 { return d.n }

// Name implements Dist.
func (d Normal) Name() string { return fmt.Sprintf("Norm %d", d.div) }

// StdDev implements Dist: the standard deviation of the truncated normal
// (the distribution Sample realises), from the standard two-sided
// truncation formula
//
//	Var = σ²·[1 + (α·φ(α) − β·φ(β))/Z − ((φ(α) − φ(β))/Z)²]
//
// with α, β the standardised truncation bounds and Z = Φ(β) − Φ(α). For a
// narrow σ it approaches the nominal N/Div; for the wide Table II settings
// the truncation to [0, N) tightens it noticeably.
func (d Normal) StdDev() float64 {
	alpha := (0 - d.mu) / d.sigma
	beta := (float64(d.n) - d.mu) / d.sigma
	phiA, phiB := stdPdf(alpha), stdPdf(beta)
	m := (phiA - phiB) / d.span
	v := 1 + (alpha*phiA-beta*phiB)/d.span - m*m
	return d.sigma * math.Sqrt(v)
}

// Sample implements Dist by rejection against the truncation bounds.
func (d Normal) Sample(r *xrand.Rand) int64 {
	for {
		x := r.NormFloat64()*d.sigma + d.mu
		if x >= 0 && x < float64(d.n) {
			return int64(x)
		}
	}
}

// CDF implements Dist: the truncated normal CDF.
func (d Normal) CDF(x int64) float64 {
	return (stdPhi((float64(x)-d.mu)/d.sigma) - d.lo) / d.span
}

// Exponential decays from index 0 with mean N/Rate, truncated to [0, N) by
// rejection — the paper's "Exp 4/6/8".
type Exponential struct {
	n      int64
	rate   int
	lambda float64
	norm   float64 // 1 - e^{-λN}, the truncation mass
}

// NewExponential returns the truncated exponential with mean n/rate.
func NewExponential(n int64, rate int) Exponential {
	checkN(n)
	if rate <= 0 {
		panic("dist: non-positive exponential rate")
	}
	lambda := float64(rate) / float64(n)
	return Exponential{n: n, rate: rate, lambda: lambda,
		norm: 1 - math.Exp(-lambda*float64(n))}
}

// N implements Dist.
func (d Exponential) N() int64 { return d.n }

// Name implements Dist.
func (d Exponential) Name() string { return fmt.Sprintf("Exp %d", d.rate) }

// StdDev implements Dist: the standard deviation of the exponential
// truncated to [0, N) (the distribution Sample realises), from the exact
// truncated moments
//
//	E[X]  = 1/λ − N·e^{−λN}/Z
//	E[X²] = 2/λ² − (N² + 2N/λ)·e^{−λN}/Z
//
// with Z = 1 − e^{−λN}. The nominal 1/λ overstates the spread because the
// tail beyond N is rejected.
func (d Exponential) StdDev() float64 {
	t := float64(d.n)
	tail := math.Exp(-d.lambda * t)
	mean := 1/d.lambda - t*tail/d.norm
	m2 := 2/(d.lambda*d.lambda) - (t*t+2*t/d.lambda)*tail/d.norm
	return math.Sqrt(m2 - mean*mean)
}

// Sample implements Dist by rejection against the truncation bound.
func (d Exponential) Sample(r *xrand.Rand) int64 {
	for {
		x := r.ExpFloat64() / d.lambda
		if x < float64(d.n) {
			return int64(x)
		}
	}
}

// CDF implements Dist: the truncated exponential CDF.
func (d Exponential) CDF(x int64) float64 {
	return (1 - math.Exp(-d.lambda*float64(x))) / d.norm
}

// Triangular rises linearly from index 0 to a peak at Mode·N and falls
// linearly back to N — the paper's "Tri 1/2/3" (modes 0.4, 0.6, 0.8).
type Triangular struct {
	n    int64
	mode float64
}

// NewTriangular returns the triangular distribution peaked at mode·n, for
// mode strictly inside (0, 1).
func NewTriangular(n int64, mode float64) Triangular {
	checkN(n)
	if mode <= 0 || mode >= 1 {
		panic("dist: triangular mode must lie in (0, 1)")
	}
	return Triangular{n: n, mode: mode}
}

// N implements Dist.
func (d Triangular) N() int64 { return d.n }

// Name implements Dist.
func (d Triangular) Name() string {
	switch d.mode {
	case 0.4:
		return "Tri 1"
	case 0.6:
		return "Tri 2"
	case 0.8:
		return "Tri 3"
	}
	return fmt.Sprintf("Tri %g", d.mode)
}

// StdDev implements Dist: N·√((1 − c + c²)/18) for mode fraction c.
func (d Triangular) StdDev() float64 {
	c := d.mode
	return float64(d.n) * math.Sqrt((1-c+c*c)/18)
}

// Sample implements Dist by exact inverse-transform sampling.
func (d Triangular) Sample(r *xrand.Rand) int64 {
	u := r.Float64()
	var t float64
	if u < d.mode {
		t = math.Sqrt(u * d.mode)
	} else {
		t = 1 - math.Sqrt((1-u)*(1-d.mode))
	}
	i := int64(t * float64(d.n))
	if i >= d.n { // guard the t→1 floating-point edge
		i = d.n - 1
	}
	return i
}

// CDF implements Dist: the piecewise-quadratic triangular CDF.
func (d Triangular) CDF(x int64) float64 {
	t := float64(x) / float64(d.n)
	if t <= d.mode {
		return t * t / d.mode
	}
	return 1 - (1-t)*(1-t)/(1-d.mode)
}
