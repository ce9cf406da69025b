package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCandidates are the percentiles the tail rule chooses from, in units
// of 1/1000 of a percent so the rank arithmetic stays integral.
var tailCandidates = []int64{50_000, 90_000, 99_000, 99_900, 99_990, 99_999}

// tailRank applies the tail rule to n samples: the highest candidate
// percentile with at least ten samples beyond it. It returns the chosen
// percentile (in percent) and its nearest rank (1-based), or ok=false when
// even the median has fewer than ten samples beyond it.
func tailRank(n int64) (pct float64, rank int64, ok bool) {
	for i := len(tailCandidates) - 1; i >= 0; i-- {
		p := tailCandidates[i]
		r := (n*p + 100_000 - 1) / 100_000 // ceil(n·p/100%)
		if r < 1 {
			r = 1
		}
		if n-r >= 10 {
			return float64(p) / 1000, r, true
		}
	}
	return 0, 0, false
}

// quantile is a summary percentile: its value, the percentile it was taken
// at, and the number of samples it summarises.
type quantile struct {
	Value float64
	Pct   float64
	N     int64
}

// sampleTail applies the tail rule to exact samples (nearest rank).
func sampleTail(xs []float64) quantile {
	q := quantile{N: int64(len(xs))}
	pct, rank, ok := tailRank(q.N)
	if !ok {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q.Value, q.Pct = s[rank-1], pct
	return q
}

// hist is a latency histogram in the program's log2 layout: Counts[i]
// holds observations in [Lo[i], Hi[i]) seconds.
type hist struct {
	Lo, Hi, Counts []float64
	Sum            float64
}

func (h hist) count() int64 {
	var n float64
	for _, c := range h.Counts {
		n += c
	}
	return int64(n)
}

// at returns the value at nearest rank r (1-based), interpolating
// linearly inside the bucket that holds it.
func (h hist) at(r int64) float64 {
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= float64(r) {
			frac := (float64(r) - cum) / c
			hi := h.Hi[i]
			if math.IsInf(hi, 1) {
				return h.Lo[i]
			}
			return h.Lo[i] + frac*(hi-h.Lo[i])
		}
		cum += c
	}
	return 0
}

// p50 returns the histogram's median.
func (h hist) p50() quantile {
	n := h.count()
	if n == 0 {
		return quantile{}
	}
	return quantile{Value: h.at((n + 1) / 2), Pct: 50, N: n}
}

// tail applies the tail rule to the histogram.
func (h hist) tail() quantile {
	n := h.count()
	pct, rank, ok := tailRank(n)
	if !ok {
		return quantile{N: n}
	}
	return quantile{Value: h.at(rank), Pct: pct, N: n}
}
