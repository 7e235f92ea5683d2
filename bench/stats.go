package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by the nearest-rank rule: the smallest element with at least p% of
// the sample at or below it. An empty sample has percentile 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
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

// quartiles returns the first and third quartile of xs, computed the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spreads printed by -selfcheck are the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// worsening is the share of base by which cur is worse: positive when a
// lower-is-better metric rose or a higher-is-better metric fell.
func worsening(base, cur float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// withinBound reports whether cur counts as unchanged against base: it is
// not worse by more than bound (a share of base).
func withinBound(base, cur, bound float64, higherIsBetter bool) bool {
	return worsening(base, cur, higherIsBetter) <= bound
}

// medianOfRounds reduces one value per round to the run's value. A burst of
// interference shorter than half the run moves fewer than half the rounds
// and so cannot move the result.
func medianOfRounds(rounds []roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i := range rounds {
		xs[i] = f(&rounds[i])
	}
	return median(xs)
}

// micros converts durations to ascending microsecond values.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}
