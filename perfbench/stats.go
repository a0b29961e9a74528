package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPermille lists the tail percentiles a report may carry, in tenths
// of a percent, highest first.
var tailPermille = []int{999, 990, 900}

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported.
const minBeyond = 10

// tail returns the highest percentile in tailPermille with at least
// minBeyond samples beyond it, as a percentage, and its value. ok is false
// when xs is too small for any of them.
func tail(xs []float64) (pct, v float64, ok bool) {
	for _, pm := range tailPermille {
		if len(xs)*(1000-pm)/1000 >= minBeyond {
			return float64(pm) / 10, quantile(xs, float64(pm)/1000), true
		}
	}
	return 0, 0, false
}

// ratio is a share reported with its base.
type ratio struct{ num, base int64 }

// value returns num/base, or 0 for an empty base.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return float64(r.num) / float64(r.base)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%d/%d)", r.value(), r.num, r.base)
}

// summary renders a sample set as its count, median and quartiles, plus
// the tail percentile when the set is large enough for one.
func summary(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4g q1=%.4g q3=%.4g", len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	if pct, v, ok := tail(xs); ok {
		s += fmt.Sprintf(" p%g=%.4g", pct, v)
	}
	return s
}
