package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile. With fewer, the percentile is an extrapolation from a
// handful of outliers, so the rule steps down to the highest
// percentile the sample count supports.
const tailBeyond = 10

// tailPercentile returns the percentile actually reported when want is
// asked of n samples: want itself, or the highest percentile with at
// least tailBeyond samples beyond it. ok is false when no percentile
// qualifies (n <= tailBeyond).
func tailPercentile(want float64, n int) (p float64, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	return math.Min(want, 1-float64(tailBeyond)/float64(n)), true
}

// quantile returns the sample at rank floor(p*(n-1)) of the sorted
// values: the nearest rank at or below p, never an interpolation, so
// a reported tail is a latency some request really saw.
func quantile(sorted []float64, p float64) float64 {
	return sorted[int(p*float64(len(sorted)-1))]
}

// median returns the middle of the values (mean of the two middles for
// an even count). It does not modify vs.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of the values.
func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// dist is a latency sample set reported as p50 plus a rule-checked
// tail.
type dist struct {
	vals []float64
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

func (d *dist) addDur(v time.Duration, unit time.Duration) {
	d.add(float64(v) / float64(unit))
}

// tail returns the value and percentile reported for want, or an
// error naming the sample count when too few samples were taken.
func (d *dist) tail(want float64) (v, p float64, err error) {
	p, ok := tailPercentile(want, len(d.vals))
	if !ok {
		return 0, 0, fmt.Errorf("%d samples cannot support any tail percentile (need > %d)", len(d.vals), tailBeyond)
	}
	return quantile(sortedCopy(d.vals), p), p, nil
}
