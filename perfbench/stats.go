package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail estimate resting on fewer is noise.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles cuts xs into n intervals of equal probability and returns the
// n-1 cut points, interpolated exactly as Python's
// statistics.quantiles(xs, n=n) does with its default 'exclusive' method.
// It needs at least two samples.
func quantiles(xs []float64, n int) []float64 {
	if len(xs) < 2 || n < 1 {
		return nil
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out
}

// tailPercentile returns the nearest-rank q-quantile of xs (0 < q < 1)
// and whether at least minTail samples lie beyond it. Callers omit a
// percentile that is not supported rather than report it.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], n-rank >= minTail
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tally counts attempted frames and failures by reason. A frame fails
// once, under its first reason, however many checks it misses.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

// add records one attempted frame; reason "" means it passed every check.
func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[reason]++
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for r, n := range o.reasons {
		if t.reasons == nil {
			t.reasons = make(map[string]int)
		}
		t.reasons[r] += n
	}
}

// errorRate is failed over attempted, 0 when nothing was attempted.
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
