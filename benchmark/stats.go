package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by nearest rank,
// 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// bestDecile returns the value a tenth of the way from the best of vs to the
// worst (interpolated between the two rounds it falls between), 0 for an
// empty slice. It is what a run's rounds come to for every time.
//
// A median would do if rounds were disturbed at random. They are not: on a
// shared host a neighbour slows the machine for seconds at a stretch, always
// in one direction, and a median then reads "slow" or "fast" according to
// whether more or less than half of the run was disturbed. The rounds the
// neighbour left alone agree with each other, and those are the best ones.
// The tenth of the way in keeps one freak round from being the result. A
// change that makes the program slower makes its undisturbed rounds slower,
// so nothing is hidden, but the value is the program's time on a quiet
// machine, not its average time on this one.
func bestDecile(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if higher {
		slices.Reverse(s)
	}
	k := 0.1 * float64(len(s)-1)
	lo := int(k)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

// us converts nanoseconds to microseconds, keeping the fraction.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// tailPool pools the slowest samples of several rounds so that a percentile
// near the tail can be taken over all of them without keeping every sample.
type tailPool struct {
	total int     // samples seen over all rounds
	tail  []int64 // the slowest samples of each round
}

// add pools one round of n samples, of which slowest are the largest: enough
// of them (see measure) that a hundredth of all samples always lies within
// what is kept.
func (t *tailPool) add(n int, slowest []int64) {
	t.total += n
	t.tail = append(t.tail, slowest...)
}

// p99 returns the pooled 99th percentile and how many samples lie beyond it.
func (t *tailPool) p99() (v int64, beyond int) {
	if len(t.tail) == 0 {
		return 0, 0
	}
	slices.Sort(t.tail)
	beyond = min(t.total/100, len(t.tail)-1)
	return t.tail[len(t.tail)-1-beyond], beyond
}

// max returns the slowest sample of all rounds.
func (t *tailPool) max() int64 {
	if len(t.tail) == 0 {
		return 0
	}
	return slices.Max(t.tail)
}
