package main

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is log-linear: values below histSub nanoseconds
// get one bucket each, and every power-of-two octave above is split into
// histSub equal sub-buckets. A bucket is never wider than 1/histSub of the
// values it holds, so a quantile read from it is within 0.8% of the exact
// sorted quantile.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = histSub + (63-histSubBits)*histSub
)

// hist counts nanosecond durations; record is safe for concurrent use.
type hist struct {
	counts [histBuckets]atomic.Int64
}

func bucketOf(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	g := bits.Len64(uint64(ns)) - 1 - histSubBits
	return histSub + g*histSub + int(ns>>g) - histSub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	g := (i - histSub) / histSub
	sub := (i - histSub) % histSub
	l := float64(histSub+sub) * math.Ldexp(1, g)
	return l, l + math.Ldexp(1, g)
}

func (h *hist) record(d time.Duration) { h.counts[bucketOf(int64(d))].Add(1) }

func (h *hist) count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// add folds o's counts into h.
func (h *hist) add(o *hist) {
	for i := range h.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram), interpolated within the bucket that holds the nearest-rank
// sample.
func (h *hist) quantile(q float64) float64 {
	counts := make([]float64, histBuckets)
	for i := range h.counts {
		counts[i] = float64(h.counts[i].Load())
	}
	return bucketQuantile(counts, q, bucketBounds)
}

// bucketQuantile finds the bucket holding the nearest-rank q-quantile of
// counts and interpolates linearly inside it. Buckets one unit wide (the
// exact low range of hist) return their value unchanged; an infinite edge
// (runtime/metrics histograms) collapses to the finite one.
func bucketQuantile(counts []float64, q float64, bounds func(int) (lo, hi float64)) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*total))
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bounds(i)
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		case hi-lo == 1:
			return lo
		}
		return lo + (hi-lo)*(rank-cum-0.5)/c
	}
	return 0
}
