package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// TestHistQuantileError checks the histogram against exact sorted
// quantiles on synthetic latency distributions: every quantile must be
// within 1% of the nearest-rank sample.
func TestHistQuantileError(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() time.Duration{
		"uniform":     func() time.Duration { return time.Microsecond + time.Duration(r.Int64N(int64(10*time.Millisecond))) },
		"exponential": func() time.Duration { return time.Duration(r.ExpFloat64() * float64(300*time.Microsecond)) },
		"lognormal": func() time.Duration {
			return time.Duration(math.Exp(r.NormFloat64()*1.5) * float64(50*time.Microsecond))
		},
		"bimodal": func() time.Duration {
			if r.IntN(50) == 0 {
				return 80*time.Millisecond + time.Duration(r.Int64N(int64(40*time.Millisecond)))
			}
			return 2*time.Millisecond + time.Duration(r.Int64N(int64(time.Millisecond)))
		},
		"small": func() time.Duration { return time.Duration(1 + r.IntN(300)) },
	}
	for name, draw := range dists {
		h := new(hist)
		vals := make([]float64, 200000)
		for i := range vals {
			d := draw()
			h.record(d)
			vals[i] = float64(d)
		}
		slices.Sort(vals)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
			got := h.quantile(q)
			if err := math.Abs(got-exact) / exact; err > 0.01 {
				t.Errorf("%s q=%g: histogram %.1f ns, exact %.1f ns (error %.3f%%)", name, q, got, exact, 100*err)
			}
		}
		if h.count() != int64(len(vals)) {
			t.Errorf("%s: count %d, want %d", name, h.count(), len(vals))
		}
	}
}

// TestBucketBounds checks that every value lands in a bucket that holds
// it and is at most 1/histSub of it wide.
func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40, 1<<62 + 12345} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d in bucket [%g, %g)", v, lo, hi)
		}
		if v >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Errorf("value %d: bucket [%g, %g) wider than 1/%d", v, lo, hi, histSub)
		}
	}
}
