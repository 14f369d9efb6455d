package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// plan is one measurement: a warm-up, then windows equal windows.
type plan struct {
	warm, window time.Duration
	windows      int
}

// planFor splits a run of the given length into one-second windows after a
// warm-up of 3 s (less for runs shorter than 10 s, such as the smoke
// tests).
func planFor(seconds float64) plan {
	total := time.Duration(seconds * float64(time.Second))
	n := max(1, int(math.Round(seconds)))
	return plan{warm: min(3*time.Second, total*3/10), window: total / time.Duration(n), windows: n}
}

// recorder collects what the load does in each measurement window. Load
// goroutines call its methods concurrently; the measuring goroutine reads
// the results after the load has stopped.
type recorder struct {
	base time.Time // origin of the run clock (now)
	plan plan

	// win is the current window: -1 during warm-up, plan.windows once the
	// measurement is over.
	win    atomic.Int32
	halted atomic.Bool
	errMu  sync.Mutex
	err    error

	lat    []hist // per window, one sample per client call
	ops    []atomic.Int64
	failed []atomic.Int64
	kinds  [numKinds]atomic.Int64 // verified ops per kind, all windows
	dur    []time.Duration
	heapMB []float64

	// Open-loop generator lag over the windows.
	lagMax  atomic.Int64
	late    atomic.Int64
	arrived atomic.Int64

	measureStart, measureEnd int64 // run clock
	rtStart, rtEnd           []metrics.Sample
}

func newRecorder(p plan) *recorder {
	n := p.windows
	r := &recorder{
		base: time.Now(), plan: p,
		lat: make([]hist, n), ops: make([]atomic.Int64, n), failed: make([]atomic.Int64, n),
		dur: make([]time.Duration, n), heapMB: make([]float64, n),
	}
	r.win.Store(-1)
	return r
}

// now is the run clock: nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// window returns the current measurement window, or -1 outside them.
func (r *recorder) window() int {
	if w := int(r.win.Load()); w < r.plan.windows {
		return w
	}
	return -1
}

// stopped reports that the load should end: the measurement is over or a
// reply diverged.
func (r *recorder) stopped() bool { return r.halted.Load() || int(r.win.Load()) >= r.plan.windows }

// done records one verified single-op call.
func (r *recorder) done(k opKind, d time.Duration) {
	if w := r.window(); w >= 0 {
		r.lat[w].record(d)
		r.ops[w].Add(1)
		r.kinds[k].Add(1)
	}
}

// doneCycle records one verified batch-map cycle.
func (r *recorder) doneCycle(d time.Duration) {
	if w := r.window(); w >= 0 {
		r.lat[w].record(d)
		for k, n := range cycleMix {
			r.ops[w].Add(int64(n))
			r.kinds[k].Add(int64(n))
		}
	}
}

// failOp records an op the stack answered with an error. It counts as
// missing every latency limit.
func (r *recorder) failOp() {
	if w := r.window(); w >= 0 {
		r.failed[w].Add(1)
		r.lat[w].record(time.Hour)
	}
}

// arrival records how late the open-loop generator issued an op.
func (r *recorder) arrival(lag time.Duration) {
	if r.window() < 0 {
		return
	}
	r.arrived.Add(1)
	if lag > lateAfter {
		r.late.Add(1)
	}
	for {
		m := r.lagMax.Load()
		if int64(lag) <= m || r.lagMax.CompareAndSwap(m, int64(lag)) {
			return
		}
	}
}

// lateAfter is how far behind schedule an open-loop arrival counts as late.
const lateAfter = time.Millisecond

// diverge records the first divergence (or other fatal error) and halts
// the load.
func (r *recorder) diverge(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.halted.Store(true)
}

func (r *recorder) error() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// measure runs load on its own goroutine through the warm-up and the
// windows of the plan, then tells it to stop and waits for it. It returns
// the first divergence the load reported.
func (r *recorder) measure(load func(*recorder)) error {
	p := r.plan
	done := make(chan struct{})
	go func() {
		defer close(done)
		load(r)
	}()
	tmr := time.NewTimer(p.warm)
	defer tmr.Stop()
	wait := func() bool {
		select {
		case <-done:
			return false
		case <-tmr.C:
			return true
		}
	}
	if wait() {
		r.rtStart = readRuntime()
		r.measureStart = r.now()
		t0 := time.Now()
		r.win.Store(0)
		for w := range p.windows {
			tmr.Reset(p.window)
			if !wait() {
				break
			}
			t := time.Now()
			r.dur[w] = t.Sub(t0)
			r.win.Store(int32(w + 1))
			t0 = t
			r.heapMB[w] = liveHeapMB()
		}
		r.measureEnd = r.now()
		r.rtEnd = readRuntime()
	}
	r.win.Store(int32(p.windows))
	<-done
	return r.error()
}

// throughputs returns each window's verified ops per second.
func (r *recorder) throughputs() []float64 {
	out := make([]float64, r.plan.windows)
	for w := range out {
		if r.dur[w] > 0 {
			out[w] = float64(r.ops[w].Load()) / r.dur[w].Seconds()
		}
	}
	return out
}

// latency returns the q-quantile of call latency over all the windows, in
// nanoseconds, and the number of calls. Pooling beats the median of
// per-window quantiles on the served workloads: a window holds at most a
// garbage collection or a migration or two, so its tail swings with them.
func (r *recorder) latency(q float64) (float64, int64) {
	pooled := new(hist)
	for w := range r.lat {
		pooled.add(&r.lat[w])
	}
	return pooled.quantile(q), pooled.count()
}

func (r *recorder) attempted() (attempted, failed int64) {
	for w := range r.ops {
		failed += r.failed[w].Load()
		attempted += r.ops[w].Load()
	}
	attempted += failed
	return attempted, failed
}

// Runtime metrics the go.* layer and peak_heap_mb read; none of them stops
// the world.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
	rtHeapLive   = "/gc/heap/live:bytes"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCycles}, {Name: rtGCPauses}, {Name: rtSchedLat}}
	metrics.Read(s)
	return s
}

// liveHeapMB is the heap the last GC found live. Unlike the heap in use it
// does not swing with how much garbage the GC has yet to sweep.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: rtHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func sampleValue(s []metrics.Sample, name string) metrics.Value {
	for _, x := range s {
		if x.Name == name {
			return x.Value
		}
	}
	panic("bench: runtime metric not sampled: " + name)
}

// histQuantile reads the q-quantile in seconds from a runtime/metrics
// histogram, counting only the samples taken after base (nil: all).
func histQuantile(h, base *metrics.Float64Histogram, q float64) float64 {
	counts := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		if base != nil {
			c -= base.Counts[i]
		}
		counts[i] = float64(c)
	}
	return bucketQuantile(counts, q, func(i int) (float64, float64) { return h.Buckets[i], h.Buckets[i+1] })
}
