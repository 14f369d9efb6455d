package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// setupReps is how many times an untraced run sets its stack up; setup_s
// is the median.
const setupReps = 3

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // traced runs: Chrome trace output path
	hooks    hooks
}

// result is one run's record, the unit compare reads.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	GoVersion  string                 `json:"go"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile.
	N int64 `json:"n,omitempty"`
}

func (r *result) set(name string, v float64, n int64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit, N: n}
}

// run performs one run. A traced run whose spans fail reconciliation
// returns its result holding only trace.overhead_frac, with the error.
func run(cfg config) (*result, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: map[string]metricValue{},
	}
	if cfg.trace {
		return res, runTraced(wl, cfg, res)
	}
	return res, runUntraced(wl, cfg, res)
}

// setUp sets sys up and returns how long that took, in seconds.
func setUp(sys system) (float64, error) {
	t0 := time.Now()
	if err := sys.setup(); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// measureOn sets sys up, measures it with rec and shuts it down. It
// returns the set-up time.
func measureOn(sys system, rec *recorder) (float64, error) {
	t, err := setUp(sys)
	if err != nil {
		return 0, err
	}
	collect()
	if err := rec.measure(sys.load); err != nil {
		_ = sys.shutdown() // the divergence is the error to report
		return 0, err
	}
	return t, sys.shutdown()
}

// runUntraced measures the first stack it sets up, then sets up and shuts
// down setupReps-1 more for setup_s. The measurement comes first because a
// closed Map is never freed (its machine's finalizer sits in a reference
// cycle), so later stacks would share the heap with the earlier ones.
func runUntraced(wl workload, cfg config, res *result) error {
	sys := wl.instance(cfg.seed, nil, cfg.hooks)
	rec := newRecorder(planFor(cfg.seconds))
	t, err := measureOn(sys, rec)
	if err != nil {
		return err
	}
	setups := []float64{t}
	for len(setups) < setupReps {
		collect()
		again := wl.instance(cfg.seed, nil, cfg.hooks)
		t, err := setUp(again)
		if err != nil {
			return err
		}
		if err := again.shutdown(); err != nil {
			return err
		}
		setups = append(setups, t)
	}
	res.Correct = true
	res.Attempted, res.Failed = rec.attempted()
	p50, n := rec.latency(0.50)
	p90, _ := rec.latency(0.90)
	p99, _ := rec.latency(0.99)
	res.set("throughput_ops_s", median(rec.throughputs()), 0)
	res.set("latency_p50_us", p50/1e3, n)
	res.set("latency_p90_us", p90/1e3, n)
	res.set("latency_p99_us", p99/1e3, n)
	res.set("setup_s", median(setups), setupReps)
	res.set("peak_heap_mb", slices.Max(rec.heapMB), 0)
	res.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), 0)
	if b, ok := sys.(*batchMap); ok {
		msgs, io := b.modelPerOp()
		res.set("model_msgs_per_op", msgs, 0)
		res.set("model_io_per_op", io, 0)
	}
	return nil
}

// runTraced measures the workload twice on fresh stacks, each for half the
// windows: untraced, for the trace overhead baseline, the load generator
// and the Go runtime; then traced, for the span-derived layers.
func runTraced(wl workload, cfg config, res *result) error {
	p := planFor(cfg.seconds)
	p.windows = max(1, p.windows/2)

	recU := newRecorder(p)
	if _, err := measureOn(wl.instance(cfg.seed, nil, cfg.hooks), recU); err != nil {
		return err
	}
	collect()
	recT := newRecorder(p)
	tr := newTracer(recT.now)
	sys := wl.instance(cfg.seed, tr, cfg.hooks)
	if _, err := measureOn(sys, recT); err != nil {
		return err
	}
	res.set("trace.overhead_frac", 1-median(recT.throughputs())/median(recU.throughputs()), 0)

	d := tr.data()
	calls := sys.calls()
	if err := reconcile(d, sys.reference(), calls, wl.name != "batch-map"); err != nil {
		return fmt.Errorf("trace reconciliation: %w", err)
	}
	if cfg.spans != "" {
		if err := writeChromeTrace(cfg.spans, d, calls); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	in := layerInput{workload: wl.name, d: d, calls: calls, from: recT.measureStart, to: recT.measureEnd}
	for k := range in.ops {
		in.ops[k] = recT.kinds[k].Load()
	}
	for name, v := range layerMetrics(in) {
		res.set(name, v, 0)
	}
	goLayer(recU, res)
	if wl.name == "serve-cluster-churn" {
		res.set("loadgen.late_frac", float64(recU.late.Load())/float64(max(recU.arrived.Load(), 1)), recU.arrived.Load())
		res.set("loadgen.max_lag_ms", float64(recU.lagMax.Load())/1e6, recU.arrived.Load())
	}
	res.Correct = true
	res.Attempted, res.Failed = recT.attempted()
	return nil
}

// goLayer derives the Go runtime metrics of an untraced measurement. GC
// pauses count over the whole process, set-up included, so that a load
// that allocates nothing still has samples.
func goLayer(rec *recorder, res *result) {
	delta := func(name string) float64 {
		return float64(sampleValue(rec.rtEnd, name).Uint64() - sampleValue(rec.rtStart, name).Uint64())
	}
	ops, _ := rec.attempted()
	secs := float64(rec.measureEnd-rec.measureStart) / 1e9
	res.set("go.alloc_bytes_per_op", delta(rtAllocBytes)/float64(max(ops, 1)), 0)
	res.set("go.gc_per_s", delta(rtGCCycles)/secs, 0)
	pauses := sampleValue(rec.rtEnd, rtGCPauses).Float64Histogram()
	res.set("go.gc_pause_p99_us", histQuantile(pauses, nil, 0.99)*1e6, histCount(pauses, nil))
	lat, lat0 := sampleValue(rec.rtEnd, rtSchedLat).Float64Histogram(), sampleValue(rec.rtStart, rtSchedLat).Float64Histogram()
	res.set("go.sched_latency_p99_us", histQuantile(lat, lat0, 0.99)*1e6, histCount(lat, lat0))
}

func histCount(h, base *metrics.Float64Histogram) int64 {
	var n uint64
	for i, c := range h.Counts {
		if base != nil {
			c -= base.Counts[i]
		}
		n += c
	}
	return int64(n)
}

// collect returns the garbage of set-up before a measurement, and of a
// shut-down stack before the next set-up, so neither pays for the other.
func collect() { runtime.GC() }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
