package main

// metricDef describes one metric the benchmark reports.
type metricDef struct {
	name, unit string
	// better is "higher" or "lower".
	better string
	// bound is how far an end-to-end metric may worsen before compare calls
	// it a regression: a share of the baseline median, or with absolute set
	// an amount in the metric's own unit.
	bound    float64
	absolute bool
	e2e      bool
	// only lists the workloads the metric is defined on; nil means all.
	only []string
	// listed marks the metrics BENCHMARK.json names. The result line of
	// every run must carry each of them, so only metrics defined on every
	// workload are listed, and of the end-to-end ones only those that are
	// never zero and repeat within their bound.
	listed bool
}

var (
	allServed   = []string{"serve-map", "serve-cluster", "serve-cluster-churn"}
	allClusters = []string{"serve-cluster", "serve-cluster-churn"}
	churnOnly   = []string{"serve-cluster-churn"}
	batchOnly   = []string{"batch-map"}
)

// endToEnd are the metrics a user of the stack sees, measured untraced.
// The listed bounds are the ones in BENCHMARK.json; bench_test.go keeps
// the two in step.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.24, e2e: true, listed: true},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.24, e2e: true, listed: true},
	{name: "latency_p90_us", unit: "us", better: "lower", bound: 0.24, e2e: true, listed: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, e2e: true, listed: true},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.20, e2e: true, listed: true},
	// p99 is not listed: on a shared 2-core host it follows garbage
	// collections and migration stalls, which a run holds too few of for
	// its spread to stay within any bound BENCHMARK.json may set.
	{name: "latency_p99_us", unit: "us", better: "lower", bound: 0.24, e2e: true},
	{name: "failed_frac", unit: "frac", better: "lower", bound: 0, absolute: true, e2e: true},
	{name: "model_msgs_per_op", unit: "words/op", better: "lower", bound: 0.01, e2e: true, only: batchOnly},
	{name: "model_io_per_op", unit: "h/op", better: "lower", bound: 0.01, e2e: true, only: batchOnly},
}

// perLayer are the traced run's metrics, one group per layer of the stack.
var perLayer = []metricDef{
	{name: "loadgen.late_frac", unit: "frac", better: "lower", only: churnOnly, listed: true},
	{name: "loadgen.max_lag_ms", unit: "ms", better: "lower", only: churnOnly},

	{name: "frontend.mean_batch", unit: "ops", better: "higher", only: allServed, listed: true},
	{name: "frontend.flushes_per_s", unit: "1/s", better: "lower", only: allServed, listed: true},
	{name: "frontend.busy_frac", unit: "frac", better: "lower", only: allServed, listed: true},
	{name: "frontend.flush_wall_p50_us", unit: "us", better: "lower", only: allServed},
	{name: "frontend.flush_wall_p99_us", unit: "us", better: "lower", only: allServed},
	{name: "frontend.self_frac", unit: "frac", better: "lower", only: allServed, listed: true},
	{name: "frontend.queue_wait_mean_us", unit: "us", better: "lower", only: allServed},
	{name: "frontend.queue_wait_max_p99_us", unit: "us", better: "lower", only: allServed},
	{name: "frontend.reply_residual_mean_us", unit: "us", better: "lower", only: allServed},
	{name: "frontend.submitted_frac", unit: "frac", better: "lower", only: allServed, listed: true},

	{name: "cluster.shard_batches_per_flush", unit: "batches", better: "lower", only: allClusters, listed: true},
	{name: "cluster.succ_amplification", unit: "ratio", better: "lower", only: allClusters, listed: true},
	{name: "cluster.fanout_self_frac", unit: "frac", better: "lower", only: allClusters, listed: true},
	{name: "cluster.straggler_wait_frac", unit: "frac", better: "lower", only: allClusters, listed: true},
	{name: "cluster.shard_busy_skew", unit: "ratio", better: "lower", only: allClusters, listed: true},
	{name: "cluster.migrations", unit: "count", better: "higher", only: churnOnly, listed: true},
	{name: "cluster.migration_wall_ms_mean", unit: "ms", better: "lower", only: churnOnly},
	{name: "cluster.transients", unit: "count", better: "lower", only: churnOnly, listed: true},

	{name: "core.get.ns_per_op", unit: "ns", better: "lower", listed: true},
	{name: "core.succ.ns_per_op", unit: "ns", better: "lower", listed: true},
	{name: "core.upsert.ns_per_op", unit: "ns", better: "lower", listed: true},
	{name: "core.delete.ns_per_op", unit: "ns", better: "lower", listed: true},
	{name: "core.batch_wall_p50_us", unit: "us", better: "lower", listed: true},
	{name: "core.phase.sort.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.semisort.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.search.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.execute.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.rebuild.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.contract.wall_frac", unit: "frac", better: "lower", listed: true},
	{name: "core.phase.other.wall_frac", unit: "frac", better: "lower", listed: true},

	{name: "pim.rounds_per_op", unit: "rounds/op", better: "lower", listed: true},
	{name: "pim.io_per_op", unit: "h/op", better: "lower", listed: true},
	{name: "pim.msgs_per_op", unit: "words/op", better: "lower", listed: true},
	{name: "pim.round_wall_mean_us", unit: "us", better: "lower", listed: true},
	{name: "pim.round_wall_frac", unit: "frac", better: "lower", listed: true},

	{name: "cpu.work_per_op", unit: "work/op", better: "lower", listed: true},
	{name: "cpu.depth_per_batch", unit: "depth/batch", better: "lower", listed: true},

	{name: "go.alloc_bytes_per_op", unit: "B/op", better: "lower", listed: true},
	{name: "go.gc_per_s", unit: "1/s", better: "lower", listed: true},
	{name: "go.gc_pause_p99_us", unit: "us", better: "lower", listed: true},
	{name: "go.sched_latency_p99_us", unit: "us", better: "lower", listed: true},

	{name: "trace.overhead_frac", unit: "frac", better: "lower", listed: true},
}

// appliesTo reports whether d is defined on workload w.
func (d metricDef) appliesTo(w string) bool {
	if d.only == nil {
		return true
	}
	for _, o := range d.only {
		if o == w {
			return true
		}
	}
	return false
}

// lookupMetric finds a metric definition by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
