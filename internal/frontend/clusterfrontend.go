package frontend

import (
	"cmp"
	"sync/atomic"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/trace"
)

// ClusterConfig tunes the ClusterFrontend. The zero value selects the
// collector defaults and disables the rebalance loop.
type ClusterConfig struct {
	// MaxBatch and MaxWait tune the collector exactly as Config does for the
	// single-Map Frontend: MaxBatch caps ops per flush (0 selects 4096),
	// MaxWait adds an optional dwell (0 disables it).
	MaxBatch int
	MaxWait  time.Duration

	// RebalanceEvery enables the background rebalance control loop: every
	// interval, a sampler goroutine computes a cluster.DeltaLoads window
	// (what each shard did since the previous sample) and hands it to the
	// collector, which feeds it to Policy between flushes. 0 — the default —
	// disables the loop; the cluster's layout is then only changed by
	// explicit SplitShard/MergeShards calls made while the frontend is
	// closed.
	RebalanceEvery time.Duration
	// Policy decides what to migrate from each window. nil selects the zero
	// cluster.LoadRatioPolicy (split above 2× mean, merge below 0.25×, one
	// action per window).
	Policy cluster.RebalancePolicy

	// Trace optionally receives the frontend's event streams: per-flush
	// trace.FlushStat if it implements trace.FlushSink, and per-window
	// trace.RebalanceStat if it implements trace.RebalanceSink. Both streams
	// are emitted from the collector goroutine, so the sink observes one
	// serial stream (the trace.Sink single-goroutine contract holds). This
	// sink is separate from the per-shard sinks configured on the cluster.
	Trace trace.Sink
}

// ClusterStats extends the collector statistics with the rebalance control
// loop's counters; read with ClusterFrontend.Stats.
type ClusterStats struct {
	Stats

	// Windows counts DeltaLoads windows consumed by the control loop.
	Windows int64
	// Proposed counts migrations proposed by the policy across all windows;
	// Published counts those that published a new routing epoch.
	Proposed  int64
	Published int64
	// Transients counts windows whose proposed action failed against stale
	// loads (cluster.ErrRebalancing / cluster.ErrShardState) and was
	// dropped; the next window re-proposes from fresh data.
	Transients int64
}

// ClusterFrontend coalesces single-key operations from concurrent
// goroutines into batches on an elastic cluster.Cluster on the same
// collector as Frontend: same pooled futures, same writes-before-reads /
// last-writer-wins flush semantics, bit-identical replies. Each flush is
// one Cluster.TryFlush, which scatters into per-shard sub-batches through
// the cluster's epoch-versioned slot table and gathers exactly-once
// replies. Each shard's writes and Gets are answered from that shard's
// goroutine as soon as the shard has run them, while other shards may
// still be searching; only the Successors — each routed to the shard
// owning its key, and asked of every shard only when that shard cannot
// answer alone — wait for the whole flush. On an empty cluster the first
// flush's Upserts set the routing splitters (cluster.Config.Slots), so
// load the cluster with a sample of the key range before serving.
//
// On top of serving, the frontend can drive the cluster's elasticity: with
// ClusterConfig.RebalanceEvery set, a background sampler feeds per-window
// load deltas to a cluster.RebalancePolicy and the collector runs the
// proposed migrations between flushes — splits and merges happen under live
// coalesced traffic with no client-visible errors (transient
// cluster.ErrRebalancing outcomes are absorbed by the loop itself, never
// surfaced to clients).
//
// The frontend must be the cluster's only driver: its collector is the
// single goroutine calling the cluster's TryFlush and RebalanceFrom, so the
// cluster's one-batch-at-a-time gate (cluster.ErrConcurrentBatch) is
// structurally satisfied. Direct batch or migration calls on the cluster
// while the frontend is open race with the collector.
//
// Degraded mode follows the cluster's error surface per key, not per flush:
// ops routed to a down shard fail with cluster.ErrShardDown (a write
// superseding chain on a down shard fails the whole chain — the key's
// presence is unknowable); ops on healthy shards are unaffected. A
// Successor fails only when a shard it had to ask is down, as in
// cluster.TrySuccessor: its key's owner, or, when the owner cannot answer
// alone, any shard. A shard that goes down in its Get share has already
// answered its writes, and one that goes down in its Successor share its
// writes and Gets; those replies stand.
type ClusterFrontend[K cmp.Ordered, V any] struct {
	collector[K, V]
	cb clusterBackend[K, V]

	policy cluster.RebalancePolicy
	every  time.Duration

	// Rebalance hand-off, guarded by the collector's mu: the sampler
	// publishes the newest unconsumed DeltaLoads window and sets due; the
	// collector's hook consumes it between flushes. loop holds the
	// control-loop counters (its Stats part is filled in by Stats).
	window    []cluster.ShardLoad
	windowSeq int64
	loop      ClusterStats
}

// NewClusterFrontend starts a collector (and, if cfg.RebalanceEvery > 0, a
// load sampler) over c. The frontend takes over as the cluster's sole
// driver; use Close to stop it (the cluster itself is left open — closing
// it remains the caller's responsibility).
func NewClusterFrontend[K cmp.Ordered, V any](c *cluster.Cluster[K, V], cfg ClusterConfig) *ClusterFrontend[K, V] {
	f := &ClusterFrontend[K, V]{
		cb:     clusterBackend[K, V]{c: c, sink: cfg.Trace},
		policy: cfg.Policy,
		every:  cfg.RebalanceEvery,
	}
	f.cb.fl.OnShard = f.cb.answerShard
	f.init(&f.cb, cfg.MaxBatch, cfg.MaxWait)
	if f.every > 0 {
		f.hook = f.rebalance
		f.aux.Add(1)
		go f.sampler()
	}
	go f.run()
	return f
}

// Cluster returns the underlying cluster (read-only introspection — Len,
// Epoch, Loads, ShardStats; do not run batches or migrations on it while
// the frontend is open).
func (f *ClusterFrontend[K, V]) Cluster() *cluster.Cluster[K, V] { return f.cb.c }

// Stats returns a snapshot of the collector and control-loop statistics.
// Like Frontend.Stats it is final once Close has returned.
func (f *ClusterFrontend[K, V]) Stats() ClusterStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.loop
	st.Stats = f.stats
	return st
}

// sampler is the load-sampling goroutine: every RebalanceEvery it turns two
// cumulative cluster.Loads samples into a DeltaLoads window and publishes
// it for the collector. Only the newest unconsumed window is kept — if the
// collector is busy flushing (or migrating) across several ticks, stale
// windows are superseded, not queued: the policy should always judge the
// cluster by its most recent behaviour.
func (f *ClusterFrontend[K, V]) sampler() {
	defer f.aux.Done()
	tick := time.NewTicker(f.every)
	defer tick.Stop()
	c := f.cb.c
	prev := c.Loads()
	for {
		select {
		case <-f.quit:
			return
		case <-tick.C:
		}
		// Loads locks one shard at a time and never touches the batch path,
		// so sampling is safe concurrent with the collector's flushes.
		cur := c.Loads()
		w := cluster.DeltaLoads(cur, prev)
		prev = cur
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		f.windowSeq++
		f.window = w
		f.due = true
		f.mu.Unlock()
		f.wake()
	}
}

// rebalance is the collector's hook: it feeds the newest DeltaLoads window
// to the policy and runs the proposed migrations via Cluster.RebalanceFrom,
// on the collector goroutine with no flush in flight — the cluster's
// single-flight gate is free, so ErrConcurrentBatch cannot occur. Migration
// copy/catchup phases drain the intake (flushPending) so client traffic
// keeps flowing while keys move.
//
// Errors are absorbed, never surfaced to clients: the window was sampled
// before the actions ran, so a proposed shard may have been retired or
// shrunk by the previous action (ErrShardState, ErrRebalancing). Such
// windows count as Transients and the next window re-proposes from fresh
// loads — transient-and-retry is the loop's steady state, not a failure.
func (f *ClusterFrontend[K, V]) rebalance() {
	f.mu.Lock()
	w, seq := f.window, f.windowSeq
	f.window, f.due = nil, false
	f.mu.Unlock()

	c := f.cb.c
	opts := &cluster.MigrateOpts{
		// copy and catchup fire with the migration gate released: drain
		// client ops that queued while the phase ran, so traffic flows
		// throughout the migration instead of stalling behind it.
		OnPhase: func(string) { f.flushPending() },
	}
	rep, err := c.RebalanceFrom(w, f.policy, opts)
	published := 0
	for _, r := range rep.Reports {
		if r.SlotsMoved > 0 {
			published++
		}
	}
	f.mu.Lock()
	st := &f.loop
	st.Windows++
	st.Proposed += int64(len(rep.Actions))
	st.Published += int64(published)
	if err != nil {
		st.Transients++
	}
	f.mu.Unlock()
	if sink, ok := f.cb.sink.(trace.RebalanceSink); ok {
		sink.Rebalance(trace.RebalanceStat{
			Window:    seq,
			Shards:    len(w),
			Proposed:  len(rep.Actions),
			Published: published,
			Epoch:     c.Epoch(),
			Transient: err != nil,
		})
	}
}

// clusterBackend flushes into a cluster.Cluster through one reused
// cluster.Flush, so steady-state flushes reuse its reply buffers. The
// Flush's OnShard hook, bound once in NewClusterFrontend, is answerShard.
type clusterBackend[K cmp.Ordered, V any] struct {
	c    *cluster.Cluster[K, V]
	fl   cluster.Flush[K, V]
	sink trace.Sink // ClusterConfig.Trace

	// The flush in progress, as the hook sees it: its workspace, and the
	// ops the hook answered with an error, counted from every shard's
	// goroutine.
	ws   *flushWS[K, V]
	errs atomic.Int64
}

// flushSink returns ClusterConfig.Trace if it takes FlushStat events.
func (b *clusterBackend[K, V]) flushSink() trace.FlushSink {
	s, _ := b.sink.(trace.FlushSink)
	return s
}

// flush runs the sub-batches in a single Cluster.TryFlush call. Each
// shard's writes and Gets are answered by answerShard, from that shard's
// goroutine, as soon as the shard has run them and before its Successor
// share; the Successors are answered here once TryFlush returns.
// Writes-before-reads needs no cross-shard barrier: each shard runs the
// flush's Upsert, Delete, Get and Successor shares back to back, shards own
// disjoint keys, and a shard's Successor share reads only that shard — so
// every Successor answer reflects every write of the flush.
//
// Error semantics are the cluster's, per key (point ops on a down shard
// fail with that shard's error; a superseded write chain whose final write
// landed on a down shard fails whole, since the key's presence is
// unknowable; a Successor fails when a shard it had to ask is down), except
// for gate errors, which fail the flush. A shard that fails its Successor
// share has already answered its writes and Gets; those replies stand.
func (b *clusterBackend[K, V]) flush(ws *flushWS[K, V], batch []*future[K, V]) int {
	fl := &b.fl
	fl.UpsertKeys, fl.UpsertVals, fl.DeleteKeys = ws.ukeys, ws.uvals, ws.dkeys
	fl.GetKeys, fl.SuccKeys = ws.gkeys, ws.skeys
	b.ws = ws
	b.errs.Store(0)
	if _, err := b.c.TryFlush(fl); err != nil {
		// A whole-flush error (ErrClosed, gate) predates any shard work: the
		// hook never ran, no op of the flush was applied, every op gets the
		// error.
		deliverErr(batch, err)
		return len(batch)
	}
	errs := int(b.errs.Load())
	for i, fu := range ws.sfut {
		if fl.SuccErrs != nil && fl.SuccErrs[i] != nil {
			fu.err = fl.SuccErrs[i]
			errs++
		} else {
			fu.found = fl.Succs[i].Found
			fu.rkey = fl.Succs[i].Key
			fu.rval = fl.Succs[i].Value
		}
		fu.ready <- struct{}{}
	}
	return errs
}

// answerShard is the Flush's OnShard hook: it answers one shard's writes
// and Gets on that shard's goroutine. Each key's write chain is replayed
// against the presence bit its final write learned — unless the shard
// failed that write, in which case the bit is unknowable and the whole
// chain fails with the shard's error. Shards own disjoint keys, so
// concurrent calls touch disjoint chains and futures.
func (b *clusterBackend[K, V]) answerShard(_ int, ups, dels, gets []int, uerr, derr, gerr error) {
	ws, fl, errs := b.ws, &b.fl, 0
	for _, x := range ups {
		if uerr != nil {
			errs += ws.failChain(ws.uhead[x], uerr)
		} else {
			ws.replay(ws.uhead[x], !fl.Upserted[x])
		}
	}
	for _, x := range dels {
		if derr != nil {
			errs += ws.failChain(ws.dhead[x], derr)
		} else {
			ws.replay(ws.dhead[x], fl.Deleted[x])
		}
	}
	for _, x := range gets {
		fu := ws.gfut[x]
		if gerr != nil {
			fu.err = gerr
			errs++
		} else {
			fu.found = fl.Gets[x].Found
			fu.rval = fl.Gets[x].Value
		}
		fu.ready <- struct{}{}
	}
	if errs > 0 {
		b.errs.Add(int64(errs))
	}
}
