package frontend

import (
	"cmp"
	"runtime"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
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

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.RebalanceEvery < 0 {
		c.RebalanceEvery = 0
	}
	return c
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
// goroutines into batches on an elastic cluster.Cluster, exactly as
// Frontend does for one core.Map: same collector, same pooled futures,
// same writes-before-reads / last-writer-wins flush semantics, bit-identical
// replies. Each flush scatters into per-shard sub-batches through the
// cluster's epoch-versioned slot table and gathers exactly-once replies.
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
// single goroutine calling the cluster's Try* batches and Rebalance, so the
// cluster's one-batch-at-a-time gate (cluster.ErrConcurrentBatch) is
// structurally satisfied. Direct batch or migration calls on the cluster
// while the frontend is open race with the collector.
//
// Degraded mode follows the cluster's error surface per key, not per flush:
// ops routed to a down shard fail with cluster.ErrShardDown (a write
// superseding chain on a down shard fails the whole chain — the key's
// presence is unknowable); ops on healthy shards are unaffected. Successor
// broadcasts are all-or-nothing, as in cluster.TrySuccessor.
type ClusterFrontend[K cmp.Ordered, V any] struct {
	intake[K, V]

	c   *cluster.Cluster[K, V]
	cfg ClusterConfig

	stats ClusterStats // guarded by intake.mu

	// Rebalance hand-off: the sampler publishes the newest unconsumed
	// DeltaLoads window; the collector consumes it between flushes. Guarded
	// by intake.mu.
	window    []cluster.ShardLoad
	windowSeq int64

	stop        chan struct{} // closes to stop the sampler
	samplerDone chan struct{} // closed when the sampler exits; nil if no loop

	ws flushWS[K, V]       // collector-owned scratch
	fl cluster.Flush[K, V] // the cluster call: ws's sub-batches and reused reply buffers
}

// NewClusterFrontend starts a collector (and, if cfg.RebalanceEvery > 0, a
// load sampler) over c. The frontend takes over as the cluster's sole
// driver; use Close to stop it (the cluster itself is left open — closing
// it remains the caller's responsibility).
func NewClusterFrontend[K cmp.Ordered, V any](c *cluster.Cluster[K, V], cfg ClusterConfig) *ClusterFrontend[K, V] {
	cfg = cfg.withDefaults()
	f := &ClusterFrontend[K, V]{c: c, cfg: cfg}
	f.intake.init(cfg.MaxBatch)
	f.ws.init()
	if cfg.RebalanceEvery > 0 {
		f.stop = make(chan struct{})
		f.samplerDone = make(chan struct{})
		go f.sampler()
	}
	go f.run()
	return f
}

// Cluster returns the underlying cluster (read-only introspection — Len,
// Epoch, Loads, ShardStats; do not run batches or migrations on it while
// the frontend is open).
func (f *ClusterFrontend[K, V]) Cluster() *cluster.Cluster[K, V] { return f.c }

// Stats returns a snapshot of the collector and control-loop statistics.
func (f *ClusterFrontend[K, V]) Stats() ClusterStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Close drains the collector — every already-enqueued op still receives its
// reply — stops the rebalance loop, and shuts the frontend down. An
// unconsumed load window is dropped, and no new migration starts after
// Close begins (a migration already running completes first: cutover is
// not abandoned mid-flight). Ops submitted after Close fail with
// core.ErrClosed. Close is idempotent and safe to call concurrently:
// exactly one caller returns nil, every other call returns core.ErrClosed
// after the collector has fully drained. The underlying cluster stays open.
func (f *ClusterFrontend[K, V]) Close() error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	f.mu.Unlock()
	if !already && f.stop != nil {
		close(f.stop)
	}
	if f.samplerDone != nil {
		<-f.samplerDone
	}
	f.wake()
	<-f.done
	if already {
		return core.ErrClosed
	}
	return nil
}

// sampler is the load-sampling goroutine: every RebalanceEvery it turns two
// cumulative cluster.Loads samples into a DeltaLoads window and publishes
// it for the collector. Only the newest unconsumed window is kept — if the
// collector is busy flushing (or migrating) across several ticks, stale
// windows are superseded, not queued: the policy should always judge the
// cluster by its most recent behaviour.
func (f *ClusterFrontend[K, V]) sampler() {
	defer close(f.samplerDone)
	tick := time.NewTicker(f.cfg.RebalanceEvery)
	defer tick.Stop()
	prev := f.c.Loads()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		// Loads locks one shard at a time and never touches the batch path,
		// so sampling is safe concurrent with the collector's flushes.
		cur := f.c.Loads()
		w := cluster.DeltaLoads(cur, prev)
		prev = cur
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		f.windowSeq++
		f.window = w
		f.mu.Unlock()
		f.wake()
	}
}

// run is the collector goroutine: wait for ops or a load window, gather and
// optionally dwell exactly as the single-Map collector does, flush in
// MaxBatch chunks, then — with the cluster idle between flushes — consume
// the pending window, if any, through the rebalance policy.
func (f *ClusterFrontend[K, V]) run() {
	defer close(f.done)
	var tmr *time.Timer
	for {
		f.mu.Lock()
		for {
			if len(f.pending) > 0 {
				break // drain even while closing
			}
			if f.closed {
				f.mu.Unlock()
				return // drops an unconsumed window, by design
			}
			if f.window != nil {
				break
			}
			f.mu.Unlock()
			<-f.notify
			f.mu.Lock()
		}
		// Gather: yield to runnable clients until the forming batch stops
		// growing or fills (see Frontend.run for the rationale).
		for {
			n := len(f.pending)
			if n >= f.cfg.MaxBatch || f.closed {
				break
			}
			f.mu.Unlock()
			runtime.Gosched()
			f.mu.Lock()
			if len(f.pending) == n {
				break
			}
		}
		if f.cfg.MaxWait > 0 && len(f.pending) > 0 {
			deadline := f.pending[0].enq.Add(f.cfg.MaxWait)
			for len(f.pending) < f.cfg.MaxBatch && !f.closed {
				d := time.Until(deadline)
				if d <= 0 {
					break
				}
				f.mu.Unlock()
				if tmr == nil {
					tmr = time.NewTimer(d)
				} else {
					tmr.Reset(d)
				}
				expired := false
				select {
				case <-f.notify:
					if !tmr.Stop() {
						<-tmr.C
					}
				case <-tmr.C:
					expired = true
				}
				f.mu.Lock()
				if expired {
					break
				}
			}
		}
		batch := f.pending
		f.pending = f.spare
		f.spare = nil
		w, seq := f.window, f.windowSeq
		f.window = nil
		closing := f.closed
		f.mu.Unlock()

		for off := 0; off < len(batch); off += f.cfg.MaxBatch {
			end := off + f.cfg.MaxBatch
			if end > len(batch) {
				end = len(batch)
			}
			f.flush(batch[off:end])
		}

		clear(batch) // drop future refs before parking the buffer
		f.mu.Lock()
		f.spare = batch[:0]
		f.mu.Unlock()

		if w != nil && !closing {
			f.runRebalance(w, seq)
		}
	}
}

// runRebalance feeds one DeltaLoads window to the policy and runs the
// proposed migrations via Cluster.RebalanceFrom, on the collector goroutine
// with no flush in flight — the cluster's single-flight gate is free, so
// ErrConcurrentBatch cannot occur. Migration copy/catchup phases drain the
// intake (flushPending) so client traffic keeps flowing while keys move.
//
// Errors are absorbed, never surfaced to clients: the window was sampled
// before the actions ran, so a proposed shard may have been retired or
// shrunk by the previous action (ErrShardState, ErrRebalancing). Such
// windows count as Transients and the next window re-proposes from fresh
// loads — transient-and-retry is the loop's steady state, not a failure.
func (f *ClusterFrontend[K, V]) runRebalance(w []cluster.ShardLoad, seq int64) {
	opts := &cluster.MigrateOpts{
		// copy and catchup fire with the migration gate released: drain
		// client ops that queued while the phase ran, so traffic flows
		// throughout the migration instead of stalling behind it.
		OnPhase: func(string) { f.flushPending() },
	}
	rep, err := f.c.RebalanceFrom(w, f.cfg.Policy, opts)
	published := 0
	for _, r := range rep.Reports {
		if r.SlotsMoved > 0 {
			published++
		}
	}
	f.mu.Lock()
	st := &f.stats
	st.Windows++
	st.Proposed += int64(len(rep.Actions))
	st.Published += int64(published)
	if err != nil {
		st.Transients++
	}
	f.mu.Unlock()
	if sink, ok := f.cfg.Trace.(trace.RebalanceSink); ok {
		sink.Rebalance(trace.RebalanceStat{
			Window:    seq,
			Shards:    len(w),
			Proposed:  len(rep.Actions),
			Published: published,
			Epoch:     f.c.Epoch(),
			Transient: err != nil,
		})
	}
}

// flushPending drains whatever ops queued since the last flush — one swap,
// not a loop, so sustained traffic cannot livelock a migration phase. It
// runs on the collector goroutine between that goroutine's own flushes, so
// reusing the flush workspace is safe.
func (f *ClusterFrontend[K, V]) flushPending() {
	f.mu.Lock()
	if len(f.pending) == 0 {
		f.mu.Unlock()
		return
	}
	batch := f.pending
	f.pending = f.spare
	f.spare = nil
	f.mu.Unlock()

	for off := 0; off < len(batch); off += f.cfg.MaxBatch {
		end := off + f.cfg.MaxBatch
		if end > len(batch) {
			end = len(batch)
		}
		f.flush(batch[off:end])
	}

	clear(batch)
	f.mu.Lock()
	f.spare = batch[:0]
	f.mu.Unlock()
}

// flush executes one coalesced batch against the cluster in a single
// Cluster.TryFlush call. The linearization contract is identical to the
// single-Map flush — writes before reads, last writer wins, exact replies.
// Writes-before-reads needs no cross-shard barrier: each shard runs the
// flush's Upsert, Delete, Get and Successor shares back to back, shards own
// disjoint keys, and a shard's Successor partial reads only that shard —
// so the broadcast's merged answer reflects every write of the flush.
// Every reply, Gets included, is delivered once the whole flush returns.
//
// Error semantics are per key where the cluster's are (point ops on a down
// shard fail with that shard's error; a superseded write chain whose final
// write landed on a down shard fails whole, since the key's presence is
// unknowable) and per flush where they are not (gate errors, Successor
// broadcasts).
func (f *ClusterFrontend[K, V]) flush(batch []*future[K, V]) {
	start := time.Now()
	ws := &f.ws
	var queueWait, maxQueueWait time.Duration
	submitted := ws.partition(batch, start, &queueWait, &maxQueueWait)

	fl := &f.fl
	fl.UpsertKeys, fl.UpsertVals, fl.DeleteKeys = ws.ukeys, ws.uvals, ws.dkeys
	fl.GetKeys, fl.SuccKeys = ws.gkeys, ws.skeys
	if _, err := f.c.TryFlush(fl); err != nil {
		// A whole-flush error (ErrClosed, gate) predates any shard work: no
		// op of the flush was applied, every op gets the error.
		deliverErr(batch, err)
		f.finish(start, len(batch), submitted, len(batch), queueWait, maxQueueWait)
		return
	}

	// Replay each key's op chain against the presence bit its final write
	// learned — unless that write landed on a down shard, in which case the
	// bit is unknowable and the whole chain fails with the shard's error.
	errs := 0
	for x, i := range ws.ufin {
		if fl.UpsertErrs != nil && fl.UpsertErrs[x] != nil {
			errs += ws.failChain(i, fl.UpsertErrs[x])
		} else {
			ws.replay(i, !fl.Upserted[x])
		}
	}
	for x, i := range ws.dfin {
		if fl.DeleteErrs != nil && fl.DeleteErrs[x] != nil {
			errs += ws.failChain(i, fl.DeleteErrs[x])
		} else {
			ws.replay(i, fl.Deleted[x])
		}
	}
	for i, fu := range ws.gfut {
		if fl.GetErrs != nil && fl.GetErrs[i] != nil {
			fu.err = fl.GetErrs[i]
			errs++
		} else {
			fu.found = fl.Gets[i].Found
			fu.rval = fl.Gets[i].Value
		}
		fu.ready <- struct{}{}
	}
	for i, fu := range ws.sfut {
		if fl.SuccErrs != nil && fl.SuccErrs[i] != nil { // all-or-nothing broadcast
			fu.err = fl.SuccErrs[i]
			errs++
		} else {
			fu.found = fl.Succs[i].Found
			fu.rkey = fl.Succs[i].Key
			fu.rval = fl.Succs[i].Value
		}
		fu.ready <- struct{}{}
	}
	f.finish(start, len(batch), submitted, errs, queueWait, maxQueueWait)
}

// finish records the flush in the collector stats and emits a FlushStat to
// the frontend's trace sink if it implements trace.FlushSink.
func (f *ClusterFrontend[K, V]) finish(start time.Time, ops, submitted, errCount int, queueWait, maxQueueWait time.Duration) {
	flushTime := time.Since(start)
	if sink, ok := f.cfg.Trace.(trace.FlushSink); ok {
		sink.Flush(trace.FlushStat{
			Ops:          ops,
			Submitted:    submitted,
			QueueWait:    queueWait,
			MaxQueueWait: maxQueueWait,
			FlushTime:    flushTime,
		})
	}
	f.mu.Lock()
	st := &f.stats
	st.Ops += int64(ops)
	st.Flushes++
	st.Submitted += int64(submitted)
	if ops > st.MaxFlush {
		st.MaxFlush = ops
	}
	st.QueueWait += queueWait
	if maxQueueWait > st.MaxQueueWait {
		st.MaxQueueWait = maxQueueWait
	}
	st.FlushTime += flushTime
	st.Errors += int64(errCount)
	f.mu.Unlock()
}
