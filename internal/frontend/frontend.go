// Package frontend is the concurrent batching frontend of the PIM skip
// list — "the collector". A core.Map executes one batch at a time and is
// fastest when that batch is large (the paper's amortization argument:
// a batch of k ops shares upper-level traversals and pays near-optimal
// per-op IO, where k single-op batches would pay Ω(log n) each). The
// frontend turns the single-caller batch engine into a serving system:
// arbitrarily many client goroutines submit one operation at a time
// (Get/Upsert/Delete/Successor), a single collector goroutine coalesces
// them into time/size-bounded batches, runs the batches through the
// backend, and demultiplexes the replies back to the waiting callers
// through pooled futures. In steady state the enqueue/reply path allocates
// nothing.
//
// One collector, two backends: Frontend drives one core.Map, and
// ClusterFrontend (clusterfrontend.go) drives an elastic cluster.Cluster,
// adding a background rebalance loop as a hook the collector runs between
// flushes. Intake, scheduling, Close and flush accounting are the same
// code (collector.go); only the flush body differs. Both answer a flush's
// writes and Gets before its Successor sub-batch runs. The Map backend runs
// the Upsert, Delete, Get and Successor sub-batches in turn and answers
// each kind as soon as its sub-batch returns. The cluster backend runs all
// four in one Cluster.TryFlush and answers per shard: each shard's writes
// and Gets from that shard's goroutine, once the shard has run them and
// before its Successor share; the Successors once TryFlush returns.
//
// # Coalescing semantics
//
// Each flush is one linearization point for every operation it contains
// (docs/FRONTEND.md is the normative statement):
//
//   - Writes happen before reads. All Upserts and Deletes of a flush are
//     applied to the Map first; every Get and Successor in the same flush
//     observes the post-write state, regardless of arrival order within
//     the flush.
//   - Last writer wins per key. Conflicting writes to the same key are
//     coalesced: only the final write (in arrival order) reaches the Map.
//     Every superseded write still receives its correct reply — the
//     per-key op sequence is replayed against the presence bit learned
//     from the coalesced batch, exactly as if the ops had executed one at
//     a time in arrival order.
//   - Replies are exact. A frontend reply is bit-identical to what a
//     direct one-op batch would have returned at the flush's
//     linearization point; the chaos soak verifies this under every
//     fault plan.
//
// # Scheduling
//
// The collector flushes as soon as the backend is idle and ops are
// pending (the low-latency fast path), and immediately once MaxBatch ops
// have accumulated. Config.MaxWait adds an optional dwell after the first
// op of a forming batch, trading latency for larger (cheaper per-op)
// batches. While a flush executes, newly arriving ops pile up into the
// next batch — under load, batching emerges without any timer.
package frontend

import (
	"cmp"
	"time"

	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// Config tunes the collector. The zero value selects the defaults.
type Config struct {
	// MaxBatch caps the number of client ops coalesced into one flush.
	// 0 selects 4096. Larger batches amortize better; smaller batches
	// bound tail latency.
	MaxBatch int
	// MaxWait is the dwell: after the first op of a forming batch arrives,
	// the collector waits up to MaxWait (or until MaxBatch ops) before
	// flushing. 0 — the default — disables the dwell: the collector
	// submits as soon as the Map is idle. Under concurrent load batches
	// form anyway, because ops arriving during a flush coalesce into the
	// next one.
	MaxWait time.Duration
}

// Stats reports the collector's accumulated behaviour; read with
// Frontend.Stats. A flush is counted once its last reply is out, and the
// counts are final once Close has returned.
type Stats struct {
	// Ops is the number of client operations completed (including ops
	// answered with an error).
	Ops int64
	// Flushes is the number of batches submitted to the Map.
	Flushes int64
	// Submitted is the number of operations that reached the Map after
	// write-coalescing; Ops - Submitted writes were answered by replay.
	Submitted int64
	// MaxFlush is the largest coalesced flush so far.
	MaxFlush int
	// QueueWait is the summed enqueue→flush wait over all ops;
	// MaxQueueWait the largest single wait.
	QueueWait    time.Duration
	MaxQueueWait time.Duration
	// FlushTime is the summed wall time spent executing flushes.
	FlushTime time.Duration
	// Errors is the number of ops answered with an error.
	Errors int64
}

// Frontend coalesces single-key operations from concurrent goroutines into
// batches on one core.Map. Create with New; all exported methods are safe
// for concurrent use. The Frontend must be the Map's only driver — direct
// batch calls on the same Map while the frontend is open race with the
// collector and fail with core.ErrConcurrentBatch.
type Frontend[K cmp.Ordered, V any] struct {
	collector[K, V]
	mb mapBackend[K, V]
}

// New starts a collector over m. The frontend takes over as the Map's sole
// driver; use Close to stop it (the Map itself is left open — closing it
// remains the caller's responsibility).
func New[K cmp.Ordered, V any](m *core.Map[K, V], cfg Config) *Frontend[K, V] {
	f := &Frontend[K, V]{mb: mapBackend[K, V]{m: m}}
	f.init(&f.mb, cfg.MaxBatch, cfg.MaxWait)
	go f.run()
	return f
}

// Map returns the underlying Map (read-only introspection — Len, stats,
// trace sinks; do not run batches on it while the frontend is open).
func (f *Frontend[K, V]) Map() *core.Map[K, V] { return f.mb.m }

// mapBackend flushes into one core.Map, keeping reply buffers across
// flushes so steady-state flushes allocate nothing.
type mapBackend[K cmp.Ordered, V any] struct {
	m    *core.Map[K, V]
	ures []bool
	dres []bool
	gres []core.GetResult[V]
	sres []core.SearchResult[K, V]
}

// flushSink returns the Map's trace sink if it takes FlushStat events; it
// is read per flush, so Map.SetTraceSink takes effect at the next flush.
func (b *mapBackend[K, V]) flushSink() trace.FlushSink {
	s, _ := b.m.TraceSink().(trace.FlushSink)
	return s
}

// flush runs the sub-batches through the Map writes first — Upsert, Delete,
// Get, Successor — and answers each kind as soon as its sub-batch returns,
// so a flush's Gets are not held back by its Successors. Errors follow the
// batch engine: a failed write sub-batch fails every op of the flush (the
// chains cannot be replayed; writes of an earlier sub-batch may already
// have been applied), a failed Get sub-batch fails the Gets and the
// Successors not yet run, and a failed Successor sub-batch fails only the
// Successors.
func (b *mapBackend[K, V]) flush(ws *flushWS[K, V], batch []*future[K, V]) int {
	if len(ws.ukeys) > 0 {
		res, _, err := b.m.TryUpsertInto(ws.ukeys, ws.uvals, b.ures)
		if err != nil {
			deliverErr(batch, err)
			return len(batch)
		}
		b.ures = res
	}
	if len(ws.dkeys) > 0 {
		res, _, err := b.m.TryDeleteInto(ws.dkeys, b.dres)
		if err != nil {
			deliverErr(batch, err)
			return len(batch)
		}
		b.dres = res
	}

	// The Map's reply to a final write tells us the key's presence at the
	// start of the flush (upsert: inserted ⇒ absent; delete: found ⇒
	// present). Replaying the key's op chain against that bit yields the
	// exact reply every op — superseded or final — would have received had
	// it run as its own batch.
	for x, head := range ws.uhead {
		ws.replay(head, !b.ures[x])
	}
	for x, head := range ws.dhead {
		ws.replay(head, b.dres[x])
	}

	if len(ws.gkeys) > 0 {
		res, _, err := b.m.TryGetInto(ws.gkeys, b.gres)
		if err != nil {
			deliverErr(ws.gfut, err)
			deliverErr(ws.sfut, err)
			return len(ws.gfut) + len(ws.sfut)
		}
		b.gres = res
		for i, fu := range ws.gfut {
			fu.found = res[i].Found
			fu.rval = res[i].Value
			fu.ready <- struct{}{}
		}
	}
	if len(ws.skeys) > 0 {
		res, _, err := b.m.TrySuccessorInto(ws.skeys, b.sres)
		if err != nil {
			deliverErr(ws.sfut, err)
			return len(ws.sfut)
		}
		b.sres = res
		for i, fu := range ws.sfut {
			fu.found = res[i].Found
			fu.rkey = res[i].Key
			fu.rval = res[i].Value
			fu.ready <- struct{}{}
		}
	}
	return 0
}
