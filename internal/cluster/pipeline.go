// Cluster-level pipelining: overlap the CPU scatter of batch k+1 with the
// parallel shard execution of batch k (docs/PIPELINE.md).
//
// The determinism argument mirrors core.Pipeline's. Routing is a pure hash
// of the key (ShardFor reads no shard state), so the counting-sort scatter
// of a later batch computes exactly what the serial schedule would, no
// matter how far the earlier batch has progressed. Everything
// state-dependent — shard execution, journaling, recovery — runs strictly
// FIFO on one executor goroutine, and replies are assembled in shard-id
// order, so every result, per-key error, and Stats is bit-identical to the
// serial schedule. The channel hand-off orders the scatter's writes before
// the executor's reads.
package cluster

import (
	"cmp"
	"fmt"
	"sync"

	"pimgo/internal/core"
)

// clusterPipeKind discriminates a pipelined cluster batch.
type clusterPipeKind int8

const (
	cpGet clusterPipeKind = iota
	cpUpsert
	cpDelete
	cpSucc
)

// clusterSlot is one of the pipeline's two scatter workspaces plus the
// batch prepped on it. Broadcast batches (Successor) copy the keys into
// succ so the caller's slice is released at Submit return, like the
// scattered point ops.
type clusterSlot[K cmp.Ordered, V any] struct {
	ws   *clusterWS[K, V]
	succ []K
	kind clusterPipeKind
	tk   *ClusterTicket[K, V]
}

// ClusterPipeResult is the outcome of one pipelined cluster batch: the same
// (results, per-key errs, Stats) triple the serial Try* entry points return,
// plus Err for failures of the whole call (ErrClosed, ErrBadBatch).
type ClusterPipeResult[K cmp.Ordered, V any] struct {
	// Gets holds SubmitGet results; Bools SubmitUpsert/SubmitDelete results;
	// Searches SubmitSuccessor results — in the caller's submission order.
	Gets     []core.GetResult[V]
	Bools    []bool
	Searches []core.SearchResult[K, V]
	// Errs is the per-key (or, for Successor, per-query) typed error surface:
	// nil when every shard served, else ErrShardDown/... exactly as serial.
	Errs []error
	// Stats is the per-shard cost breakdown, identical to the serial batch.
	Stats Stats
	// Err reports a failure of the whole submission; other fields are zero.
	Err error
}

// ClusterTicket is the future of one pipelined cluster batch.
type ClusterTicket[K cmp.Ordered, V any] struct {
	ch chan ClusterPipeResult[K, V]
}

// Wait blocks until the batch completes and returns its result. A ticket is
// single-use.
func (t *ClusterTicket[K, V]) Wait() ClusterPipeResult[K, V] { return <-t.ch }

// ClusterPipeline is the two-deep pipeline over one Cluster: Submit* runs
// the routing scatter on the caller's goroutine and enqueues the batch; a
// dedicated executor runs shard fan-outs strictly FIFO. While the pipeline
// is open it holds the cluster's single-flight gate, so direct Try* batches
// fail with ErrConcurrentBatch; Close releases the cluster for serial use.
//
// Range operations are not pipelined: their merge allocates per batch and
// their broadcast carries closures (Transform/Reduce) whose execution order
// against concurrent scatters would be caller-visible. Use the serial
// TryRangeOperation between pipelined runs.
type ClusterPipeline[K cmp.Ordered, V any] struct {
	c      *Cluster[K, V]
	mu     sync.Mutex
	jobs   chan *clusterSlot[K, V]
	free   chan *clusterSlot[K, V]
	done   chan struct{}
	closed bool
}

// NewClusterPipeline opens a pipeline over c, acquiring its batch gate for
// the pipeline's lifetime. The cluster's own scatter workspace becomes one
// pipeline slot and a second is built for the other.
func NewClusterPipeline[K cmp.Ordered, V any](c *Cluster[K, V]) (*ClusterPipeline[K, V], error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	p := &ClusterPipeline[K, V]{
		c:    c,
		jobs: make(chan *clusterSlot[K, V], 1),
		free: make(chan *clusterSlot[K, V], 2),
		done: make(chan struct{}),
	}
	p.free <- &clusterSlot[K, V]{ws: &c.ws}
	p.free <- &clusterSlot[K, V]{ws: &clusterWS[K, V]{}}
	go p.run()
	return p, nil
}

// newTicket builds a resolved-once future.
func newClusterTicket[K cmp.Ordered, V any]() *ClusterTicket[K, V] {
	return &ClusterTicket[K, V]{ch: make(chan ClusterPipeResult[K, V], 1)}
}

// reject resolves tk immediately with err, without consuming a slot.
func (p *ClusterPipeline[K, V]) reject(tk *ClusterTicket[K, V], err error) *ClusterTicket[K, V] {
	tk.ch <- ClusterPipeResult[K, V]{Err: err}
	return tk
}

// submit scatters (or copies) the batch into a free slot and enqueues it.
func (p *ClusterPipeline[K, V]) submit(kind clusterPipeKind, keys []K, vals []V) *ClusterTicket[K, V] {
	p.mu.Lock()
	defer p.mu.Unlock()
	tk := newClusterTicket[K, V]()
	if p.closed {
		return p.reject(tk, core.ErrClosed)
	}
	if kind == cpUpsert && len(keys) != len(vals) {
		return p.reject(tk, fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)",
			core.ErrBadBatch, len(keys), len(vals)))
	}
	slot := <-p.free
	slot.kind, slot.tk = kind, tk
	var f Flush[K, V] // one sub-batch: the serial Try* call's flush
	switch kind {
	case cpGet:
		f.GetKeys = keys
	case cpUpsert:
		f.UpsertKeys, f.UpsertVals = keys, vals
	case cpDelete:
		f.DeleteKeys = keys
	case cpSucc:
		// Broadcast: no routing, but copy the keys so the caller's slice is
		// not aliased by the in-flight batch.
		slot.succ = append(slot.succ[:0], keys...)
		f.SuccKeys = slot.succ
	}
	p.c.scatterFlush(slot.ws, &f)
	p.jobs <- slot
	return tk
}

// SubmitGet enqueues a point-Get batch (semantics of Cluster.TryGet).
func (p *ClusterPipeline[K, V]) SubmitGet(keys []K) *ClusterTicket[K, V] {
	return p.submit(cpGet, keys, nil)
}

// SubmitUpsert enqueues an Upsert batch (semantics of Cluster.TryUpsert).
func (p *ClusterPipeline[K, V]) SubmitUpsert(keys []K, vals []V) *ClusterTicket[K, V] {
	return p.submit(cpUpsert, keys, vals)
}

// SubmitDelete enqueues a Delete batch (semantics of Cluster.TryDelete).
func (p *ClusterPipeline[K, V]) SubmitDelete(keys []K) *ClusterTicket[K, V] {
	return p.submit(cpDelete, keys, nil)
}

// SubmitSuccessor enqueues a broadcast Successor batch (semantics of
// Cluster.TrySuccessor).
func (p *ClusterPipeline[K, V]) SubmitSuccessor(keys []K) *ClusterTicket[K, V] {
	return p.submit(cpSucc, keys, nil)
}

// Drain blocks until every submitted batch has resolved its ticket.
func (p *ClusterPipeline[K, V]) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := <-p.free
	b := <-p.free
	p.free <- a
	p.free <- b
}

// Close drains the pipeline, stops the executor, and releases the cluster's
// batch gate for serial use. Idempotent; it does not close the Cluster.
func (p *ClusterPipeline[K, V]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	<-p.done
	p.c.end()
}

// run is the executor: shard fan-outs, strictly FIFO.
func (p *ClusterPipeline[K, V]) run() {
	for slot := range p.jobs {
		res := p.runJob(slot)
		tk := slot.tk
		slot.tk = nil
		tk.ch <- res
		p.free <- slot
	}
	close(p.done)
}

// runJob executes one scattered batch against the shards through the
// serial path's own run-and-gather (Cluster.runFlush), so results, per-key
// errors and Stats are the serial entry point's. The replies land in a
// fresh Flush, whose buffers the ticket hands to the caller.
func (p *ClusterPipeline[K, V]) runJob(slot *clusterSlot[K, V]) ClusterPipeResult[K, V] {
	var f Flush[K, V]
	res := ClusterPipeResult[K, V]{Stats: p.c.runFlush(slot.ws, &f)}
	switch slot.kind {
	case cpGet:
		res.Gets, res.Errs = f.Gets, f.GetErrs
	case cpUpsert:
		res.Bools, res.Errs = f.Upserted, f.UpsertErrs
	case cpDelete:
		res.Bools, res.Errs = f.Deleted, f.DeleteErrs
	case cpSucc:
		res.Searches, res.Errs = f.Succs, f.SuccErrs
	}
	return res
}
