package frontend

import (
	"cmp"
	"runtime"
	"sync"
	"time"

	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// backend is the one part of a flush that differs between the frontends:
// what the partitioned sub-batches are submitted to, and when each reply
// goes out. Everything else — intake, gather/dwell, chunking, Close,
// accounting — is the collector's.
type backend[K cmp.Ordered, V any] interface {
	// flush runs ws's sub-batches and answers every future of batch,
	// returning how many it answered with an error.
	flush(ws *flushWS[K, V], batch []*future[K, V]) (errs int)
	// flushSink is the sink for the flush's trace.FlushStat, or nil.
	flushSink() trace.FlushSink
}

// collector is the machinery both frontends run on: the client-facing
// intake (pooled futures, a pending/spare double buffer, the four single-key
// operations in intake.go) and the collector goroutine that swaps pending
// out, flushes it in MaxBatch chunks through the backend, and accounts for
// every flush.
type collector[K cmp.Ordered, V any] struct {
	// The fields every client op touches (mu through pool) come first, on
	// other cache lines than the scratch ws the collector rewrites per op
	// while it partitions: an order that put pool next to ws measured
	// about 5% slower on bench serve-map.
	mu      sync.Mutex
	pending []*future[K, V] // client-appended, collector-swapped
	spare   []*future[K, V] // the other half of the double buffer
	closed  bool
	// due, set under mu by an optional background goroutine, asks the
	// collector to run hook between flushes (the ClusterFrontend's
	// rebalance loop). The hook clears it; Close drops it.
	due    bool
	notify chan struct{} // cap 1: "pending (or hook work) may be ready"
	done   chan struct{} // closed when the collector exits
	pool   chan *future[K, V]

	hook  func()
	quit  chan struct{}  // closed when Close begins
	aux   sync.WaitGroup // background goroutines Close waits for
	stats Stats          // guarded by mu

	be       backend[K, V]
	maxBatch int
	maxWait  time.Duration
	ws       flushWS[K, V] // collector-owned scratch
}

// init readies the collector over be; the owner then starts run. A
// non-positive maxBatch selects 4096; a negative maxWait disables the
// dwell.
func (c *collector[K, V]) init(be backend[K, V], maxBatch int, maxWait time.Duration) {
	if maxBatch <= 0 {
		maxBatch = 4096
	}
	c.be, c.maxBatch, c.maxWait = be, maxBatch, max(maxWait, 0)
	c.pending = make([]*future[K, V], 0, maxBatch)
	c.spare = make([]*future[K, V], 0, maxBatch)
	c.notify = make(chan struct{}, 1)
	c.quit = make(chan struct{})
	c.done = make(chan struct{})
	c.pool = make(chan *future[K, V], poolCap(maxBatch))
	c.ws.init()
}

// Stats returns a snapshot of the collector statistics. A flush is counted
// once its last reply is out, so a client that has its reply may read
// Stats before its flush is counted; Stats is final after Close returns.
func (c *collector[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drains the collector — every already-enqueued op still receives its
// reply — stops any background goroutine, and shuts the frontend down. Ops
// submitted after Close fail with core.ErrClosed. Close is idempotent and
// safe to call concurrently with client ops: exactly one caller (the one
// that performed the shutdown) returns nil, every other call — second,
// concurrent, or racing in-flight ops — returns core.ErrClosed after the
// collector has fully drained. The backing Map or cluster stays open.
func (c *collector[K, V]) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		close(c.quit)
	}
	c.aux.Wait()
	c.wake()
	<-c.done
	if already {
		return core.ErrClosed
	}
	return nil
}

// run is the collector goroutine: wait for ops (or hook work), gather and
// optionally dwell to let the batch fill, swap the double buffer, flush in
// MaxBatch chunks, then run the hook if it is due.
func (c *collector[K, V]) run() {
	defer close(c.done)
	var tmr *time.Timer
	for {
		c.mu.Lock()
		for len(c.pending) == 0 {
			if c.closed {
				c.mu.Unlock()
				return // closed and drained; due hook work is dropped
			}
			if c.due {
				break
			}
			c.mu.Unlock()
			<-c.notify
			c.mu.Lock()
		}
		// Gather: yield to runnable client goroutines until the forming
		// batch stops growing or fills. A channel wakeup schedules the
		// collector immediately after the first enqueuer blocks, which
		// would flush batches of one op each; ceding the processor lets
		// every runnable client append first. When no clients are runnable
		// the yield returns immediately — the idle fast path stays fast.
		for {
			n := len(c.pending)
			if n >= c.maxBatch || c.closed {
				break
			}
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if len(c.pending) == n {
				break
			}
		}
		if c.maxWait > 0 && len(c.pending) > 0 {
			// Dwell: hold the forming batch open until it fills, the
			// deadline passes, or the frontend starts closing.
			deadline := c.pending[0].enq.Add(c.maxWait)
			for len(c.pending) < c.maxBatch && !c.closed {
				d := time.Until(deadline)
				if d <= 0 {
					break
				}
				c.mu.Unlock()
				if tmr == nil {
					tmr = time.NewTimer(d)
				} else {
					tmr.Reset(d)
				}
				expired := false
				select {
				case <-c.notify:
					if !tmr.Stop() {
						<-tmr.C
					}
				case <-tmr.C:
					expired = true
				}
				c.mu.Lock()
				if expired {
					break
				}
			}
		}
		hook := c.due && !c.closed
		batch := c.pending
		c.pending, c.spare = c.spare, nil
		c.mu.Unlock()

		c.drain(batch)
		if hook {
			c.hook()
		}
	}
}

// flushPending drains whatever ops queued since the last flush — one swap,
// not a loop, so sustained traffic cannot livelock the caller. It must run
// on the collector goroutine (the ClusterFrontend's migration phases call
// it from the hook), which owns the flush workspace.
func (c *collector[K, V]) flushPending() {
	c.mu.Lock()
	batch := c.pending
	c.pending, c.spare = c.spare, nil
	c.mu.Unlock()
	c.drain(batch)
}

// drain flushes a swapped-out pending buffer in MaxBatch chunks, then parks
// it as the spare half of the double buffer.
func (c *collector[K, V]) drain(batch []*future[K, V]) {
	for off := 0; off < len(batch); off += c.maxBatch {
		c.flush(batch[off:min(off+c.maxBatch, len(batch))])
	}
	clear(batch) // drop future refs before parking the buffer
	c.mu.Lock()
	c.spare = batch[:0]
	c.mu.Unlock()
}

// flush executes one coalesced batch: partition it by kind, coalescing
// conflicting writes per key (last writer wins), hand the sub-batches to
// the backend, which answers every future, then account for the flush.
func (c *collector[K, V]) flush(batch []*future[K, V]) {
	start := time.Now()
	var queueWait, maxQueueWait time.Duration
	submitted := c.ws.partition(batch, start, &queueWait, &maxQueueWait)
	errs := c.be.flush(&c.ws, batch)
	c.finish(start, len(batch), submitted, errs, queueWait, maxQueueWait)
}

// finish records the flush in the collector stats and emits a FlushStat to
// the backend's sink, if it has one.
func (c *collector[K, V]) finish(start time.Time, ops, submitted, errs int, queueWait, maxQueueWait time.Duration) {
	flushTime := time.Since(start)
	if sink := c.be.flushSink(); sink != nil {
		sink.Flush(trace.FlushStat{
			Ops:          ops,
			Submitted:    submitted,
			QueueWait:    queueWait,
			MaxQueueWait: maxQueueWait,
			FlushTime:    flushTime,
		})
	}
	c.mu.Lock()
	st := &c.stats
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
	st.Errors += int64(errs)
	c.mu.Unlock()
}
