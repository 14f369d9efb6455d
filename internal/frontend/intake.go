package frontend

import (
	"cmp"
	"time"

	"pimgo/internal/core"
)

// This file is the client-facing half of the collector: the pooled futures
// and the four public single-key operations, identical for both frontends,
// so they share one zero-alloc enqueue/reply contract.

// opKind discriminates the future's operation.
type opKind uint8

const (
	opGet opKind = iota
	opUpsert
	opDelete
	opSucc
)

// future is one in-flight client operation: the request fields, the reply
// fields, and a one-slot channel the collector signals when the reply is
// ready. Futures are pooled; the steady-state enqueue/reply path reuses
// them without allocating.
type future[K cmp.Ordered, V any] struct {
	ready chan struct{}

	kind opKind
	key  K
	val  V
	enq  time.Time

	// Reply fields. found carries Get/Successor presence, Upsert's
	// "inserted", and Delete's "was present".
	found bool
	rkey  K
	rval  V
	err   error
}

// poolCap sizes the future free-list: enough for several flushes' worth of
// concurrent clients; beyond it, bursts fall back to the allocator.
func poolCap(maxBatch int) int {
	c := 4 * maxBatch
	if c < 1024 {
		c = 1024
	}
	return c
}

// take pops a pooled future (or allocates one on burst).
func (c *collector[K, V]) take() *future[K, V] {
	select {
	case fu := <-c.pool:
		fu.err = nil
		return fu
	default:
		return &future[K, V]{ready: make(chan struct{}, 1)}
	}
}

// put recycles a future, zeroing value-carrying fields so the pool does not
// retain caller data.
func (c *collector[K, V]) put(fu *future[K, V]) {
	var zk K
	var zv V
	fu.key, fu.rkey = zk, zk
	fu.val, fu.rval = zv, zv
	fu.err = nil
	select {
	case c.pool <- fu:
	default: // pool full: let the GC have it
	}
}

// enqueue appends fu to the pending batch and wakes the collector.
func (c *collector[K, V]) enqueue(fu *future[K, V]) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return core.ErrClosed
	}
	fu.enq = time.Now()
	c.pending = append(c.pending, fu)
	c.mu.Unlock()
	c.wake()
	return nil
}

// wake pokes the collector's wakeup channel (lossy: cap 1 is enough, the
// collector re-checks all work sources every iteration).
func (c *collector[K, V]) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Get returns the key's presence and value as of this op's flush (after
// that flush's writes).
func (c *collector[K, V]) Get(key K) (core.GetResult[V], error) {
	fu := c.take()
	fu.kind, fu.key = opGet, key
	if err := c.enqueue(fu); err != nil {
		c.put(fu)
		return core.GetResult[V]{}, err
	}
	<-fu.ready
	res := core.GetResult[V]{Found: fu.found, Value: fu.rval}
	err := fu.err
	c.put(fu)
	return res, err
}

// Upsert inserts or overwrites the key, reporting whether it was inserted
// (absent at this op's point in its flush's arrival order).
func (c *collector[K, V]) Upsert(key K, val V) (bool, error) {
	fu := c.take()
	fu.kind, fu.key, fu.val = opUpsert, key, val
	if err := c.enqueue(fu); err != nil {
		c.put(fu)
		return false, err
	}
	<-fu.ready
	inserted, err := fu.found, fu.err
	c.put(fu)
	return inserted, err
}

// Delete removes the key, reporting whether it was present (at this op's
// point in its flush's arrival order).
func (c *collector[K, V]) Delete(key K) (bool, error) {
	fu := c.take()
	fu.kind, fu.key = opDelete, key
	if err := c.enqueue(fu); err != nil {
		c.put(fu)
		return false, err
	}
	<-fu.ready
	present, err := fu.found, fu.err
	c.put(fu)
	return present, err
}

// Successor returns the smallest key ≥ key with its value, as of this op's
// flush (after that flush's writes).
func (c *collector[K, V]) Successor(key K) (core.SearchResult[K, V], error) {
	fu := c.take()
	fu.kind, fu.key = opSucc, key
	if err := c.enqueue(fu); err != nil {
		c.put(fu)
		return core.SearchResult[K, V]{}, err
	}
	<-fu.ready
	res := core.SearchResult[K, V]{Found: fu.found, Key: fu.rkey, Value: fu.rval}
	err := fu.err
	c.put(fu)
	return res, err
}
