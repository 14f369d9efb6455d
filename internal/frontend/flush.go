package frontend

import (
	"cmp"
	"time"
)

// flushWS is the collector-owned scratch for one flush: the batch
// partitioned by kind, with conflicting writes coalesced. Every slice and
// the map keep their high-water capacity, so steady-state flushes allocate
// nothing.
type flushWS[K cmp.Ordered, V any] struct {
	// Write coalescing: wfut holds the flush's write futures in arrival
	// order; wnext[i] is the index of the next write to the same key (-1 if
	// i is the key's final write) and whead[i] the index of the key's first
	// write; widx maps each written key to its latest write so far. The
	// links are read-only once partition returns, so chains of different
	// keys can be replayed concurrently.
	widx  map[K]int32
	wfut  []*future[K, V]
	wnext []int32
	whead []int32

	// Final writes submitted to the backend: the coalesced Upsert batch,
	// the coalesced Delete batch, and for each the wfut index of its key's
	// first write, where replay starts.
	ukeys []K
	uvals []V
	uhead []int32
	dkeys []K
	dhead []int32

	// Reads, demultiplexed positionally.
	gkeys []K
	gfut  []*future[K, V]
	skeys []K
	sfut  []*future[K, V]
}

func (ws *flushWS[K, V]) init() { ws.widx = make(map[K]int32) }

// reset readies the workspace for the next flush, zeroing pointer-bearing
// slices so parked capacity does not pin futures.
func (ws *flushWS[K, V]) reset() {
	clear(ws.widx)
	clear(ws.wfut)
	ws.wfut = ws.wfut[:0]
	ws.wnext = ws.wnext[:0]
	ws.whead = ws.whead[:0]
	ws.ukeys = ws.ukeys[:0]
	ws.uvals = ws.uvals[:0]
	ws.uhead = ws.uhead[:0]
	ws.dkeys = ws.dkeys[:0]
	ws.dhead = ws.dhead[:0]
	ws.gkeys = ws.gkeys[:0]
	clear(ws.gfut)
	ws.gfut = ws.gfut[:0]
	ws.skeys = ws.skeys[:0]
	clear(ws.sfut)
	ws.sfut = ws.sfut[:0]
}

// partition sorts the batch into the workspace's per-kind sub-batches,
// coalescing conflicting writes per key (last writer wins), and accumulates
// the queue-wait statistics. It returns the number of ops that will reach
// the backend.
func (ws *flushWS[K, V]) partition(batch []*future[K, V], start time.Time, queueWait, maxQueueWait *time.Duration) (submitted int) {
	ws.reset()
	for _, fu := range batch {
		w := start.Sub(fu.enq)
		*queueWait += w
		if w > *maxQueueWait {
			*maxQueueWait = w
		}
		switch fu.kind {
		case opGet:
			ws.gkeys = append(ws.gkeys, fu.key)
			ws.gfut = append(ws.gfut, fu)
		case opSucc:
			ws.skeys = append(ws.skeys, fu.key)
			ws.sfut = append(ws.sfut, fu)
		default: // opUpsert, opDelete
			i := int32(len(ws.wfut))
			head := i
			if last, dup := ws.widx[fu.key]; dup {
				ws.wnext[last] = i
				head = ws.whead[last]
			}
			ws.wfut = append(ws.wfut, fu)
			ws.wnext = append(ws.wnext, -1)
			ws.whead = append(ws.whead, head)
			ws.widx[fu.key] = i
		}
	}

	// Pick each key's final write, in arrival order of the finals. The
	// Upsert and Delete sub-batches then touch disjoint key sets: a key's
	// single surviving write is either an upsert or a delete.
	for i, fu := range ws.wfut {
		if ws.wnext[i] >= 0 {
			continue // superseded; answered by replay
		}
		if fu.kind == opUpsert {
			ws.ukeys = append(ws.ukeys, fu.key)
			ws.uvals = append(ws.uvals, fu.val)
			ws.uhead = append(ws.uhead, ws.whead[i])
		} else {
			ws.dkeys = append(ws.dkeys, fu.key)
			ws.dhead = append(ws.dhead, ws.whead[i])
		}
	}
	return len(ws.ukeys) + len(ws.dkeys) + len(ws.gkeys) + len(ws.skeys)
}

// replay walks one key's write chain, from its first write at wfut index
// head, in arrival order, starting from the key's presence at flush start,
// and replies to every write future in the chain. It touches only that
// chain, so the chains of different keys may be replayed concurrently.
func (ws *flushWS[K, V]) replay(head int32, present bool) {
	for j := head; j >= 0; j = ws.wnext[j] {
		fu := ws.wfut[j]
		if fu.kind == opUpsert {
			fu.found = !present // inserted iff absent
			present = true
		} else {
			fu.found = present // deleted iff present
			present = false
		}
		fu.ready <- struct{}{}
	}
}

// failChain answers every write future in one key's chain (from its first
// write at wfut index head) with err, returning the number answered. The
// cluster backend uses it when a final write lands on a down shard: the
// key's presence is unknowable, so no op in the chain can be replayed.
func (ws *flushWS[K, V]) failChain(head int32, err error) int {
	n := 0
	for j := head; j >= 0; j = ws.wnext[j] {
		fu := ws.wfut[j]
		fu.err = err
		fu.ready <- struct{}{}
		n++
	}
	return n
}

// deliverErr answers every future in futs with err.
func deliverErr[K cmp.Ordered, V any](futs []*future[K, V], err error) {
	for _, fu := range futs {
		fu.err = err
		fu.ready <- struct{}{}
	}
}
