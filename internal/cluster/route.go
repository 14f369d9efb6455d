// Epoch-versioned, order-preserving routing: the slot table that makes live
// rebalancing possible (docs/REBALANCE.md).
//
// A key's routing slot is its rank among at most Slots−1 sorted splitter
// keys, so slot j holds the keys in [bounds[j−1], bounds[j]) and
// consecutive slots hold consecutive key ranges (a missing splitter is +∞).
// The first Upsert sub-batch that reaches the empty cluster sets them
// (splitFirst); until then every key is in slot 0. An immutable slot→shard
// table maps slots to owners. Each migration builds a new table and
// publishes it atomically as the next epoch, carrying the splitters over;
// a split first re-cuts the splitters inside its source's runs from the
// source's frozen base (recut), so the splitters follow the data rather
// than the first batch. Because every batch runs under the cluster's
// single-flight gate and a migration's cutover holds that same gate, a
// batch observes exactly one epoch: the old epoch is fully drained (no
// batch in flight) before the new one becomes visible, which is what keeps
// replies bit-identical to a single Map across a cutover.
//
// Order is what lets a Successor ask one shard: the owner of the query's
// slot holds every key of its run of consecutive owned slots, so an answer
// below the run's upper fence is the cluster-wide answer (final).
package cluster

import (
	"cmp"
	"slices"
	"sync/atomic"

	"pimgo/internal/core"
)

// epochView is one immutable snapshot of the routing state: the epoch id,
// the splitters, the slot→shard ownership table with each slot's run end,
// the shard roster, and the per-shard owned slot counts (owned[s] == 0
// marks a retired shard, which broadcasts skip). Readers load the whole
// view with one atomic pointer load; writers (migrations, splitFirst) build
// a fresh view and publish it with one store while holding the batch gate.
type epochView[K cmp.Ordered, V any] struct {
	id int64
	// bounds holds at most Slots−1 sorted splitters; slot j's upper fence
	// is bounds[j], +∞ for j ≥ len(bounds). Nil until splitFirst or recut
	// sets them, when every key is in slot 0.
	bounds []K
	slots  []int32
	// runEnd[j] is the last slot of the run of consecutive slots owned by
	// slot j's owner that contains j.
	runEnd []int32
	shards []*shard[K, V]
	owned  []int
}

// newEpochView builds a view, deriving runEnd and owned from the table.
func newEpochView[K cmp.Ordered, V any](id int64, bounds []K, slots []int32, shards []*shard[K, V]) *epochView[K, V] {
	v := &epochView[K, V]{id: id, bounds: bounds, slots: slots, runEnd: make([]int32, len(slots)),
		shards: shards, owned: make([]int, len(shards))}
	for j := len(slots) - 1; j >= 0; j-- {
		v.owned[slots[j]]++
		v.runEnd[j] = int32(j)
		if j+1 < len(slots) && slots[j+1] == slots[j] {
			v.runEnd[j] = v.runEnd[j+1]
		}
	}
	return v
}

// slot returns key's routing slot: the number of splitters ≤ key.
func (v *epochView[K, V]) slot(key K) int {
	lo, hi := 0, len(v.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.bounds[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// shardOf returns the shard that owns key's slot.
func (v *epochView[K, V]) shardOf(key K) int { return int(v.slots[v.slot(key)]) }

// final reports whether r, the answer the owner of slot j gave to a
// Successor query in that slot, is the cluster-wide answer. The owner holds
// every key of its run [a, e] ∋ j, that is every key in [bounds[a−1],
// bounds[e]); so its smallest key ≥ the query is the cluster's when it lies
// below that fence, or when the fence is +∞ (the run reaches the last slot,
// or every slot past it is empty).
func (v *epochView[K, V]) final(j int, r core.SearchResult[K, V]) bool {
	e := int(v.runEnd[j])
	return e >= len(v.bounds) || r.Found && r.Key < v.bounds[e]
}

// recut returns the splitters with those inside each run of shard s's slots
// re-drawn from keys, s's sorted keys, so that the slots of a run hold
// equal shares of the run's keys: run [a, e] holding the n keys r gets
// bounds[a+i−1] = r[i·n/(e−a+1)] for 0 < i ≤ e−a. Only fences inside s's
// runs move, so every key keeps its owner. A run whose lower fence is +∞
// holds no key and keeps its fences.
func (v *epochView[K, V]) recut(s int, keys []K) []K {
	bounds := slices.Clone(v.bounds)
	for a := 0; a < len(v.slots); a = int(v.runEnd[a]) + 1 {
		e := int(v.runEnd[a])
		if int(v.slots[a]) != s || e == a || a > len(v.bounds) {
			continue
		}
		lo, hi := 0, len(keys)
		if a > 0 {
			lo, _ = slices.BinarySearch(keys, v.bounds[a-1])
		}
		if e < len(v.bounds) {
			hi, _ = slices.BinarySearch(keys, v.bounds[e])
		}
		run, m := keys[lo:hi], e-a+1
		if len(run) == 0 {
			continue
		}
		if len(bounds) < e {
			bounds = append(bounds, make([]K, e-len(bounds))...)
		}
		for i := 1; i < m; i++ {
			bounds[a+i-1] = run[i*len(run)/m]
		}
	}
	return bounds
}

// viewPtr wraps the atomic pointer so Cluster's zero value stays illegal to
// use (New always stores the initial view).
type viewPtr[K cmp.Ordered, V any] struct {
	p atomic.Pointer[epochView[K, V]]
}

func (v *viewPtr[K, V]) load() *epochView[K, V]   { return v.p.Load() }
func (v *viewPtr[K, V]) store(e *epochView[K, V]) { v.p.Store(e) }

// splitFirst sets the splitters from keys, the keys of an Upsert sub-batch,
// if v has none, the cluster holds no key and no migration is in flight
// (a migration publishes its next view from its base, so splitters set
// during its copy phase would be lost); it returns the view to route by.
// The splitters are the Slots-quantiles of the sorted keys, bounds[i] =
// sorted[(i+1)·n/Slots]: a pure function of the batch. With the cluster
// empty no key changes owner, and the epoch stays as it is. Call with the
// batch gate held.
func (c *Cluster[K, V]) splitFirst(v *epochView[K, V], keys []K) *epochView[K, V] {
	if v.bounds != nil || len(keys) == 0 || c.migrating.Load() || c.Len() != 0 {
		return v
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	n, ns := len(sorted), len(v.slots)
	bounds := make([]K, ns-1)
	for i := range bounds {
		bounds[i] = sorted[(i+1)*n/ns]
	}
	next := newEpochView(v.id, bounds, v.slots, v.shards)
	c.view.store(next)
	return next
}

// Epoch returns the current routing-table epoch. It starts at 0 and
// increments once per published migration (SplitShard, MergeShards, or each
// action of Rebalance).
func (c *Cluster[K, V]) Epoch() int64 { return c.view.load().id }

// Slots returns the number of routing slots (fixed at construction; see
// Config.Slots).
func (c *Cluster[K, V]) Slots() int { return len(c.view.load().slots) }

// SlotOf returns key's routing slot: its rank among the splitters. It is 0
// for every key until the first Upsert into the empty cluster sets the
// splitters. After that a key's slot changes only when a split re-cuts the
// runs of the shard that owns it, and then stays within the same run, so
// no migration changes a key's owner except by moving its slot.
func (c *Cluster[K, V]) SlotOf(key K) int { return c.view.load().slot(key) }

// ShardOfSlot returns the shard that currently owns routing slot i.
func (c *Cluster[K, V]) ShardOfSlot(i int) int {
	return int(c.view.load().slots[i])
}
