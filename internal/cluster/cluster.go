// Package cluster shards one logical ordered map across N independent
// core.Map instances — the "multiple PIM systems" scale-out the paper's
// single-machine model stops short of. Each shard owns a full machine (its
// own P modules, fault plan, and trace sink), so a fault that takes a shard
// down is isolated: the cluster either recovers the shard transparently
// from its journal (exactly-once — replies stay bit-identical to a
// single-Map oracle) or degrades to typed per-key ErrShardDown errors while
// the surviving shards keep serving.
//
// Routing preserves key order: a key's slot is its rank among Slots−1
// sorted splitter keys, taken from the first Upsert into the empty cluster
// and re-cut from a shard's data inside its runs when it splits, and an
// epoch-versioned slot→shard table maps slots to owners (route.go). Epoch 0 deals the slots to shards in contiguous blocks; live
// migrations (migrate.go) — SplitShard, MergeShards, and the policy-driven
// Rebalance — move slots between shards online and republish the table,
// with replies bit-identical to a single Map across the cutover. Inside
// each shard, core still hashes (key, level) to modules, so one batch's
// skew cannot pile onto one module. Batches scatter into per-shard
// sub-batches with one stable counting sort (the reply-assembly idiom of
// internal/pim/reliable.go), execute shards in parallel, and gather replies
// back into the caller's submission order. A coalesced flush's Upsert,
// Delete, Get and Successor sub-batches share one such scatter/gather
// (TryFlush), each shard running its share of them back to back. A
// Successor goes to the owner of its key's slot like a point op; the rare
// one whose answer may lie past the owner's run is asked again of every
// shard in one follow-up fan-out. See docs/CLUSTER.md and docs/REBALANCE.md.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pimgo/internal/core"
	"pimgo/internal/trace"
)

// Typed errors; callers match with errors.Is.
var (
	// ErrBadConfig reports an invalid cluster Config.
	ErrBadConfig = errors.New("pimgo: invalid cluster configuration")
	// ErrShardDown reports that a shard is permanently down (recovery
	// disabled, exhausted, or stopped by the caller). Point-op batches
	// surface it per key in the errs slice. A Successor surfaces it when a
	// shard it had to ask is down: its slot's owner, or, when the owner's
	// answer was not final, any shard. RangeOperation surfaces it on every
	// result, since any down shard could hold part of a range.
	ErrShardDown = errors.New("pimgo: shard is down")
	// ErrShardDraining reports a mutating batch routed to a draining shard.
	ErrShardDraining = errors.New("pimgo: shard is draining")
	// ErrShardState reports a lifecycle transition invalid from the shard's
	// current state (e.g. StartShard on a running shard, StopShard on a
	// retired or migrating shard).
	ErrShardState = errors.New("pimgo: invalid shard lifecycle transition")
	// ErrRebalancing reports a migration rejected because another migration
	// is already in flight, or because the routing table changed between
	// planning and execution.
	ErrRebalancing = errors.New("pimgo: cluster is rebalancing")
)

// ShardState is one shard's lifecycle state.
type ShardState int8

const (
	// ShardRunning serves all batch kinds (the steady state).
	ShardRunning ShardState = iota
	// ShardDraining serves reads (Get, Successor, non-transform ranges)
	// but refuses mutations, so a checkpointed shard can be handed off.
	ShardDraining
	// ShardDown serves nothing; keys routed to it error with ErrShardDown.
	ShardDown
	// ShardRetired marks a merge victim: the shard owns zero routing slots,
	// holds no state, and is skipped by broadcasts. Retirement is terminal —
	// a later split appends a fresh shard rather than reviving a retired id,
	// so shard ids stay stable for stats and trace attribution.
	ShardRetired
)

// String renders the state for logs and tables.
func (s ShardState) String() string {
	switch s {
	case ShardRunning:
		return "running"
	case ShardDraining:
		return "draining"
	case ShardDown:
		return "down"
	case ShardRetired:
		return "retired"
	}
	return fmt.Sprintf("ShardState(%d)", int8(s))
}

// Config parameterizes a Cluster.
type Config struct {
	// Shards is the number of shards at construction. Required, ≥ 1. Live
	// migrations (SplitShard/MergeShards/Rebalance) grow and shrink the
	// active roster afterwards.
	Shards int
	// Slots is the number of routing slots. A key's slot is its rank among
	// Slots−1 splitter keys, the Slots-quantiles of the first Upsert
	// sub-batch that reaches the empty cluster; slot ownership is what
	// migrations move, so Slots bounds rebalancing granularity and never
	// changes after construction. 0 selects max(256, Shards); otherwise it
	// must be ≥ Shards so every shard can own at least one slot.
	//
	// The first Upsert should sample the whole key range. A load in key
	// order, a small first batch, or keys that keep growing past the first
	// batch's largest put most keys in the first or last slot, on one
	// shard; only splits, which re-cut the splitters inside the split
	// shard's runs from its data (SplitShard), spread them again.
	Slots int
	// Seed drives the per-shard core seeds. Clusters with equal seeds are
	// bit-identical.
	Seed uint64
	// Shard is the template core.Config every shard machine is built from.
	// Its Seed, Fault, and Trace fields must be zero — the cluster derives
	// a distinct seed per shard and installs Faults[i]/Trace(i) instead.
	Shard core.Config
	// ShardP overrides Shard.P per shard (mixed-size clusters). Empty means
	// uniform; otherwise it must have exactly Shards entries.
	ShardP []int
	// Faults installs a fault plan per shard (nil entries are fault-free).
	// Empty means all shards fault-free; otherwise exactly Shards entries.
	// A pim.KillPlan entry kills that shard permanently mid-run; on rebuild
	// the supervisor strips it to its Inner() plan.
	Faults []core.FaultPlan
	// Trace, when non-nil, is called once per shard at construction to
	// build that shard's trace sink; the cluster wraps each in
	// trace.Shard(i, ·) so op labels carry "s<i>/" attribution. One sink
	// per shard is mandatory (the Sink contract is single-goroutine and
	// shards execute in parallel), which is why this is a factory and not a
	// single Sink. The sink survives shard rebuilds.
	Trace func(shard int) trace.Sink
	// MaxRecoveries bounds journal rebuilds per shard before it goes Down.
	// 0 selects 3; negative means unbounded.
	MaxRecoveries int
	// DisableRecovery turns every shard kill into an immediate transition
	// to ShardDown (degraded mode), instead of a journal rebuild.
	DisableRecovery bool
	// CompactEvery sets when a shard checkpoints its journal into a fresh
	// base snapshot. 0, the default, checkpoints once the ops journaled
	// since the last checkpoint reach the base snapshot's key count (at
	// least 4096), which bounds a rebuild's replay to about one base's worth
	// of ops. A positive value checkpoints every that-many journaled batches
	// instead; negative disables checkpoints (the journal grows without
	// bound).
	CompactEvery int
}

// Stats aggregates the model cost of one cluster batch. Per-shard costs are
// kept separate — shards run in parallel, so elapsed-time metrics combine
// by max while throughput metrics combine by sum — and recovery costs
// (failed attempts, rebuilds, journal replays) are folded into the shard
// that paid them.
type Stats struct {
	// Batch is the number of operations the caller submitted.
	Batch int
	// Shards holds each shard's accumulated cost for this batch; shards
	// that received no work report zero stats.
	Shards []core.BatchStats
	// Recovered counts shard rebuilds performed during this batch.
	Recovered int
}

// MaxRounds returns the parallel-elapsed round count: the slowest shard.
func (s Stats) MaxRounds() int64 {
	var v int64
	for i := range s.Shards {
		v = max(v, s.Shards[i].Rounds)
	}
	return v
}

// MaxIOTime returns the parallel-elapsed IO time: the slowest shard.
func (s Stats) MaxIOTime() int64 {
	var v int64
	for i := range s.Shards {
		v = max(v, s.Shards[i].IOTime)
	}
	return v
}

// TotalMsgs returns the cluster-wide message total.
func (s Stats) TotalMsgs() int64 {
	var v int64
	for i := range s.Shards {
		v += s.Shards[i].TotalMsgs
	}
	return v
}

// TotalPIMWork returns the cluster-wide summed module work.
func (s Stats) TotalPIMWork() int64 {
	var v int64
	for i := range s.Shards {
		v += s.Shards[i].TotalPIMWork
	}
	return v
}

// Cluster is a sharded map: N core.Map shards behind a deterministic
// order-preserving router with the full batch API. Like core.Map it is
// single-driver — one batch at a time, concurrent callers fail typed with
// ErrConcurrentBatch — but within a batch the shards execute in parallel.
type Cluster[K cmp.Ordered, V any] struct {
	cfg  Config
	hash func(K) uint64

	// view is the current routing epoch (slot table + shard roster). It is
	// replaced — never mutated — and only while the batch gate is held, so
	// every batch sees exactly one epoch (route.go).
	view viewPtr[K, V]

	inBatch   atomic.Bool
	closed    atomic.Bool
	migrating atomic.Bool

	// mutSeq stamps every acked mutating batch with a cluster-wide commit
	// sequence number (written only under the batch gate). Migration cutover
	// merges per-shard journal suffixes by this sequence, which is what lets
	// a broadcast transform — journaled by every mutating shard — replay
	// exactly once per batch (shard.go, migrate.go).
	mutSeq int64

	ws clusterWS[K, V]
}

// Flush positions: the order in which one shard runs a flush's sub-batches
// (writes before reads). All four are routed by key; a shard's point
// replies are handed over between its Get and Successor shares.
const (
	posUpsert = iota
	posDelete
	posGet
	posSucc
	flushKinds
)

// posKind is the shard batch kind run at each flush position.
var posKind = [flushKinds]batchKind{opUpsert, opDelete, opGet, opSucc}

// clusterWS is one call's workspace, reused across calls so the
// steady-state path allocates only for growth: the routing of each
// sub-batch, each shard's queued sub-batches with their reply buffers, and
// the Successor misses with the fallback broadcast's keys.
type clusterWS[K cmp.Ordered, V any] struct {
	pt       [flushKinds]scatter[K, V] // indexed by flush position
	work     []shardWork[K, V]         // indexed by shard id
	miss     []int                     // submission indices of the Successor misses
	missKeys []K                       // their keys, the fallback's batch
}

// scatter is one sub-batch routed shard-major.
type scatter[K cmp.Ordered, V any] struct {
	slot   []int // routing slot of keys[i]
	counts []int // per-shard sub-batch sizes
	starts []int // per-shard start offsets into keys
	order  []int // submission index in scatter position
	keys   []K   // keys permuted shard-major
	vals   []V
}

// shardWork is one shard's share of a cluster call: a sub-batch per flush
// position (queued marks the ones it received) and the shard's reply to
// each. The reply slices persist across calls, so the shard's Map writes
// its results into reused buffers.
type shardWork[K cmp.Ordered, V any] struct {
	queued [flushKinds]bool
	b      [flushKinds]shardBatch[K, V]
	rep    [flushKinds]shardReply[K, V]
}

// Flush is one coalesced flush for Cluster.TryFlush: an Upsert, a Delete, a
// Get and a Successor sub-batch, any of which may be empty, plus the reply
// buffers TryFlush fills. The replies are caller-owned: each is resized in
// place to its sub-batch's length, so a caller that keeps one Flush across
// calls allocates nothing for replies in steady state.
type Flush[K cmp.Ordered, V any] struct {
	// UpsertKeys and UpsertVals pair positionally and must have equal
	// lengths.
	UpsertKeys []K
	UpsertVals []V
	DeleteKeys []K
	GetKeys    []K
	SuccKeys   []K

	// Upserted, Deleted, Gets and Succs are positional with their
	// sub-batch's keys: the results TryUpsert, TryDelete, TryGet and
	// TrySuccessor return.
	Upserted []bool
	Deleted  []bool
	Gets     []core.GetResult[V]
	Succs    []core.SearchResult[K, V]
	// The per-key error surfaces, each as the matching Try* method returns
	// it: nil when every shard served the sub-batch; otherwise a typed error
	// at each failed position, whose result is zero.
	UpsertErrs, DeleteErrs, GetErrs, SuccErrs []error

	// OnShard, when non-nil, is called once for every shard that received
	// point work, on the goroutine that ran the shard: after the shard's
	// Upsert, Delete and Get shares, before its Successor share. ups, dels
	// and gets are the submission indices (into UpsertKeys, DeleteKeys and
	// GetKeys) the shard owns; uerr, derr and gerr are its error for each
	// kind, nil where it served the kind. Upserted, Deleted and Gets already
	// hold the shard's results at those indices (zero where the kind
	// failed), and they do not change before TryFlush returns, so a caller
	// can answer them while other shards still run. Calls for different
	// shards run concurrently. The hook must not block or call into the
	// cluster, and must not retain the index slices.
	OnShard func(shard int, ups, dels, gets []int, uerr, derr, gerr error)
}

// New builds a cluster per cfg. hash is every shard's key hasher, which
// spreads a shard's keys over its modules (see core.Uint64Hash); routing
// across shards uses key order, not the hash. The cluster starts empty, and
// its first Upsert sets the splitters (see Config.Slots), so load it with
// a batch that samples the data's key range. Construction faults —
// including a shard machine that dies during initial bring-up — are
// returned, with any already-started shards closed.
func New[K cmp.Ordered, V any](cfg Config, hash func(K) uint64) (*Cluster[K, V], error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards must be >= 1, got %d", ErrBadConfig, cfg.Shards)
	}
	if hash == nil {
		return nil, fmt.Errorf("%w: nil key hasher", ErrBadConfig)
	}
	if cfg.Shard.Seed != 0 || cfg.Shard.Fault != nil || cfg.Shard.Trace != nil {
		return nil, fmt.Errorf("%w: Shard template must leave Seed/Fault/Trace zero (the cluster derives them per shard)", ErrBadConfig)
	}
	if len(cfg.ShardP) != 0 && len(cfg.ShardP) != cfg.Shards {
		return nil, fmt.Errorf("%w: ShardP has %d entries for %d shards", ErrBadConfig, len(cfg.ShardP), cfg.Shards)
	}
	if len(cfg.Faults) != 0 && len(cfg.Faults) != cfg.Shards {
		return nil, fmt.Errorf("%w: Faults has %d entries for %d shards", ErrBadConfig, len(cfg.Faults), cfg.Shards)
	}
	if cfg.MaxRecoveries == 0 {
		cfg.MaxRecoveries = 3
	}
	if cfg.Slots == 0 {
		cfg.Slots = max(256, cfg.Shards)
	}
	if cfg.Slots < cfg.Shards {
		return nil, fmt.Errorf("%w: Slots (%d) must be >= Shards (%d)", ErrBadConfig, cfg.Slots, cfg.Shards)
	}
	c := &Cluster[K, V]{cfg: cfg, hash: hash}
	shards := make([]*shard[K, V], cfg.Shards)
	for i := range shards {
		s := &shard[K, V]{c: c, id: i}
		if len(cfg.Faults) != 0 {
			s.plan = cfg.Faults[i]
		}
		if cfg.Trace != nil {
			s.sink = trace.Shard(i, cfg.Trace(i))
		}
		if err := s.boot(); err != nil {
			for _, prev := range shards[:i] {
				prev.closeMachine()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = s
	}
	// Epoch 0: slots dealt in contiguous blocks, so each shard owns one run
	// of consecutive slots — one key range — and a Successor rarely crosses
	// a fence.
	slots := make([]int32, cfg.Slots)
	for j := range slots {
		slots[j] = int32(j * cfg.Shards / cfg.Slots)
	}
	c.view.store(newEpochView(0, nil, slots, shards))
	return c, nil
}

// Shards returns the current number of shards, including retired ones
// (shard ids are stable; splits append, merges retire in place).
func (c *Cluster[K, V]) Shards() int { return len(c.view.load().shards) }

// ShardFor returns the shard key routes to in the current epoch: the owner
// of the key's routing slot. Within one epoch the routing is a pure
// function of (splitters, table): independent of GOMAXPROCS and shard
// health — a down shard still owns its keys. Across epochs only migrated
// slots change owner.
func (c *Cluster[K, V]) ShardFor(key K) int { return c.view.load().shardOf(key) }

// Len returns the committed number of keys across all shards, including
// those owned by down shards (their journaled state still defines the
// logical map contents).
func (c *Cluster[K, V]) Len() int {
	n := 0
	for _, s := range c.view.load().shards {
		s.mu.Lock()
		n += s.committedLen
		s.mu.Unlock()
	}
	return n
}

// Close releases every shard machine. Further batches fail with ErrClosed.
// Exactly one caller wins: it runs the teardown and returns nil; every
// other concurrent or later Close returns core.ErrClosed (mirroring
// Frontend.Close's deterministic contract).
func (c *Cluster[K, V]) Close() error {
	if c.closed.Swap(true) {
		return core.ErrClosed
	}
	for _, s := range c.view.load().shards {
		s.mu.Lock()
		s.closeMachine()
		s.state = ShardDown
		s.downCause = core.ErrClosed
		s.mu.Unlock()
	}
	return nil
}

// Closed reports whether Close has been called.
func (c *Cluster[K, V]) Closed() bool { return c.closed.Load() }

// begin acquires the cluster's single-flight gate.
func (c *Cluster[K, V]) begin() error {
	if c.closed.Load() {
		return core.ErrClosed
	}
	if !c.inBatch.CompareAndSwap(false, true) {
		return core.ErrConcurrentBatch
	}
	if c.closed.Load() { // lost a race with Close
		c.inBatch.Store(false)
		return core.ErrClosed
	}
	return nil
}

func (c *Cluster[K, V]) end() { c.inBatch.Store(false) }

// route scatters one sub-batch's keys (and vals, when non-nil) into
// shard-major, submission-order-within-shard position using one stable
// counting sort — the reply-assembly idiom of the reliable transport. After
// it, sc.starts[s]..starts[s]+counts[s] is shard s's sub-batch and
// sc.order[j] is the submission index occupying scatter position j, which
// gather uses to put replies back into the caller's order.
func (sc *scatter[K, V]) route(v *epochView[K, V], keys []K, vals []V) {
	n := len(keys)
	ns := len(v.shards)
	sc.slot = resize(sc.slot, n)
	sc.order = resize(sc.order, n)
	sc.keys = resize(sc.keys, n)
	sc.counts = resize(sc.counts, ns)
	sc.starts = resize(sc.starts, ns)
	if vals != nil {
		sc.vals = resize(sc.vals, n)
	}
	clear(sc.counts)
	for i, k := range keys {
		j := v.slot(k)
		sc.slot[i] = j
		sc.counts[v.slots[j]]++
	}
	sum := 0
	for s := 0; s < ns; s++ {
		sc.starts[s] = sum
		sum += sc.counts[s]
		sc.counts[s] = sc.starts[s] // reuse as running cursor
	}
	for i, k := range keys {
		h := v.slots[sc.slot[i]]
		j := sc.counts[h]
		sc.counts[h]++
		sc.order[j] = i
		sc.keys[j] = k
		if vals != nil {
			sc.vals[j] = vals[i]
		}
	}
	// Restore counts to sub-batch sizes.
	for s := 0; s < ns; s++ {
		sc.counts[s] -= sc.starts[s]
	}
}

// resize returns s with length n, reusing capacity. A nil s comes back
// non-nil, so an empty reply is an empty slice.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetWork readies the workspace's per-shard work for a call in epoch v:
// nothing queued, reply buffers kept.
func (c *Cluster[K, V]) resetWork(v *epochView[K, V]) []shardWork[K, V] {
	ws := &c.ws
	ws.work = resize(ws.work, len(v.shards))
	for s := range ws.work {
		ws.work[s].queued = [flushKinds]bool{}
	}
	return ws.work
}

// runShards runs every shard's queued sub-batches through runShard, shards
// in parallel: one goroutine per shard with work, the calling goroutine
// driving the last. Each shard's replies land in its own work slots and, for
// a flush f, at its own positions of f, so assembly is deterministic
// regardless of goroutine scheduling. A range call and the Successor
// fallback pass a nil f.
func (c *Cluster[K, V]) runShards(v *epochView[K, V], work []shardWork[K, V], f *Flush[K, V]) {
	var wg sync.WaitGroup
	last := -1
	for s := range work {
		if work[s].queued == [flushKinds]bool{} {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c.runShard(f, s, &work[s], v.shards[s])
			}(last)
		}
		last = s
	}
	if last >= 0 {
		c.runShard(f, last, &work[last], v.shards[last])
	}
	wg.Wait()
}

// runShard runs shard s's queued sub-batches back to back in position
// order. For a flush, the shard's point replies go into f (and to
// f.OnShard) between its point shares and its Successor share.
func (c *Cluster[K, V]) runShard(f *Flush[K, V], s int, w *shardWork[K, V], sh *shard[K, V]) {
	for k := range posSucc {
		if w.queued[k] {
			sh.run(&w.b[k], &w.rep[k])
		}
	}
	if f != nil {
		c.gatherShard(f, s, w)
	}
	if w.queued[posSucc] {
		sh.run(&w.b[posSucc], &w.rep[posSucc])
	}
}

// gatherShard copies shard s's point replies into f at their submission
// indices, zeroing the positions of a kind the shard failed, then calls
// f.OnShard if the shard had point work. It runs on the shard's goroutine;
// every position belongs to exactly one shard.
func (c *Cluster[K, V]) gatherShard(f *Flush[K, V], s int, w *shardWork[K, V]) {
	pt := &c.ws.pt
	ups, uerr := unscatter(&pt[posUpsert], s, &w.rep[posUpsert], w.rep[posUpsert].bools, f.Upserted)
	dels, derr := unscatter(&pt[posDelete], s, &w.rep[posDelete], w.rep[posDelete].bools, f.Deleted)
	gets, gerr := unscatter(&pt[posGet], s, &w.rep[posGet], w.rep[posGet].gets, f.Gets)
	if f.OnShard != nil && len(ups)+len(dels)+len(gets) > 0 {
		f.OnShard(s, ups, dels, gets, uerr, derr, gerr)
	}
}

// unscatter copies shard s's share of one point sub-batch from its reply
// results src into dst at the share's submission indices, or zeroes those
// positions if the shard failed it. It returns the indices and the shard's
// error; a shard with no share gets nil, nil.
func unscatter[K cmp.Ordered, V any, T any](sc *scatter[K, V], s int, rep *shardReply[K, V], src, dst []T) ([]int, error) {
	cnt := sc.counts[s]
	if cnt == 0 {
		return nil, nil
	}
	idx := sc.order[sc.starts[s] : sc.starts[s]+cnt]
	if rep.err != nil {
		var zero T
		for _, i := range idx {
			dst[i] = zero
		}
		return idx, rep.err
	}
	for j, i := range idx {
		dst[i] = src[j]
	}
	return idx, nil
}

// runFlush routes f's sub-batches, runs the flush and gathers its replies
// into f. Routing within an epoch is a pure function of (splitters, table):
// it reads no shard state, and the epoch cannot change while the gate is
// held (migrations and splitFirst need the gate to publish). Each shard's
// goroutine runs that shard's sub-batches back to back in position order,
// so writes precede reads without a cross-shard barrier: shards own
// disjoint keys, and a shard's Successor share reads only that shard, after
// that shard's writes; the fallback for Successor misses runs after every
// shard's share. Each non-empty mutating sub-batch draws one cluster-wide
// commit sequence number, Upsert before Delete, shared by every shard's
// share of it (see Cluster.mutSeq) — the draws TryUpsert then TryDelete
// make. Each shard's point results reach f from the shard's own goroutine
// before its Successor share runs; only the error surfaces and the
// Successor replies wait for every shard.
func (c *Cluster[K, V]) runFlush(f *Flush[K, V]) Stats {
	ws, v := &c.ws, c.splitFirst(c.view.load(), f.UpsertKeys)
	ws.pt[posUpsert].route(v, f.UpsertKeys, f.UpsertVals)
	ws.pt[posDelete].route(v, f.DeleteKeys, nil)
	ws.pt[posGet].route(v, f.GetKeys, nil)
	ws.pt[posSucc].route(v, f.SuccKeys, nil)
	work := c.resetWork(v)
	batch := 0
	for k := range ws.pt {
		sc := &ws.pt[k]
		if len(sc.keys) == 0 {
			continue
		}
		batch += len(sc.keys)
		b := shardBatch[K, V]{kind: posKind[k]}
		if b.kind.mutates() {
			c.mutSeq++
			b.seq = c.mutSeq
		}
		for s, cnt := range sc.counts {
			if cnt == 0 {
				continue
			}
			lo, hi := sc.starts[s], sc.starts[s]+cnt
			b.keys = sc.keys[lo:hi]
			if k == posUpsert {
				b.vals = sc.vals[lo:hi]
			}
			work[s].queued[k], work[s].b[k] = true, b
		}
	}
	// The point results are copied on the shard goroutines (gatherShard),
	// into buffers sized here.
	f.Upserted = resize(f.Upserted, len(f.UpsertKeys))
	f.Deleted = resize(f.Deleted, len(f.DeleteKeys))
	f.Gets = resize(f.Gets, len(f.GetKeys))
	c.runShards(v, work, f)

	f.UpsertErrs = pointErrs(&ws.pt[posUpsert], work, posUpsert)
	f.DeleteErrs = pointErrs(&ws.pt[posDelete], work, posDelete)
	f.GetErrs = pointErrs(&ws.pt[posGet], work, posGet)
	st := Stats{Batch: batch, Shards: make([]core.BatchStats, len(work))}
	tally(&st, work)
	c.gatherSucc(f, v, work, &st)
	return st
}

// pointErrs builds one routed sub-batch's per-key error surface: nil when
// every shard served it; otherwise each position of a failed shard carries
// that shard's error — the degraded-mode surface: a down shard fails its
// own keys, never the whole batch.
func pointErrs[K cmp.Ordered, V any](sc *scatter[K, V], work []shardWork[K, V], pos int) []error {
	var errs []error
	for s, cnt := range sc.counts {
		if cnt == 0 || work[s].rep[pos].err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(sc.order))
		}
		for _, i := range sc.order[sc.starts[s] : sc.starts[s]+cnt] {
			errs[i] = work[s].rep[pos].err
		}
	}
	return errs
}

// gatherSucc puts the Successor replies into f. Each query went to the
// owner of its key's slot: a failed owner fails it, and a served owner's
// answer stands when it is final (epochView.final). The rest — the misses,
// whose answer may lie past the owner's run — are asked of every active
// shard in one follow-up fan-out, whose costs join st, and take the
// smallest key any shard found. That fan-out is all or nothing, as a
// broadcast must be: if any shard fails it, every miss carries that
// shard's error and a zero result.
func (c *Cluster[K, V]) gatherSucc(f *Flush[K, V], v *epochView[K, V], work []shardWork[K, V], st *Stats) {
	ws, sc := &c.ws, &c.ws.pt[posSucc]
	f.Succs = resize(f.Succs, len(f.SuccKeys))
	f.SuccErrs = pointErrs(sc, work, posSucc)
	ws.miss = ws.miss[:0]
	for s, cnt := range sc.counts {
		if cnt == 0 {
			continue
		}
		rep := &work[s].rep[posSucc]
		for j, i := range sc.order[sc.starts[s] : sc.starts[s]+cnt] {
			f.Succs[i] = core.SearchResult[K, V]{}
			switch {
			case rep.err != nil:
			case v.final(sc.slot[i], rep.succs[j]):
				f.Succs[i] = rep.succs[j]
			default:
				ws.miss = append(ws.miss, i)
			}
		}
	}
	if len(ws.miss) == 0 {
		return
	}
	ws.missKeys = ws.missKeys[:0]
	for _, i := range ws.miss {
		ws.missKeys = append(ws.missKeys, f.SuccKeys[i])
	}
	work = c.resetWork(v)
	for s := range work {
		if v.owned[s] != 0 { // a retired shard owns no keys
			work[s].queued[posSucc], work[s].b[posSucc] = true, shardBatch[K, V]{kind: opSucc, keys: ws.missKeys}
		}
	}
	c.runShards(v, work, nil)
	tally(st, work)
	if err := broadcastErr(work, posSucc); err != nil {
		if f.SuccErrs == nil {
			f.SuccErrs = make([]error, len(f.SuccKeys))
		}
		for _, i := range ws.miss {
			f.SuccErrs[i] = err
		}
		return
	}
	for s := range work {
		if !work[s].queued[posSucc] {
			continue
		}
		for j, r := range work[s].rep[posSucc].succs {
			if i := ws.miss[j]; r.Found && (!f.Succs[i].Found || r.Key < f.Succs[i].Key) {
				f.Succs[i] = r
			}
		}
	}
}

// broadcastErr is the all-or-nothing error of a broadcast queued at pos:
// the first failed shard's error, nil when every shard answered.
func broadcastErr[K cmp.Ordered, V any](work []shardWork[K, V], pos int) error {
	for s := range work {
		if err := work[s].rep[pos].err; work[s].queued[pos] && err != nil {
			return err
		}
	}
	return nil
}

// tally adds to st each shard's cost for the sub-batches queued in work.
func tally[K cmp.Ordered, V any](st *Stats, work []shardWork[K, V]) {
	for s := range work {
		for k := range work[s].rep {
			if work[s].queued[k] {
				st.Shards[s].Accumulate(work[s].rep[k].st)
				st.Recovered += work[s].rep[k].recovered
			}
		}
	}
}

// TryFlush runs one coalesced flush — its Upsert, Delete, Get and
// Successor sub-batches — in a single scatter/gather. Replies, per-key
// errors and every shard's state and costs are identical to calling
// TryUpsert, TryDelete, TryGet and TrySuccessor in that order: each shard
// runs its share of the four back to back, writes before reads, through
// the same supervisor (journal, recovery, lifecycle states). st sums each
// shard's cost over the whole flush. err reports a failure of the whole
// call (ErrClosed, ErrConcurrentBatch, ErrBadBatch), which happens before
// any shard work, so f.OnShard is not called. With f.OnShard set, a caller
// learns each shard's point results as soon as that shard has them, before
// the shard's Successor share; the Try* wrappers leave it nil.
func (c *Cluster[K, V]) TryFlush(f *Flush[K, V]) (st Stats, err error) {
	if len(f.UpsertKeys) != len(f.UpsertVals) {
		return Stats{}, fmt.Errorf("%w: Upsert keys/vals length mismatch (%d vs %d)",
			core.ErrBadBatch, len(f.UpsertKeys), len(f.UpsertVals))
	}
	if err := c.begin(); err != nil {
		return Stats{}, err
	}
	defer c.end()
	return c.runFlush(f), nil
}

// TryGet looks every key up: TryFlush with only a Get sub-batch. res[i]
// corresponds to keys[i]. errs is nil when every shard served; otherwise
// errs[i] is nil for served keys and a typed error (ErrShardDown, ...) for
// keys owned by a failed shard — the degraded-mode surface: a down shard
// fails its own keys, never the whole batch.
func (c *Cluster[K, V]) TryGet(keys []K) (res []core.GetResult[V], errs []error, st Stats, err error) {
	f := Flush[K, V]{GetKeys: keys}
	st, err = c.TryFlush(&f)
	return f.Gets, f.GetErrs, st, err
}

// TryUpsert inserts or overwrites every pair: TryFlush with only an Upsert
// sub-batch. res[i] reports whether keys[i] was newly inserted. Error
// surface as TryGet.
func (c *Cluster[K, V]) TryUpsert(keys []K, vals []V) (res []bool, errs []error, st Stats, err error) {
	f := Flush[K, V]{UpsertKeys: keys, UpsertVals: vals}
	st, err = c.TryFlush(&f)
	return f.Upserted, f.UpsertErrs, st, err
}

// TryDelete removes every key: TryFlush with only a Delete sub-batch.
// res[i] reports whether keys[i] was present. Error surface as TryGet.
func (c *Cluster[K, V]) TryDelete(keys []K) (res []bool, errs []error, st Stats, err error) {
	f := Flush[K, V]{DeleteKeys: keys}
	st, err = c.TryFlush(&f)
	return f.Deleted, f.DeleteErrs, st, err
}

// TrySuccessor finds, for each key, the smallest key ≥ it anywhere in the
// cluster: TryFlush with only a Successor sub-batch. Routing preserves key
// order, so each query goes to the owner of its key's slot, whose answer is
// final when it lies below the upper fence of the owner's run of
// consecutive slots, or when that fence is +∞ (the run reaches the last
// slot, or no splitter bounds it). The rare misses are asked again of
// every active shard in one follow-up fan-out and take the smallest key
// found. errs is nil when every shard asked served; otherwise errs[i] is a
// typed error (ErrShardDown, ...), with a zero res[i], for a query whose
// owner failed, and for every miss if any shard failed the fan-out.
func (c *Cluster[K, V]) TrySuccessor(keys []K) (res []core.SearchResult[K, V], errs []error, st Stats, err error) {
	f := Flush[K, V]{SuccKeys: keys}
	st, err = c.TryFlush(&f)
	return f.Succs, f.SuccErrs, st, err
}

// posRange is the work slot a range batch occupies: it is its shard's only
// sub-batch of the call.
const posRange = 0

// TryRangeOperation executes a batch of range operations cluster-wide.
// Each op broadcasts to every active shard and the per-shard partials
// combine exactly: counts sum, pairs merge ascending, reductions fold
// (Op.Init must be the identity element, as core documents), transforms
// apply shard-locally. Any down shard fails the whole batch's results with
// per-op typed errors.
func (c *Cluster[K, V]) TryRangeOperation(ops []core.RangeOp[K, V]) (res []core.RangeResult[K, V], errs []error, st Stats, err error) {
	if err := c.begin(); err != nil {
		return nil, nil, Stats{}, err
	}
	defer c.end()
	v := c.view.load()
	work := c.resetWork(v)
	c.mutSeq++ // the batch may carry transforms; one commit seq covers it
	for s := range work {
		if v.owned[s] == 0 {
			continue // retired: owns no keys, nothing to scan or transform
		}
		work[s].queued[posRange], work[s].b[posRange] = true, shardBatch[K, V]{kind: opRange, seq: c.mutSeq, rops: ops}
	}
	c.runShards(v, work, nil)
	res = make([]core.RangeResult[K, V], len(ops))
	if err := broadcastErr(work, posRange); err != nil {
		errs = make([]error, len(ops))
		for i := range errs {
			errs[i] = err
		}
	} else {
		for i := range ops {
			res[i] = c.mergeRange(ops[i], work, i)
		}
	}
	for s := range work {
		work[s].rep[posRange].ranges = nil // merged; don't pin the partials
	}
	st = Stats{Batch: len(ops), Shards: make([]core.BatchStats, len(work))}
	tally(&st, work)
	return res, errs, st, nil
}

// mergeRange combines one op's per-shard partial results.
func (c *Cluster[K, V]) mergeRange(op core.RangeOp[K, V], work []shardWork[K, V], i int) core.RangeResult[K, V] {
	out := core.RangeResult[K, V]{}
	if op.Kind == core.RangeReduce {
		out.Reduced = op.Init
	}
	total := 0
	for s := range work {
		if work[s].queued[posRange] {
			total += len(work[s].rep[posRange].ranges[i].Pairs)
		}
	}
	if total > 0 {
		out.Pairs = make([]core.RangePair[K, V], 0, total)
	}
	for s := range work {
		if !work[s].queued[posRange] {
			continue // retired shard, skipped by the broadcast
		}
		r := work[s].rep[posRange].ranges[i]
		out.Count += r.Count
		out.Pairs = append(out.Pairs, r.Pairs...)
		if op.Kind == core.RangeReduce {
			out.Reduced = op.Reduce(out.Reduced, r.Reduced)
		}
	}
	if len(out.Pairs) > 1 {
		// Per-shard slices arrive individually sorted; a comparison sort
		// over the concatenation is an adequate merge at reply sizes and
		// keeps this dependency-free.
		sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Key < out.Pairs[b].Key })
	}
	return out
}
