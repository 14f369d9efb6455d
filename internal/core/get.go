package core

import (
	"cmp"
	"fmt"
	"pimgo/internal/cpu"

	"pimgo/internal/parutil"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// GetResult is the outcome of one Get operation.
type GetResult[V any] struct {
	Found bool
	Value V
}

// getMsg is the reply of a getTask or updateTask.
type getMsg[V any] struct {
	id    int32
	found bool
	val   V
}

// getTask looks a key up in the destination module's local hash table
// (§4.1: the hash function is a shortcut to the module that must hold the
// key, and a local hash table maps keys to leaves in O(1) whp). The reply
// is embedded so the steady-state path boxes no values.
type getTask[K cmp.Ordered, V any] struct {
	id  int32
	key K
	out getMsg[V]
}

func (t *getTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	p0 := st.ht.Probes
	addr, ok := st.ht.Get(t.key)
	c.Charge(st.ht.Probes - p0)
	if !ok {
		t.out = getMsg[V]{id: t.id}
		c.Reply(&t.out)
		return
	}
	c.Charge(1)
	t.out = getMsg[V]{id: t.id, found: true, val: st.lower.At(addr).val}
	c.Reply(&t.out)
}

// updateTask writes a new value for an existing key; non-existent keys are
// ignored (§3: Update(key, value)).
type updateTask[K cmp.Ordered, V any] struct {
	id  int32
	key K
	val V
	out getMsg[V]
}

func (t *updateTask[K, V]) Run(c *pim.Ctx[*modState[K, V]]) {
	st := c.State()
	p0 := st.ht.Probes
	addr, ok := st.ht.Get(t.key)
	c.Charge(st.ht.Probes - p0)
	if !ok {
		t.out = getMsg[V]{id: t.id}
		c.Reply(&t.out)
		return
	}
	c.Charge(1)
	st.lower.At(addr).val = t.val
	t.out = getMsg[V]{id: t.id, found: true}
	c.Reply(&t.out)
}

// Get returns, for every key, whether it is present and its value. The
// batch is deduplicated with a parallel semisort before routing (§4.1), so
// a batch of identical keys costs one message, not a hot module — that is
// Theorem 4.1's PIM-balance guarantee. Results are in input order.
func (m *Map[K, V]) Get(keys []K) ([]GetResult[V], BatchStats) {
	return m.GetInto(keys, nil)
}

// GetInto is Get writing results into dst (reused when it has capacity) so
// steady-state callers allocate nothing.
func (m *Map[K, V]) GetInto(keys []K, dst []GetResult[V]) ([]GetResult[V], BatchStats) {
	tr, c := m.beginBatch("get", len(keys))
	B := len(keys)
	out := sliceInto(dst, B)
	if B == 0 {
		return out, m.endBatch(tr, c, 0, 0, 0)
	}
	m.prepGet(c, keys)
	m.execGet(c, B, out)
	return out, m.endBatch(tr, c, B, 0, 0)
}

// prepGet is Get's round-free CPU prefix: the semisort dedup and the
// probe-send construction. It is a pure function of (keys, config, hash) —
// it reads no structure or machine state and draws nothing from the Map's
// RNG. With NoDedup the caller's keys slice is aliased by ws.prepUniq until
// the batch ends.
func (m *Map[K, V]) prepGet(c *cpu.Ctx, keys []K) {
	ws := m.ws
	c.Tracker().Alloc(int64(len(keys)))
	m.phase(c, trace.PhaseSemisort)
	uniq, slot := m.dedupWS(ws, c, keys)
	m.phase(c, trace.PhaseExecute)
	ws.greplies = grow(ws.greplies, len(uniq))
	sends := grow(ws.sends[:0], len(uniq))
	c.WorkFlat(int64(len(uniq)))
	for i, k := range uniq {
		t := ws.getTasks.take()
		t.id, t.key = int32(i), k
		sends[i] = pim.Send[*modState[K, V]]{
			To:   m.moduleFor(m.hashKey(k), 0),
			Task: t,
		}
	}
	ws.sends = sends
	ws.prepUniq, ws.prepSlot = uniq, slot
}

// execGet is Get's machine half: drive the probe rounds and scatter replies
// into out (length B). Runs on the Map's workspace.
func (m *Map[K, V]) execGet(c *cpu.Ctx, B int, out []GetResult[V]) {
	ws := m.ws
	slot := ws.prepSlot
	replies := ws.greplies
	m.drainInto(c, ws.sends, ws.onGet)
	c.WorkFlat(int64(B))
	for i := 0; i < B; i++ {
		r := replies[slot[i]]
		out[i] = GetResult[V]{Found: r.found, Value: r.val}
	}
	c.Tracker().Free(int64(B))
}

// GetOne runs a single Get (a batch of one).
func (m *Map[K, V]) GetOne(key K) (GetResult[V], BatchStats) {
	res, st := m.Get([]K{key})
	return res[0], st
}

// Update sets the value of every key that is present, reporting per key
// whether it was found. Duplicate keys in the batch are collapsed to their
// last occurrence (last-writer-wins), mirroring Get's deduplication.
func (m *Map[K, V]) Update(keys []K, vals []V) ([]bool, BatchStats) {
	return m.UpdateInto(keys, vals, nil)
}

// UpdateInto is Update writing results into dst (reused when it has
// capacity).
func (m *Map[K, V]) UpdateInto(keys []K, vals []V, dst []bool) ([]bool, BatchStats) {
	if len(keys) != len(vals) {
		panic(batchAbort{fmt.Errorf("%w: Update keys/vals length mismatch (%d vs %d)", ErrBadBatch, len(keys), len(vals))})
	}
	tr, c := m.beginBatch("update", len(keys))
	B := len(keys)
	out := sliceInto(dst, B)
	if B == 0 {
		return out, m.endBatch(tr, c, 0, 0, 0)
	}
	c.Tracker().Alloc(int64(2 * B))
	defer c.Tracker().Free(int64(2 * B))

	ws := m.ws
	m.phase(c, trace.PhaseSemisort)
	uniq, slot := m.dedup(c, keys)
	m.phase(c, trace.PhaseExecute)
	// Last occurrence wins for the value.
	ws.chosen = grow(ws.chosen, len(uniq))
	chosen := ws.chosen
	c.WorkFlat(int64(B))
	for i := range keys {
		chosen[slot[i]] = vals[i]
	}
	ws.greplies = grow(ws.greplies, len(uniq))
	replies := ws.greplies
	sends := grow(ws.sends[:0], len(uniq))
	c.WorkFlat(int64(len(uniq)))
	for i, k := range uniq {
		t := ws.updTasks.take()
		t.id, t.key, t.val = int32(i), k, chosen[i]
		sends[i] = pim.Send[*modState[K, V]]{
			To:   m.moduleFor(m.hashKey(k), 0),
			Task: t,
		}
	}
	ws.sends = sends
	m.drainInto(c, sends, ws.onGet)
	c.WorkFlat(int64(B))
	for i := range keys {
		out[i] = replies[slot[i]].found
	}
	return out, m.endBatch(tr, c, B, 0, 0)
}

// UpdateOne runs a single Update (a batch of one).
func (m *Map[K, V]) UpdateOne(key K, val V) (bool, BatchStats) {
	res, st := m.Update([]K{key}, []V{val})
	return res[0], st
}

// dedup collapses duplicate keys (semisort, §4.1) unless disabled for the
// ABL-DEDUP ablation; slot maps every input position to its unique index.
// Both return slices are workspace-owned, valid until the next dedup call.
func (m *Map[K, V]) dedup(c *cpu.Ctx, keys []K) ([]K, []int32) {
	return m.dedupWS(m.ws, c, keys)
}

// dedupWS is dedup on an explicit workspace, for prep halves that run before
// the workspace becomes the Map's active one.
func (m *Map[K, V]) dedupWS(ws *batchWS[K, V], c *cpu.Ctx, keys []K) ([]K, []int32) {
	if m.cfg.NoDedup {
		ws.slotSeq = grow(ws.slotSeq, len(keys))
		slot := ws.slotSeq
		c.WorkFlat(int64(len(keys)))
		for i := range slot {
			slot[i] = int32(i)
		}
		return keys, slot
	}
	return parutil.DedupWS(c, ws.par, keys, m.hashKey)
}

// drainInto drives rounds to completion, delivering typed replies to f.
func (m *Map[K, V]) drainInto(c *cpu.Ctx, sends []pim.Send[*modState[K, V]], f func(*getMsg[V])) {
	for len(sends) > 0 {
		replies, next := m.round(sends)
		c.WorkFlat(int64(len(replies)))
		for _, r := range replies {
			f(r.V.(*getMsg[V]))
		}
		sends = next
	}
}
