package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"pimgo"
)

// batch-map drives one Map from a single goroutine. Each cycle submits
// exactly what a full 4096-op Frontend flush submits, writes first: the
// Upsert, Delete, Get and Successor batches of cycleMix. Of the upserts,
// cycleInserts insert absent keys and the rest overwrite present ones, so
// with as many deletes the table size never changes.
var cycleMix = [numKinds]int{kindGet: 2867, kindSucc: 819, kindUpsert: 287, kindDelete: 123}

const (
	cycleInserts = 123
	batchP       = 16
	batchTable   = 1 << 18
	batchWritten = 1 << 16 // written keys present in the table; as many more are absent
	// modelCycles is the fixed prefix of cycles model_* are measured over,
	// so that they repeat exactly for a seed whatever the machine's speed.
	modelCycles = 64
	loadChunk   = 1 << 14
	sampleEvery = 16 // traced runs keep one client-call span in this many
)

// batchStore is the batch API of Map that batch-map drives.
type batchStore interface {
	TryUpsertInto(keys []uint64, vals []int64, dst []bool) ([]bool, pimgo.BatchStats, error)
	TryDeleteInto(keys []uint64, dst []bool) ([]bool, pimgo.BatchStats, error)
	TryGetInto(keys []uint64, dst []pimgo.GetResult[int64]) ([]pimgo.GetResult[int64], pimgo.BatchStats, error)
	TrySuccessorInto(keys []uint64, dst []pimgo.SearchResult[uint64, int64]) ([]pimgo.SearchResult[uint64, int64], pimgo.BatchStats, error)
}

type batchMap struct {
	seed uint64
	tr   *tracer
	wrap func(batchStore) batchStore
	r    *rand.Rand

	static staticRegion
	// Oracle of the written keys: present and absent partition the written
	// key range, vals holds the values of the present ones.
	present, absent []uint64
	vals            map[uint64]int64
	loadKeys        []uint64 // the initial table, in load order

	m     *pimgo.Map[uint64, int64]
	store batchStore

	cycles int
	model  modelCount // over the first modelCycles cycles
	total  modelCount // every batch, for trace reconciliation
	spans  []callRec

	ukeys, dkeys, gkeys, skeys []uint64
	uvals                      []int64
	ures, dres                 []bool
	gres                       []pimgo.GetResult[int64]
	sres                       []pimgo.SearchResult[uint64, int64]
}

func newBatchMap(seed uint64, tr *tracer, h hooks) system {
	r := newRand(seed, 1)
	b := &batchMap{
		seed:   seed,
		tr:     tr,
		wrap:   h.batch,
		r:      newRand(seed, 2),
		static: newStaticRegion(r, batchTable-batchWritten),
		vals:   make(map[uint64]int64, batchWritten),
	}
	written := make([]uint64, 2*batchWritten)
	for i := range written {
		written[i] = dynBase + uint64(i)
	}
	written = shuffled(r, written)
	b.present, b.absent = written[:batchWritten], written[batchWritten:]
	for _, k := range b.present {
		b.vals[k] = int64(r.Uint64() >> 1)
	}
	b.loadKeys = shuffled(r, append(slices.Clone([]uint64(b.static)), b.present...))
	return b
}

func (b *batchMap) value(k uint64) int64 {
	if k < dynBase {
		return staticValue(k)
	}
	return b.vals[k]
}

func (b *batchMap) setup() error {
	cfg := pimgo.Config{P: batchP, Seed: mix64(b.seed ^ 0xba7c)}
	if b.tr != nil {
		cfg.Trace = b.tr.mapSink()
	}
	m, err := pimgo.TryNewMap[uint64, int64](cfg, pimgo.Uint64Hash)
	if err != nil {
		return err
	}
	b.m = m
	vals := make([]int64, 0, loadChunk)
	var res []bool
	for off := 0; off < len(b.loadKeys); off += loadChunk {
		keys := b.loadKeys[off:min(off+loadChunk, len(b.loadKeys))]
		vals = vals[:0]
		for _, k := range keys {
			vals = append(vals, b.value(k))
		}
		var st pimgo.BatchStats
		res, st, err = m.TryUpsertInto(keys, vals, res)
		if err != nil {
			return fmt.Errorf("loading the table: %w", err)
		}
		b.total.add(st.Rounds, st.IOTime, st.TotalMsgs)
		if i := slices.Index(res, false); i >= 0 {
			return fmt.Errorf("loading the table: Upsert(%d) reported the new key present", keys[i])
		}
	}
	b.store = m
	if b.wrap != nil {
		b.store = b.wrap(m)
	}
	return nil
}

// pick moves k random entries of s to its front.
func pick(r *rand.Rand, s []uint64, k int) {
	for i := 0; i < k; i++ {
		j := i + r.IntN(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
}

// nextCycle draws one cycle's batches. Deletes take present[:123],
// overwrites present[123:287] and inserts absent[:123].
func (b *batchMap) nextCycle() {
	r := b.r
	nDel := cycleMix[kindDelete]
	pick(r, b.present, nDel+cycleMix[kindUpsert]-cycleInserts)
	pick(r, b.absent, cycleInserts)
	b.dkeys = append(b.dkeys[:0], b.present[:nDel]...)
	b.ukeys = append(append(b.ukeys[:0], b.absent[:cycleInserts]...), b.present[nDel:nDel+cycleMix[kindUpsert]-cycleInserts]...)
	b.uvals = b.uvals[:0]
	for range b.ukeys {
		b.uvals = append(b.uvals, int64(r.Uint64()>>1))
	}
	b.gkeys = b.gkeys[:0]
	for range cycleMix[kindGet] {
		k := b.static.probe(r)
		if r.IntN(4) == 0 {
			k = dynBase + r.Uint64N(2*batchWritten)
		}
		b.gkeys = append(b.gkeys, k)
	}
	b.skeys = b.skeys[:0]
	for range cycleMix[kindSucc] {
		b.skeys = append(b.skeys, b.static.query(r))
	}
}

// runCycle submits one cycle and returns its batches' model cost.
func (b *batchMap) runCycle() (modelCount, error) {
	var mc modelCount
	count := func(st pimgo.BatchStats) { mc.add(st.Rounds, st.IOTime, st.TotalMsgs) }
	var st pimgo.BatchStats
	var err error
	if b.ures, st, err = b.store.TryUpsertInto(b.ukeys, b.uvals, b.ures); err != nil {
		return mc, err
	}
	count(st)
	if b.dres, st, err = b.store.TryDeleteInto(b.dkeys, b.dres); err != nil {
		return mc, err
	}
	count(st)
	if b.gres, st, err = b.store.TryGetInto(b.gkeys, b.gres); err != nil {
		return mc, err
	}
	count(st)
	if b.sres, st, err = b.store.TrySuccessorInto(b.skeys, b.sres); err != nil {
		return mc, err
	}
	count(st)
	return mc, nil
}

// check verifies one cycle's replies and applies its writes to the oracle:
// writes are checked against the state before the cycle, reads against
// the state after its writes.
func (b *batchMap) check() error {
	for i, k := range b.ukeys {
		if want := i < cycleInserts; b.ures[i] != want {
			return fmt.Errorf("Upsert(%d) inserted=%v, oracle %v", k, b.ures[i], want)
		}
		b.vals[k] = b.uvals[i]
	}
	for i, k := range b.dkeys {
		if !b.dres[i] {
			return fmt.Errorf("Delete(%d) found nothing, oracle present", k)
		}
		delete(b.vals, k)
		b.present[i], b.absent[i] = b.absent[i], b.present[i]
	}
	for i, k := range b.gkeys {
		res := b.gres[i]
		if k < dynBase {
			if err := b.static.checkGet(k, res); err != nil {
				return err
			}
			continue
		}
		v, ok := b.vals[k]
		if res.Found != ok || (ok && res.Value != v) {
			return fmt.Errorf("Get(%d) = %+v, oracle found=%v value=%d", k, res, ok, v)
		}
	}
	for i, q := range b.skeys {
		if err := b.static.checkSucc(q, b.sres[i]); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchMap) load(rec *recorder) {
	for !rec.halted.Load() && (!rec.stopped() || b.cycles < modelCycles) {
		b.nextCycle()
		t0 := time.Now()
		mc, err := b.runCycle()
		d := time.Since(t0)
		if err != nil {
			rec.diverge(fmt.Errorf("cycle %d: %w", b.cycles, err))
			return
		}
		if b.tr != nil && b.cycles%sampleEvery == 0 {
			start := int64(t0.Sub(rec.base))
			b.spans = append(b.spans, callRec{start: start, end: start + int64(d)})
		}
		if err := b.check(); err != nil {
			rec.diverge(fmt.Errorf("cycle %d: %w", b.cycles, err))
			return
		}
		rec.doneCycle(d)
		if b.cycles < modelCycles {
			b.model.add(mc.rounds, mc.io, mc.msgs)
		}
		b.total.add(mc.rounds, mc.io, mc.msgs)
		b.cycles++
	}
}

func (b *batchMap) shutdown() error {
	defer b.m.Close()
	if want := len(b.static) + len(b.present); b.m.Len() != want {
		return fmt.Errorf("table holds %d keys, oracle %d", b.m.Len(), want)
	}
	return nil
}

func (b *batchMap) reference() reference { return reference{total: &b.total} }

func (b *batchMap) calls() []callRec { return b.spans }

// modelPerOp returns the model's words moved and IO time per op over the
// first modelCycles cycles.
func (b *batchMap) modelPerOp() (msgs, io float64) {
	ops := float64(modelCycles * cycleOps())
	return float64(b.model.msgs) / ops, float64(b.model.io) / ops
}

func cycleOps() int {
	n := 0
	for _, c := range cycleMix {
		n += c
	}
	return n
}
