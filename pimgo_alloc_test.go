package pimgo

// Steady-state zero-allocation guards (ISSUE 3 tentpole): after warm-up,
// repeated batch Get/Successor/Upsert(update)/Delete on a long-lived Map
// must allocate nothing — all scratch comes from the Map's batch workspace.
// Every sequence here is deterministic (fixed seeds, fixed batch schedule),
// so a pass is stable, not probabilistic.
//
// Run via `make benchguard` (wired into `make check`).

import (
	"testing"

	"pimgo/internal/rng"
)

const allocRuns = 10

// allocTestMap builds a warmed Map. TracePhases and TrackAccess stay off:
// phase traces intentionally allocate, and access tracking uses Go maps.
func allocTestMap(n int) (*Map[uint64, int64], *rng.Xoshiro256) {
	m := NewMap[uint64, int64](Config{P: 16, Seed: 0xA110C}, Uint64Hash)
	r := rng.NewXoshiro256(0xFEED)
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = 1 + r.Uint64n(keySpace)
		vals[i] = int64(i)
	}
	m.Upsert(keys, vals)
	return m, r
}

// batchesOf pregenerates nb random key batches of size bs.
func batchesOf(r *rng.Xoshiro256, nb, bs int) [][]uint64 {
	out := make([][]uint64, nb)
	for i := range out {
		b := make([]uint64, bs)
		for j := range b {
			b[j] = 1 + r.Uint64n(keySpace)
		}
		out[i] = b
	}
	return out
}

func TestZeroAllocGet(t *testing.T) {
	m, r := allocTestMap(4096)
	batches := batchesOf(r, allocRuns+2, 256)
	var dst []GetResult[int64]
	for _, b := range batches { // warm every buffer to its high-water mark
		dst, _ = m.GetInto(b, dst)
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		dst, _ = m.GetInto(batches[i%len(batches)], dst)
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state Get allocates %.1f times per batch, want 0", avg)
	}
}

func TestZeroAllocSuccessor(t *testing.T) {
	m, r := allocTestMap(4096)
	batches := batchesOf(r, allocRuns+2, 256)
	var dst []SearchResult[uint64, int64]
	for _, b := range batches {
		dst, _ = m.SuccessorInto(b, dst)
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		dst, _ = m.SuccessorInto(batches[i%len(batches)], dst)
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state Successor allocates %.1f times per batch, want 0", avg)
	}
}

func TestZeroAllocUpsertUpdate(t *testing.T) {
	// Steady-state Upsert = the all-present (pure update) path; inserting
	// new keys grows the structure and is legitimately allowed to allocate.
	m, r := allocTestMap(4096)
	present := make([]uint64, 0, 4096)
	snapKeys, _, _ := m.Snapshot()
	present = append(present, snapKeys...)
	batches := make([][]uint64, allocRuns+2)
	vals := make([]int64, 256)
	for i := range batches {
		b := make([]uint64, 256)
		for j := range b {
			b[j] = present[r.Uint64n(uint64(len(present)))]
		}
		batches[i] = b
	}
	var dst []bool
	for _, b := range batches {
		dst, _ = m.UpsertInto(b, vals, dst)
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		dst, _ = m.UpsertInto(batches[i%len(batches)], vals, dst)
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state Upsert (update path) allocates %.1f times per batch, want 0", avg)
	}
}

// TestZeroAllocFrontendGet guards the frontend's whole single-op round trip
// — client enqueue, collector coalesce + flush, reply demultiplex — with a
// live collector goroutine. AllocsPerRun pins GOMAXPROCS=1 and counts every
// heap allocation in the process, so the collector's flush path is measured
// together with the client path: pooled futures, the pending double buffer,
// the flush workspace, and the core batch engine must all run warm.
func TestZeroAllocFrontendGet(t *testing.T) {
	m, r := allocTestMap(4096)
	f := NewFrontend(m, FrontendConfig{})
	defer f.Close()
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = 1 + r.Uint64n(keySpace)
	}
	for _, k := range keys { // warm pool, buffers, and workspace
		if _, err := f.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		if _, err := f.Get(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state frontend Get allocates %.1f times per op, want 0", avg)
	}
}

// TestZeroAllocFrontendUpsert is the write-side guard: steady-state
// single-op Upserts of already-present keys (the update path — inserts grow
// the structure and may allocate) must be allocation-free end to end,
// including the collector's write-coalescing bookkeeping and replay.
func TestZeroAllocFrontendUpsert(t *testing.T) {
	m, r := allocTestMap(4096)
	snapKeys, _, _ := m.Snapshot()
	f := NewFrontend(m, FrontendConfig{})
	defer f.Close()
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = snapKeys[r.Uint64n(uint64(len(snapKeys)))]
	}
	for _, k := range keys {
		if _, err := f.Upsert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		if _, err := f.Upsert(keys[i%len(keys)], 2); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state frontend Upsert (update path) allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocDelete(t *testing.T) {
	// Deletion shrinks the structure, so the measured calls each delete a
	// distinct, still-present batch. Two warm-up cycles of delete-all /
	// re-insert-all push every free list, arena, and workspace buffer to
	// the high-water mark of the full cumulative sequence first.
	const nb = allocRuns + 1
	const bs = 64
	m, r := allocTestMap(2048)
	batches := batchesOf(r, nb, bs)
	vals := make([]int64, bs)
	var dst []bool
	for _, b := range batches {
		m.Upsert(b, vals)
	}
	for cycle := 0; cycle < 2; cycle++ {
		for _, b := range batches {
			dst, _ = m.DeleteInto(b, dst)
		}
		for _, b := range batches {
			m.Upsert(b, vals)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(allocRuns, func() {
		dst, _ = m.DeleteInto(batches[i], dst)
		i++
	})
	if avg != 0 {
		t.Errorf("steady-state Delete allocates %.1f times per batch, want 0", avg)
	}
}
