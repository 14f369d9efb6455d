package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
)

// TestClusterCloseDeterministic is the regression test for Close's error
// contract, mirroring TestFrontendCloseDeterministic one layer down: among
// any number of Close calls — sequential repeats or concurrent races, with
// client batches still being submitted — exactly the one that performed the
// teardown returns nil and every other returns core.ErrClosed.
func TestClusterCloseDeterministic(t *testing.T) {
	// Sequential: second call reports ErrClosed.
	c := newTestCluster(t, 2)
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	// Concurrent: 8 racing Closes while 8 clients submit batches; exactly
	// one nil. Clients may observe ErrClosed (cluster gone), a per-key
	// ErrShardDown surface (lost the race inside a batch), or
	// ErrConcurrentBatch (another client holds the single-flight gate) —
	// never a panic or a hang.
	for trial := 0; trial < 20; trial++ {
		cfg := Config{Shards: 2, Seed: 0xC10C ^ uint64(trial), Shard: core.Config{P: 4}}
		c2, err := New[uint64, int64](cfg, core.Uint64Hash)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		var ops sync.WaitGroup
		for g := 0; g < 8; g++ {
			ops.Add(1)
			go func(g int) {
				defer ops.Done()
				for i := 0; i < 50; i++ {
					k := []uint64{uint64(g*100 + i + 1)}
					v := []int64{int64(i)}
					_, errs, _, err := c2.TryUpsert(k, v)
					if err != nil {
						if !errors.Is(err, core.ErrClosed) && !errors.Is(err, core.ErrConcurrentBatch) {
							t.Errorf("TryUpsert: %v, want ErrClosed or ErrConcurrentBatch", err)
						}
						if errors.Is(err, core.ErrClosed) {
							return
						}
						continue
					}
					for _, e := range errs {
						if e != nil && !errors.Is(e, ErrShardDown) {
							t.Errorf("TryUpsert errs: %v, want ErrShardDown", e)
						}
					}
				}
			}(g)
		}
		var nils int32
		var closers sync.WaitGroup
		for g := 0; g < 8; g++ {
			closers.Add(1)
			go func() {
				defer closers.Done()
				switch err := c2.Close(); {
				case err == nil:
					atomic.AddInt32(&nils, 1)
				case !errors.Is(err, core.ErrClosed):
					t.Errorf("Close: %v, want nil or ErrClosed", err)
				}
			}()
		}
		closers.Wait()
		ops.Wait()
		if nils != 1 {
			t.Fatalf("trial %d: %d Close calls returned nil, want exactly 1", trial, nils)
		}
		if _, _, _, err := c2.TryGet([]uint64{1}); !errors.Is(err, core.ErrClosed) {
			t.Fatalf("trial %d: TryGet after Close: %v, want ErrClosed", trial, err)
		}
	}
}

// TestStopShardAlreadyDown pins the no-panic contract: stopping a shard the
// fault plan already killed — or stopping any shard twice — fails typed
// with ErrShardState.
func TestStopShardAlreadyDown(t *testing.T) {
	// A shard killed by its own fault plan (recovery disabled, so the kill
	// is permanent) must answer StopShard with ErrShardState, not a panic.
	const victim = 1
	plans := make([]core.FaultPlan, 3)
	plans[victim] = pim.KillPlan(10, nil)
	c := newTestCluster(t, 3, func(cfg *Config) {
		cfg.Faults = plans
		cfg.DisableRecovery = true
	})
	r := rng.NewXoshiro256(0xDEAD)
	for round := 0; c.ShardStats(victim).State != ShardDown; round++ {
		if round > 200 {
			t.Fatal("kill plan never fired")
		}
		keys := make([]uint64, 20)
		vals := make([]int64, 20)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(1<<10)
			vals[i] = int64(i)
		}
		if _, _, _, err := c.TryUpsert(keys, vals); err != nil {
			t.Fatalf("TryUpsert: %v", err)
		}
	}
	if err := c.StopShard(victim); !errors.Is(err, ErrShardState) {
		t.Fatalf("StopShard(killed): %v, want ErrShardState", err)
	}

	// Double stop on a healthy shard: first wins, second fails typed.
	if err := c.StopShard(0); err != nil {
		t.Fatalf("StopShard(0): %v", err)
	}
	if err := c.StopShard(0); !errors.Is(err, ErrShardState) {
		t.Fatalf("second StopShard(0): %v, want ErrShardState", err)
	}
}

// TestJournalGrowthObservable pins the journal-size surface: with
// compaction disabled (CompactEvery < 0) JournalBatches/JournalOps grow
// monotonically with acked mutations, and with a small CompactEvery the
// checkpoint actually truncates the journal into the base snapshot.
func TestJournalGrowthObservable(t *testing.T) {
	unbounded := newTestCluster(t, 2, func(cfg *Config) { cfg.CompactEvery = -1 })
	r := rng.NewXoshiro256(0x10C5)
	batches := 12
	var prevOps, prevBatches int
	for round := 0; round < batches; round++ {
		keys := make([]uint64, 16)
		vals := make([]int64, 16)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(1<<10)
			vals[i] = int64(round)
		}
		if _, _, _, err := unbounded.TryUpsert(keys, vals); err != nil {
			t.Fatalf("TryUpsert: %v", err)
		}
		ops, nb := 0, 0
		for s := 0; s < unbounded.Shards(); s++ {
			st := unbounded.ShardStats(s)
			ops += st.JournalOps
			nb += st.JournalBatches
			if st.JournalBase != 0 {
				t.Fatalf("round %d: shard %d checkpointed (base %d) with compaction disabled", round, s, st.JournalBase)
			}
		}
		if ops <= prevOps || nb < prevBatches {
			t.Fatalf("round %d: journal shrank: ops %d -> %d, batches %d -> %d",
				round, prevOps, ops, prevBatches, nb)
		}
		if ops != prevOps+16 {
			t.Fatalf("round %d: journal grew by %d ops, want 16", round, ops-prevOps)
		}
		prevOps, prevBatches = ops, nb
	}

	// Same workload with CompactEvery 2: journals checkpoint into the base
	// and stay short.
	compacting := newTestCluster(t, 2, func(cfg *Config) { cfg.CompactEvery = 2 })
	r = rng.NewXoshiro256(0x10C5)
	for round := 0; round < batches; round++ {
		keys := make([]uint64, 16)
		vals := make([]int64, 16)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(1<<10)
			vals[i] = int64(round)
		}
		if _, _, _, err := compacting.TryUpsert(keys, vals); err != nil {
			t.Fatalf("TryUpsert: %v", err)
		}
	}
	for s := 0; s < compacting.Shards(); s++ {
		st := compacting.ShardStats(s)
		if st.JournalBatches >= 2 {
			t.Errorf("shard %d: %d journaled batches with CompactEvery 2 (compaction never truncated)", s, st.JournalBatches)
		}
		if st.JournalBase == 0 && st.Len > 0 {
			t.Errorf("shard %d: holds %d keys but base snapshot is empty", s, st.Len)
		}
		if st.JournalOps >= batches*16/compacting.Shards() {
			t.Errorf("shard %d: JournalOps %d never truncated", s, st.JournalOps)
		}
	}
}

// TestDegradedBroadcasts pins the order-query error surface with one shard
// Down. A Successor fails typed with ErrShardDown exactly when it had to ask
// the down shard — it routes there, or it is a miss, which asks every
// shard — and otherwise answers as the oracle. RangeOperation stays all or
// nothing (any down shard could hold part of a range): every position fails
// typed. Point ops on healthy shards keep serving bit-identically to the
// oracle.
func TestDegradedBroadcasts(t *testing.T) {
	const victim = 1
	c := newTestCluster(t, 3)
	om := newOracle(t)
	keys := fillCluster(t, c, om, 400, 0xD0_6)

	if err := c.StopShard(victim); err != nil {
		t.Fatalf("StopShard: %v", err)
	}

	// Successors: the fill's keys, and the keys around every slot fence,
	// where the misses are.
	qs := append([]uint64(nil), keys[:50]...)
	for _, x := range slotFences(c, 0, 1<<14+1) {
		qs = append(qs, x-1, x, x+1)
	}
	failed, misses := checkDegradedSucc(t, c, om, qs, func(s int) bool { return s == victim })
	if failed == misses || misses == 0 {
		t.Fatalf("%d Successors failed, %d of them misses; want both routed and missed failures", failed, misses)
	}

	// Ranges: every position errors typed; results are zero.
	ops := []core.RangeOp[uint64, int64]{
		{Lo: 0, Hi: 1 << 13, Kind: core.RangeCount},
		{Lo: 0, Hi: 1 << 13, Kind: core.RangeRead},
	}
	ranges, errs, _, err := c.TryRangeOperation(ops)
	if err != nil {
		t.Fatalf("TryRangeOperation: %v", err)
	}
	if errs == nil {
		t.Fatal("TryRangeOperation with a down shard returned no errors")
	}
	for i, e := range errs {
		if !errors.Is(e, ErrShardDown) {
			t.Fatalf("Range errs[%d] = %v, want ErrShardDown", i, e)
		}
		if ranges[i].Count != 0 || ranges[i].Pairs != nil {
			t.Fatalf("Range res[%d] = %+v alongside an error", i, ranges[i])
		}
	}

	// Point ops: the victim's keys fail typed, every other key serves
	// exactly as the oracle.
	got, errs, _, err := c.TryGet(keys)
	if err != nil {
		t.Fatalf("TryGet: %v", err)
	}
	want, _ := om.Get(keys)
	downKeys := 0
	for i, k := range keys {
		if c.ShardFor(k) == victim {
			downKeys++
			if errs == nil || !errors.Is(errs[i], ErrShardDown) {
				t.Fatalf("Get(%d) on down shard: err %v, want ErrShardDown", k, errs[i])
			}
			continue
		}
		if errs != nil && errs[i] != nil {
			t.Fatalf("Get(%d) on healthy shard: err %v", k, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("Get(%d)=%+v, oracle %+v", k, got[i], want[i])
		}
	}
	if downKeys == 0 {
		t.Fatal("workload never touched the down shard; test proves nothing")
	}
}
