package cluster

import (
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
)

// checkJournalCounters fails unless every shard's running journalOps
// equals the op count summed over its journal entries.
func checkJournalCounters(t *testing.T, at string, c *Cluster[uint64, int64]) {
	t.Helper()
	for _, s := range c.view.load().shards {
		s.mu.Lock()
		sum := 0
		for i := range s.entries {
			sum += s.entries[i].size()
		}
		ops := s.journalOps
		s.mu.Unlock()
		if ops != sum {
			t.Fatalf("%s: shard %d journalOps %d, entries sum to %d", at, s.id, ops, sum)
		}
	}
}

// TestDefaultCheckpointBoundsJournal pins the default checkpoint rule
// (CompactEvery 0): after every commit a shard's journal holds fewer ops
// than max(JournalBase, 4096) plus the last batch's, so a rebuild replays at
// most about one base's worth of ops; and once a base outgrows the floor,
// the base's own size is what triggers the checkpoint.
func TestDefaultCheckpointBoundsJournal(t *testing.T) {
	c := newTestCluster(t, 2)
	om := newOracle(t)
	r := rng.NewXoshiro256(0xC4EC)
	const keySpace = 1 << 15
	baseRule := false // a checkpoint fired with the base above the floor
	prev := make([]ShardStats, c.Shards())
	for round := 0; round < 150; round++ {
		keys := make([]uint64, 200+r.Intn(400))
		vals := make([]int64, len(keys))
		for i := range keys {
			keys[i] = 1 + r.Uint64n(keySpace)
			vals[i] = int64(round)
		}
		got, errs, _, err := c.TryUpsert(keys, vals)
		if err != nil {
			t.Fatalf("round %d: TryUpsert: %v", round, err)
		}
		noErrs(t, errs, "Upsert")
		want, _ := om.Upsert(keys, vals)
		for i := range keys {
			if got[i] != want[i] {
				t.Fatalf("round %d: Upsert(%d)=%v, oracle %v", round, keys[i], got[i], want[i])
			}
		}
		for s := 0; s < c.Shards(); s++ {
			st := c.ShardStats(s)
			if bound := max(st.JournalBase, compactFloor) + len(keys); st.JournalOps >= bound {
				t.Fatalf("round %d: shard %d journal holds %d ops, bound %d (base %d)",
					round, s, st.JournalOps, bound, st.JournalBase)
			}
			if st.JournalOps < prev[s].JournalOps && prev[s].JournalBase > compactFloor {
				baseRule = true
			}
			prev[s] = st
		}
		checkJournalCounters(t, "after upsert", c)
	}
	if !baseRule {
		t.Fatal("no checkpoint fired with a base above the floor; the base-size rule went unexercised")
	}
	if c.Len() != om.Len() {
		t.Fatalf("Len %d, oracle %d", c.Len(), om.Len())
	}
}

// TestKillAfterLongJournalRebuildsExactly: under the default rule a
// journal of many small batches is not checkpointed every 64 batches any
// more, so a shard killed after more than 64 journaled batches must rebuild
// exactly from base plus that long journal.
func TestKillAfterLongJournalRebuildsExactly(t *testing.T) {
	const victim = 1
	c := newTestCluster(t, 2, func(cfg *Config) {
		cfg.Faults = []core.FaultPlan{nil, pim.KillPlan(4000, nil)}
		cfg.MaxRecoveries = -1
	})
	om := newOracle(t)
	r := rng.NewXoshiro256(0x10A6)
	longest := 0 // the victim's longest journal before its kill
	for round := 0; c.ShardStats(victim).Kills == 0; round++ {
		if round == 2000 {
			t.Fatal("the kill plan never fired")
		}
		keys := make([]uint64, 1+r.Intn(4))
		for i := range keys {
			keys[i] = 1 + r.Uint64n(1<<12)
		}
		if round%5 == 4 {
			got, errs, _, err := c.TryDelete(keys)
			if err != nil {
				t.Fatalf("round %d: TryDelete: %v", round, err)
			}
			noErrs(t, errs, "Delete")
			want, _ := om.Delete(keys)
			for i := range keys {
				if got[i] != want[i] {
					t.Fatalf("round %d: Delete(%d)=%v, oracle %v", round, keys[i], got[i], want[i])
				}
			}
		} else {
			vals := make([]int64, len(keys))
			for i := range vals {
				vals[i] = int64(round)
			}
			got, errs, _, err := c.TryUpsert(keys, vals)
			if err != nil {
				t.Fatalf("round %d: TryUpsert: %v", round, err)
			}
			noErrs(t, errs, "Upsert")
			want, _ := om.Upsert(keys, vals)
			for i := range keys {
				if got[i] != want[i] {
					t.Fatalf("round %d: Upsert(%d)=%v, oracle %v", round, keys[i], got[i], want[i])
				}
			}
		}
		if st := c.ShardStats(victim); st.Kills == 0 {
			longest = max(longest, st.JournalBatches)
		}
	}
	st := c.ShardStats(victim)
	if longest <= 64 {
		t.Fatalf("victim's journal reached only %d batches before the kill; want > 64", longest)
	}
	if st.Recoveries == 0 || st.State != ShardRunning {
		t.Fatalf("victim: %d recoveries, state %v; want a transparent rebuild", st.Recoveries, st.State)
	}
	assertOracleEqual(t, c, om, nil)
}

// TestJournalCounterAtEveryReassignment: the running journalOps equals the
// summed entry sizes wherever a shard's journal is replaced — checkpoint
// compaction, the migration freeze (seen from the copy and catch-up
// windows, with traffic journaled since), the cutover, and a merge
// victim's retirement — and across range transforms.
func TestJournalCounterAtEveryReassignment(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *Config) { cfg.CompactEvery = 3 })
	om := newOracle(t)
	keys := fillCluster(t, c, om, 600, 0x7A11)
	checkJournalCounters(t, "after fill", c)

	tf := []core.RangeOp[uint64, int64]{{Lo: 0, Hi: 1 << 13, Kind: core.RangeTransform,
		Transform: func(v int64) int64 { return v + 1 }}}
	for i := 0; i < 4; i++ { // crosses a compaction with transforms journaled
		if _, _, _, err := c.TryRangeOperation(tf); err != nil {
			t.Fatalf("TryRangeOperation: %v", err)
		}
		om.RangeAuto(tf)
		checkJournalCounters(t, "after transform", c)
	}

	traffic := func(phase string) {
		checkJournalCounters(t, phase+" (freeze)", c)
		vals := make([]int64, 40)
		for i := range vals {
			vals[i] = int64(i)
		}
		if _, _, _, err := c.TryUpsert(keys[:40], vals); err != nil {
			t.Fatalf("%s: TryUpsert: %v", phase, err)
		}
		om.Upsert(keys[:40], vals)
		checkJournalCounters(t, phase+" (traffic)", c)
	}
	opts := &MigrateOpts{OnPhase: traffic}
	if _, _, err := c.SplitShard(0, opts); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	checkJournalCounters(t, "after split cutover", c)
	if _, err := c.MergeShards(1, 2, opts); err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	checkJournalCounters(t, "after merge retire", c)
	if st := c.ShardStats(2); st.State != ShardRetired || st.JournalOps != 0 {
		t.Fatalf("merge victim: state %v, JournalOps %d; want retired with an empty journal", st.State, st.JournalOps)
	}
	assertOracleEqual(t, c, om, keys)
}
