package cluster

import (
	"slices"
	"testing"
)

// FuzzClusterFlush runs up to 8 coalesced flushes through TryFlush on a
// three-shard, 64-slot cluster, with a split or a merge between flushes, and
// checks every reply against one core.Map that runs each flush as Upsert,
// Delete, Get and Successor batches. Keys come from a domain of 1024. Every
// flush also asks Successor at fence−1, the fence and fence+1 of each slot
// fence in the domain, found by scanning SlotOf: there a query's answer
// may lie past its owner's run, which is where routed Successors miss.
//
// The input, up to its first 256 bytes, is a run of flushes. A flush is a
// header byte h — bits 2–7
// its op count, bits 0–1 what follows it (1: split the shard owning the
// most slots, 2: merge the two owning the fewest, else nothing) — then two
// bytes a, b per op: bits 0–1 of a its kind (Upsert, Delete, Get,
// Successor), and (a>>2)<<8 | b, mod 1024, its key.
func FuzzClusterFlush(f *testing.F) {
	const domain, maxFlushes, maxInput = 1024, 8, 256
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxInput)]
		c := newTestCluster(t, 3, func(cfg *Config) { cfg.Slots = 64 })
		om := newOracle(t)
		var fl Flush[uint64, int64]
		for n := 0; n < maxFlushes && len(data) > 0; n++ {
			h := data[0]
			data = data[1:]
			fl.UpsertKeys, fl.UpsertVals = fl.UpsertKeys[:0], fl.UpsertVals[:0]
			fl.DeleteKeys, fl.GetKeys, fl.SuccKeys = fl.DeleteKeys[:0], fl.GetKeys[:0], fl.SuccKeys[:0]
			for j := 0; j < int(h>>2) && len(data) >= 2; j++ {
				a, b := data[0], data[1]
				data = data[2:]
				key := (uint64(a>>2)<<8 | uint64(b)) % domain
				switch a & 3 {
				case 0:
					fl.UpsertKeys = append(fl.UpsertKeys, key)
					fl.UpsertVals = append(fl.UpsertVals, int64(n<<16|j))
				case 1:
					fl.DeleteKeys = append(fl.DeleteKeys, key)
				case 2:
					fl.GetKeys = append(fl.GetKeys, key)
				case 3:
					fl.SuccKeys = append(fl.SuccKeys, key)
				}
			}
			// The fences of the current view: none before the splitters are
			// set, which the first flush with Upserts does.
			for _, x := range slotFences(c, 0, domain) {
				fl.SuccKeys = append(fl.SuccKeys, x-1, x, x+1)
			}
			if _, err := c.TryFlush(&fl); err != nil {
				t.Fatalf("flush %d: TryFlush: %v", n, err)
			}
			ups, _ := om.Upsert(fl.UpsertKeys, fl.UpsertVals)
			dels, _ := om.Delete(fl.DeleteKeys)
			gets, _ := om.Get(fl.GetKeys)
			succs, _ := om.Successor(fl.SuccKeys)
			for _, errs := range [][]error{fl.UpsertErrs, fl.DeleteErrs, fl.GetErrs, fl.SuccErrs} {
				noErrs(t, errs, "flush")
			}
			if !slices.Equal(fl.Upserted, ups) || !slices.Equal(fl.Deleted, dels) || !slices.Equal(fl.Gets, gets) {
				t.Fatalf("flush %d: point replies differ from the oracle:\n cluster %v %v %v\n oracle  %v %v %v",
					n, fl.Upserted, fl.Deleted, fl.Gets, ups, dels, gets)
			}
			for i, q := range fl.SuccKeys {
				if fl.Succs[i] != succs[i] {
					t.Fatalf("flush %d: Successor(%d) (slot %d, shard %d) = %+v, oracle %+v",
						n, q, c.SlotOf(q), c.ShardFor(q), fl.Succs[i], succs[i])
				}
			}
			if c.Len() != om.Len() {
				t.Fatalf("flush %d: Len %d, oracle %d", n, c.Len(), om.Len())
			}
			migrateOp(t, c, h&3)
		}
	})
}

// migrateOp applies the fuzzed topology change op: 1 splits the shard owning
// the most slots, 2 merges the two owning the fewest; either only when the
// shards qualify, and any failure fails the test.
func migrateOp(t *testing.T, c *Cluster[uint64, int64], op byte) {
	t.Helper()
	var active []ShardLoad
	for _, l := range c.Loads() {
		if l.Slots > 0 {
			active = append(active, l)
		}
	}
	slices.SortStableFunc(active, func(x, y ShardLoad) int { return y.Slots - x.Slots })
	var err error
	switch n := len(active); {
	case op == 1 && active[0].Slots >= 2:
		_, _, err = c.SplitShard(active[0].Shard, nil)
	case op == 2 && n >= 2:
		_, err = c.MergeShards(active[n-2].Shard, active[n-1].Shard, nil)
	}
	if err != nil {
		t.Fatalf("migration %d: %v", op, err)
	}
}
