package frontend

import "testing"

// FuzzFlushCoalescing runs one coalesced flush through both backends — a
// stopped Frontend and a stopped three-shard ClusterFrontend, driven by a
// direct flush — and checks every reply against a sequential model: the
// flush's writes apply in arrival order, each answered as if run alone at
// that point, and every read sees the state after all of them. Writes to a
// key may repeat, so a key's write chain can be as long as the batch; the
// cluster backend replays the chains of different shards concurrently.
//
// The input's first byte is the set of keys present before the flush (bit
// i: key i). Each later byte, up to 64, is one op: bits 0–1 its kind (the
// opKind order), bits 2–4 its key, bits 5–7 the value an Upsert writes.
func FuzzFlushCoalescing(f *testing.F) {
	keys := [8]uint64{10, 20, 30, 40, 50, 60, 70, 80}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		initial, ops := data[0], data[1:min(len(data), 65)]

		// The sequential model: the state before the flush, the write
		// replies in arrival order, then the reads against the final state.
		var present [8]bool
		var vals [8]int64
		var seedKeys []uint64
		var seedVals []int64
		for i := range keys {
			if initial&(1<<i) != 0 {
				present[i], vals[i] = true, 1000+int64(i)
				seedKeys, seedVals = append(seedKeys, keys[i]), append(seedVals, vals[i])
			}
		}
		type reply struct {
			found bool
			key   uint64
			val   int64
		}
		want := make([]reply, len(ops))
		for j, b := range ops {
			i, v := b>>2&7, int64(b>>5)
			switch opKind(b & 3) {
			case opUpsert:
				want[j].found = !present[i]
				present[i], vals[i] = true, v
			case opDelete:
				want[j].found = present[i]
				present[i] = false
			}
		}
		for j, b := range ops {
			i := int(b >> 2 & 7)
			switch opKind(b & 3) {
			case opGet:
				want[j] = reply{found: present[i], val: vals[i]}
				if !present[i] {
					want[j].val = 0
				}
			case opSucc:
				for s := i; s < len(keys); s++ {
					if present[s] {
						want[j] = reply{true, keys[s], vals[s]}
						break
					}
				}
			}
		}

		run := func(name string, flush func([]*future[uint64, int64])) {
			futs := make([]*future[uint64, int64], len(ops))
			for j, b := range ops {
				futs[j] = fut(opKind(b&3), keys[b>>2&7], int64(b>>5))
			}
			flush(futs)
			for j, fu := range futs {
				found, k, v := reap(t, fu)
				if got := (reply{found, k, v}); got != want[j] {
					t.Fatalf("%s: op %d (kind %d key %d) = %+v, want %+v", name, j, fu.kind, fu.key, got, want[j])
				}
			}
		}

		m := newTestMap(t, 4)
		defer m.Close()
		if len(seedKeys) > 0 {
			m.Upsert(seedKeys, seedVals)
		}
		run("Frontend", stoppedFrontend(t, m, Config{}).flush)

		c := newTestCluster(t, 3)
		if len(seedKeys) > 0 {
			if _, errs, _, err := c.TryUpsert(seedKeys, seedVals); err != nil || errs != nil {
				t.Fatalf("seed: %v %v", errs, err)
			}
		}
		run("ClusterFrontend", stoppedClusterFrontend(t, c, ClusterConfig{}).flush)
	})
}
