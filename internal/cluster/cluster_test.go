package cluster

import (
	"errors"
	"hash/fnv"
	"runtime"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
)

// newTestCluster builds a cluster with the test defaults; opts mutate the
// Config before construction.
func newTestCluster(t *testing.T, shards int, opts ...func(*Config)) *Cluster[uint64, int64] {
	t.Helper()
	cfg := Config{
		Shards: shards,
		Seed:   0xC10C,
		Shard:  core.Config{P: 4},
	}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := New[uint64, int64](cfg, core.Uint64Hash)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// newOracle builds the single-Map oracle a cluster's replies must be
// bit-identical to.
func newOracle(t *testing.T) *core.Map[uint64, int64] {
	t.Helper()
	m := core.New[uint64, int64](core.Config{P: 8, Seed: 0xC0FFEE}, core.Uint64Hash)
	t.Cleanup(m.Close)
	return m
}

func noErrs(t *testing.T, errs []error, op string) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: errs[%d] = %v", op, i, err)
		}
	}
}

// succMiss reports whether Successor(q), whose cluster-wide answer is want,
// is a miss on c: whether the owner of q's slot cannot answer it alone, so
// the cluster asks every shard. The owner holds every key of its run of
// consecutive slots from q's slot on, so its answer is final when want
// lies in that run or the run reaches the last slot. c must hold all
// Slots−1 splitters, as the first Upsert sets them (a missing splitter is
// +∞, which makes every answer below it final).
func succMiss(c *Cluster[uint64, int64], q uint64, want core.SearchResult[uint64, int64]) bool {
	owner, e := c.ShardFor(q), c.SlotOf(q)
	for e+1 < c.Slots() && c.ShardOfSlot(e+1) == owner {
		e++
	}
	return e < c.Slots()-1 && !(want.Found && c.SlotOf(want.Key) <= e)
}

// slotFences returns every key x in (lo, hi] whose slot differs from
// x−1's: the splitters that fall inside the domain.
func slotFences(c *Cluster[uint64, int64], lo, hi uint64) []uint64 {
	var fences []uint64
	for x := lo + 1; x <= hi; x++ {
		if c.SlotOf(x) != c.SlotOf(x-1) {
			fences = append(fences, x)
		}
	}
	return fences
}

// checkDegradedSucc holds a Successor batch on a cluster with down shards to
// the per-query error surface: a query fails typed with ErrShardDown and a
// zero result exactly when a shard it had to ask is down — its owner, or,
// for a miss, any shard — and every other query answers as the oracle. It
// returns the number of failed queries and of misses among them.
func checkDegradedSucc(t *testing.T, c *Cluster[uint64, int64], om *core.Map[uint64, int64], qs []uint64, down func(shard int) bool) (failed, misses int) {
	t.Helper()
	got, errs, _, err := c.TrySuccessor(qs)
	if err != nil {
		t.Fatalf("TrySuccessor: %v", err)
	}
	want, _ := om.Successor(qs)
	for i, q := range qs {
		miss := succMiss(c, q, want[i])
		if down(c.ShardFor(q)) || miss {
			failed++
			if miss {
				misses++
			}
			if errs == nil || !errors.Is(errs[i], ErrShardDown) || got[i] != (core.SearchResult[uint64, int64]{}) {
				t.Fatalf("Successor(%d) (shard %d, miss %v): %+v / %v, want zero / ErrShardDown", q, c.ShardFor(q), miss, got[i], errs)
			}
			continue
		}
		if (errs != nil && errs[i] != nil) || got[i] != want[i] {
			t.Fatalf("Successor(%d) (shard %d): %+v / %v, oracle %+v", q, c.ShardFor(q), got[i], errs, want[i])
		}
	}
	if failed == len(qs) {
		t.Fatalf("every one of %d Successors failed; the check proves nothing about served queries", len(qs))
	}
	return failed, misses
}

// TestClusterConfigValidation exercises the constructor's typed rejections.
func TestClusterConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0, Shard: core.Config{P: 4}},
		{Shards: 2, Shard: core.Config{P: 4}, ShardP: []int{4}},
		{Shards: 2, Shard: core.Config{P: 4}, Faults: make([]core.FaultPlan, 3)},
		{Shards: 2, Shard: core.Config{P: 4, Seed: 7}},
		{Shards: 2, Shard: core.Config{P: 4, Fault: pim.ChaosPlan(1)}},
		{Shards: 2, Shard: core.Config{P: 1}},
	}
	for i, cfg := range bad {
		if _, err := New[uint64, int64](cfg, core.Uint64Hash); err == nil {
			t.Errorf("config %d: expected error, got nil", i)
		} else if !errors.Is(err, ErrBadConfig) && !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("config %d: error %v is not ErrBadConfig", i, err)
		}
	}
	if _, err := New[uint64, int64](Config{Shards: 2, Shard: core.Config{P: 4}}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil hasher: got %v", err)
	}
}

// TestClusterOracleEquivalence drives a mixed batch workload through
// clusters of several shard counts next to a single-Map oracle and the
// sequential baseline: every reply must be bit-identical to the oracle's
// regardless of how the keys scatter.
func TestClusterOracleEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		shards := shards
		t.Run(string(rune('0'+shards))+"shards", func(t *testing.T) {
			t.Parallel()
			c := newTestCluster(t, shards)
			om := newOracle(t)
			r := rng.NewXoshiro256(0x0AC1E ^ uint64(shards))
			const keySpace = 1 << 12
			for round := 0; round < 60; round++ {
				b := 5 + r.Intn(60)
				keys := make([]uint64, b)
				for i := range keys {
					keys[i] = 1 + r.Uint64n(keySpace)
				}
				switch r.Intn(5) {
				case 0:
					vals := make([]int64, b)
					for i := range vals {
						vals[i] = int64(r.Uint64() >> 1)
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
				case 1:
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
				case 2:
					got, errs, _, err := c.TryGet(keys)
					if err != nil {
						t.Fatalf("round %d: TryGet: %v", round, err)
					}
					noErrs(t, errs, "Get")
					want, _ := om.Get(keys)
					for i := range keys {
						if got[i] != want[i] {
							t.Fatalf("round %d: Get(%d)=%+v, oracle %+v", round, keys[i], got[i], want[i])
						}
					}
				case 3:
					got, errs, _, err := c.TrySuccessor(keys)
					if err != nil {
						t.Fatalf("round %d: TrySuccessor: %v", round, err)
					}
					noErrs(t, errs, "Successor")
					want, _ := om.Successor(keys)
					for i := range keys {
						if got[i] != want[i] {
							t.Fatalf("round %d: Succ(%d)=%+v, oracle %+v", round, keys[i], got[i], want[i])
						}
					}
				case 4:
					nOps := 1 + r.Intn(6)
					ops := make([]core.RangeOp[uint64, int64], nOps)
					for i := range ops {
						lo := 1 + r.Uint64n(keySpace)
						op := core.RangeOp[uint64, int64]{Lo: lo, Hi: lo + r.Uint64n(keySpace/4)}
						switch r.Intn(3) {
						case 0:
							op.Kind = core.RangeCount
						case 1:
							op.Kind = core.RangeRead
						case 2:
							op.Kind = core.RangeReduce
							op.Reduce = func(a, b int64) int64 { return a + b }
						}
						ops[i] = op
					}
					got, errs, _, err := c.TryRangeOperation(ops)
					if err != nil {
						t.Fatalf("round %d: TryRangeOperation: %v", round, err)
					}
					noErrs(t, errs, "Range")
					want, _ := om.RangeAuto(ops)
					for i := range ops {
						if got[i].Count != want[i].Count || got[i].Reduced != want[i].Reduced ||
							len(got[i].Pairs) != len(want[i].Pairs) {
							t.Fatalf("round %d: range[%d]=%+v, oracle %+v", round, i, got[i], want[i])
						}
						for j := range got[i].Pairs {
							if got[i].Pairs[j] != want[i].Pairs[j] {
								t.Fatalf("round %d: range[%d] pair %d mismatch", round, i, j)
							}
						}
					}
				}
				if c.Len() != om.Len() {
					t.Fatalf("round %d: cluster len %d, oracle %d", round, c.Len(), om.Len())
				}
			}
		})
	}
}

// TestClusterTransformEquivalence checks cross-shard RangeTransform: the
// transform applies on every shard and later reads observe it, identical
// to the oracle.
func TestClusterTransformEquivalence(t *testing.T) {
	c := newTestCluster(t, 3)
	om := newOracle(t)
	keys := make([]uint64, 200)
	vals := make([]int64, 200)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = int64(i)
	}
	if _, errs, _, err := c.TryUpsert(keys, vals); err != nil || errs != nil {
		t.Fatalf("seed upsert: %v / %v", err, errs)
	}
	om.Upsert(keys, vals)
	ops := []core.RangeOp[uint64, int64]{
		{Lo: 50, Hi: 150, Kind: core.RangeTransform, Transform: func(v int64) int64 { return v * 2 }},
	}
	got, errs, _, err := c.TryRangeOperation(ops)
	if err != nil || errs != nil {
		t.Fatalf("transform: %v / %v", err, errs)
	}
	want, _ := om.RangeAuto(ops)
	if got[0].Count != want[0].Count {
		t.Fatalf("transform count %d, oracle %d", got[0].Count, want[0].Count)
	}
	read := []core.RangeOp[uint64, int64]{{Lo: 1, Hi: 200, Kind: core.RangeRead}}
	gr, errs, _, err := c.TryRangeOperation(read)
	if err != nil || errs != nil {
		t.Fatalf("read back: %v / %v", err, errs)
	}
	wr, _ := om.RangeAuto(read)
	if len(gr[0].Pairs) != len(wr[0].Pairs) {
		t.Fatalf("read back %d pairs, oracle %d", len(gr[0].Pairs), len(wr[0].Pairs))
	}
	for j := range gr[0].Pairs {
		if gr[0].Pairs[j] != wr[0].Pairs[j] {
			t.Fatalf("pair %d = %+v, oracle %+v", j, gr[0].Pairs[j], wr[0].Pairs[j])
		}
	}
}

// replyHash drives a fixed workload and folds every reply into one FNV
// hash — the routing-determinism witness.
func replyHash(t *testing.T, c *Cluster[uint64, int64]) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	r := rng.NewXoshiro256(0xDE7E12)
	const keySpace = 1 << 10
	for round := 0; round < 25; round++ {
		b := 5 + r.Intn(40)
		keys := make([]uint64, b)
		vals := make([]int64, b)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(keySpace)
			vals[i] = int64(r.Uint64() >> 1)
		}
		switch round % 4 {
		case 0:
			got, errs, _, err := c.TryUpsert(keys, vals)
			if err != nil || errs != nil {
				t.Fatalf("round %d upsert: %v/%v", round, err, errs)
			}
			for _, v := range got {
				if v {
					w64(1)
				} else {
					w64(0)
				}
			}
		case 1:
			got, errs, _, err := c.TryGet(keys)
			if err != nil || errs != nil {
				t.Fatalf("round %d get: %v/%v", round, err, errs)
			}
			for _, g := range got {
				w64(uint64(g.Value))
			}
		case 2:
			got, errs, _, err := c.TrySuccessor(keys)
			if err != nil || errs != nil {
				t.Fatalf("round %d succ: %v/%v", round, err, errs)
			}
			for _, g := range got {
				w64(g.Key)
				w64(uint64(g.Value))
			}
		case 3:
			got, errs, _, err := c.TryDelete(keys[:b/2])
			if err != nil || errs != nil {
				t.Fatalf("round %d delete: %v/%v", round, err, errs)
			}
			for _, v := range got {
				if v {
					w64(1)
				} else {
					w64(0)
				}
			}
		}
	}
	return h.Sum64()
}

// TestClusterRoutingDeterminism runs the same workload on mixed-size
// clusters (heterogeneous per-shard P) under GOMAXPROCS=1 and
// GOMAXPROCS=NumCPU: the reply streams must hash identically — routing and
// gather order are pure functions of the data, not of scheduling.
func TestClusterRoutingDeterminism(t *testing.T) {
	mixed := func(cfg *Config) { cfg.ShardP = []int{4, 8, 6, 12} }
	run := func(procs int) uint64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		c := newTestCluster(t, 4, mixed)
		return replyHash(t, c)
	}
	h1 := run(1)
	hN := run(runtime.NumCPU())
	if h1 != hN {
		t.Fatalf("reply hash differs across GOMAXPROCS: 1→%x, %d→%x", h1, runtime.NumCPU(), hN)
	}
}

// TestClusterLifecycleContract exercises Start/Drain/Stop and their typed
// error surface.
func TestClusterLifecycleContract(t *testing.T) {
	c := newTestCluster(t, 3)
	keys := make([]uint64, 300)
	vals := make([]int64, 300)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = int64(i)
	}
	if _, errs, _, err := c.TryUpsert(keys, vals); err != nil || errs != nil {
		t.Fatalf("seed: %v/%v", err, errs)
	}

	// Invalid transitions fail typed.
	if err := c.StartShard(0); !errors.Is(err, ErrShardState) {
		t.Fatalf("StartShard on running shard: %v", err)
	}

	// Drain: reads serve, mutations on the drained shard fail typed.
	if err := c.DrainShard(0); err != nil {
		t.Fatalf("DrainShard: %v", err)
	}
	if err := c.DrainShard(0); !errors.Is(err, ErrShardState) {
		t.Fatalf("double DrainShard: %v", err)
	}
	if _, errs, _, err := c.TryGet(keys); err != nil || errs != nil {
		t.Fatalf("Get through draining shard: %v/%v", err, errs)
	}
	_, errs, _, err := c.TryUpsert(keys, vals)
	if err != nil {
		t.Fatalf("TryUpsert during drain: %v", err)
	}
	sawDraining := false
	for i, e := range errs {
		home := c.ShardFor(keys[i])
		switch {
		case home == 0 && errors.Is(e, ErrShardDraining):
			sawDraining = true
		case home == 0:
			t.Fatalf("key %d on draining shard: err %v", keys[i], e)
		case e != nil:
			t.Fatalf("key %d on healthy shard errored: %v", keys[i], e)
		}
	}
	if !sawDraining {
		t.Fatal("no key routed to the draining shard")
	}

	// Stop: the shard's keys answer ErrShardDown; other shards serve.
	if err := c.StopShard(0); err != nil {
		t.Fatalf("StopShard: %v", err)
	}
	if st := c.ShardStats(0); st.State != ShardDown {
		t.Fatalf("state after stop: %v", st.State)
	}
	got, errs, _, err := c.TryGet(keys)
	if err != nil {
		t.Fatalf("TryGet degraded: %v", err)
	}
	if errs == nil {
		t.Fatal("degraded Get returned no per-key errors")
	}
	om := newOracle(t)
	om.Upsert(keys, vals)
	want, _ := om.Get(keys)
	for i := range keys {
		if c.ShardFor(keys[i]) == 0 {
			if !errors.Is(errs[i], ErrShardDown) {
				t.Fatalf("key %d on down shard: err %v", keys[i], errs[i])
			}
		} else if errs[i] != nil || got[i] != want[i] {
			t.Fatalf("key %d on healthy shard: %+v / %v (oracle %+v)", keys[i], got[i], errs[i], want[i])
		}
	}
	// Successors fail typed where they had to ask the down shard, and
	// answer as the oracle everywhere else.
	qs := make([]uint64, 0, len(keys)+2)
	for q := uint64(0); q <= uint64(len(keys))+1; q++ {
		qs = append(qs, q)
	}
	if failed, _ := checkDegradedSucc(t, c, om, qs, func(s int) bool { return s == 0 }); failed == 0 {
		t.Fatal("no Successor routed to the down shard")
	}
	if err := c.StopShard(0); !errors.Is(err, ErrShardState) {
		t.Fatalf("double StopShard: %v", err)
	}

	// Start: journal rebuild restores the shard and full equivalence.
	if err := c.StartShard(0); err != nil {
		t.Fatalf("StartShard: %v", err)
	}
	got, errs, _, err = c.TryGet(keys)
	if err != nil || errs != nil {
		t.Fatalf("Get after restart: %v/%v", err, errs)
	}
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("after restart Get(%d)=%+v, oracle %+v", keys[i], got[i], want[i])
		}
	}
	if st := c.ShardStats(0); st.State != ShardRunning || st.Recoveries == 0 {
		t.Fatalf("after restart: %+v", st)
	}
}

// TestClusterDegradedMode kills one shard with recovery disabled: its keys
// degrade to typed per-key errors while the other shards keep serving
// oracle-identical replies.
func TestClusterDegradedMode(t *testing.T) {
	const victim = 1
	c := newTestCluster(t, 3, func(cfg *Config) {
		cfg.DisableRecovery = true
		cfg.Faults = make([]core.FaultPlan, 3)
		cfg.Faults[victim] = pim.KillPlan(30, nil)
	})
	om := newOracle(t)
	r := rng.NewXoshiro256(0xDEAD)
	const keySpace = 1 << 10
	killed := false
	for round := 0; round < 40; round++ {
		b := 10 + r.Intn(40)
		keys := make([]uint64, b)
		vals := make([]int64, b)
		for i := range keys {
			keys[i] = 1 + r.Uint64n(keySpace)
			vals[i] = int64(r.Uint64() >> 1)
		}
		got, errs, _, err := c.TryUpsert(keys, vals)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, _ := om.Upsert(keys, vals)
		for i := range keys {
			onVictim := c.ShardFor(keys[i]) == victim
			if errs != nil && errs[i] != nil {
				if !onVictim || !errors.Is(errs[i], ErrShardDown) {
					t.Fatalf("round %d key %d: unexpected err %v", round, keys[i], errs[i])
				}
				killed = true
				continue
			}
			if !onVictim && got[i] != want[i] {
				t.Fatalf("round %d: healthy key %d = %v, oracle %v", round, keys[i], got[i], want[i])
			}
		}
	}
	if !killed {
		t.Fatal("kill plan never fired")
	}
	st := c.ShardStats(victim)
	if st.State != ShardDown || st.Kills == 0 || st.Recoveries != 0 {
		t.Fatalf("victim stats: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if i != victim {
			if st := c.ShardStats(i); st.State != ShardRunning {
				t.Fatalf("shard %d state %v", i, st.State)
			}
		}
	}
}

// TestClusterLifecycleBadShardID: StartShard, DrainShard and StopShard
// fail typed with ErrBadConfig, instead of panicking, on an id that names
// no shard — negative, or ≥ Shards() — and leave every shard as it was.
func TestClusterLifecycleBadShardID(t *testing.T) {
	c := newTestCluster(t, 2)
	calls := []struct {
		name string
		call func(int) error
	}{
		{"StartShard", c.StartShard},
		{"DrainShard", c.DrainShard},
		{"StopShard", c.StopShard},
	}
	for _, tc := range calls {
		for _, id := range []int{-1, -1 << 20, c.Shards(), c.Shards() + 3, 5} {
			if err := tc.call(id); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s(%d) = %v, want ErrBadConfig", tc.name, id, err)
			}
		}
	}
	for s := 0; s < c.Shards(); s++ {
		if st := c.ShardStats(s).State; st != ShardRunning {
			t.Errorf("shard %d: state %v after rejected calls, want running", s, st)
		}
	}
}

// TestClusterConcurrentBatch checks the cluster-level single-flight gate.
func TestClusterConcurrentBatch(t *testing.T) {
	c := newTestCluster(t, 2)
	keys := []uint64{1, 2, 3}
	if !c.inBatch.CompareAndSwap(false, true) {
		t.Fatal("gate unexpectedly held")
	}
	if _, _, _, err := c.TryGet(keys); !errors.Is(err, core.ErrConcurrentBatch) {
		t.Fatalf("concurrent batch: %v", err)
	}
	c.inBatch.Store(false)
	if _, _, _, err := c.TryGet(keys); err != nil {
		t.Fatalf("after release: %v", err)
	}
	c.Close()
	if _, _, _, err := c.TryGet(keys); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("closed cluster: %v", err)
	}
}
