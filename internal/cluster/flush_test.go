package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// errStrings renders a per-key error surface for comparison (nil stays
// distinct from a slice of nils).
func errStrings(errs []error) string {
	if errs == nil {
		return "<nil>"
	}
	return fmt.Sprint(errs)
}

// shardView is the part of ShardStats the fused and sequential paths must
// agree on exactly.
type shardView struct {
	State                      ShardState
	Len                        int
	Kills, Recoveries          int64
	JournalBatches, JournalOps int
	Total, Recovery            core.BatchStats
}

func viewOf(st ShardStats) shardView {
	return shardView{st.State, st.Len, st.Kills, st.Recoveries, st.JournalBatches, st.JournalOps, st.Total, st.Recovery}
}

// TestClusterFlushMatchesSequential is the differential gate for the fused
// flush: twin clusters built from one seed take the same random coalesced
// flush shapes — any kind may be empty; upsert and delete keys are
// disjoint, as a coalescing frontend's final writes are — one through
// TryFlush, the other through TryUpsert → TryDelete → TryGet →
// TrySuccessor. Under every fault plan, including shard kills with and
// without recovery, and with live splits and merges between flushes, the
// two must agree exactly on replies, per-key errors, per-shard costs and
// journals, Len, Epoch, and final contents; the fused Stats must be the
// per-shard sum of the four sequential ones. The fused twin's flushes carry
// an OnShard hook and its shards a trace sink, so the test also holds the
// hook to its contract (hookRecord.check): installing it changes nothing the
// sequential twin would notice.
func TestClusterFlushMatchesSequential(t *testing.T) {
	const faultSeed = 0xF1A5
	const nShards = 4
	cases := []struct {
		name      string
		mk        func(shard int) core.FaultPlan
		kill      bool // wrap two shards in permanent kill plans
		noRecover bool // kills take the shard Down (degraded mode)
	}{
		{"none", func(int) core.FaultPlan { return nil }, false, false},
		{"none+kill", func(int) core.FaultPlan { return nil }, true, false},
		{"none+kill-norecover", func(int) core.FaultPlan { return nil }, true, true},
		{"drop", func(i int) core.FaultPlan { return pim.DropPlan(faultSeed+uint64(i), 800) }, false, false},
		{"duplicate", func(i int) core.FaultPlan { return pim.DupPlan(faultSeed+uint64(i), 800) }, false, false},
		{"delay", func(i int) core.FaultPlan { return pim.DelayPlan(faultSeed+uint64(i), 800, 3) }, false, false},
		{"stall", func(i int) core.FaultPlan { return pim.StallPlan(faultSeed+uint64(i), 1500, 4) }, false, false},
		{"crash", func(i int) core.FaultPlan { return pim.CrashPlan(faultSeed+uint64(i), 400, 2) }, false, false},
		{"chaos", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, false, false},
		{"chaos+kill", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, true, false},
		{"chaos+kill-norecover", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, true, true},
	}
	for ci, tc := range cases {
		tc := tc
		compactEvery := []int{0, 8}[ci%2] // the default rule and a tight batch count
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			build := func(tr func(int) trace.Sink) *Cluster[uint64, int64] {
				plans := make([]core.FaultPlan, nShards)
				for i := range plans {
					plans[i] = tc.mk(i)
				}
				if tc.kill {
					plans[1] = pim.KillPlan(60, plans[1])
					plans[2] = pim.KillPlan(900, plans[2])
				}
				return newTestCluster(t, nShards, func(cfg *Config) {
					cfg.Slots = 64
					cfg.Seed = 0xF1A5 ^ uint64(ci)
					cfg.Faults = plans
					cfg.DisableRecovery = tc.noRecover
					cfg.CompactEvery = compactEvery
					cfg.Trace = tr
				})
			}
			logs := &shardLogs{}
			fused, seq := build(logs.sink), build(nil)
			var hooks hookRecord
			ordered := 0 // hook calls checked against a later Successor BatchStart
			r := rng.NewXoshiro256(0xD1FF ^ uint64(ci))
			const keySpace = 1 << 11
			randKeys := func(n int) []uint64 {
				ks := make([]uint64, n)
				for i := range ks {
					ks[i] = 1 + r.Uint64n(keySpace)
				}
				return ks
			}
			sized := func() int { // a quarter of sub-batches are empty
				if r.Intn(4) == 0 {
					return 0
				}
				return 1 + r.Intn(64)
			}

			keyErrs, published := 0, 0
			var f Flush[uint64, int64]
			for round := 0; round < 60; round++ {
				// Distinct final writes, split into disjoint upserts and deletes.
				seen := map[uint64]bool{}
				var ukeys, dkeys []uint64
				var uvals []int64
				nu, nd := sized(), sized()
				for len(ukeys) < nu || len(dkeys) < nd {
					k := 1 + r.Uint64n(keySpace)
					if seen[k] {
						continue
					}
					seen[k] = true
					if len(ukeys) < nu {
						ukeys = append(ukeys, k)
						uvals = append(uvals, int64(r.Uint64()>>1))
					} else {
						dkeys = append(dkeys, k)
					}
				}
				// One Flush serves every round, as it does a long-lived
				// caller: its reply buffers are reused.
				f.UpsertKeys, f.UpsertVals, f.DeleteKeys = ukeys, uvals, dkeys
				f.GetKeys, f.SuccKeys = randKeys(sized()), randKeys(sized())
				hooks.install(&f, logs)
				logs.reset()
				fst, err := fused.TryFlush(&f)
				if err != nil {
					t.Fatalf("round %d: TryFlush: %v", round, err)
				}
				ordered += hooks.check(t, fmt.Sprintf("round %d", round), &f, fused, logs)
				ures, uerrs, ust, err := seq.TryUpsert(f.UpsertKeys, f.UpsertVals)
				if err != nil {
					t.Fatalf("round %d: TryUpsert: %v", round, err)
				}
				dres, derrs, dst, err := seq.TryDelete(f.DeleteKeys)
				if err != nil {
					t.Fatalf("round %d: TryDelete: %v", round, err)
				}
				gres, gerrs, gst, err := seq.TryGet(f.GetKeys)
				if err != nil {
					t.Fatalf("round %d: TryGet: %v", round, err)
				}
				sres, serrs, sst, err := seq.TrySuccessor(f.SuccKeys)
				if err != nil {
					t.Fatalf("round %d: TrySuccessor: %v", round, err)
				}

				if !slices.Equal(f.Upserted, ures) || errStrings(f.UpsertErrs) != errStrings(uerrs) {
					t.Fatalf("round %d: upsert replies differ:\n fused %v %s\n seq   %v %s", round, f.Upserted, errStrings(f.UpsertErrs), ures, errStrings(uerrs))
				}
				if !slices.Equal(f.Deleted, dres) || errStrings(f.DeleteErrs) != errStrings(derrs) {
					t.Fatalf("round %d: delete replies differ:\n fused %v %s\n seq   %v %s", round, f.Deleted, errStrings(f.DeleteErrs), dres, errStrings(derrs))
				}
				if !slices.Equal(f.Gets, gres) || errStrings(f.GetErrs) != errStrings(gerrs) {
					t.Fatalf("round %d: get replies differ:\n fused %v %s\n seq   %v %s", round, f.Gets, errStrings(f.GetErrs), gres, errStrings(gerrs))
				}
				if !slices.Equal(f.Succs, sres) || errStrings(f.SuccErrs) != errStrings(serrs) {
					t.Fatalf("round %d: successor replies differ:\n fused %v %s\n seq   %v %s", round, f.Succs, errStrings(f.SuccErrs), sres, errStrings(serrs))
				}

				// The fused Stats is the per-shard sum of the four calls.
				want := Stats{Batch: len(ukeys) + len(dkeys) + len(f.GetKeys) + len(f.SuccKeys),
					Shards: make([]core.BatchStats, fused.Shards())}
				for _, st := range []Stats{ust, dst, gst, sst} {
					want.Recovered += st.Recovered
					for s := range st.Shards {
						want.Shards[s].Accumulate(st.Shards[s])
					}
				}
				if fst.Batch != want.Batch || fst.Recovered != want.Recovered || !slices.Equal(fst.Shards, want.Shards) {
					t.Fatalf("round %d: fused Stats %+v, sequential sum %+v", round, fst, want)
				}
				compareClusters(t, fmt.Sprintf("round %d", round), fused, seq)
				for _, errs := range [][]error{f.UpsertErrs, f.DeleteErrs, f.GetErrs, f.SuccErrs} {
					for _, e := range errs {
						if e != nil {
							keyErrs++
						}
					}
				}

				// Live topology changes between flushes, chosen from (equal)
				// load samples and applied to both twins.
				if round%10 == 4 || round%10 == 9 {
					epoch := fused.Epoch()
					migrateBoth(t, round, fused, seq)
					if fused.Epoch() != epoch {
						published++
					}
				}
			}
			if published == 0 {
				t.Error("no migration ever published; the case proves nothing about live topology changes")
			}
			if tc.noRecover && keyErrs == 0 {
				t.Error("degraded case: no per-key error ever surfaced")
			}
			if ordered == 0 {
				t.Error("no hook call was ever followed by its shard's Successor share; the ordering check proves nothing")
			}

			// Final contents: bring any Down shard back, then read everything.
			for s := 0; s < fused.Shards(); s++ {
				if fused.ShardStats(s).State == ShardDown {
					errF, errS := fused.StartShard(s), seq.StartShard(s)
					if fmt.Sprint(errF) != fmt.Sprint(errS) {
						t.Fatalf("StartShard(%d): fused %v, sequential %v", s, errF, errS)
					}
				}
			}
			read := []core.RangeOp[uint64, int64]{{Lo: 0, Hi: keySpace + 1, Kind: core.RangeRead}}
			gf, ef, _, err := fused.TryRangeOperation(read)
			if err != nil {
				t.Fatalf("final read: %v", err)
			}
			gs, es, _, err := seq.TryRangeOperation(read)
			if err != nil {
				t.Fatalf("final read: %v", err)
			}
			noErrs(t, ef, "fused final read")
			noErrs(t, es, "sequential final read")
			if !slices.Equal(gf[0].Pairs, gs[0].Pairs) {
				t.Fatalf("final contents differ: fused %d pairs, sequential %d", len(gf[0].Pairs), len(gs[0].Pairs))
			}
			if len(gf[0].Pairs) == 0 {
				t.Fatal("final contents empty; the workload wrote nothing")
			}
			compareClusters(t, "final", fused, seq)
			if tc.kill {
				var kills int64
				for s := 0; s < fused.Shards(); s++ {
					kills += fused.ShardStats(s).Kills
				}
				if kills == 0 {
					t.Error("kill case: no shard was ever killed; the case proves nothing")
				}
			}
		})
	}
}

// compareClusters fails unless a and b agree on Len, Epoch, and every
// shard's state, journal and cost accounts, and each keeps its running
// journal op counts exact.
func compareClusters(t *testing.T, at string, a, b *Cluster[uint64, int64]) {
	t.Helper()
	checkJournalCounters(t, at+" (fused)", a)
	checkJournalCounters(t, at+" (sequential)", b)
	if a.Len() != b.Len() || a.Epoch() != b.Epoch() || a.Shards() != b.Shards() {
		t.Fatalf("%s: Len/Epoch/Shards fused %d/%d/%d, sequential %d/%d/%d",
			at, a.Len(), a.Epoch(), a.Shards(), b.Len(), b.Epoch(), b.Shards())
	}
	for s := 0; s < a.Shards(); s++ {
		if va, vb := viewOf(a.ShardStats(s)), viewOf(b.ShardStats(s)); va != vb {
			t.Fatalf("%s: shard %d stats differ:\n fused %+v\n seq   %+v", at, s, va, vb)
		}
	}
}

// migrateBoth applies one split or merge, chosen from a's load sample, to
// both twins and checks they fare identically. Failures (a Down shard
// cannot migrate) are fine as long as both fail the same way.
func migrateBoth(t *testing.T, round int, a, b *Cluster[uint64, int64]) {
	t.Helper()
	var active []ShardLoad
	for _, l := range a.Loads() {
		if l.State == ShardRunning && l.Slots > 0 {
			active = append(active, l)
		}
	}
	if len(active) == 0 {
		return
	}
	slices.SortStableFunc(active, func(x, y ShardLoad) int { return y.Slots - x.Slots })
	if round%10 == 4 || len(active) < 2 {
		_, ra, errA := a.SplitShard(active[0].Shard, nil)
		_, rb, errB := b.SplitShard(active[0].Shard, nil)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || ra.Epoch != rb.Epoch || ra.SlotsMoved != rb.SlotsMoved {
			t.Fatalf("round %d: split diverged: fused (%+v, %v), sequential (%+v, %v)", round, ra, errA, rb, errB)
		}
		return
	}
	dst, src := active[len(active)-2].Shard, active[len(active)-1].Shard
	ra, errA := a.MergeShards(dst, src, nil)
	rb, errB := b.MergeShards(dst, src, nil)
	if fmt.Sprint(errA) != fmt.Sprint(errB) || ra.Epoch != rb.Epoch || ra.SlotsMoved != rb.SlotsMoved {
		t.Fatalf("round %d: merge diverged: fused (%+v, %v), sequential (%+v, %v)", round, ra, errA, rb, errB)
	}
}

// shardLogs keeps one event log per shard id: the BatchStart labels of the
// shard's trace sink and a "hook" entry per OnShard call. A shard's log is
// written only by the goroutine running that shard, and read once TryFlush
// has returned.
type shardLogs struct {
	mu   sync.Mutex
	logs []*[]string
}

// log returns shard s's log, creating it (splits add shard ids).
func (l *shardLogs) log(s int) *[]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.logs) <= s {
		l.logs = append(l.logs, new([]string))
	}
	return l.logs[s]
}

// sink is the cluster's Config.Trace factory.
func (l *shardLogs) sink(s int) trace.Sink { return &logSink{log: l.log(s)} }

// reset empties every log before a flush.
func (l *shardLogs) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, lg := range l.logs {
		*lg = (*lg)[:0]
	}
}

// logSink records the BatchStart labels of one shard ("s<id>/<op>").
type logSink struct{ log *[]string }

func (s *logSink) BatchStart(op string, n int)    { *s.log = append(*s.log, op) }
func (s *logSink) PhaseStart(string, trace.Phase) {}
func (s *logSink) PhaseEnd(trace.Span)            {}
func (s *logSink) RoundEnd(trace.RoundStat)       {}
func (s *logSink) Fault(trace.FaultEvent)         {}
func (s *logSink) BatchEnd(string, trace.Totals)  {}

// hookRecord is what one flush's OnShard calls reported: the calls per
// shard, and per point kind (upsert, delete, get) and submission index the
// number of reports, the error, and the result the Flush held at the call.
type hookRecord struct {
	mu    sync.Mutex
	calls map[int]int
	seen  [3][]int
	errs  [3][]error
	bools [2][]bool
	gets  []core.GetResult[int64]
}

// install resets the record for f and sets f.OnShard to record into it and
// into the calling shard's log.
func (h *hookRecord) install(f *Flush[uint64, int64], logs *shardLogs) {
	h.calls = map[int]int{}
	for k, n := range []int{len(f.UpsertKeys), len(f.DeleteKeys), len(f.GetKeys)} {
		h.seen[k], h.errs[k] = make([]int, n), make([]error, n)
	}
	h.bools[0], h.bools[1] = make([]bool, len(f.UpsertKeys)), make([]bool, len(f.DeleteKeys))
	h.gets = make([]core.GetResult[int64], len(f.GetKeys))
	f.OnShard = func(s int, ups, dels, gets []int, uerr, derr, gerr error) {
		lg := logs.log(s)
		*lg = append(*lg, "hook")
		h.mu.Lock()
		defer h.mu.Unlock()
		h.calls[s]++
		for k, idx := range [3][]int{ups, dels, gets} {
			for _, x := range idx {
				h.seen[k][x]++
				h.errs[k][x] = [3]error{uerr, derr, gerr}[k]
				switch k {
				case 0:
					h.bools[0][x] = f.Upserted[x]
				case 1:
					h.bools[1][x] = f.Deleted[x]
				case 2:
					h.gets[x] = f.Gets[x]
				}
			}
		}
	}
}

// check holds one returned flush to the OnShard contract: every point
// position was reported exactly once, with the result and error f holds
// now; exactly the shards routed point work were called, once each; and
// each called shard's hook entry precedes its Successor BatchStart. It
// returns the number of calls that a Successor BatchStart followed.
func (h *hookRecord) check(t *testing.T, at string, f *Flush[uint64, int64], c *Cluster[uint64, int64], logs *shardLogs) (ordered int) {
	t.Helper()
	errAt := func(errs []error, x int) error {
		if errs == nil {
			return nil
		}
		return errs[x]
	}
	homes := map[int]bool{}
	for k, keys := range [3][]uint64{f.UpsertKeys, f.DeleteKeys, f.GetKeys} {
		for x, key := range keys {
			homes[c.ShardFor(key)] = true
			if h.seen[k][x] != 1 {
				t.Fatalf("%s: kind %d position %d reported %d times, want once", at, k, x, h.seen[k][x])
			}
			final := [3][]error{f.UpsertErrs, f.DeleteErrs, f.GetErrs}[k]
			if got, want := fmt.Sprint(h.errs[k][x]), fmt.Sprint(errAt(final, x)); got != want {
				t.Fatalf("%s: kind %d position %d: hook error %s, Flush holds %s", at, k, x, got, want)
			}
			same := true
			switch k {
			case 0:
				same = h.bools[0][x] == f.Upserted[x]
			case 1:
				same = h.bools[1][x] == f.Deleted[x]
			case 2:
				same = h.gets[x] == f.Gets[x]
			}
			if !same {
				t.Fatalf("%s: kind %d position %d: result at the hook differs from the returned Flush", at, k, x)
			}
		}
	}
	for s := 0; s < c.Shards(); s++ {
		want := 0
		if homes[s] {
			want = 1
		}
		if h.calls[s] != want {
			t.Fatalf("%s: shard %d: %d hook calls, want %d (point work: %v)", at, s, h.calls[s], want, homes[s])
		}
		lg := *logs.log(s)
		hook := slices.Index(lg, "hook")
		succ := slices.IndexFunc(lg, func(op string) bool { return strings.HasSuffix(op, "/successor") })
		if hook >= 0 && succ >= 0 {
			if succ < hook {
				t.Fatalf("%s: shard %d ran its Successor share before the hook: %v", at, s, lg)
			}
			ordered++
		}
	}
	return ordered
}
