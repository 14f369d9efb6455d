package frontend

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimgo/internal/baseline/seqlist"
	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

func newTestMap(t *testing.T, p int, opts ...func(*core.Config)) *core.Map[uint64, int64] {
	t.Helper()
	cfg := core.Config{P: p, Seed: 0xC0FFEE}
	for _, o := range opts {
		o(&cfg)
	}
	return core.New[uint64, int64](cfg, core.Uint64Hash)
}

// stoppedFrontend returns a Frontend whose collector has exited, so tests
// can drive flush deterministically with hand-built batches.
func stoppedFrontend(t *testing.T, m *core.Map[uint64, int64], cfg Config) *Frontend[uint64, int64] {
	t.Helper()
	f := New(m, cfg)
	f.Close()
	return f
}

// fut builds a ready-to-flush future.
func fut(kind opKind, key uint64, val int64) *future[uint64, int64] {
	return &future[uint64, int64]{ready: make(chan struct{}, 1), kind: kind, key: key, val: val, enq: time.Now()}
}

// reap asserts the future was answered and returns its reply fields.
func reap(t *testing.T, fu *future[uint64, int64]) (bool, uint64, int64) {
	t.Helper()
	select {
	case <-fu.ready:
	default:
		t.Fatalf("future (kind %d key %d) never answered", fu.kind, fu.key)
	}
	if fu.err != nil {
		t.Fatalf("future (kind %d key %d): unexpected error %v", fu.kind, fu.key, fu.err)
	}
	return fu.found, fu.rkey, fu.rval
}

// TestFlushWriteCoalescing: conflicting same-key writes coalesce to the
// final one, yet every op gets the reply it would have received running
// one-at-a-time in arrival order.
func TestFlushWriteCoalescing(t *testing.T) {
	m := newTestMap(t, 4)
	m.Upsert([]uint64{200}, []int64{5})
	f := stoppedFrontend(t, m, Config{})

	// Key 100 (absent): Upsert, Upsert, Delete — final state absent.
	// Key 200 (present): Delete, Upsert — final state present with new val.
	u1, u2, d1 := fut(opUpsert, 100, 1), fut(opUpsert, 100, 2), fut(opDelete, 100, 0)
	d2, u3 := fut(opDelete, 200, 0), fut(opUpsert, 200, 7)
	g1, g2 := fut(opGet, 100, 0), fut(opGet, 200, 0)
	f.flush([]*future[uint64, int64]{u1, d2, u2, u3, d1, g1, g2})

	if ins, _, _ := reap(t, u1); !ins {
		t.Error("first upsert of absent key: inserted = false, want true")
	}
	if ins, _, _ := reap(t, u2); ins {
		t.Error("second upsert of now-present key: inserted = true, want false")
	}
	if found, _, _ := reap(t, d1); !found {
		t.Error("delete of upserted key: found = false, want true")
	}
	if found, _, _ := reap(t, d2); !found {
		t.Error("delete of pre-existing key: found = false, want true")
	}
	if ins, _, _ := reap(t, u3); !ins {
		t.Error("upsert after same-flush delete: inserted = false, want true")
	}
	// Reads see the post-write state.
	if found, _, _ := reap(t, g1); found {
		t.Error("get of net-deleted key: found = true, want false")
	}
	if found, _, v := reap(t, g2); !found || v != 7 {
		t.Errorf("get of net-upserted key = (%v, %d), want (true, 7)", found, v)
	}

	// The Map holds exactly the net state.
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	res, _ := m.Get([]uint64{100, 200})
	if res[0].Found || !res[1].Found || res[1].Value != 7 {
		t.Fatalf("net map state wrong: %+v", res)
	}

	st := f.Stats()
	// 7 ops; submitted = 2 final writes (delete 100, upsert 200) + 2 gets.
	if st.Ops != 7 || st.Submitted != 4 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want Ops 7 Submitted 4 Flushes 1", st)
	}
}

// TestFlushWritesBeforeReads: Successor in a flush observes that flush's
// writes, regardless of arrival order.
func TestFlushWritesBeforeReads(t *testing.T) {
	m := newTestMap(t, 4)
	m.Upsert([]uint64{10, 30}, []int64{1, 3})
	f := stoppedFrontend(t, m, Config{})

	s1 := fut(opSucc, 15, 0)
	u1 := fut(opUpsert, 20, 2)
	f.flush([]*future[uint64, int64]{s1, u1}) // read arrives first, still sees the write

	reap(t, u1)
	if found, k, v := reap(t, s1); !found || k != 20 || v != 2 {
		t.Fatalf("Successor(15) = (%v, %d, %d), want (true, 20, 2)", found, k, v)
	}
}

// TestFrontendFlushErrorGranularity: on the single-Map flush a failed write
// sub-batch fails every op of the flush; a failed Get sub-batch fails only
// the reads, while the writes keep their replayed replies; a failed
// Successor sub-batch fails only the Successors. Each case kills the Map's
// machine at the first round of one sub-batch, counted on a fault-free
// twin Map that runs the same sub-batches directly.
func TestFrontendFlushErrorGranularity(t *testing.T) {
	seedKeys, seedVals := []uint64{10, 30}, []int64{1, 3}
	// The flush writes no key twice, so its coalesced sub-batches are
	// exactly these: upsert 20, delete 30, get 10 and 20, successor 15.
	twin := newTestMap(t, 4)
	defer twin.Close()
	rounds := twin.Machine().Metrics().Rounds // construction
	_, st := twin.Upsert(seedKeys, seedVals)
	rounds += st.Rounds
	var first [4]int64 // first round of the upsert, delete, get, successor sub-batch
	for k, run := range []func() core.BatchStats{
		func() core.BatchStats { _, st := twin.Upsert([]uint64{20}, []int64{2}); return st },
		func() core.BatchStats { _, st := twin.Delete([]uint64{30}); return st },
		func() core.BatchStats { _, st := twin.Get([]uint64{10, 20}); return st },
		func() core.BatchStats { _, st := twin.Successor([]uint64{15}); return st },
	} {
		first[k] = rounds + 1
		rounds += run().Rounds
	}

	cases := []struct {
		name   string
		killAt int64
		failed int // ops answered with the error: a suffix of u, d, g1, g2, s
	}{
		{"none", rounds + 1, 0},
		{"upsert", first[0], 5},
		{"delete", first[1], 5},
		{"get", first[2], 3},
		{"successor", first[3], 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMap(t, 4, func(c *core.Config) { c.Fault = pim.KillPlan(tc.killAt, nil) })
			defer m.Close()
			m.Upsert(seedKeys, seedVals)
			f := stoppedFrontend(t, m, Config{})
			u, d := fut(opUpsert, 20, 2), fut(opDelete, 30, 0)
			g1, g2, s := fut(opGet, 10, 0), fut(opGet, 20, 0), fut(opSucc, 15, 0)
			futs := []*future[uint64, int64]{u, d, g1, g2, s}
			f.flush(futs)

			ok := len(futs) - tc.failed
			for _, fu := range futs[ok:] {
				select {
				case <-fu.ready:
				default:
					t.Fatalf("future (kind %d key %d) never answered", fu.kind, fu.key)
				}
				if !errors.Is(fu.err, pim.ErrMachineKilled) {
					t.Fatalf("future (kind %d key %d): err = %v, want ErrMachineKilled", fu.kind, fu.key, fu.err)
				}
			}
			want := []struct {
				found bool
				key   uint64
				val   int64
			}{{true, 0, 0}, {true, 0, 0}, {true, 0, 1}, {true, 0, 2}, {true, 20, 2}}
			for i, fu := range futs[:ok] {
				if found, k, v := reap(t, fu); found != want[i].found || k != want[i].key || v != want[i].val {
					t.Errorf("op %d (kind %d key %d) = (%v, %d, %d), want %+v", i, fu.kind, fu.key, found, k, v, want[i])
				}
			}
			if st := f.Stats(); st.Errors != int64(tc.failed) || st.Ops != 5 {
				t.Fatalf("stats = %+v, want Ops 5 Errors %d", st, tc.failed)
			}
		})
	}
}

// TestFrontendBasic: single-client round trip through the live collector.
func TestFrontendBasic(t *testing.T) {
	m := newTestMap(t, 4)
	f := New(m, Config{})
	defer f.Close()

	if ins, err := f.Upsert(42, 420); err != nil || !ins {
		t.Fatalf("Upsert = (%v, %v), want (true, nil)", ins, err)
	}
	if res, err := f.Get(42); err != nil || !res.Found || res.Value != 420 {
		t.Fatalf("Get = (%+v, %v)", res, err)
	}
	if res, err := f.Successor(40); err != nil || !res.Found || res.Key != 42 {
		t.Fatalf("Successor = (%+v, %v)", res, err)
	}
	if found, err := f.Delete(42); err != nil || !found {
		t.Fatalf("Delete = (%v, %v), want (true, nil)", found, err)
	}
	if res, err := f.Get(42); err != nil || res.Found {
		t.Fatalf("Get after delete = (%+v, %v)", res, err)
	}
}

// TestFrontendClose: Close drains in-flight ops, later ops fail with
// core.ErrClosed, Close is idempotent and concurrency-safe.
func TestFrontendClose(t *testing.T) {
	m := newTestMap(t, 4)
	f := New(m, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := f.Upsert(uint64(g*1000+i), int64(i))
				if err != nil {
					if !errors.Is(err, core.ErrClosed) {
						t.Errorf("Upsert: err = %v, want ErrClosed", err)
					}
					return
				}
			}
		}(g)
	}
	f.Close()
	f.Close() // idempotent
	wg.Wait()
	if _, err := f.Get(1); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Get after Close: err = %v, want ErrClosed", err)
	}
	// Every op that reported success is in the Map (none lost in the drain):
	// spot-check by re-counting via a direct batch (the frontend is closed,
	// so the Map is free again).
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestFrontendCloseDeterministic is the regression test for Close's error
// contract: among any number of Close calls — sequential repeats or
// concurrent races, with client ops still in flight — exactly the one that
// performed the shutdown returns nil and every other returns
// core.ErrClosed, always after the collector has fully drained.
func TestFrontendCloseDeterministic(t *testing.T) {
	// Sequential: second call reports ErrClosed.
	m := newTestMap(t, 4)
	defer m.Close()
	f := New(m, Config{})
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	// Concurrent: 8 racing Closes while 8 clients submit ops; exactly one
	// nil, and all return only after the drain (the collector goroutine has
	// exited, so a follow-up op must fail typed, never hang or race).
	for trial := 0; trial < 20; trial++ {
		m2 := newTestMap(t, 4)
		f2 := New(m2, Config{})
		var ops sync.WaitGroup
		for g := 0; g < 8; g++ {
			ops.Add(1)
			go func(g int) {
				defer ops.Done()
				for i := 0; i < 50; i++ {
					if _, err := f2.Upsert(uint64(g*100+i), int64(i)); err != nil {
						if !errors.Is(err, core.ErrClosed) {
							t.Errorf("Upsert: %v, want ErrClosed", err)
						}
						return
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
				switch err := f2.Close(); {
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
		if _, err := f2.Get(1); !errors.Is(err, core.ErrClosed) {
			t.Fatalf("trial %d: Get after Close: %v", trial, err)
		}
		m2.Close()
	}
}

// pointAPI is the single-key client surface both frontends promote from
// the collector; tests that only need Get/Upsert/Delete/Successor run unchanged
// against a Frontend or a ClusterFrontend.
type pointAPI interface {
	Get(uint64) (core.GetResult[int64], error)
	Upsert(uint64, int64) (bool, error)
	Delete(uint64) (bool, error)
	Successor(uint64) (core.SearchResult[uint64, int64], error)
}

// clientSpan is the width of each shardClient's key range; its sentinel
// sits just above it.
const clientSpan = 1 << 10

// shardClient runs one client's deterministic workload against its private
// key shard and checks every reply against a private seqlist oracle. Shards
// are disjoint and each keeps a never-deleted sentinel top key, so each
// client's reply stream is independent of how flushes interleave clients.
func shardClient(t *testing.T, f pointAPI, client, ops int) {
	base := uint64(client+1) << 32
	const span = clientSpan
	sentinel := base + span + 1
	oracle := seqlist.New[uint64, int64](uint64(client) * 31)

	if ins, err := f.Upsert(sentinel, -1); err != nil || !ins {
		t.Errorf("client %d: sentinel upsert = (%v, %v)", client, ins, err)
		return
	}
	oracle.Upsert(sentinel, -1)

	r := rng.NewXoshiro256(0x5EED ^ uint64(client)*0x9E3779B97F4A7C15)
	for i := 0; i < ops; i++ {
		k := base + r.Uint64n(span)
		switch r.Intn(4) {
		case 0:
			v := int64(r.Uint64() >> 1)
			ins, err := f.Upsert(k, v)
			if err != nil {
				t.Errorf("client %d op %d: Upsert err %v", client, i, err)
				return
			}
			want, _ := oracle.Upsert(k, v)
			if ins != want {
				t.Errorf("client %d op %d: Upsert(%d) inserted=%v oracle %v", client, i, k, ins, want)
				return
			}
		case 1:
			found, err := f.Delete(k)
			if err != nil {
				t.Errorf("client %d op %d: Delete err %v", client, i, err)
				return
			}
			want, _ := oracle.Delete(k)
			if found != want {
				t.Errorf("client %d op %d: Delete(%d)=%v oracle %v", client, i, k, found, want)
				return
			}
		case 2:
			res, err := f.Get(k)
			if err != nil {
				t.Errorf("client %d op %d: Get err %v", client, i, err)
				return
			}
			wv, wok, _ := oracle.Get(k)
			if res.Found != wok || (wok && res.Value != wv) {
				t.Errorf("client %d op %d: Get(%d)=%+v oracle (%d,%v)", client, i, k, res, wv, wok)
				return
			}
		case 3:
			res, err := f.Successor(k)
			if err != nil {
				t.Errorf("client %d op %d: Successor err %v", client, i, err)
				return
			}
			wk, wv, wok, _ := oracle.Succ(k)
			if res.Found != wok || res.Key != wk || res.Value != wv {
				t.Errorf("client %d op %d: Successor(%d)=%+v oracle (%d,%d,%v)",
					client, i, k, res, wk, wv, wok)
				return
			}
		}
	}
}

// TestFrontendConcurrentOracle: many concurrent clients over disjoint key
// shards; every reply must match a per-client sequential oracle no matter
// how the collector interleaves and coalesces the traffic.
func TestFrontendConcurrentOracle(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxBatch: 64}, {MaxWait: 200 * time.Microsecond}} {
		m := newTestMap(t, 8)
		f := New(m, cfg)
		var wg sync.WaitGroup
		clients, ops := 32, 300
		if testing.Short() {
			clients, ops = 8, 100
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				shardClient(t, f, c, ops)
			}(c)
		}
		wg.Wait()
		st := f.Stats()
		f.Close()
		if st.Ops == 0 || st.Flushes == 0 {
			t.Fatalf("cfg %+v: collector saw no traffic: %+v", cfg, st)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cfg %+v: invariants: %v", cfg, err)
		}
	}
}

// TestFrontendOracleAcrossGOMAXPROCS re-runs the concurrent-oracle
// workload at several GOMAXPROCS settings: per-client reply exactness must
// hold whether the collector and clients share one processor (the
// runnext/gather interplay) or race on several.
func TestFrontendOracleAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		m := newTestMap(t, 8)
		f := New(m, Config{})
		var wg sync.WaitGroup
		clients, ops := 16, 200
		if testing.Short() {
			clients, ops = 4, 50
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				shardClient(t, f, c, ops)
			}(c)
		}
		wg.Wait()
		f.Close()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("GOMAXPROCS %d: invariants: %v", gmp, err)
		}
	}
}

// TestFrontendChaosSoak: the concurrent-oracle workload over a Map with
// every built-in fault plan installed. The reliable transport must hide all
// injected faults: every client reply stays bit-identical to its sequential
// oracle. Skipped with -short.
func TestFrontendChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("frontend chaos soak skipped in -short mode")
	}
	const faultSeed = 0xFA17ED
	plans := []struct {
		name  string
		plan  *pim.SeededPlan
		fired func(core.FaultStats) bool
	}{
		{"drop", pim.DropPlan(faultSeed, 800), func(f core.FaultStats) bool {
			return f.SendsDropped+f.BundlesDropped > 0 && f.Retransmits > 0
		}},
		{"duplicate", pim.DupPlan(faultSeed, 800), func(f core.FaultStats) bool {
			return f.SendsDuplicated+f.BundlesDuplicated > 0 && f.Replays+f.DupDiscards > 0
		}},
		{"delay", pim.DelayPlan(faultSeed, 800, 3), func(f core.FaultStats) bool {
			return f.SendsDelayed+f.BundlesDelayed > 0
		}},
		{"stall", pim.StallPlan(faultSeed, 1500, 4), func(f core.FaultStats) bool {
			return f.StalledModuleRounds > 0
		}},
		{"crash", pim.CrashPlan(faultSeed, 400, 2), func(f core.FaultStats) bool {
			return f.CrashedModuleRounds > 0 && f.LostToCrash > 0
		}},
		{"chaos", pim.ChaosPlan(faultSeed), func(f core.FaultStats) bool {
			return f.SendsDropped > 0 && f.SendsDuplicated > 0 && f.SendsDelayed > 0
		}},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := newTestMap(t, 8, func(c *core.Config) { c.Fault = tc.plan })
			f := New(m, Config{MaxBatch: 128})
			var wg sync.WaitGroup
			const clients, ops = 16, 250
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					shardClient(t, f, c, ops)
				}(c)
			}
			wg.Wait()
			f.Close()
			fs := m.FaultStats()
			if !tc.fired(fs) {
				t.Fatalf("plan %s never fired under frontend traffic: %+v", tc.name, fs)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
		})
	}
}

// TestFrontendFlushTrace: a Profile installed on the Map receives FlushStat
// events alongside the machine stream, and its collector totals agree with
// the frontend's own Stats.
func TestFrontendFlushTrace(t *testing.T) {
	m := newTestMap(t, 4)
	p := trace.NewProfile()
	m.SetTraceSink(p)
	f := New(m, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shardClient(t, f, c, 100)
		}(c)
	}
	wg.Wait()
	f.Close() // Stats is final only after Close: the last flush is counted after its replies
	st := f.Stats()
	c := p.Collector()
	if c.Flushes != st.Flushes || c.Ops != st.Ops || c.Submitted != st.Submitted {
		t.Fatalf("profile collector %+v disagrees with frontend stats %+v", c, st)
	}
	if c.MeanBatch() <= 0 {
		t.Fatalf("MeanBatch = %v, want > 0", c.MeanBatch())
	}
	if p.Last() == nil {
		t.Fatal("machine stream missing: no batch profile recorded")
	}
}

// TestFrontendErrorDelivery: when the Map fails mid-flush (unrecoverable
// fault), every op of the flush receives the error and the frontend keeps
// serving (subsequent flushes fail the same way rather than hanging).
func TestFrontendErrorDelivery(t *testing.T) {
	m := newTestMap(t, 4, func(c *core.Config) { c.Fault = pim.DropPlan(7, 10000) })
	f := New(m, Config{})
	for i := 0; i < 3; i++ {
		_, err := f.Get(uint64(i))
		if !errors.Is(err, core.ErrFaultUnrecoverable) {
			t.Fatalf("attempt %d: err = %v, want ErrFaultUnrecoverable", i, err)
		}
	}
	f.Close()
	st := f.Stats()
	if st.Errors != 3 {
		t.Fatalf("Errors = %d, want 3", st.Errors)
	}
}

// TestFrontendDwell: with MaxWait set, a lone op is still flushed once the
// dwell expires (liveness), and the dwell window actually coalesces.
func TestFrontendDwell(t *testing.T) {
	m := newTestMap(t, 4)
	f := New(m, Config{MaxWait: time.Millisecond})
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if ins, err := f.Upsert(1, 1); err != nil || !ins {
			t.Errorf("lone op under dwell: (%v, %v)", ins, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lone op under MaxWait dwell never completed")
	}
}
