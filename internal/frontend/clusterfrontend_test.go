package frontend

import (
	"errors"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimgo/internal/cluster"
	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// newTestCluster builds a small cluster with the test defaults; opts mutate
// the Config before construction.
func newTestCluster(t *testing.T, shards int, opts ...func(*cluster.Config)) *cluster.Cluster[uint64, int64] {
	t.Helper()
	cfg := cluster.Config{
		Shards: shards,
		Slots:  64,
		Seed:   0xC10C,
		Shard:  core.Config{P: 4},
	}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := cluster.New[uint64, int64](cfg, core.Uint64Hash)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stoppedClusterFrontend returns a ClusterFrontend whose collector has
// exited, so tests can drive flush deterministically with hand-built
// batches.
func stoppedClusterFrontend(t *testing.T, c *cluster.Cluster[uint64, int64], cfg ClusterConfig) *ClusterFrontend[uint64, int64] {
	t.Helper()
	f := NewClusterFrontend(c, cfg)
	f.Close()
	return f
}

// flipPolicy alternates between splitting the slot-heaviest shard and
// merging the two slot-lightest, one action per window — an always-hungry
// policy that keeps migrations flowing under any traffic, so tests exercise
// the control loop without depending on load thresholds. Deterministic
// given the same window sequence.
type flipPolicy struct{ n int }

func (p *flipPolicy) Propose(loads []cluster.ShardLoad) []cluster.RebalanceAction {
	active := make([]cluster.ShardLoad, 0, len(loads))
	for _, l := range loads {
		if l.State == cluster.ShardRunning && l.Slots > 0 {
			active = append(active, l)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		if active[i].Slots != active[j].Slots {
			return active[i].Slots > active[j].Slots
		}
		return active[i].Shard < active[j].Shard
	})
	p.n++
	if p.n%2 == 1 || len(active) < 2 {
		for _, l := range active {
			if l.Slots >= 2 {
				return []cluster.RebalanceAction{{Kind: cluster.ActionSplit, Src: l.Shard}}
			}
		}
		return nil
	}
	a, b := active[len(active)-1], active[len(active)-2]
	return []cluster.RebalanceAction{{Kind: cluster.ActionMerge, Dst: b.Shard, Src: a.Shard}}
}

// TestClusterFlushWriteCoalescing: the cluster flush preserves the exact
// write-coalescing replies of the single-Map flush — conflicting writes
// coalesce to the final one per key, every superseded op gets its replayed
// reply, reads see the post-write state — with the ops scattered across
// shards.
func TestClusterFlushWriteCoalescing(t *testing.T) {
	c := newTestCluster(t, 3)
	if _, errs, _, err := c.TryUpsert([]uint64{200}, []int64{5}); err != nil || errs != nil {
		t.Fatalf("seed: %v %v", errs, err)
	}
	f := stoppedClusterFrontend(t, c, ClusterConfig{})

	u1, u2, d1 := fut(opUpsert, 100, 1), fut(opUpsert, 100, 2), fut(opDelete, 100, 0)
	d2, u3 := fut(opDelete, 200, 0), fut(opUpsert, 200, 7)
	g1, g2 := fut(opGet, 100, 0), fut(opGet, 200, 0)
	s1 := fut(opSucc, 0, 0)
	f.flush([]*future[uint64, int64]{u1, d2, u2, u3, d1, g1, g2, s1})

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
	if found, _, _ := reap(t, g1); found {
		t.Error("get of net-deleted key: found = true, want false")
	}
	if found, _, v := reap(t, g2); !found || v != 7 {
		t.Errorf("get of net-upserted key = (%v, %d), want (true, 7)", found, v)
	}
	// The broadcast Successor sees the flush's writes: smallest key ≥ 0 is
	// the net-upserted 200 (100 was net-deleted).
	if found, k, v := reap(t, s1); !found || k != 200 || v != 7 {
		t.Errorf("Successor(0) = (%v, %d, %d), want (true, 200, 7)", found, k, v)
	}

	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := f.Stats()
	// 8 ops; submitted = 2 final writes + 2 gets + 1 successor.
	if st.Ops != 8 || st.Submitted != 5 || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want Ops 8 Submitted 5 Flushes 1", st)
	}
}

// The spread: loadSpread upserts spreadN keys, the multiples of
// spreadStride from spreadStride on, each with value key·10. An empty
// cluster routes every key to shard 0 until its first Upsert sets the
// splitters, so tests load the spread before they pick per-shard keys.
const spreadStride, spreadN = 100, 640

// loadSpread loads the spread into c and returns the pairs it holds.
func loadSpread(t *testing.T, c *cluster.Cluster[uint64, int64]) map[uint64]int64 {
	t.Helper()
	keys, vals := make([]uint64, spreadN), make([]int64, spreadN)
	state := make(map[uint64]int64, spreadN)
	for i := range keys {
		k := uint64(i+1) * spreadStride
		keys[i], vals[i], state[k] = k, int64(k)*10, int64(k)*10
	}
	if _, errs, _, err := c.TryUpsert(keys, vals); err != nil || errs != nil {
		t.Fatalf("loading the spread: %v %v", errs, err)
	}
	return state
}

// loadClientGaps makes c's first Upsert, which sets its splitters: one key
// just above the sentinel of each of clients shardClient clients. No client
// reads or writes there (a client's Successors stop at its sentinel), and
// the splitters these keys set fall between the clients' key ranges,
// spreading the clients over the shards. An empty cluster's first flush
// would instead hold the few sentinels that arrived first. The batch is
// small, so a kill plan's early round lands in client traffic.
func loadClientGaps(t *testing.T, c *cluster.Cluster[uint64, int64], clients int) {
	t.Helper()
	keys, vals := make([]uint64, clients), make([]int64, clients)
	for cl := range keys {
		keys[cl], vals[cl] = uint64(cl+1)<<32+clientSpan+2, -2
	}
	if _, errs, _, err := c.TryUpsert(keys, vals); err != nil || errs != nil {
		t.Fatalf("loading the client gaps: %v %v", errs, err)
	}
}

// pointCounts counts, per shard, the point sub-batches (Upsert, Delete,
// Get) each shard starts; its sink method is a cluster.Config.Trace.
type pointCounts struct {
	mu sync.Mutex
	n  []*atomic.Int64
}

func (p *pointCounts) sink(s int) trace.Sink {
	return pointSink{n: p.counter(s)}
}

func (p *pointCounts) counter(s int) *atomic.Int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.n) <= s {
		p.n = append(p.n, new(atomic.Int64))
	}
	return p.n[s]
}

// snapshot returns the counts of shards 0..n−1.
func (p *pointCounts) snapshot(n int) []int64 {
	out := make([]int64, n)
	for s := range out {
		out[s] = p.counter(s).Load()
	}
	return out
}

// requireAllShards fails the test unless each of the first len(before)
// shards started a point sub-batch since before was taken.
func (p *pointCounts) requireAllShards(t *testing.T, before []int64) {
	t.Helper()
	after := p.snapshot(len(before))
	for s := range before {
		if after[s] == before[s] {
			t.Fatalf("shard %d served no client point op: point sub-batches per shard %v -> %v", s, before, after)
		}
	}
}

// pointSink is one shard's pointCounts sink.
type pointSink struct {
	nopSink
	n *atomic.Int64
}

func (p pointSink) BatchStart(op string, _ int) {
	if strings.HasSuffix(op, "/upsert") || strings.HasSuffix(op, "/delete") || strings.HasSuffix(op, "/get") {
		p.n.Add(1)
	}
}

// keySearch bounds keysOn's search.
const keySearch = 1 << 20

// keysOn returns n distinct keys from `from` up that c routes to shard s,
// skipping the spread's keys, so each is absent until the test writes it.
// It fails the test if fewer than n of the keySearch keys from `from` do.
func keysOn(t *testing.T, c *cluster.Cluster[uint64, int64], s, n int, from uint64) []uint64 {
	t.Helper()
	var ks []uint64
	for k := from; len(ks) < n; k++ {
		if k-from == keySearch {
			t.Fatalf("fewer than %d keys in [%d, %d) route to shard %d", n, from, from+keySearch, s)
		}
		if k%spreadStride != 0 && c.ShardFor(k) == s {
			ks = append(ks, k)
		}
	}
	return ks
}

// shardFences returns the keys up to the spread's end where the owning
// shard changes: a Successor just below one misses when its shard holds no
// key between it and the fence.
func shardFences(c *cluster.Cluster[uint64, int64]) []uint64 {
	var fences []uint64
	for x := uint64(1); x <= spreadN*spreadStride; x++ {
		if c.ShardFor(x) != c.ShardFor(x-1) {
			fences = append(fences, x)
		}
	}
	return fences
}

// succIn returns the smallest key ≥ q in state and its value.
func succIn(state map[uint64]int64, q uint64) (found bool, key uint64, val int64) {
	for k, v := range state {
		if k >= q && (!found || k < key) {
			found, key, val = true, k, v
		}
	}
	return found, key, val
}

// succMiss reports whether Successor(q), whose exact answer is (found,
// key), is a miss on c: whether the owner of q's slot cannot answer it
// alone, so the cluster asks every shard. The owner holds every key of its
// run of consecutive slots from q's slot on, so its answer is final when
// the exact answer lies in that run or the run reaches the last slot. c
// must hold all Slots−1 splitters, as loading the spread sets them.
func succMiss(c *cluster.Cluster[uint64, int64], q uint64, found bool, key uint64) bool {
	owner, e := c.ShardFor(q), c.SlotOf(q)
	for e+1 < c.Slots() && c.ShardOfSlot(e+1) == owner {
		e++
	}
	return e < c.Slots()-1 && !(found && c.SlotOf(key) <= e)
}

// nopSink is a trace.Sink that ignores every event; test sinks embed it.
type nopSink struct{}

func (nopSink) BatchStart(string, int)         {}
func (nopSink) PhaseStart(string, trace.Phase) {}
func (nopSink) PhaseEnd(trace.Span)            {}
func (nopSink) RoundEnd(trace.RoundStat)       {}
func (nopSink) Fault(trace.FaultEvent)         {}
func (nopSink) BatchEnd(string, trace.Totals)  {}

// gateSink holds each Successor share of its shard at BatchStart, after
// announcing it on held, until release is closed.
type gateSink struct {
	nopSink
	held    chan<- int
	release <-chan struct{}
	shard   int
}

func (g *gateSink) BatchStart(op string, _ int) {
	if strings.HasSuffix(op, "/successor") {
		g.held <- g.shard
		<-g.release
	}
}

// TestClusterFrontendPointRepliesBeforeSuccessor: a cluster flush answers
// each shard's writes and Gets from that shard's goroutine before the
// shard's Successor share, so no point reply waits for a Successor. Every
// shard gets a Successor routed to it, and every shard's Successor share is
// held at its BatchStart; while all of them are held, an Upsert, a Delete
// and Gets routed to every shard have their exact replies — including those
// of the last shard, which the flushing goroutine drives inline — and the
// Successors and the flush itself are still waiting. Once released, the
// Successors' replies are exact too, the flush's writes included.
func TestClusterFrontendPointRepliesBeforeSuccessor(t *testing.T) {
	const nShards = 3
	held := make(chan int, nShards)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	c := newTestCluster(t, nShards, func(cfg *cluster.Config) {
		cfg.Trace = func(s int) trace.Sink { return &gateSink{held: held, release: release, shard: s} }
	})
	t.Cleanup(unblock) // runs before the cluster's Close: cleanups run last-in first-out

	// Per shard: a seeded key to Get; shard 0 also a seeded key to Delete,
	// and the inline shard a fresh key to Upsert.
	state := loadSpread(t, c)
	inline := nShards - 1
	var gkeys []uint64
	for s := 0; s < nShards; s++ {
		gkeys = append(gkeys, keysOn(t, c, s, 1, 1)[0])
	}
	dkey, ukey := keysOn(t, c, 0, 2, 1)[1], keysOn(t, c, inline, 2, 1)[1]
	seed := append(slices.Clone(gkeys), dkey)
	vals := make([]int64, len(seed))
	for i, k := range seed {
		vals[i] = int64(k) * 10
	}
	if _, errs, _, err := c.TryUpsert(seed, vals); err != nil || errs != nil {
		t.Fatalf("seed: %v %v", errs, err)
	}
	f := stoppedClusterFrontend(t, c, ClusterConfig{})

	// A Successor on every shard: at each Get key, at the deleted key and at
	// the upserted one, so the replies show the flush's writes.
	for i, k := range seed {
		state[k] = vals[i]
	}
	delete(state, dkey)
	state[ukey] = 7
	var succs []*future[uint64, int64]
	for _, k := range append(slices.Clone(gkeys), dkey, ukey) {
		succs = append(succs, fut(opSucc, k, 0))
	}
	ups, del := fut(opUpsert, ukey, 7), fut(opDelete, dkey, 0)
	gets := []*future[uint64, int64]{fut(opGet, ukey, 0), fut(opGet, dkey, 0)}
	for _, k := range gkeys {
		gets = append(gets, fut(opGet, k, 0))
	}
	batch := append(append(slices.Clone(succs), ups, del), gets...)
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		f.flush(batch)
	}()

	for range nShards {
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("a shard never reached its Successor share")
		}
	}
	// Every shard's Successor share is held: each shard is past its point
	// shares, so every point reply must already be out.
	ready := func(fu *future[uint64, int64]) bool {
		select {
		case <-fu.ready:
			return true
		default:
			return false
		}
	}
	for _, fu := range append([]*future[uint64, int64]{ups, del}, gets...) {
		if !ready(fu) {
			t.Fatalf("point op (kind %d key %d, shard %d) not answered while the Successor shares are held",
				fu.kind, fu.key, c.ShardFor(fu.key))
		}
		if fu.err != nil {
			t.Fatalf("point op (kind %d key %d): %v", fu.kind, fu.key, fu.err)
		}
	}
	if !ups.found {
		t.Error("Upsert of a fresh key: inserted = false, want true")
	}
	if !del.found {
		t.Error("Delete of a seeded key: found = false, want true")
	}
	if !gets[0].found || gets[0].rval != 7 {
		t.Errorf("Get of the upserted key = (%v, %d), want (true, 7)", gets[0].found, gets[0].rval)
	}
	if gets[1].found {
		t.Error("Get of the deleted key: found = true, want false")
	}
	for i, k := range gkeys {
		if fu := gets[2+i]; !fu.found || fu.rval != int64(k)*10 {
			t.Errorf("Get(%d) on shard %d = (%v, %d), want (true, %d)", k, i, fu.found, fu.rval, int64(k)*10)
		}
	}
	for _, fu := range succs {
		if ready(fu) {
			t.Fatalf("Successor(%d) answered while every shard's Successor share is held", fu.key)
		}
	}
	select {
	case <-flushed:
		t.Fatal("flush returned while the Successor shares are held")
	default:
	}

	unblock()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("flush never returned after release")
	}
	for _, fu := range succs {
		wf, wk, wv := succIn(state, fu.key)
		if found, k, v := reap(t, fu); found != wf || k != wk || v != wv {
			t.Fatalf("Successor(%d) = (%v, %d, %d), want (%v, %d, %d)", fu.key, found, k, v, wf, wk, wv)
		}
	}
	if st := f.Stats(); st.Ops != int64(len(batch)) || st.Errors != 0 {
		t.Fatalf("stats = %+v, want Ops %d Errors 0", st, len(batch))
	}
}

// roundSink counts its shard's rounds from construction on and, once
// marked, notes the cumulative index of the first round of each batch label
// it sees start.
type roundSink struct {
	nopSink
	rounds int64
	marked bool
	first  map[string]int64
}

func (s *roundSink) BatchStart(op string, _ int) {
	if _, ok := s.first[op]; s.marked && !ok {
		s.first[op] = s.rounds + 1
	}
}

func (s *roundSink) RoundEnd(trace.RoundStat) { s.rounds++ }

// TestClusterFrontendFlushErrorGranularity is the cluster twin of
// TestFrontendFlushErrorGranularity. With recovery disabled, one shard is
// killed at the first round of its Get share, or of its Successor share;
// the round is counted on a fault-free twin cluster that runs the same
// flush. A Successor kill fails the Successors that had to ask the victim:
// those routed to it, and the misses, which ask every shard. A Get kill
// fails those and the victim's Gets. Every other op — the victim's writes,
// answered before its Get share, each other shard's ops, and the
// Successors its owner answered alone — keeps its exact reply, answered
// once: an early reply is never retracted.
func TestClusterFrontendFlushErrorGranularity(t *testing.T) {
	const nShards, victim = 3, 1
	// flushOn builds a cluster, loads the spread, seeds per shard a key to
	// Delete and one to Get, calls mark, and flushes through a stopped
	// frontend per shard an Upsert of a fresh key, that Delete and that
	// Get, and Successors at that Get key and just below each shard fence.
	// It returns the answered ops and the pairs the flush leaves.
	type flushed struct {
		c     *cluster.Cluster[uint64, int64]
		f     *ClusterFrontend[uint64, int64]
		ops   []*future[uint64, int64]
		state map[uint64]int64
	}
	missed := func(r flushed, q uint64) bool {
		found, k, _ := succIn(r.state, q)
		return succMiss(r.c, q, found, k)
	}
	flushOn := func(t *testing.T, mark func(), opts ...func(*cluster.Config)) flushed {
		t.Helper()
		c := newTestCluster(t, nShards, opts...)
		state := loadSpread(t, c)
		var seed, gkeys, ukeys []uint64
		for s := 0; s < nShards; s++ {
			ks := keysOn(t, c, s, 3, 1)
			seed, gkeys, ukeys = append(seed, ks[:2]...), append(gkeys, ks[1]), append(ukeys, ks[2])
		}
		vals := make([]int64, len(seed))
		for i, k := range seed {
			vals[i] = int64(k) * 10
		}
		if _, errs, _, err := c.TryUpsert(seed, vals); err != nil || errs != nil {
			t.Fatalf("seed: %v %v", errs, err)
		}
		for i, k := range seed {
			state[k] = vals[i]
		}
		var ops []*future[uint64, int64]
		for s := 0; s < nShards; s++ {
			ops = append(ops, fut(opUpsert, ukeys[s], int64(ukeys[s])*10))
			state[ukeys[s]] = int64(ukeys[s]) * 10
		}
		for s := 0; s < nShards; s++ {
			ops = append(ops, fut(opDelete, seed[2*s], 0))
			delete(state, seed[2*s])
		}
		for s := 0; s < nShards; s++ {
			ops = append(ops, fut(opGet, gkeys[s], 0))
		}
		for _, k := range gkeys {
			ops = append(ops, fut(opSucc, k, 0))
		}
		for _, x := range shardFences(c) {
			ops = append(ops, fut(opSucc, x-1, 0))
		}
		f := stoppedClusterFrontend(t, c, ClusterConfig{})
		mark()
		// A future answered twice would block the flush on its one-slot
		// channel: time the flush out rather than hang.
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.flush(ops)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("flush never returned (a future answered twice?)")
		}
		return flushed{c, f, ops, state}
	}
	// check holds every op to its reply: ErrShardDown where failed says so,
	// else the exact reply; and each future answered exactly once. It
	// returns the number of Successors that missed.
	check := func(t *testing.T, r flushed, failed func(*future[uint64, int64]) bool) (misses int) {
		t.Helper()
		errs := 0
		for _, fu := range r.ops {
			if failed(fu) {
				errs++
				select {
				case <-fu.ready:
				default:
					t.Fatalf("op (kind %d key %d) never answered", fu.kind, fu.key)
				}
				if !errors.Is(fu.err, cluster.ErrShardDown) {
					t.Fatalf("op (kind %d key %d, shard %d): err = %v, want ErrShardDown", fu.kind, fu.key, r.c.ShardFor(fu.key), fu.err)
				}
			} else {
				found, k, v := reap(t, fu)
				switch fu.kind {
				case opUpsert, opDelete:
					if !found {
						t.Errorf("write (kind %d key %d) = false, want true", fu.kind, fu.key)
					}
				case opGet:
					if !found || v != int64(fu.key)*10 {
						t.Errorf("Get(%d) = (%v, %d), want (true, %d)", fu.key, found, v, int64(fu.key)*10)
					}
				case opSucc:
					if wf, wk, wv := succIn(r.state, fu.key); found != wf || k != wk || v != wv {
						t.Errorf("Successor(%d) = (%v, %d, %d), want (%v, %d, %d)", fu.key, found, k, v, wf, wk, wv)
					}
				}
			}
			if len(fu.ready) != 0 {
				t.Fatalf("op (kind %d key %d) answered twice", fu.kind, fu.key)
			}
			if fu.kind == opSucc && missed(r, fu.key) {
				misses++
			}
		}
		if st := r.f.Stats(); st.Ops != int64(len(r.ops)) || st.Errors != int64(errs) {
			t.Fatalf("stats = %+v, want Ops %d Errors %d", st, len(r.ops), errs)
		}
		return misses
	}

	// The fault-free twin: where the victim's Get and Successor shares start,
	// in rounds since its machine was built.
	sink := &roundSink{first: map[string]int64{}}
	twin := flushOn(t, func() { sink.marked = true }, func(cfg *cluster.Config) {
		cfg.Trace = func(s int) trace.Sink {
			if s == victim {
				return sink
			}
			return nil
		}
	})
	if misses := check(t, twin, func(*future[uint64, int64]) bool { return false }); misses == 0 {
		t.Fatal("twin: no Successor missed; the fence queries prove nothing")
	}
	tag := "s" + strconv.Itoa(victim) + "/"
	getAt, succAt := sink.first[tag+"get"], sink.first[tag+"successor"]
	if getAt == 0 || succAt <= getAt {
		t.Fatalf("twin: victim's Get share starts at round %d, Successor share at %d", getAt, succAt)
	}

	// A Successor had to ask the victim when it routes there or misses.
	askedVictim := func(fu *future[uint64, int64]) bool {
		return fu.kind == opSucc && (twin.c.ShardFor(fu.key) == victim || missed(twin, fu.key))
	}
	cases := []struct {
		name   string
		killAt int64
		failed func(*future[uint64, int64]) bool
	}{
		{"get", getAt, func(fu *future[uint64, int64]) bool {
			return askedVictim(fu) || (fu.kind == opGet && twin.c.ShardFor(fu.key) == victim)
		}},
		{"successor", succAt, askedVictim},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := flushOn(t, func() {}, func(cfg *cluster.Config) {
				cfg.Faults = make([]core.FaultPlan, nShards)
				cfg.Faults[victim] = pim.KillPlan(tc.killAt, nil)
				cfg.DisableRecovery = true
			})
			check(t, r, tc.failed)
			if st := r.c.ShardStats(victim); st.State != cluster.ShardDown || st.Kills != 1 {
				t.Fatalf("victim shard: state %v, kills %d; want down after one kill", st.State, st.Kills)
			}
		})
	}
}

// TestClusterFrontendBasic: single-client round trip through the live
// collector over a multi-shard cluster.
func TestClusterFrontendBasic(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{})
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

// TestClusterFrontendConcurrentOracle: the per-client oracle workload of
// TestFrontendConcurrentOracle over a sharded cluster — same pointAPI, same
// exactness bar, the scatter/gather must not perturb a single reply. The
// client gaps are loaded first, so every shard serves client point ops.
func TestClusterFrontendConcurrentOracle(t *testing.T) {
	for _, cfg := range []ClusterConfig{{}, {MaxBatch: 64}, {MaxWait: 200 * time.Microsecond}} {
		var pc pointCounts
		c := newTestCluster(t, 3, func(cc *cluster.Config) { cc.Trace = pc.sink })
		clients, ops := 16, 250
		if testing.Short() {
			clients, ops = 4, 60
		}
		loadClientGaps(t, c, clients)
		before := pc.snapshot(3)
		f := NewClusterFrontend(c, cfg)
		var wg sync.WaitGroup
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				shardClient(t, f, cl, ops)
			}(cl)
		}
		wg.Wait()
		st := f.Stats()
		if err := f.Close(); err != nil {
			t.Fatalf("cfg %+v: Close: %v", cfg, err)
		}
		if st.Ops == 0 || st.Flushes == 0 {
			t.Fatalf("cfg %+v: collector saw no traffic: %+v", cfg, st)
		}
		pc.requireAllShards(t, before)
	}
}

// TestClusterFrontendCloseDeterministic: the Close error contract with the
// sampler goroutine in play — exactly one nil among racing Closes, every
// other call core.ErrClosed, no hang waiting on the rebalance loop.
func TestClusterFrontendCloseDeterministic(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{RebalanceEvery: time.Millisecond})
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	for trial := 0; trial < 10; trial++ {
		c2 := newTestCluster(t, 2, func(cfg *cluster.Config) { cfg.Seed = 0xC10C + uint64(trial) })
		f2 := NewClusterFrontend(c2, ClusterConfig{
			RebalanceEvery: 100 * time.Microsecond,
			Policy:         &flipPolicy{},
		})
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
	}
}

// TestClusterFrontendRebalanceLoop: with RebalanceEvery set, the control
// loop consumes DeltaLoads windows, runs the policy's migrations under live
// client traffic, publishes new routing epochs, and records it all in Stats
// and the trace stream — while every client reply stays oracle-exact.
func TestClusterFrontendRebalanceLoop(t *testing.T) {
	var pc pointCounts
	c := newTestCluster(t, 2, func(cc *cluster.Config) { cc.Trace = pc.sink })
	clients, ops := 8, 300
	if testing.Short() {
		clients, ops = 4, 80
	}
	loadClientGaps(t, c, clients)
	before := pc.snapshot(2)
	prof := trace.NewProfile()
	f := NewClusterFrontend(c, ClusterConfig{
		MaxBatch:       128,
		RebalanceEvery: 200 * time.Microsecond,
		Policy:         &flipPolicy{},
		Trace:          prof,
	})
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			shardClient(t, f, cl, ops)
		}(cl)
	}
	wg.Wait()
	// Keep the frontend open until the loop has demonstrably published at
	// least one migration (client traffic may finish within a tick or two).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if st.Windows > 0 && st.Published > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance loop never published: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	st := f.Stats()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st = f.Stats()
	if c.Epoch() == 0 {
		t.Fatalf("routing epoch never advanced; stats %+v", st)
	}
	if st.Proposed < st.Published {
		t.Fatalf("Proposed %d < Published %d", st.Proposed, st.Published)
	}
	rt := prof.Rebalances()
	if rt.Windows != st.Windows || rt.Proposed != st.Proposed ||
		rt.Published != st.Published || rt.Transients != st.Transients {
		t.Fatalf("trace totals %+v disagree with stats %+v", rt, st)
	}
	if rt.Epoch == 0 {
		t.Fatalf("trace totals missed the epoch: %+v", rt)
	}
	pc.requireAllShards(t, before)
	// The frontend is closed: the cluster is free for a direct audit.
	if _, errs, _, err := c.TryGet([]uint64{1}); err != nil || errs != nil {
		t.Fatalf("cluster unusable after frontend Close: %v %v", errs, err)
	}
}

// TestClusterFrontendFlushTrace: a Profile installed as the frontend's
// sink receives FlushStat events whose totals agree with the collector's
// own Stats.
func TestClusterFrontendFlushTrace(t *testing.T) {
	c := newTestCluster(t, 2)
	prof := trace.NewProfile()
	f := NewClusterFrontend(c, ClusterConfig{Trace: prof})
	var wg sync.WaitGroup
	for cl := 0; cl < 8; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			shardClient(t, f, cl, 100)
		}(cl)
	}
	wg.Wait()
	f.Close() // Stats is final only after Close: the last flush is counted after its replies
	st := f.Stats()
	col := prof.Collector()
	if col.Flushes != st.Flushes || col.Ops != st.Ops || col.Submitted != st.Submitted {
		t.Fatalf("profile collector %+v disagrees with frontend stats %+v", col, st)
	}
}

// TestClusterFrontendDegraded: ops routed to a permanently down shard fail
// per key with cluster.ErrShardDown — including every op of a superseded
// write chain whose final write landed there — while keys on healthy shards
// keep serving exactly. A Successor fails the same way when it had to ask
// the down shard: when it routes there, or when it misses and asks every
// shard; the others answer exactly.
func TestClusterFrontendDegraded(t *testing.T) {
	c := newTestCluster(t, 3)
	const victim = 1
	state := loadSpread(t, c)
	if err := c.StopShard(victim); err != nil {
		t.Fatalf("StopShard: %v", err)
	}
	deadKey, liveKey := keysOn(t, c, victim, 1, 1)[0], keysOn(t, c, 0, 1, 1)[0]
	f := NewClusterFrontend(c, ClusterConfig{})
	defer f.Close()

	if ins, err := f.Upsert(liveKey, 7); err != nil || !ins {
		t.Fatalf("live Upsert = (%v, %v)", ins, err)
	}
	if _, err := f.Upsert(deadKey, 1); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("dead Upsert: err = %v, want ErrShardDown", err)
	}
	if _, err := f.Get(deadKey); !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("dead Get: err = %v, want ErrShardDown", err)
	}
	if res, err := f.Get(liveKey); err != nil || !res.Found || res.Value != 7 {
		t.Fatalf("live Get = (%+v, %v)", res, err)
	}
	state[liveKey] = 7
	qs := []uint64{0, liveKey, deadKey}
	for _, x := range shardFences(c) {
		qs = append(qs, x-1, x)
	}
	var failed, misses int
	for _, q := range qs {
		wf, wk, wv := succIn(state, q)
		res, err := f.Successor(q)
		if miss := succMiss(c, q, wf, wk); miss || c.ShardFor(q) == victim {
			failed++
			if miss {
				misses++
			}
			if !errors.Is(err, cluster.ErrShardDown) {
				t.Fatalf("Successor(%d) (shard %d, miss %v) = (%+v, %v), want ErrShardDown", q, c.ShardFor(q), miss, res, err)
			}
		} else if err != nil || res.Found != wf || res.Key != wk || res.Value != wv {
			t.Fatalf("Successor(%d) (shard %d) = (%+v, %v), want (%v, %d, %d)", q, c.ShardFor(q), res, err, wf, wk, wv)
		}
	}
	if misses == 0 || failed == misses || failed == len(qs) {
		t.Fatalf("%d of %d Successors failed, %d of them misses; want routed and missed failures and served queries", failed, len(qs), misses)
	}

	// A whole chain on the dead shard fails: drive a flush by hand so two
	// writes to the same dead key land in one batch.
	fs := stoppedClusterFrontend(t, c, ClusterConfig{})
	w1, w2 := fut(opUpsert, deadKey, 1), fut(opDelete, deadKey, 0)
	lv := fut(opUpsert, liveKey, 9)
	fs.flush([]*future[uint64, int64]{w1, w2, lv})
	for _, fu := range []*future[uint64, int64]{w1, w2} {
		select {
		case <-fu.ready:
		default:
			t.Fatalf("chain future (kind %d) never answered", fu.kind)
		}
		if !errors.Is(fu.err, cluster.ErrShardDown) {
			t.Fatalf("chain future err = %v, want ErrShardDown", fu.err)
		}
	}
	if ins, _, _ := reap(t, lv); ins {
		t.Fatal("live upsert in degraded flush: inserted = true, want false (already present)")
	}
	if st := fs.Stats(); st.Errors != 2 {
		t.Fatalf("degraded flush Errors = %d, want 2", st.Errors)
	}
}

// TestClusterFrontendChaosSoak is the tentpole acceptance gate: the
// concurrent-oracle workload over a faulted multi-shard cluster with the
// rebalance control loop migrating slots the whole time. Cases cross every
// built-in fault plan with permanent shard kills (recovery unbounded, so
// killed machines roll forward through their journals — mid-migration kills
// included). Every client reply must stay bit-identical to its sequential
// oracle across every cutover, and the loop itself must make progress
// (windows consumed; epochs published under at least the fault-free plans).
// Skipped with -short.
func TestClusterFrontendChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("clusterfrontend chaos soak skipped in -short mode")
	}
	const faultSeed = 0xFA17ED
	const nShards = 3
	mkPlans := func(mk func(int) core.FaultPlan) []core.FaultPlan {
		plans := make([]core.FaultPlan, nShards)
		for i := range plans {
			plans[i] = mk(i)
		}
		return plans
	}
	cases := []struct {
		name string
		mk   func(int) core.FaultPlan
		kill bool
	}{
		{"none", func(int) core.FaultPlan { return nil }, false},
		{"none+kill", func(int) core.FaultPlan { return nil }, true},
		{"drop", func(i int) core.FaultPlan { return pim.DropPlan(faultSeed+uint64(i), 800) }, false},
		{"duplicate", func(i int) core.FaultPlan { return pim.DupPlan(faultSeed+uint64(i), 800) }, false},
		{"delay", func(i int) core.FaultPlan { return pim.DelayPlan(faultSeed+uint64(i), 800, 3) }, false},
		{"stall", func(i int) core.FaultPlan { return pim.StallPlan(faultSeed+uint64(i), 1500, 4) }, false},
		{"crash", func(i int) core.FaultPlan { return pim.CrashPlan(faultSeed+uint64(i), 400, 2) }, false},
		{"chaos+kill", func(i int) core.FaultPlan { return pim.ChaosPlan(faultSeed + uint64(i)) }, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plans := mkPlans(tc.mk)
			if tc.kill {
				// One shard dies early, one mid-soak — the second lands
				// inside the migration churn on this schedule.
				plans[1] = pim.KillPlan(40, plans[1])
				plans[2] = pim.KillPlan(600, plans[2])
			}
			var pc pointCounts
			c := newTestCluster(t, nShards, func(cfg *cluster.Config) {
				cfg.Seed = 0xC10C ^ uint64(len(tc.name))
				cfg.Faults = plans
				// Unbounded recovery: kills roll forward through the
				// journal, so replies stay exact and migrations retry
				// through machine deaths.
				cfg.MaxRecoveries = -1
				cfg.CompactEvery = 16
				cfg.Trace = pc.sink
			})
			const clients, ops = 16, 250
			loadClientGaps(t, c, clients)
			if k := c.ShardStats(1).Kills; k != 0 {
				t.Fatalf("shard 1 killed %d times while loading the client gaps; its kill must land in client traffic", k)
			}
			before := pc.snapshot(nShards)
			prof := trace.NewProfile()
			f := NewClusterFrontend(c, ClusterConfig{
				MaxBatch:       128,
				RebalanceEvery: 300 * time.Microsecond,
				Policy:         &flipPolicy{},
				Trace:          prof,
			})
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					shardClient(t, f, cl, ops)
				}(cl)
			}
			wg.Wait()
			// Let the loop consume at least one window before closing.
			deadline := time.Now().Add(10 * time.Second)
			for f.Stats().Windows == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			st := f.Stats()
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st = f.Stats()
			if st.Windows == 0 {
				t.Fatalf("control loop never consumed a window: %+v", st)
			}
			pc.requireAllShards(t, before)
			if tc.kill && c.ShardStats(1).Kills == 0 {
				t.Fatalf("shard 1's early kill never fired")
			}
			// Fault plans must actually have fired (summed across shards).
			if tc.name != "none" && tc.name != "none+kill" {
				var agg core.FaultStats
				for s := 0; s < nShards; s++ {
					fs := c.ShardStats(s).Faults
					agg.SendsDropped += fs.SendsDropped
					agg.SendsDuplicated += fs.SendsDuplicated
					agg.SendsDelayed += fs.SendsDelayed
					agg.StalledModuleRounds += fs.StalledModuleRounds
					agg.CrashedModuleRounds += fs.CrashedModuleRounds
				}
				if agg.SendsDropped+agg.SendsDuplicated+agg.SendsDelayed+
					agg.StalledModuleRounds+agg.CrashedModuleRounds == 0 {
					t.Fatalf("plan %s never fired under frontend traffic", tc.name)
				}
			}
			// The cluster survives the frontend: a direct batch still serves.
			if _, _, _, err := c.TryGet([]uint64{1}); err != nil {
				t.Fatalf("cluster unusable after soak: %v", err)
			}
		})
	}
}

// TestClusterFrontendSteadyStateAllocs: the client-facing enqueue/reply
// path reuses pooled futures, and the cluster reuses its scatter workspace,
// shard reply buffers and the frontend's Flush reply buffers, so a warmed
// single-op Get costs a fixed two allocations, both per cluster call: the
// WaitGroup runShards hands to its shard goroutines, and Stats.Shards. With
// single-op flushes that per-call cost is paid per op, the worst case.
func TestClusterFrontendSteadyStateAllocs(t *testing.T) {
	c := newTestCluster(t, 2)
	f := NewClusterFrontend(c, ClusterConfig{})
	defer f.Close()
	for i := 0; i < 100; i++ { // warm the pool and the shard batch buffers
		f.Upsert(uint64(i), int64(i))
		f.Get(uint64(i))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.Get(42); err != nil {
			t.Fatalf("Get: %v", err)
		}
	})
	// AllocsPerRun counts process-wide mallocs, so the collector's flush
	// lands in the measurement. The bound is exact: a closure, slice or
	// escaping value added per flush — by the OnShard hook path, say —
	// fails it.
	t.Logf("steady-state Get: %.2f allocs per op", allocs)
	if allocs > 2 {
		t.Fatalf("steady-state Get allocates %.2f times per op, want at most 2", allocs)
	}
}
