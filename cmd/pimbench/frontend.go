package main

// `pimbench frontend` measures the concurrent batching frontend: a ladder
// of client-goroutine counts (1e2..1e6), each rung driving single-op
// traffic through a pimgo.Frontend on a fresh Map, against a naive
// baseline that runs one-op batches directly under a mutex.
//
// The workload is a read-mostly serving mix (70% Get, 20% Successor, 7%
// Upsert, 3% Delete): reads target a shared preinstalled key region — the
// steady-state working set — while writes churn each client's private
// shard, so the table neither explodes nor empties. Every reply is
// verified inline: reads against the static shared region (binary
// search), writes against a per-client sequential oracle (disjoint shards
// make each client's write replies interleaving-independent). A divergent
// reply refuses to record, like `pimbench chaos`. Results accumulate in
// results/BENCH_frontend.json.

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pimgo/internal/core"
	"pimgo/internal/frontend"
	"pimgo/internal/rng"
)

// latHist is a concurrency-safe log-linear latency histogram: 16 linear
// sub-buckets per power-of-two octave (≤ ~6% quantile error), atomically
// updated by every client goroutine.
type latHist struct {
	buckets [1024]int64
}

func (h *latHist) record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	var idx int
	if ns < 16 {
		idx = int(ns)
	} else {
		e := bits.Len64(uint64(ns)) - 1
		idx = (e-3)*16 + int((ns>>(e-4))&15)
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	atomic.AddInt64(&h.buckets[idx], 1)
}

// quantile returns the upper edge of the bucket holding the q-quantile.
func (h *latHist) quantile(q float64) time.Duration {
	var total int64
	for i := range h.buckets {
		total += atomic.LoadInt64(&h.buckets[i])
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum int64
	for i := range h.buckets {
		cum += atomic.LoadInt64(&h.buckets[i])
		if cum > target {
			if i < 16 {
				return time.Duration(i)
			}
			g := i / 16
			sub := i % 16
			return time.Duration(int64(16+sub+1) << (g - 1))
		}
	}
	return 0
}

// frontendRung is one ladder rung's measurement.
type frontendRung struct {
	Clients int     `json:"clients"`
	Ops     int64   `json:"ops"`
	WallMs  float64 `json:"wall_ms"`
	OpsPerS float64 `json:"ops_per_s"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	// Collector behaviour: flushes, mean coalesced batch, ops submitted to
	// the Map after write-coalescing, and max single-flush size.
	Flushes   int64   `json:"flushes"`
	MeanBatch float64 `json:"mean_batch"`
	Submitted int64   `json:"submitted"`
	MaxFlush  int     `json:"max_flush"`
	// FlushTimeMs is the wall time spent inside flushes (Map batches +
	// reply fan-out); the rest of WallMs is gather/scheduling time.
	FlushTimeMs float64 `json:"flush_time_ms"`
	// Naive baseline: the same op mix as one-op direct batches under a
	// mutex (ops capped to bound wall time), and the resulting speedup.
	NaiveOps     int64   `json:"naive_ops"`
	NaiveOpsPerS float64 `json:"naive_ops_per_s"`
	Speedup      float64 `json:"speedup"`
	// ReplyHash is the XOR of every client's FNV-64a reply-stream hash —
	// order-independent, so it is deterministic for a given ladder
	// configuration regardless of goroutine interleaving.
	ReplyHash uint64 `json:"reply_hash"`
	// Equivalent records that every client's replies matched its private
	// sequential oracle, op for op.
	Equivalent bool `json:"equivalent"`
}

// frontendEntry is one labeled run of the ladder.
type frontendEntry struct {
	Label      string         `json:"label"`
	Date       string         `json:"date"`
	GoVersion  string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	P          int            `json:"p"`
	MaxBatch   int            `json:"max_batch"`
	MaxWaitUs  float64        `json:"max_wait_us"`
	Note       string         `json:"note,omitempty"`
	Rungs      []frontendRung `json:"rungs"`
}

// benchShardSpan is each client's private write-churn key range. Small
// enough that a per-client array-backed oracle stays cheap at a million
// concurrent clients.
const benchShardSpan = 256

// benchShardBase packs client shards contiguously above the shared read
// region: disjointness keeps every client's write-reply stream
// deterministic, while the dense packing keeps batch keys close enough
// that coalesced ops share upper-level traversals — the amortization the
// frontend exists to exploit (a serving table's keys are dense; spreading
// each client 2^32 apart would benchmark the adversarial-sparse case
// instead).
func benchShardBase(client int) uint64 {
	return 1<<32 + uint64(client)*(benchShardSpan+2)
}

// shardOracle is the per-client reference model for its write churn: the
// shard is a dense offset space, so presence lives in a flat array and
// every oracle op is O(1) — it must cost next to nothing, because clients
// verify inline while the rung is being timed.
type shardOracle struct {
	present [benchShardSpan]bool
}

func (o *shardOracle) upsert(off uint64) bool {
	ins := !o.present[off]
	o.present[off] = true
	return ins
}

func (o *shardOracle) delete(off uint64) bool {
	was := o.present[off]
	o.present[off] = false
	return was
}

// fnvMix folds eight bytes of x into an FNV-1a running hash.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// benchSharedKeys builds the shared read region: n sorted distinct random
// keys below every client shard (shards start at 1<<32). The region is
// static — writes never touch it — so it doubles as the read oracle: key k
// carries value int64(k), presence is a binary search.
func benchSharedKeys(n int) []uint64 {
	r := rng.NewXoshiro256(0xF111)
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := 1 + r.Uint64n(1<<31)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// benchLoadShared bulk-installs the shared read region before the clock
// starts — it is the steady-state working set, not serving traffic, so
// neither the frontend rung nor the naive baseline is billed for it.
func benchLoadShared(m *core.Map[uint64, int64], shared []uint64) {
	const chunk = 1 << 16
	vals := make([]int64, 0, chunk)
	for off := 0; off < len(shared); off += chunk {
		end := min(off+chunk, len(shared))
		vals = vals[:end-off]
		for i, k := range shared[off:end] {
			vals[i] = int64(k)
		}
		m.Upsert(shared[off:end], vals)
	}
}

// sharedFloor returns the index of the first shared key ≥ q (len(shared)
// if none) — the inline read oracle.
func sharedFloor(shared []uint64, q uint64) int {
	lo, hi := 0, len(shared)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if shared[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// benchOp picks the read-mostly serving mix: 70% Get, 20% Successor, 7%
// Upsert, 3% Delete. Reads target the shared region; writes churn the
// client's private shard, so the table stays near its steady-state size.
func benchOp(r *rng.Xoshiro256) int {
	switch j := r.Intn(100); {
	case j < 70:
		return opGetIdx
	case j < 90:
		return opSuccIdx
	case j < 97:
		return opUpsertIdx
	default:
		return opDeleteIdx
	}
}

const (
	opGetIdx = iota
	opSuccIdx
	opUpsertIdx
	opDeleteIdx
)

// pointAPI is the single-key client surface shared by frontend.Frontend and
// frontend.ClusterFrontend; benchClient drives either through it.
type pointAPI interface {
	Get(uint64) (core.GetResult[int64], error)
	Upsert(uint64, int64) (bool, error)
	Delete(uint64) (bool, error)
	Successor(uint64) (core.SearchResult[uint64, int64], error)
}

// benchClient drives one client's deterministic single-op workload through
// the frontend, verifying every reply inline (reads against the static
// shared region, writes against its private shardOracle), FNV-folding the
// reply stream, and recording per-op latency.
func benchClient(f pointAPI, client int, ops int64,
	shared []uint64, hist *latHist, diverged *atomic.Bool, hashes []uint64) {
	base := benchShardBase(client)
	oracle := &shardOracle{}
	maxShared := shared[len(shared)-1]
	h := uint64(fnvOffset)
	fail := func(format string, args ...any) {
		if diverged.CompareAndSwap(false, true) {
			fmt.Fprintf(os.Stderr, "frontend: client %d diverged: %s\n", client, fmt.Sprintf(format, args...))
		}
	}

	r := rng.NewXoshiro256(0x5EED ^ uint64(client)*0x9E3779B97F4A7C15)
	for i := int64(0); i < ops && !diverged.Load(); i++ {
		switch benchOp(r) {
		case opGetIdx:
			// 80% exact hits on the working set, 20% random probes.
			var k uint64
			if r.Intn(10) < 8 {
				k = shared[r.Intn(len(shared))]
			} else {
				k = 1 + r.Uint64n(1<<31)
			}
			t0 := time.Now()
			res, err := f.Get(k)
			hist.record(time.Since(t0))
			if err != nil {
				fail("Get err %v", err)
				return
			}
			idx := sharedFloor(shared, k)
			wok := idx < len(shared) && shared[idx] == k
			if res.Found != wok || (wok && res.Value != int64(k)) {
				fail("Get(%d)=%+v oracle found=%v", k, res, wok)
				return
			}
			h = fnvMix(h, 3)
			if res.Found {
				h = fnvMix(h, uint64(res.Value))
			}
		case opSuccIdx:
			q := 1 + r.Uint64n(maxShared) // stays inside the shared region
			t0 := time.Now()
			res, err := f.Successor(q)
			hist.record(time.Since(t0))
			if err != nil {
				fail("Successor err %v", err)
				return
			}
			wk := shared[sharedFloor(shared, q)]
			if !res.Found || res.Key != wk || res.Value != int64(wk) {
				fail("Successor(%d)=%+v oracle key=%d", q, res, wk)
				return
			}
			h = fnvMix(h, 4)
			h = fnvMix(h, res.Key)
		case opUpsertIdx:
			off := r.Uint64n(benchShardSpan)
			v := int64(r.Uint64() >> 1)
			t0 := time.Now()
			ins, err := f.Upsert(base+off, v)
			hist.record(time.Since(t0))
			if err != nil {
				fail("Upsert err %v", err)
				return
			}
			if want := oracle.upsert(off); ins != want {
				fail("Upsert(%d) inserted=%v oracle %v", base+off, ins, want)
				return
			}
			h = fnvMix(h, 1)
			if ins {
				h = fnvMix(h, 1)
			}
		case opDeleteIdx:
			off := r.Uint64n(benchShardSpan)
			t0 := time.Now()
			found, err := f.Delete(base + off)
			hist.record(time.Since(t0))
			if err != nil {
				fail("Delete err %v", err)
				return
			}
			if want := oracle.delete(off); found != want {
				fail("Delete(%d)=%v oracle %v", base+off, found, want)
				return
			}
			h = fnvMix(h, 2)
			if found {
				h = fnvMix(h, 1)
			}
		}
	}
	hashes[client] = h
}

// runNaive measures the baseline the frontend replaces: the rung's exact
// per-client workload (perClient mixed ops from the same seeded
// generators), issued as one-op direct batches on a mutex-guarded Map.
// Only sampleClients actually run (so total ops stay within the cap), but
// the Map is first grown to the rung's serving state — the shared read
// region plus the skipped clients' steady-state churn keys: per-op cost
// depends on structure size, so the baseline must serve the same-sized
// table the frontend rung does.
func runNaive(p, clients, sampleClients int, perClient int64, shared []uint64) (int64, time.Duration) {
	m := core.New[uint64, int64](core.Config{P: p, Seed: 0xC0FFEE}, core.Uint64Hash)
	defer m.Close()
	benchLoadShared(m, shared)
	perShard := int(perClient * 7 / 100) // ≈ expected churn inserts (7% upserts)
	if perShard > benchShardSpan/2 {
		perShard = benchShardSpan / 2
	}
	shardKeys := make([]uint64, 0, 1<<16)
	r := rng.NewXoshiro256(0xD05E)
	flushKeys := func() {
		m.Upsert(shardKeys, make([]int64, len(shardKeys)))
		shardKeys = shardKeys[:0]
	}
	for c := sampleClients; c < clients; c++ {
		base := benchShardBase(c)
		for j := 0; j < perShard; j++ {
			shardKeys = append(shardKeys, base+r.Uint64n(benchShardSpan))
		}
		if len(shardKeys) >= 1<<16 {
			flushKeys()
		}
	}
	if len(shardKeys) > 0 {
		flushKeys()
	}
	clients = sampleClients
	maxShared := shared[len(shared)-1]
	var mu sync.Mutex
	var ops int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := benchShardBase(c)
			r := rng.NewXoshiro256(0x5EED ^ uint64(c)*0x9E3779B97F4A7C15)
			var key [1]uint64
			var val [1]int64
			for i := int64(0); i < perClient; i++ {
				switch benchOp(r) {
				case opGetIdx:
					if r.Intn(10) < 8 {
						key[0] = shared[r.Intn(len(shared))]
					} else {
						key[0] = 1 + r.Uint64n(1<<31)
					}
					mu.Lock()
					m.Get(key[:])
					mu.Unlock()
				case opSuccIdx:
					key[0] = 1 + r.Uint64n(maxShared)
					mu.Lock()
					m.Successor(key[:])
					mu.Unlock()
				case opUpsertIdx:
					key[0] = base + r.Uint64n(benchShardSpan)
					val[0] = int64(r.Uint64() >> 1)
					mu.Lock()
					m.Upsert(key[:], val[:])
					mu.Unlock()
				case opDeleteIdx:
					key[0] = base + r.Uint64n(benchShardSpan)
					mu.Lock()
					m.Delete(key[:])
					mu.Unlock()
				}
			}
			atomic.AddInt64(&ops, perClient)
		}(c)
	}
	wg.Wait()
	return atomic.LoadInt64(&ops), time.Since(start)
}

func runFrontend(args []string) {
	f := fs("frontend")
	outPath := f.String("out", "results/BENCH_frontend.json", "JSON output file")
	label := f.String("label", "current", "entry label (an existing entry with the same label is replaced)")
	note := f.String("note", "", "free-form note stored with the entry")
	p := f.Int("p", 16, "module count")
	clientsList := f.String("clients", "100,1000,10000,100000,1000000", "ladder of client-goroutine counts")
	totalOps := f.Int64("totalops", 200000, "target total ops per rung (per-client ops = max(1, totalops/clients))")
	maxBatch := f.Int("maxbatch", 0, "frontend MaxBatch (0 = default)")
	maxWait := f.Duration("maxwait", 0, "frontend MaxWait dwell")
	naiveCap := f.Int64("naivecap", 20000, "op cap for the naive one-op-per-batch baseline")
	prefill := f.Int("prefill", 1<<17, "size of the shared read region (the steady-state working set)")
	smoke := f.Bool("smoke", false, "small CI ladder (100,1000 clients, 20k ops), result not recorded")
	f.Parse(args)

	if *smoke {
		*clientsList = "100,1000"
		*totalOps = 20000
		*naiveCap = 2000
	}
	ladder := parseInts(*clientsList)
	fcfg := frontend.Config{MaxBatch: *maxBatch, MaxWait: *maxWait}
	shared := benchSharedKeys(*prefill)

	entry := frontendEntry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          *p,
		MaxBatch:   *maxBatch,
		MaxWaitUs:  float64(maxWait.Microseconds()),
		Note:       *note,
	}

	tbl := newTable("clients", "ops", "ops/s", "p50 µs", "p99 µs", "flushes", "meanBatch", "flush ms", "naive ops/s", "speedup", "equiv")
	allEquivalent := true
	for _, clients := range ladder {
		perClient := *totalOps / int64(clients)
		if perClient < 1 {
			perClient = 1
		}
		ops := perClient * int64(clients)

		m := core.New[uint64, int64](core.Config{P: *p, Seed: 0xC0FFEE}, core.Uint64Hash)
		benchLoadShared(m, shared)
		fe := frontend.New(m, fcfg)
		hist := &latHist{}
		var diverged atomic.Bool
		hashes := make([]uint64, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				benchClient(fe, c, perClient, shared, hist, &diverged, hashes)
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		st := fe.Stats()
		fe.Close()
		m.Close()

		var replyHash uint64
		for _, h := range hashes {
			replyHash ^= h
		}

		naiveClients := int(*naiveCap / perClient)
		if naiveClients < 1 {
			naiveClients = 1
		}
		if naiveClients > clients {
			naiveClients = clients
		}
		runtime.GC() // don't bill the frontend phase's garbage to the baseline
		nOps, nWall := runNaive(*p, clients, naiveClients, perClient, shared)

		equiv := !diverged.Load()
		allEquivalent = allEquivalent && equiv
		opsPerS := float64(ops) / wall.Seconds()
		naivePerS := float64(nOps) / nWall.Seconds()
		rung := frontendRung{
			Clients:      clients,
			Ops:          ops,
			WallMs:       float64(wall.Microseconds()) / 1000,
			OpsPerS:      opsPerS,
			P50Us:        float64(hist.quantile(0.50).Nanoseconds()) / 1000,
			P99Us:        float64(hist.quantile(0.99).Nanoseconds()) / 1000,
			Flushes:      st.Flushes,
			MeanBatch:    float64(st.Ops) / float64(st.Flushes),
			Submitted:    st.Submitted,
			MaxFlush:     st.MaxFlush,
			FlushTimeMs:  float64(st.FlushTime.Microseconds()) / 1000,
			NaiveOps:     nOps,
			NaiveOpsPerS: naivePerS,
			Speedup:      opsPerS / naivePerS,
			ReplyHash:    replyHash,
			Equivalent:   equiv,
		}
		entry.Rungs = append(entry.Rungs, rung)
		tbl.add(clients, ops, opsPerS, rung.P50Us, rung.P99Us, st.Flushes,
			rung.MeanBatch, rung.FlushTimeMs, naivePerS, rung.Speedup, equiv)
	}
	tbl.print()

	if !allEquivalent {
		refuse("frontend: a client's replies diverged from its sequential oracle; not recording")
	}
	if *smoke {
		fmt.Println("smoke run: not recorded")
		return
	}

	n, _, err := mergeBenchEntry(*outPath, "frontend",
		"one row = single-op traffic from N client goroutines coalesced by the frontend, vs naive one-op direct batches",
		entry, func(e frontendEntry) string { return e.Label })
	if err != nil {
		refuse("frontend: %v", err)
	}
	fmt.Printf("wrote %s (%d entries, label %q)\n", *outPath, n, entry.Label)
}
