package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"pimgo"
)

// pointStore is the single-key API of Frontend and ClusterFrontend.
type pointStore interface {
	Get(uint64) (pimgo.GetResult[int64], error)
	Upsert(uint64, int64) (bool, error)
	Delete(uint64) (bool, error)
	Successor(uint64) (pimgo.SearchResult[uint64, int64], error)
}

// servedSpec is the shape of one served workload. Every caller writes
// only its own private key range, which its oracle tracks; reads go to the
// static region. The private ranges start at their steady-state fill
// (upserts ÷ writes of the mix), so the table size holds still.
type servedSpec struct {
	cluster, openLoop   bool
	table               int // keys loaded at set-up
	callers, span, fill int
	mix                 [numKinds]int // percent of each op kind
	zipfS               float64       // skew of Get keys; 0 = uniform probes
	dwell               time.Duration // the collector's MaxWait
	rebalance           time.Duration
	rate                float64 // open loop: arrivals per second
}

const (
	servedP       = 8
	clusterShards = 4
	clusterSlots  = 256
	// callerQueue is the backlog one open-loop caller holds before the
	// generator blocks on it: enough to ride out a migration stall at the
	// churn rate without serializing arrivals behind one slow caller.
	callerQueue = 64
)

var (
	serveMapSpec     = servedSpec{table: 1 << 17, callers: 1024, span: 64, fill: 45, mix: [numKinds]int{70, 20, 7, 3}}
	serveClusterSpec = servedSpec{cluster: true, table: 1 << 17, callers: 1024, span: 64, fill: 45, mix: [numKinds]int{70, 20, 7, 3}}
	// The churn table is a quarter of serve-map's, and a migration starts
	// every two seconds: each one moves an eighth of the table with the
	// collector stalled and retires Map incarnations that are never freed,
	// so larger or more frequent migrations make the tail and the heap of a
	// run depend on GC timing more than on the stack. On a 2-core x86 VM
	// with GOMAXPROCS=2, ten seeds of the p90 spread 22-24% with 2^16 keys
	// and a migration a second, 16% with 2^15 keys, and 7% with 2^15 keys
	// every two seconds. The rate is about an eighth of the ~250k ops/s
	// this mix sustains closed-loop with 2048 callers there: the host's
	// speed drifts, and in one slow spell 60k ops/s overran the stack (p50
	// 89 ms, against 3.8 ms in other runs) where at 30k ops/s the p50 rose
	// from 3.3 to 5.5 ms.
	// Arrivals at a fixed rate get a 2 ms dwell: without one the collector
	// flushes small batches back to back, stays busy most of the time, and
	// its latency swings with the host's speed.
	churnSpec = servedSpec{
		cluster: true, openLoop: true, table: 1 << 15, callers: 2048, span: 16, fill: 11,
		mix: [numKinds]int{40, 10, 35, 15}, zipfS: 0.99, dwell: 2 * time.Millisecond, rebalance: 2 * time.Second, rate: 30000,
	}
)

// Oracle states of one private key.
const (
	absent uint8 = iota
	present
	unknown // a write failed: either reply is right, and the next write settles it
)

type served struct {
	spec servedSpec
	seed uint64
	tr   *tracer
	wrap func(pointStore) pointStore

	static   staticRegion
	zipf     *zipf
	callers  []*caller
	loadKeys []uint64
	loadVals map[uint64]int64 // values of the initial private keys

	m      *pimgo.Map[uint64, int64]
	fe     *pimgo.Frontend[uint64, int64]
	c      *pimgo.Cluster[uint64, int64]
	cf     *pimgo.ClusterFrontend[uint64, int64]
	store  pointStore
	policy *splitMergePolicy
	ref    reference
}

// caller is one client: its private key range and the oracle for it.
type caller struct {
	base   uint64
	state  []uint8
	r      *rand.Rand // closed loop: this caller's op stream
	issued int64
	failed int64
	spans  []callRec
}

// op is one generated client operation. Writes address an offset into the
// issuing caller's private range.
type op struct {
	kind opKind
	key  uint64
	off  int
	val  int64
}

func servedInstance(spec servedSpec) func(uint64, *tracer, hooks) system {
	return func(seed uint64, tr *tracer, h hooks) system {
		r := newRand(seed, 1)
		s := &served{
			spec:     spec,
			seed:     seed,
			tr:       tr,
			wrap:     h.point,
			static:   newStaticRegion(r, spec.table-spec.callers*spec.fill),
			loadVals: make(map[uint64]int64, spec.callers*spec.fill),
		}
		if spec.zipfS > 0 {
			s.zipf = newZipf(r, len(s.static), spec.zipfS)
		}
		keys := slices.Clone([]uint64(s.static))
		offs := make([]int, spec.span)
		for i := range spec.callers {
			c := &caller{
				base:  dynBase + uint64(i*(spec.span+1)),
				state: make([]uint8, spec.span),
				r:     newRand(seed, uint64(1000+i)),
			}
			for j := range offs {
				offs[j] = j
			}
			r.Shuffle(len(offs), func(a, b int) { offs[a], offs[b] = offs[b], offs[a] })
			for _, o := range offs[:spec.fill] {
				c.state[o] = present
				k := c.base + uint64(o)
				keys = append(keys, k)
				s.loadVals[k] = int64(r.Uint64() >> 1)
			}
			s.callers = append(s.callers, c)
		}
		s.loadKeys = shuffled(r, keys)
		if spec.rebalance > 0 {
			s.policy = &splitMergePolicy{maxActive: clusterShards}
			if tr != nil {
				s.policy.clock = tr.clock
			}
		}
		return s
	}
}

func (s *served) value(k uint64) int64 {
	if k < dynBase {
		return staticValue(k)
	}
	return s.loadVals[k]
}

func (s *served) setup() error {
	cfg := pimgo.Config{P: servedP}
	seed := mix64(s.seed ^ 0x5e7e)
	var upsert func(keys []uint64, vals []int64) ([]bool, error)
	if s.spec.cluster {
		ccfg := pimgo.ClusterConfig{Shards: clusterShards, Slots: clusterSlots, Seed: seed, Shard: cfg}
		if s.tr != nil {
			ccfg.Trace = s.tr.shardSink
		}
		c, err := pimgo.NewCluster[uint64, int64](ccfg, pimgo.Uint64Hash)
		if err != nil {
			return err
		}
		s.c = c
		upsert = func(keys []uint64, vals []int64) ([]bool, error) {
			res, errs, _, err := c.TryUpsert(keys, vals)
			if err == nil {
				err = cmp.Or(errs...)
			}
			return res, err
		}
	} else {
		cfg.Seed = seed
		if s.tr != nil {
			cfg.Trace = s.tr.mapSink()
		}
		m, err := pimgo.TryNewMap[uint64, int64](cfg, pimgo.Uint64Hash)
		if err != nil {
			return err
		}
		s.m = m
		var dst []bool
		upsert = func(keys []uint64, vals []int64) ([]bool, error) {
			var err error
			dst, _, err = m.TryUpsertInto(keys, vals, dst)
			return dst, err
		}
	}
	vals := make([]int64, 0, loadChunk)
	for off := 0; off < len(s.loadKeys); off += loadChunk {
		keys := s.loadKeys[off:min(off+loadChunk, len(s.loadKeys))]
		vals = vals[:0]
		for _, k := range keys {
			vals = append(vals, s.value(k))
		}
		res, err := upsert(keys, vals)
		if err != nil {
			return fmt.Errorf("loading the table: %w", err)
		}
		if i := slices.Index(res, false); i >= 0 {
			return fmt.Errorf("loading the table: Upsert(%d) reported the new key present", keys[i])
		}
	}
	if s.spec.cluster {
		fcfg := pimgo.ClusterFrontendConfig{MaxWait: s.spec.dwell}
		if s.policy != nil {
			fcfg.RebalanceEvery, fcfg.Policy = s.spec.rebalance, s.policy
		}
		if s.tr != nil {
			fcfg.Trace = s.tr.frontendSink(s.policy)
		}
		s.cf = pimgo.NewClusterFrontend(s.c, fcfg)
		s.store = s.cf
	} else {
		s.fe = pimgo.NewFrontend(s.m, pimgo.FrontendConfig{})
		s.store = s.fe
	}
	if s.wrap != nil {
		s.store = s.wrap(s.store)
	}
	return nil
}

// nextOp draws one op of the mix from r.
func (s *served) nextOp(r *rand.Rand) op {
	p := r.IntN(100)
	mix := s.spec.mix
	switch {
	case p < mix[kindGet]:
		if s.zipf != nil {
			return op{kind: kindGet, key: s.static[s.zipf.next(r)]}
		}
		return op{kind: kindGet, key: s.static.probe(r)}
	case p < mix[kindGet]+mix[kindSucc]:
		return op{kind: kindSucc, key: s.static.query(r)}
	case p < mix[kindGet]+mix[kindSucc]+mix[kindUpsert]:
		return op{kind: kindUpsert, off: r.IntN(s.spec.span), val: int64(r.Uint64() >> 1)}
	default:
		return op{kind: kindDelete, off: r.IntN(s.spec.span)}
	}
}

// exec runs o for caller c and checks the reply. failed reports that the
// stack answered with an error; err reports a wrong reply.
func (s *served) exec(c *caller, o op) (failed bool, err error) {
	st := s.store
	switch o.kind {
	case kindGet:
		res, e := st.Get(o.key)
		if e != nil {
			return true, nil
		}
		return false, s.static.checkGet(o.key, res)
	case kindSucc:
		res, e := st.Successor(o.key)
		if e != nil {
			return true, nil
		}
		return false, s.static.checkSucc(o.key, res)
	}
	k := c.base + uint64(o.off)
	was := c.state[o.off]
	var got bool
	var e error
	if o.kind == kindUpsert {
		got, e = st.Upsert(k, o.val)
		c.state[o.off] = present
		got = !got // inserted ⇔ was absent
	} else {
		got, e = st.Delete(k)
		c.state[o.off] = absent
	}
	switch {
	case e != nil:
		c.state[o.off] = unknown
		return true, nil
	case was != unknown && got != (was == present):
		return false, fmt.Errorf("%s(%d) found=%v, oracle %v", kindNames[o.kind], k, got, was == present)
	}
	return false, nil
}

// note accounts one finished call of c: latency d from due, the call
// itself from start to end on the run clock.
func (s *served) note(rec *recorder, c *caller, k opKind, d time.Duration, start, end int64, failed bool, err error) {
	switch {
	case err != nil:
		rec.diverge(err)
	case failed:
		c.failed++
		rec.failOp()
	default:
		rec.done(k, d)
	}
	if s.tr != nil && c.issued%sampleEvery == 0 {
		c.spans = append(c.spans, callRec{start: start, end: end, kind: k})
	}
	c.issued++
}

func (s *served) load(rec *recorder) {
	if s.spec.openLoop {
		s.openLoop(rec)
		return
	}
	var wg sync.WaitGroup
	for _, c := range s.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !rec.stopped() {
				o := s.nextOp(c.r)
				start := rec.now()
				failed, err := s.exec(c, o)
				end := rec.now()
				s.note(rec, c, o.kind, time.Duration(end-start), start, end, failed, err)
			}
		}()
	}
	wg.Wait()
}

// job is one open-loop arrival handed to its caller.
type job struct {
	op  op
	due int64 // run clock
}

// openLoop issues seeded Poisson arrivals at spec.rate from this
// goroutine. Arrival i goes to caller i mod callers, so every op — kind,
// key, caller — is a function of the seed alone; a caller serves its
// arrivals in order, which keeps its private oracle exact. Latency counts
// from the due time, so a stall also bills the arrivals queued behind it.
func (s *served) openLoop(rec *recorder) {
	r := newRand(s.seed, 3)
	queues := make([]chan job, len(s.callers))
	var wg sync.WaitGroup
	for i, c := range s.callers {
		q := make(chan job, callerQueue)
		queues[i] = q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range q {
				if rec.stopped() {
					continue // drain without issuing
				}
				start := rec.now()
				failed, err := s.exec(c, j.op)
				end := rec.now()
				s.note(rec, c, j.op.kind, time.Duration(end-j.due), start, end, failed, err)
			}
		}()
	}
	due := float64(rec.now())
	for i := 0; !rec.stopped(); i++ {
		due += r.ExpFloat64() / s.spec.rate * 1e9
		o := s.nextOp(r)
		if wait := time.Duration(int64(due) - rec.now()); wait > 0 {
			time.Sleep(wait)
		}
		queues[i%len(queues)] <- job{op: o, due: int64(due)}
		rec.arrival(time.Duration(rec.now() - int64(due)))
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

func (s *served) shutdown() error {
	var st pimgo.FrontendStats
	var length int
	if s.cf != nil {
		s.cf.Close()
		st = s.cf.Stats().Stats
		length = s.c.Len()
		s.c.Close()
		var total modelCount
		for _, l := range s.c.Loads() {
			total.add(l.Rounds, l.IOTime, l.Msgs)
		}
		s.ref = reference{total: &total}
	} else {
		s.fe.Close()
		st = s.fe.Stats()
		length = s.m.Len()
		s.m.Close()
		met := s.m.Machine().Metrics()
		s.ref = reference{last: &modelCount{met.Rounds, met.IOTime, met.TotalMsgs}}
	}
	var issued, failed int64
	want, known := len(s.static), true
	for _, c := range s.callers {
		issued += c.issued
		failed += c.failed
		for _, v := range c.state {
			if v == present {
				want++
			}
			known = known && v != unknown
		}
	}
	switch {
	case st.Ops != issued || st.Errors != failed:
		return fmt.Errorf("frontend counted %d ops and %d errors, callers %d and %d", st.Ops, st.Errors, issued, failed)
	case known && length != want:
		return fmt.Errorf("table holds %d keys, oracle %d", length, want)
	}
	return nil
}

func (s *served) reference() reference { return s.ref }

func (s *served) calls() []callRec {
	var out []callRec
	for _, c := range s.callers {
		out = append(out, c.spans...)
	}
	return out
}

// splitMergePolicy keeps live migrations at a steady pace: while at most
// maxActive shards are active it splits the heaviest, otherwise it merges
// the lightest into the next lightest, so every window proposes exactly
// one migration. Weight is the share of routing slots (ties to the lower
// id), not the sampled load, so every run migrates the same slots in the
// same order whatever its timing. The decision is a pure function of the
// sample; the call times it records are for the traced run's migration
// spans.
type splitMergePolicy struct {
	maxActive int
	clock     func() int64 // nil in untraced runs
	proposals []proposal
}

// proposal is one Propose call that proposed a migration.
type proposal struct {
	at     int64
	shards []int // the shards the migration freezes
}

// Propose implements pimgo.ClusterRebalancePolicy.
func (p *splitMergePolicy) Propose(loads []pimgo.ClusterShardLoad) []pimgo.ClusterRebalanceAction {
	var active []pimgo.ClusterShardLoad
	for _, l := range loads {
		if l.State == pimgo.ShardRunning && l.Slots > 0 {
			active = append(active, l)
		}
	}
	slices.SortStableFunc(active, func(a, b pimgo.ClusterShardLoad) int {
		return cmp.Or(cmp.Compare(b.Slots, a.Slots), cmp.Compare(a.Shard, b.Shard))
	})
	var a pimgo.ClusterRebalanceAction
	var frozen []int
	switch n := len(active); {
	case n > p.maxActive:
		a = pimgo.ClusterRebalanceAction{Kind: pimgo.ActionMerge, Src: active[n-1].Shard, Dst: active[n-2].Shard}
		frozen = []int{a.Src, a.Dst}
	case n > 0 && active[0].Slots >= 2:
		a = pimgo.ClusterRebalanceAction{Kind: pimgo.ActionSplit, Src: active[0].Shard}
		frozen = []int{a.Src}
	default:
		return nil
	}
	if p.clock != nil {
		p.proposals = append(p.proposals, proposal{at: p.clock(), shards: frozen})
	}
	return []pimgo.ClusterRebalanceAction{a}
}
