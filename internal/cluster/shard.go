package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"pimgo/internal/core"
	"pimgo/internal/pim"
	"pimgo/internal/rng"
	"pimgo/internal/trace"
)

// batchKind selects the operation a shardBatch carries.
type batchKind int8

const (
	opGet batchKind = iota
	opUpsert
	opDelete
	opSucc
	opRange
)

// mutates reports whether the kind can change shard state. opRange counts:
// a batch may carry RangeTransform ops (the journal records only those).
func (k batchKind) mutates() bool { return k == opUpsert || k == opDelete || k == opRange }

// shardBatch is one shard's slice of a cluster batch. For routed ops the
// keys/vals are the scatter workspace's permuted sub-slices; for broadcasts
// (the Successor fallback, opRange) they alias one input shared read-only
// by every shard.
type shardBatch[K cmp.Ordered, V any] struct {
	kind batchKind
	// seq is the cluster-wide commit sequence number of the batch (0 for
	// pure reads). Every shard's sub-batch of one cluster batch shares it;
	// the journal records it so migration cutover can merge per-shard
	// suffixes into the global commit order (migrate.go).
	seq  int64
	keys []K
	vals []V
	rops []core.RangeOp[K, V]
}

// shardReply is one shard's answer: the result slice of the batch's kind,
// plus the shard's accumulated cost for the batch — including failed
// attempts, rebuilds, replays and checkpoints, all charged honestly to the
// batch that triggered them. A reply lives in the caller's workspace
// across calls, so its point-op result slices are reused buffers.
type shardReply[K cmp.Ordered, V any] struct {
	bools  []bool
	gets   []core.GetResult[V]
	succs  []core.SearchResult[K, V]
	ranges []core.RangeResult[K, V]

	st        core.BatchStats
	recovered int
	err       error
}

// logKind tags one journal entry.
type logKind int8

const (
	logUpsert logKind = iota
	logDelete
	logTransform
)

// logEntry is one acked mutating batch, copied out of the (reused) scatter
// workspace. Replaying base + entries in order reconstructs the shard's
// committed state exactly.
type logEntry[K cmp.Ordered, V any] struct {
	kind logKind
	// seq is the cluster-wide commit sequence of the acked batch. Within one
	// shard's journal seqs are strictly increasing; across shards the same
	// seq marks shares of the same cluster batch (a broadcast transform is
	// journaled by every mutating shard under one seq, and replayed exactly
	// once per seq at migration cutover).
	seq  int64
	keys []K
	vals []V
	ops  []core.RangeOp[K, V]
}

// size is the entry's op count: keys for a point entry, ops for a
// transform entry.
func (e *logEntry[K, V]) size() int { return len(e.keys) + len(e.ops) }

// shard supervises one core.Map incarnation plus the journal that outlives
// it. All fields are guarded by mu: run() and the lifecycle methods
// serialize per shard while distinct shards execute in parallel.
type shard[K cmp.Ordered, V any] struct {
	c  *Cluster[K, V]
	id int

	mu    sync.Mutex
	state ShardState
	m     *core.Map[K, V]
	plan  core.FaultPlan
	sink  trace.Sink

	// Journal: the last checkpointed base snapshot plus every acked
	// mutating batch since. journalOps is the running op count of entries
	// (logEntry.size summed); setJournal keeps it in step whenever entries
	// is replaced.
	baseKeys   []K
	baseVals   []V
	entries    []logEntry[K, V]
	journalOps int

	// committedLen is the logical key count as of the last acked batch —
	// the length a rebuild must land on.
	committedLen int

	batches    int64
	kills      int64
	recoveries int64
	total      core.BatchStats
	recovery   core.BatchStats
	faultsAcc  core.FaultStats // from closed incarnations
	downCause  error

	// migrating marks the shard as a participant of an in-flight migration:
	// auto-compaction is suppressed (the cutover needs the journal suffix
	// intact) and lifecycle transitions are refused. Guarded by mu like the
	// rest; the cluster-level Cluster.migrating gate serializes migrations
	// themselves.
	migrating bool
	// migrations counts epoch cutovers this shard took part in; migration
	// accumulates the model cost of building its new incarnations (the
	// Recovery-style account migration rounds are honestly charged to).
	migrations int64
	migration  core.BatchStats
}

// saltShardSeed decorrelates per-shard core seeds from each other.
const saltShardSeed = 0x1f83_d9ab_fb41_bd6b

// shardConfig derives this shard's core.Config from the cluster template:
// per-shard P override, a distinct mixed seed, and the shard's current
// fault plan and (wrapped) trace sink.
func (s *shard[K, V]) shardConfig() core.Config {
	return s.configWith(s.plan, s.sink)
}

// configWith derives the shard's core.Config with an explicit fault plan
// and trace sink. Migrations build replacement incarnations with a nil sink
// (the live incarnation still emits on s.sink until cutover; the Sink
// contract is single-goroutine) and install s.sink at publish via
// SetTraceSink.
func (s *shard[K, V]) configWith(plan core.FaultPlan, sink trace.Sink) core.Config {
	cfg := s.c.cfg.Shard
	if len(s.c.cfg.ShardP) != 0 && s.id < len(s.c.cfg.ShardP) {
		cfg.P = s.c.cfg.ShardP[s.id]
	}
	cfg.Seed = rng.Mix64(s.c.cfg.Seed ^ (saltShardSeed + uint64(s.id)*0x9E37_79B9_7F4A_7C15))
	cfg.Fault = plan
	cfg.Trace = sink
	return cfg
}

// boot constructs the shard's first machine incarnation.
func (s *shard[K, V]) boot() error {
	m, err := core.TryNew[K, V](s.shardConfig(), s.c.hash)
	if err != nil {
		return err
	}
	s.m = m
	s.state = ShardRunning
	return nil
}

// closeMachine retires the current incarnation, banking its fault counters
// so ShardStats survives rebuilds. Safe to call with no machine live.
func (s *shard[K, V]) closeMachine() {
	if s.m == nil {
		return
	}
	addFaults(&s.faultsAcc, s.m.FaultStats())
	s.m.Close()
	s.m = nil
}

// addFaults accumulates b into a field-wise.
func addFaults(a *core.FaultStats, b core.FaultStats) {
	a.SendsDropped += b.SendsDropped
	a.SendsDuplicated += b.SendsDuplicated
	a.SendsDelayed += b.SendsDelayed
	a.LostToCrash += b.LostToCrash
	a.BundlesDropped += b.BundlesDropped
	a.BundlesDuplicated += b.BundlesDuplicated
	a.BundlesDelayed += b.BundlesDelayed
	a.StalledModuleRounds += b.StalledModuleRounds
	a.CrashedModuleRounds += b.CrashedModuleRounds
	a.Retransmits += b.Retransmits
	a.Replays += b.Replays
	a.DupDiscards += b.DupDiscards
	a.IdleRounds += b.IdleRounds
}

// goDown transitions the shard to ShardDown, retiring its machine.
func (s *shard[K, V]) goDown(cause error) {
	s.closeMachine()
	s.state = ShardDown
	s.downCause = cause
}

// downErr is the typed error a down shard answers every request with.
func (s *shard[K, V]) downErr() error {
	if s.downCause != nil {
		return fmt.Errorf("shard %d: %w (cause: %v)", s.id, ErrShardDown, s.downCause)
	}
	return fmt.Errorf("shard %d: %w (stopped)", s.id, ErrShardDown)
}

// run serves one sub-batch with at-most-MaxRecoveries transparent rebuilds.
// The exactly-once argument: a failed attempt's incarnation is discarded
// wholesale (its partial mutations with it); the journal holds only acked
// batches; the rebuilt incarnation is base + journal replay, i.e. exactly
// the committed state; the in-flight batch is then re-driven from scratch.
// Every attempt, rebuild and replay is charged into the reply's stats,
// which run resets first; the reply's result buffers are reused.
func (s *shard[K, V]) run(b *shardBatch[K, V], rep *shardReply[K, V]) {
	rep.st, rep.recovered, rep.err = core.BatchStats{}, 0, nil
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case ShardDown:
		rep.err = s.downErr()
		return
	case ShardRetired:
		// Unreachable by routing (a retired shard owns no slots and
		// broadcasts skip it); fail typed rather than panic if reached.
		rep.err = fmt.Errorf("shard %d: %w: batch routed to retired shard", s.id, ErrShardState)
		return
	case ShardDraining:
		if b.kind.mutates() {
			rep.err = fmt.Errorf("shard %d: %w", s.id, ErrShardDraining)
			return
		}
	}
	rebuilds := 0
	for {
		err := s.exec(b, rep)
		if err == nil {
			s.commit(b, rep)
			return
		}
		if errors.Is(err, pim.ErrMachineKilled) {
			s.kills++
		}
		// Recover or degrade. Each rebuild attempt consumes budget whether
		// the rebuild itself succeeds or dies (its inner plan still injects
		// faults); budget < 0 means unbounded.
		for {
			if s.c.cfg.DisableRecovery ||
				(s.c.cfg.MaxRecoveries >= 0 && rebuilds >= s.c.cfg.MaxRecoveries) {
				s.goDown(err)
				rep.err = s.downErr()
				return
			}
			rebuilds++
			rerr := s.rebuildLocked(rep)
			if rerr == nil {
				break
			}
			if errors.Is(rerr, pim.ErrMachineKilled) {
				s.kills++
			}
			err = rerr
		}
	}
}

// exec drives b on the live incarnation, charging the attempt's cost —
// complete or partial — into rep.st.
func (s *shard[K, V]) exec(b *shardBatch[K, V], rep *shardReply[K, V]) error {
	var st core.BatchStats
	var err error
	switch b.kind {
	case opGet:
		rep.gets, st, err = s.m.TryGetInto(b.keys, rep.gets)
	case opUpsert:
		rep.bools, st, err = s.m.TryUpsertInto(b.keys, b.vals, rep.bools)
	case opDelete:
		rep.bools, st, err = s.m.TryDeleteInto(b.keys, rep.bools)
	case opSucc:
		rep.succs, st, err = s.m.TrySuccessorInto(b.keys, rep.succs)
	case opRange:
		rep.ranges, st, err = s.m.TryRangeAuto(b.rops)
	}
	rep.st.Accumulate(st)
	if err != nil {
		// A failed Try* returns zero stats; the rounds it burned are still
		// on the machine's counters.
		rep.st.Accumulate(s.m.PartialStats())
	}
	return err
}

// commit acks b: journal the mutation, advance the committed length, and
// checkpoint the journal when checkpointDue says it has grown enough.
func (s *shard[K, V]) commit(b *shardBatch[K, V], rep *shardReply[K, V]) {
	s.journal(b)
	s.committedLen = s.m.Len()
	s.batches++
	if !s.migrating && s.checkpointDue() {
		// Best-effort: a failed checkpoint (the fault plan can kill the
		// snapshot too) keeps the longer journal; the batch itself is
		// already acked. Suppressed mid-migration: the cutover replays the
		// journal suffix accumulated since the migration froze its base, so
		// truncating it here would lose acked batches from the new epoch.
		_ = s.compactLocked(&rep.st, &s.recovery)
	}
	s.total.Accumulate(rep.st)
}

// compactFloor is the journal size, in ops, below which the default
// checkpoint rule never fires, however small the base.
const compactFloor = 4096

// checkpointDue reports whether the journal should be checkpointed into a
// fresh base snapshot. The default (CompactEvery 0) fires once the ops
// journaled since the last checkpoint reach the base's key count, or
// compactFloor if that is larger: a snapshot costs about one pass over the
// base, so its cost per journaled op stays constant whatever the batch
// size, and a rebuild replays at most about one base's worth of ops. A
// positive CompactEvery counts journaled batches instead; a negative one
// never fires.
func (s *shard[K, V]) checkpointDue() bool {
	switch ce := s.c.cfg.CompactEvery; {
	case ce > 0:
		return len(s.entries) >= ce
	case ce == 0:
		return s.journalOps >= max(len(s.baseKeys), compactFloor)
	}
	return false
}

// setJournal replaces the journal's entries and recounts journalOps. Every
// reassignment of entries goes through it.
func (s *shard[K, V]) setJournal(entries []logEntry[K, V]) {
	s.entries = entries
	s.journalOps = 0
	for i := range entries {
		s.journalOps += entries[i].size()
	}
}

// journal records b's mutation, copying keys/vals out of the reused scatter
// workspace. Range batches record only their RangeTransform ops — reads
// don't change state, and transforms apply in batch order among themselves.
func (s *shard[K, V]) journal(b *shardBatch[K, V]) {
	n := len(s.entries)
	switch b.kind {
	case opUpsert:
		s.entries = append(s.entries, logEntry[K, V]{
			kind: logUpsert,
			seq:  b.seq,
			keys: append([]K(nil), b.keys...),
			vals: append([]V(nil), b.vals...),
		})
	case opDelete:
		s.entries = append(s.entries, logEntry[K, V]{
			kind: logDelete,
			seq:  b.seq,
			keys: append([]K(nil), b.keys...),
		})
	case opRange:
		var tf []core.RangeOp[K, V]
		for _, op := range b.rops {
			if op.Kind == core.RangeTransform {
				tf = append(tf, op)
			}
		}
		if len(tf) > 0 {
			s.entries = append(s.entries, logEntry[K, V]{kind: logTransform, seq: b.seq, ops: tf})
		}
	}
	if len(s.entries) > n {
		s.journalOps += s.entries[n].size()
	}
}

// rebuildLocked replaces the dead incarnation: close it, strip a terminal
// kill plan to its inner plan (the kill consumed the incarnation it was
// aimed at), construct a fresh machine, bulk-load the base snapshot, replay
// the journal in order, and verify the committed length. All costs charge
// into rep.st and the shard's recovery account.
func (s *shard[K, V]) rebuildLocked(rep *shardReply[K, V]) error {
	s.closeMachine()
	if ip, ok := s.plan.(interface{ Inner() core.FaultPlan }); ok {
		s.plan = ip.Inner()
	}
	m, err := core.TryNew[K, V](s.shardConfig(), s.c.hash)
	if err != nil {
		return err
	}
	s.m = m
	charge := func(st core.BatchStats) {
		rep.st.Accumulate(st)
		s.recovery.Accumulate(st)
	}
	fail := func(err error) error {
		p := m.PartialStats()
		charge(p)
		return err
	}
	if len(s.baseKeys) > 0 {
		st, err := m.TryBulkLoad(s.baseKeys, s.baseVals)
		charge(st)
		if err != nil {
			return fail(err)
		}
	}
	for _, e := range s.entries {
		var st core.BatchStats
		var err error
		switch e.kind {
		case logUpsert:
			_, st, err = m.TryUpsert(e.keys, e.vals)
		case logDelete:
			_, st, err = m.TryDelete(e.keys)
		case logTransform:
			_, st, err = m.TryRangeAuto(e.ops)
		}
		charge(st)
		if err != nil {
			return fail(err)
		}
	}
	if m.Len() != s.committedLen {
		return fmt.Errorf("shard %d: journal replay rebuilt %d keys, committed state had %d",
			s.id, m.Len(), s.committedLen)
	}
	s.recoveries++
	rep.recovered++
	return nil
}

// compactLocked checkpoints the live state into a fresh base snapshot and
// truncates the journal. charge receives the snapshot's cost; acct is the
// maintenance account it also lands in — s.recovery for batch-triggered and
// drain checkpoints, s.migration when a migration freezes its base.
func (s *shard[K, V]) compactLocked(charge, acct *core.BatchStats) error {
	keys, vals, st, err := s.m.TrySnapshot()
	charge.Accumulate(st)
	acct.Accumulate(st)
	if err != nil {
		p := s.m.PartialStats()
		charge.Accumulate(p)
		acct.Accumulate(p)
		return err
	}
	s.baseKeys = keys
	s.baseVals = vals
	s.setJournal(nil)
	return nil
}

// --- lifecycle API (control plane; serializes with run per shard) ---

// ShardStats is one shard's public health and cost summary.
type ShardStats struct {
	// State is the current lifecycle state.
	State ShardState
	// Len is the committed key count (meaningful even when Down).
	Len int
	// Batches counts acked sub-batches; Kills counts machine deaths
	// (terminal faults); Recoveries counts successful journal rebuilds.
	Batches, Kills, Recoveries int64
	// JournalBase and JournalBatches size the journal: base snapshot keys
	// plus acked batches since the last checkpoint. JournalOps is the total
	// operation count across those batches (Σ keys per point entry, Σ ops
	// per transform entry) — the observable measure of journal growth when
	// CompactEvery < 0 disables compaction.
	JournalBase, JournalBatches, JournalOps int
	// Migrations counts epoch cutovers this shard took part in (as a source,
	// target, or retiree of SplitShard/MergeShards/Rebalance).
	Migrations int64
	// Total accumulates every acked batch's cost (including recovery and
	// checkpoint work charged to those batches); Recovery isolates just the
	// rebuild/replay/checkpoint share. Migration is the Recovery-style
	// account migration rounds are charged to: snapshot freezes, bulk loads,
	// and journal-suffix replays that built this shard's new incarnations.
	Total, Recovery, Migration core.BatchStats
	// Faults accumulates fault-injection counters across all incarnations.
	Faults core.FaultStats
}

// ShardStats returns shard i's summary.
func (c *Cluster[K, V]) ShardStats(i int) ShardStats {
	s := c.view.load().shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		State:          s.state,
		Len:            s.committedLen,
		Batches:        s.batches,
		Kills:          s.kills,
		Recoveries:     s.recoveries,
		JournalBase:    len(s.baseKeys),
		JournalBatches: len(s.entries),
		JournalOps:     s.journalOps,
		Migrations:     s.migrations,
		Total:          s.total,
		Recovery:       s.recovery,
		Migration:      s.migration,
		Faults:         s.faultsAcc,
	}
	if s.m != nil {
		addFaults(&st.Faults, s.m.FaultStats())
	}
	return st
}

// lifecycleShard returns shard i for the lifecycle call op: ErrClosed on a
// closed cluster, ErrBadConfig if i is not a shard id.
func (c *Cluster[K, V]) lifecycleShard(op string, i int) (*shard[K, V], error) {
	if c.closed.Load() {
		return nil, core.ErrClosed
	}
	shards := c.view.load().shards
	if i < 0 || i >= len(shards) {
		return nil, fmt.Errorf("%w: %s(%d) of %d shards", ErrBadConfig, op, i, len(shards))
	}
	return shards[i], nil
}

// StartShard brings a Down shard back: a fresh machine is rebuilt from the
// journal (base + acked batches) and the shard resumes Running. Fails with
// ErrShardState unless the shard is Down, ErrBadConfig if i is not a shard
// id, or ErrClosed on a closed cluster.
func (c *Cluster[K, V]) StartShard(i int) error {
	s, err := c.lifecycleShard("StartShard", i)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: StartShard during migration", i, ErrShardState)
	}
	if s.state != ShardDown {
		return fmt.Errorf("shard %d: %w: StartShard from %v", i, ErrShardState, s.state)
	}
	var scratch shardReply[K, V]
	if err := s.rebuildLocked(&scratch); err != nil {
		s.closeMachine()
		s.downCause = err
		return err
	}
	s.state = ShardRunning
	s.downCause = nil
	return nil
}

// DrainShard moves a Running shard to Draining: reads keep serving,
// mutations fail typed with ErrShardDraining, and the journal is
// checkpointed so the shard can be stopped with a minimal journal. The
// checkpoint is best-effort; its error is returned but the shard stays
// Draining. A bad shard id fails with ErrBadConfig.
func (c *Cluster[K, V]) DrainShard(i int) error {
	s, err := c.lifecycleShard("DrainShard", i)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: DrainShard during migration", i, ErrShardState)
	}
	if s.state != ShardRunning {
		return fmt.Errorf("shard %d: %w: DrainShard from %v", i, ErrShardState, s.state)
	}
	s.state = ShardDraining
	if len(s.entries) > 0 {
		var scratch core.BatchStats
		return s.compactLocked(&scratch, &s.recovery)
	}
	return nil
}

// StopShard takes a Running or Draining shard Down, retiring its machine.
// Its keys answer ErrShardDown until StartShard rebuilds it. Stopping a
// shard that is already Down — including one already killed by its fault
// plan — fails typed with ErrShardState, never panics; so does stopping a
// retired or migrating shard. A bad shard id fails with ErrBadConfig.
func (c *Cluster[K, V]) StopShard(i int) error {
	s, err := c.lifecycleShard("StopShard", i)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.migrating {
		return fmt.Errorf("shard %d: %w: StopShard during migration", i, ErrShardState)
	}
	if s.state == ShardDown || s.state == ShardRetired {
		return fmt.Errorf("shard %d: %w: StopShard from %v", i, ErrShardState, s.state)
	}
	s.goDown(nil)
	return nil
}
