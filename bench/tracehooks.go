package main

// This file is the only one that depends on the stack's trace hooks:
// pimgo.TraceSink (installed through Config.Trace and the
// ClusterConfig.Trace factory), pimgo.TraceFlushSink and
// pimgo.TraceRebalanceSink. It turns their events into the span records of
// layers.go, time-stamped on the run clock; replacing the hooks means
// replacing this file alone.

import (
	"strings"
	"sync"

	"pimgo"
)

// tracer collects one traced instance's events.
type tracer struct {
	clock func() int64
	// mu guards machines: a cluster calls the sink factory from its
	// collector goroutine when a split creates a shard.
	mu       sync.Mutex
	machines []*machineTracer
	log      flushLog
}

func newTracer(clock func() int64) *tracer {
	return &tracer{clock: clock, log: flushLog{clock: clock}}
}

func (t *tracer) machine(id int) *machineTracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.machines) <= id {
		t.machines = append(t.machines, nil)
	}
	if t.machines[id] == nil {
		t.machines[id] = &machineTracer{clock: t.clock, shard: id}
	}
	return t.machines[id]
}

// mapSink is the Config.Trace sink of a single Map. It takes the machine
// events and, for a Map served by a Frontend, the flush events the
// Frontend sends to its Map's sink.
func (t *tracer) mapSink() pimgo.TraceSink { return mapSink{t.machine(0), &t.log} }

// shardSink is the ClusterConfig.Trace factory: one sink per shard.
func (t *tracer) shardSink(id int) pimgo.TraceSink { return t.machine(id) }

// frontendSink is the ClusterFrontendConfig.Trace sink: flush and
// rebalance events. p, if not nil, is the policy whose proposals open the
// migration spans.
func (t *tracer) frontendSink(p *splitMergePolicy) pimgo.TraceSink {
	t.log.policy = p
	return frontendSink{flushLog: &t.log}
}

// data returns what was collected. Call it after the stack has shut down.
func (t *tracer) data() *traceData {
	d := &traceData{flushes: t.log.flushes, migrations: t.log.migrations}
	for _, m := range t.machines {
		if m == nil {
			continue
		}
		d.batches = append(d.batches, m.batches...)
		d.spans = append(d.spans, m.spans...)
		d.stray.add(m.stray.rounds, m.stray.io, m.stray.msgs)
	}
	return d
}

// machineTracer is the sink of one Map or cluster shard. The Sink contract
// has one goroutine emit at a time, so it needs no lock.
type machineTracer struct {
	clock   func() int64
	shard   int
	cur     batchRec
	inBatch bool
	// phaseStart is when the open phase began; last is the previous event,
	// where the next round's span begins.
	phaseStart, last int64
	batches          []batchRec
	spans            []spanRec
	stray            modelCount // rounds outside any batch
}

func (m *machineTracer) BatchStart(op string, n int) {
	t := m.clock()
	m.cur = batchRec{start: t, shard: m.shard, op: batchKind(op), n: n}
	m.inBatch, m.last = true, t
}

func (m *machineTracer) PhaseStart(string, pimgo.TracePhase) {
	t := m.clock()
	m.phaseStart, m.last = t, t
}

func (m *machineTracer) PhaseEnd(sp pimgo.TraceSpan) {
	t := m.clock()
	p := phaseIndex(sp.Phase)
	m.cur.phase[p] += t - m.phaseStart
	m.spans = append(m.spans, spanRec{start: m.phaseStart, end: t, shard: m.shard, name: phaseNames[p]})
	m.last = t
}

func (m *machineTracer) RoundEnd(r pimgo.TraceRoundStat) {
	t := m.clock()
	if !m.inBatch {
		m.stray.add(1, r.H, r.TotalMsgs)
		return
	}
	m.cur.roundWall += t - m.last
	m.cur.fromRounds.add(1, r.H, r.TotalMsgs)
	m.spans = append(m.spans, spanRec{start: m.last, end: t, shard: m.shard, name: "round"})
	m.last = t
}

func (m *machineTracer) Fault(pimgo.TraceFaultEvent) {}

func (m *machineTracer) BatchEnd(_ string, tot pimgo.TraceTotals) {
	m.cur.end = m.clock()
	m.cur.model = modelCount{tot.Rounds, tot.IOTime, tot.TotalMsgs}
	m.cur.cpuWork, m.cur.cpuDepth = tot.CPUWork, tot.CPUDepth
	m.batches = append(m.batches, m.cur)
	m.inBatch = false
}

// batchKind maps a batch's op label ("get", or "s3/get" on a cluster
// shard) to the client op it serves; "all_pairs" is a shard's journal
// snapshot.
func batchKind(op string) opKind {
	if i := strings.IndexByte(op, '/'); i >= 0 {
		op = op[i+1:]
	}
	switch op {
	case "get":
		return kindGet
	case "successor":
		return kindSucc
	case "upsert":
		return kindUpsert
	case "delete":
		return kindDelete
	case "all_pairs":
		return kindSnapshot
	}
	return kindOtherBatch
}

func phaseIndex(p pimgo.TracePhase) int {
	switch p {
	case pimgo.PhaseSort:
		return phaseSort
	case pimgo.PhaseSemisort:
		return phaseSemisort
	case pimgo.PhaseSearch:
		return phaseSearch
	case pimgo.PhaseExecute:
		return phaseExecute
	case pimgo.PhaseRebuild:
		return phaseRebuild
	case pimgo.PhaseContract:
		return phaseContract
	}
	return phaseOther
}

// flushLog records the collector's flush and rebalance events. Both come
// from the collector goroutine.
type flushLog struct {
	clock      func() int64
	policy     *splitMergePolicy
	flushes    []flushRec
	migrations []migrationRec
}

// Flush implements pimgo.TraceFlushSink. The event arrives when the flush
// ends, so the span starts FlushTime earlier.
func (l *flushLog) Flush(fs pimgo.TraceFlushStat) {
	end := l.clock()
	l.flushes = append(l.flushes, flushRec{
		start: end - int64(fs.FlushTime), end: end,
		ops: fs.Ops, submitted: fs.Submitted,
		queueWait: int64(fs.QueueWait), maxQueueWait: int64(fs.MaxQueueWait),
	})
}

// Rebalance implements pimgo.TraceRebalanceSink. A window that proposed a
// migration closes the span its policy call opened.
func (l *flushLog) Rebalance(rs pimgo.TraceRebalanceStat) {
	if rs.Proposed == 0 || l.policy == nil || len(l.policy.proposals) == 0 {
		return
	}
	p := l.policy.proposals[len(l.policy.proposals)-1]
	l.migrations = append(l.migrations, migrationRec{
		start: p.at, end: l.clock(), shards: p.shards,
		published: rs.Published, transient: rs.Transient,
	})
}

type mapSink struct {
	*machineTracer
	*flushLog
}

type frontendSink struct {
	nopMachine
	*flushLog
}

// nopMachine ignores machine events.
type nopMachine struct{}

func (nopMachine) BatchStart(string, int)              {}
func (nopMachine) PhaseStart(string, pimgo.TracePhase) {}
func (nopMachine) PhaseEnd(pimgo.TraceSpan)            {}
func (nopMachine) RoundEnd(pimgo.TraceRoundStat)       {}
func (nopMachine) Fault(pimgo.TraceFaultEvent)         {}
func (nopMachine) BatchEnd(string, pimgo.TraceTotals)  {}
