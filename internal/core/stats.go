package core

import (
	"fmt"

	"pimgo/internal/cpu"
	"pimgo/internal/pim"
	"pimgo/internal/trace"
)

// BatchStats reports the PIM-model cost metrics of one batch operation —
// the quantities in Table 1 of the paper, measured.
type BatchStats struct {
	// Batch is the number of operations in the batch.
	Batch int

	// IOTime is Σ over rounds of the round's h-relation (max messages
	// to/from any one module).
	IOTime int64
	// PIMTime is the maximum total local work over modules during the batch.
	PIMTime int64
	// PIMRoundTime is Σ over rounds of the per-round maximum module work
	// (the elapsed-time view of the PIM side).
	PIMRoundTime int64
	// Rounds is the number of bulk-synchronous rounds.
	Rounds int64
	// SyncCost is Rounds · log2 P.
	SyncCost int64
	// TotalMsgs is the total number of messages (I in the PIM-balance
	// definition; balanced means IOTime = O(TotalMsgs/P)).
	TotalMsgs int64
	// TotalPIMWork is the summed local work over modules (W in the
	// PIM-balance definition; balanced means PIMTime = O(W/P)).
	TotalPIMWork int64

	// CPUWork, CPUDepth are the CPU-side work/depth of the batch.
	CPUWork  int64
	CPUDepth int64
	// CPUMem is the peak CPU shared-memory footprint in words — the
	// "minimum M needed" column of Table 1.
	CPUMem int64

	// Phases is the number of stage-1 pivot phases executed (0 when the
	// operation has no pivot stage).
	Phases int
	// MaxNodeAccess is the largest per-node access count observed in any
	// single phase (Lemma 4.2 instrumentation; 0 unless Config.TrackAccess).
	MaxNodeAccess int64
}

// IOPerOp returns IO time normalized by P·batch — the per-op, per-module
// message cost.
func (s BatchStats) IOPerOp() float64 {
	if s.Batch == 0 {
		return 0
	}
	return float64(s.IOTime) / float64(s.Batch)
}

// PIMBalanceWork returns PIMTime / (TotalPIMWork/P): 1.0 is perfect
// PIM-balance of local work.
func (s BatchStats) PIMBalanceWork(p int) float64 {
	if s.TotalPIMWork == 0 {
		return 0
	}
	return float64(s.PIMTime) / (float64(s.TotalPIMWork) / float64(p))
}

// PIMBalanceIO returns IOTime / (TotalMsgs/P): 1.0 is perfect PIM-balance
// of communication.
func (s BatchStats) PIMBalanceIO(p int) float64 {
	if s.TotalMsgs == 0 {
		return 0
	}
	return float64(s.IOTime) / (float64(s.TotalMsgs) / float64(p))
}

// ChargeIOToCompute returns a copy of the stats with communication charged
// to computation as §2.1's discussion describes: "one could always
// determine what that cost would be ... by simply adding h·P to the CPU
// work and h to the PIM time" per round — i.e. IOTime·P onto CPU work and
// IOTime onto PIM time in aggregate. For the paper's algorithms this must
// not change the asymptotic CPU work or PIM time; the experiments verify
// it stays within a constant factor.
func (s BatchStats) ChargeIOToCompute(p int) BatchStats {
	s.CPUWork += s.IOTime * int64(p)
	s.PIMTime += s.IOTime
	return s
}

// Accumulate folds o into s as the serial composition of two batches on
// the same machine — the shard-safe way to aggregate per-shard costs
// across a cluster batch's attempts, rebuilds, journal replays and
// re-drives. Additive metrics (rounds, IO, message and work totals, CPU
// work/depth) sum; whole-run envelopes (PIMTime, CPUMem, MaxNodeAccess)
// take the maximum; Batch and Phases sum (o's ops were really executed,
// even if only to reconstruct state).
func (s *BatchStats) Accumulate(o BatchStats) {
	s.Batch += o.Batch
	s.IOTime += o.IOTime
	s.PIMRoundTime += o.PIMRoundTime
	s.Rounds += o.Rounds
	s.SyncCost += o.SyncCost
	s.TotalMsgs += o.TotalMsgs
	s.TotalPIMWork += o.TotalPIMWork
	s.CPUWork += o.CPUWork
	s.CPUDepth += o.CPUDepth
	s.Phases += o.Phases
	if o.PIMTime > s.PIMTime {
		s.PIMTime = o.PIMTime
	}
	if o.CPUMem > s.CPUMem {
		s.CPUMem = o.CPUMem
	}
	if o.MaxNodeAccess > s.MaxNodeAccess {
		s.MaxNodeAccess = o.MaxNodeAccess
	}
}

// String renders the stats as a single table row.
func (s BatchStats) String() string {
	return fmt.Sprintf("batch=%d io=%d pim=%d rounds=%d msgs=%d cpuW=%d cpuD=%d mem=%d phases=%d maxAcc=%d",
		s.Batch, s.IOTime, s.PIMTime, s.Rounds, s.TotalMsgs, s.CPUWork, s.CPUDepth, s.CPUMem, s.Phases, s.MaxNodeAccess)
}

// beginBatch resets machine metrics, instrumentation, and the per-Map batch
// workspace, returning the workspace's persistent CPU tracker. Resetting
// (rather than allocating) the tracker and recycling the task arenas is
// metering-neutral: all accounting is analytic and independent of where the
// scratch memory came from. op names the batch operation and n its size for
// the tracing layer (docs/TRACING.md); with no sink installed the extra cost
// is one nil check.
func (m *Map[K, V]) beginBatch(op string, n int) (*cpu.Tracker, *cpu.Ctx) {
	if m.mach.Closed() {
		panic(batchAbort{ErrClosed})
	}
	// Single-flight gate: acquire before touching any shared batch state, so
	// a losing concurrent caller fails typed and side-effect-free while the
	// winner's batch runs undisturbed.
	if !m.inBatch.CompareAndSwap(false, true) {
		panic(batchAbort{ErrConcurrentBatch})
	}
	// New op epoch: the reliable transport (if a fault plan is installed)
	// discards previous batches' dedup records and in-flight state.
	m.mach.BeginEpoch()
	m.mach.ResetMetrics()
	m.resetMaxAccess()
	m.resetAccessPhase()
	for id := 0; id < m.cfg.P; id++ {
		m.mach.Mod(pim.ModuleID(id)).State.scratch.reset()
	}
	ws := m.ws
	ws.resetArenas()
	ws.tr.Reset()
	ws.tr.RootInto(&ws.root)
	ws.op = op
	ws.ph.open = false
	if s := m.mach.TraceSink(); s != nil {
		s.BatchStart(op, n)
	}
	return ws.tr, &ws.root
}

// endBatch assembles BatchStats after a batch completes.
func (m *Map[K, V]) endBatch(tr *cpu.Tracker, c *cpu.Ctx, batch, phases int, maxAccess int64) BatchStats {
	s := m.mach.TraceSink()
	if s != nil {
		m.phaseEnd(c)
	}
	tr.Finish(c)
	met := m.mach.Metrics()
	st := BatchStats{
		Batch:         batch,
		IOTime:        met.IOTime,
		PIMTime:       m.mach.PIMTime(),
		PIMRoundTime:  met.PIMRoundTime,
		Rounds:        met.Rounds,
		SyncCost:      met.SyncCost(m.cfg.P),
		TotalMsgs:     met.TotalMsgs,
		TotalPIMWork:  m.mach.TotalPIMWork(),
		CPUWork:       tr.Work(),
		CPUDepth:      tr.Depth(),
		CPUMem:        tr.PeakMem(),
		Phases:        phases,
		MaxNodeAccess: maxAccess,
	}
	if s != nil {
		s.BatchEnd(m.ws.op, trace.Totals{
			Batch:        st.Batch,
			Rounds:       st.Rounds,
			IOTime:       st.IOTime,
			PIMTime:      st.PIMTime,
			PIMRoundTime: st.PIMRoundTime,
			TotalMsgs:    st.TotalMsgs,
			TotalPIMWork: st.TotalPIMWork,
			SyncCost:     st.SyncCost,
			CPUWork:      st.CPUWork,
			CPUDepth:     st.CPUDepth,
			CPUMem:       st.CPUMem,
		})
	}
	m.inBatch.Store(false)
	return st
}

// phaseSnap is the open-phase snapshot the workspace keeps between phase and
// phaseEnd: the machine metrics and CPU counters at phase start, so the
// phase's span is the delta at phase end.
type phaseSnap struct {
	open  bool
	ph    trace.Phase
	met   pim.Metrics
	work  int64
	depth int64
}

// phase marks the start of an algorithm phase for the tracing layer
// (docs/TRACING.md). A still-open previous phase is closed first, so batch
// implementations only mark transitions. c must be the batch's root strand
// (phase boundaries sit on the driving goroutine between parallel
// constructs, which is what keeps traced profiles deterministic). With no
// sink installed this is a single nil check.
func (m *Map[K, V]) phase(c *cpu.Ctx, ph trace.Phase) {
	s := m.mach.TraceSink()
	if s == nil {
		return
	}
	m.phaseEnd(c)
	ws := m.ws
	ws.ph = phaseSnap{
		open:  true,
		ph:    ph,
		met:   m.mach.Metrics(),
		work:  ws.tr.Work(),
		depth: c.Depth(),
	}
	s.PhaseStart(ws.op, ph)
}

// phaseEnd closes the open phase, if any, emitting its metric deltas as a
// trace.Span. endBatch calls it implicitly; explicit calls end a phase early
// so the following region attributes to the "other" remainder.
func (m *Map[K, V]) phaseEnd(c *cpu.Ctx) {
	s := m.mach.TraceSink()
	ws := m.ws
	if s == nil || !ws.ph.open {
		return
	}
	ws.ph.open = false
	met := m.mach.Metrics()
	s.PhaseEnd(trace.Span{
		Op:           ws.op,
		Phase:        ws.ph.ph,
		Rounds:       met.Rounds - ws.ph.met.Rounds,
		IOTime:       met.IOTime - ws.ph.met.IOTime,
		PIMRoundTime: met.PIMRoundTime - ws.ph.met.PIMRoundTime,
		TotalMsgs:    met.TotalMsgs - ws.ph.met.TotalMsgs,
		CPUWork:      ws.tr.Work() - ws.ph.work,
		CPUDepth:     c.Depth() - ws.ph.depth,
	})
}
