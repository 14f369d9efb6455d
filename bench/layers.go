package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// Span records of a traced run, on the run clock (ns since the recorder
// started). tracehooks.go fills them from the stack's trace hooks; this
// file derives the per-layer metrics from them, checks them against the
// stack's own counters, and writes them out as a Chrome trace.

// Batch kinds beyond the four client ops.
const (
	kindSnapshot   = numKinds     // a cluster shard's journal snapshot
	kindOtherBatch = numKinds + 1 // any other batch (none in these workloads)
)

const (
	phaseOther = iota
	phaseSort
	phaseSemisort
	phaseSearch
	phaseExecute
	phaseRebuild
	phaseContract
	numPhases
)

var phaseNames = [numPhases]string{"other", "sort", "semisort", "search", "execute", "rebuild", "contract"}

// callRec is one sampled client call: a single op, or a batch-map cycle.
type callRec struct {
	start, end int64
	kind       opKind
}

// batchRec is one core batch on one Map or shard.
type batchRec struct {
	start, end int64
	shard      int
	op         opKind
	n          int
	// model is the batch's BatchEnd totals; fromRounds sums its RoundEnd
	// events, which must agree.
	model, fromRounds modelCount
	cpuWork, cpuDepth int64
	phase             [numPhases]int64 // wall ns per explicit phase
	roundWall         int64            // wall ns of its round spans
}

func (b batchRec) wall() int64 { return b.end - b.start }

// spanRec is a phase or round span, kept for the Chrome trace.
type spanRec struct {
	start, end int64
	shard      int
	name       string
}

// flushRec is one collector flush.
type flushRec struct {
	start, end              int64
	ops, submitted          int
	queueWait, maxQueueWait int64
}

// migrationRec runs from the policy's Propose call to the collector's
// report of the window's outcome.
type migrationRec struct {
	start, end int64
	shards     []int // shards the migration froze
	published  int
	transient  bool
}

type traceData struct {
	batches    []batchRec
	spans      []spanRec
	flushes    []flushRec
	migrations []migrationRec
	stray      modelCount
}

// reconcile refuses a traced run whose spans do not add up:
//
//   - every batch's RoundEnd events sum to its BatchEnd totals, and no
//     round runs outside a batch;
//   - the BatchEnd totals equal the stack's own counters: the sum of
//     returned BatchStats (batch-map), of Cluster.Loads (cluster
//     workloads, less the snapshots migrations take while frozen, which
//     the cluster books outside Loads), or the last batch's
//     Map.Machine().Metrics() after Close (serve-map);
//   - every sampled call's latency splits into non-negative parts: a
//     served op's flush starts within the call (queue wait ≤ latency), and
//     a batch-map cycle's batches lie inside it.
func reconcile(d *traceData, ref reference, calls []callRec, served bool) error {
	var sum modelCount
	for _, b := range d.batches {
		if b.model != b.fromRounds {
			return fmt.Errorf("shard %d %s batch at %d: BatchEnd totals %+v, its rounds sum to %+v",
				b.shard, batchName(b.op), b.start, b.model, b.fromRounds)
		}
		if !frozen(b, d.migrations) {
			sum.add(b.model.rounds, b.model.io, b.model.msgs)
		}
	}
	if d.stray != (modelCount{}) {
		return fmt.Errorf("rounds outside any batch: %+v", d.stray)
	}
	if ref.total != nil && sum != *ref.total {
		return fmt.Errorf("BatchEnd totals %+v, the stack counted %+v", sum, *ref.total)
	}
	if ref.last != nil {
		if len(d.batches) == 0 {
			return fmt.Errorf("no batch traced")
		}
		last := slices.MaxFunc(d.batches, func(a, b batchRec) int { return cmp.Compare(a.end, b.end) })
		if last.model != *ref.last {
			return fmt.Errorf("last BatchEnd totals %+v, Machine().Metrics() %+v", last.model, *ref.last)
		}
	}
	for _, c := range calls {
		if served {
			if i := servingFlush(d.flushes, c); i < 0 || d.flushes[i].start > c.end {
				return fmt.Errorf("call [%d,%d] has no flush starting within it", c.start, c.end)
			}
			continue
		}
		var inside int64
		for _, b := range d.batches {
			if b.start >= c.start && b.start <= c.end {
				if b.end > c.end {
					return fmt.Errorf("batch [%d,%d] ends after its cycle [%d,%d]", b.start, b.end, c.start, c.end)
				}
				inside += b.wall()
			}
		}
		if inside > c.end-c.start {
			return fmt.Errorf("cycle [%d,%d] holds %d ns of batches", c.start, c.end, inside)
		}
	}
	return nil
}

// frozen reports whether b is a snapshot a migration took of a shard it
// froze.
func frozen(b batchRec, ms []migrationRec) bool {
	if b.op != kindSnapshot {
		return false
	}
	for _, m := range ms {
		if b.start >= m.start && b.start <= m.end && slices.Contains(m.shards, b.shard) {
			return true
		}
	}
	return false
}

// servingFlush is the index of the first flush that starts after the call
// does, -1 if none: the op joins the pending batch during the call, and the
// collector swaps that batch out before it starts the flush's clock.
func servingFlush(fl []flushRec, c callRec) int {
	if i := sort.Search(len(fl), func(i int) bool { return fl[i].start >= c.start }); i < len(fl) {
		return i
	}
	return -1
}

func batchName(k opKind) string {
	switch k {
	case kindSnapshot:
		return "snapshot"
	case kindOtherBatch:
		return "other"
	}
	return kindNames[k]
}

// layerInput is what one traced measurement left behind.
type layerInput struct {
	workload string
	d        *traceData
	calls    []callRec
	from, to int64           // the measurement windows on the run clock
	ops      [numKinds]int64 // client ops completed in them
}

// layerMetrics derives the per-layer metrics a traced run can measure
// from spans: the frontend, cluster, core, pim and cpu layers.
func layerMetrics(in layerInput) map[string]float64 {
	out := map[string]float64{}
	within := func(t int64) bool { return t >= in.from && t < in.to }
	elapsed := float64(in.to - in.from)
	var clientOps int64
	for _, n := range in.ops {
		clientOps += n
	}
	perOp := func(x int64) float64 { return float64(x) / float64(max(clientOps, 1)) }

	var batches []batchRec
	for _, b := range in.d.batches {
		if within(b.start) {
			batches = append(batches, b)
		}
	}
	slices.SortFunc(batches, func(a, b batchRec) int { return cmp.Compare(a.start, b.start) })

	// core, pim, cpu.
	var walls []float64
	var kindWall, kindN [numKinds]int64
	var phase [numPhases]int64
	var total modelCount
	var clientWall, allWall, roundWall, cpuWork, cpuDepth int64
	for _, b := range batches {
		total.add(b.model.rounds, b.model.io, b.model.msgs)
		allWall += b.wall()
		roundWall += b.roundWall
		cpuWork += b.cpuWork
		cpuDepth += b.cpuDepth
		if b.op >= numKinds {
			continue
		}
		kindWall[b.op] += b.wall()
		kindN[b.op] += int64(b.n)
		clientWall += b.wall()
		walls = append(walls, float64(b.wall()))
		for p, t := range b.phase {
			phase[p] += t
		}
	}
	for k := range kindWall {
		out["core."+kindNames[k]+".ns_per_op"] = float64(kindWall[k]) / float64(max(kindN[k], 1))
	}
	out["core.batch_wall_p50_us"] = quantileOf(walls, 0.5) / 1e3
	explicit := int64(0)
	for p := phaseSort; p < numPhases; p++ {
		out["core.phase."+phaseNames[p]+".wall_frac"] = frac(phase[p], clientWall)
		explicit += phase[p]
	}
	out["core.phase.other.wall_frac"] = frac(clientWall-explicit, clientWall)
	out["pim.rounds_per_op"] = perOp(total.rounds)
	out["pim.io_per_op"] = perOp(total.io)
	out["pim.msgs_per_op"] = perOp(total.msgs)
	out["pim.round_wall_mean_us"] = float64(roundWall) / float64(max(total.rounds, 1)) / 1e3
	out["pim.round_wall_frac"] = frac(roundWall, allWall)
	out["cpu.work_per_op"] = perOp(cpuWork)
	out["cpu.depth_per_batch"] = float64(cpuDepth) / float64(max(len(batches), 1))

	if in.workload == "batch-map" {
		return out
	}

	// frontend: the flushes, and the core batches each flush covers.
	var flushes []flushRec
	for _, f := range in.d.flushes {
		if within(f.start) {
			flushes = append(flushes, f)
		}
	}
	var ops, submitted, queueWait, flushWall, self, fanout, straggle, envShard, shardBatches int64
	var flushWalls, maxWaits []float64
	for _, f := range flushes {
		ops += int64(f.ops)
		submitted += int64(f.submitted)
		queueWait += f.queueWait
		flushWall += f.end - f.start
		flushWalls = append(flushWalls, float64(f.end-f.start))
		maxWaits = append(maxWaits, float64(f.maxQueueWait))
		lo := sort.Search(len(batches), func(i int) bool { return batches[i].start >= f.start })
		hi := sort.Search(len(batches), func(i int) bool { return batches[i].start > f.end })
		calls := clusterCalls(batches[lo:hi])
		var envelopes [][2]int64
		for _, c := range calls {
			env := [2]int64{max(c[0].start, f.start), min(slices.MaxFunc(c, byEnd).end, f.end)}
			envelopes = append(envelopes, env)
			var spans [][2]int64
			for _, b := range c {
				spans = append(spans, [2]int64{b.start, b.end})
				straggle += env[1] - min(b.end, env[1])
				if b.op < numKinds {
					shardBatches++
				}
			}
			fanout += (env[1] - env[0]) - unionLen(spans)
			envShard += int64(len(c)) * (env[1] - env[0])
		}
		self += (f.end - f.start) - unionLen(envelopes)
	}
	out["frontend.mean_batch"] = float64(ops) / float64(max(len(flushes), 1))
	out["frontend.flushes_per_s"] = float64(len(flushes)) / (elapsed / 1e9)
	out["frontend.busy_frac"] = float64(flushWall) / elapsed
	out["frontend.flush_wall_p50_us"] = quantileOf(flushWalls, 0.5) / 1e3
	out["frontend.flush_wall_p99_us"] = quantileOf(flushWalls, 0.99) / 1e3
	out["frontend.self_frac"] = frac(self, flushWall)
	out["frontend.queue_wait_mean_us"] = float64(queueWait) / float64(max(ops, 1)) / 1e3
	out["frontend.queue_wait_max_p99_us"] = quantileOf(maxWaits, 0.99) / 1e3
	out["frontend.submitted_frac"] = frac(submitted, ops)
	var residual, sampled int64
	for _, c := range in.calls {
		if i := servingFlush(in.d.flushes, c); within(c.start) && i >= 0 {
			residual += c.end - in.d.flushes[i].end
			sampled++
		}
	}
	out["frontend.reply_residual_mean_us"] = float64(residual) / float64(max(sampled, 1)) / 1e3

	if in.workload == "serve-map" {
		return out
	}

	// cluster: scatter/gather, broadcast and shard balance.
	out["cluster.shard_batches_per_flush"] = float64(shardBatches) / float64(max(len(flushes), 1))
	out["cluster.succ_amplification"] = float64(kindN[kindSucc]) / float64(max(in.ops[kindSucc], 1))
	out["cluster.fanout_self_frac"] = frac(fanout, flushWall)
	out["cluster.straggler_wait_frac"] = frac(straggle, envShard)
	busy := map[int]int64{}
	for _, b := range batches {
		busy[b.shard] += b.wall()
	}
	var busiest, sum int64
	for _, v := range busy {
		busiest = max(busiest, v)
		sum += v
	}
	out["cluster.shard_busy_skew"] = float64(busiest) * float64(len(busy)) / float64(max(sum, 1))
	var published, transients, migWall, proposed int64
	for _, m := range in.d.migrations {
		if !within(m.start) {
			continue
		}
		proposed++
		published += int64(m.published)
		migWall += m.end - m.start
		if m.transient {
			transients++
		}
	}
	out["cluster.migrations"] = float64(published)
	out["cluster.migration_wall_ms_mean"] = float64(migWall) / float64(max(proposed, 1)) / 1e6
	out["cluster.transients"] = float64(transients)
	return out
}

// clusterCalls groups one flush's batches (sorted by start) into the
// stack calls that issued them: a new call begins with the first batch of
// a client op kind not seen since the last one began, and a shard's
// snapshot belongs to the call its preceding batch was part of.
func clusterCalls(bs []batchRec) [][]batchRec {
	var calls [][]batchRec
	var cur opKind = kindOtherBatch
	for _, b := range bs {
		if b.op < numKinds && b.op != cur {
			cur = b.op
			calls = append(calls, nil)
		}
		if len(calls) == 0 {
			continue
		}
		calls[len(calls)-1] = append(calls[len(calls)-1], b)
	}
	return calls
}

func byEnd(a, b batchRec) int { return cmp.Compare(a.end, b.end) }

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

func frac(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }

// quantileOf is the nearest-rank q-quantile of vals (sorted in place).
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Each span names its parent, the
// enclosing span one layer up found by time containment: a flush for a
// shard batch, the batch for a phase or round, the serving flush for a
// client call.
func writeChromeTrace(path string, d *traceData, calls []callRec) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	var evs []event
	add := func(name string, tid int, start, end int64, id, parent string) {
		evs = append(evs, event{Name: name, Ph: "X", TS: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
			PID: 1, TID: tid, Args: map[string]string{"id": id, "parent": parent}})
	}
	flushAt := func(t int64) string {
		i := sort.Search(len(d.flushes), func(i int) bool { return d.flushes[i].start > t }) - 1
		if i >= 0 && t <= d.flushes[i].end {
			return fmt.Sprintf("flush/%d", i)
		}
		return ""
	}
	for i, f := range d.flushes {
		add("flush", 1, f.start, f.end, fmt.Sprintf("flush/%d", i), "")
	}
	for i, m := range d.migrations {
		add("migration", 2, m.start, m.end, fmt.Sprintf("migration/%d", i), "")
	}
	for i, c := range calls {
		parent := ""
		if f := servingFlush(d.flushes, c); f >= 0 {
			parent = fmt.Sprintf("flush/%d", f)
		}
		add("call "+kindNames[c.kind], 3, c.start, c.end, fmt.Sprintf("call/%d", i), parent)
	}
	batches := slices.Clone(d.batches)
	slices.SortFunc(batches, func(a, b batchRec) int {
		return cmp.Or(cmp.Compare(a.shard, b.shard), cmp.Compare(a.start, b.start))
	})
	for i, b := range batches {
		add(batchName(b.op), 10+b.shard, b.start, b.end, fmt.Sprintf("batch/%d", i), flushAt(b.start))
	}
	for _, s := range d.spans {
		i := sort.Search(len(batches), func(i int) bool {
			return batches[i].shard > s.shard || (batches[i].shard == s.shard && batches[i].start > s.start)
		}) - 1
		parent := ""
		if i >= 0 && batches[i].shard == s.shard && s.end <= batches[i].end {
			parent = fmt.Sprintf("batch/%d", i)
		}
		add(s.name, 10+s.shard, s.start, s.end, "", parent)
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
