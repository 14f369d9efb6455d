package main

import "fmt"

type opKind uint8

const (
	kindGet opKind = iota
	kindSucc
	kindUpsert
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"get", "succ", "upsert", "delete"}

// workload is one benchmark traffic mix.
type workload struct {
	name, why string
	// instance makes a fresh system on the run's seed: the stack's inputs
	// and the oracles that check its replies. tr is nil in untraced runs.
	instance func(seed uint64, tr *tracer, h hooks) system
}

// hooks lets tests wrap what the load talks to; production runs leave it
// zero.
type hooks struct {
	point func(pointStore) pointStore
	batch func(batchStore) batchStore
}

// system is one instance of a workload: the stack under test and its
// oracles.
type system interface {
	// setup builds the stack, loads the table and starts the frontend: the
	// work setup_s times.
	setup() error
	// load drives traffic until rec stops, checking every reply; it reports
	// divergence through rec.
	load(rec *recorder)
	// shutdown stops the stack and checks its final state.
	shutdown() error
	// reference is the stack's own count of model cost, read after
	// shutdown, that the traced run reconciles its spans against.
	reference() reference
	// calls are the sampled client-call spans of a traced run.
	calls() []callRec
}

// modelCount holds the model's additive cost counters.
type modelCount struct{ rounds, io, msgs int64 }

func (m *modelCount) add(rounds, io, msgs int64) {
	m.rounds += rounds
	m.io += io
	m.msgs += msgs
}

// reference is what the public API says the stack's batches cost. total
// is the sum over every batch since construction; last is the most recent
// batch alone, for stacks whose only counter is Map.Machine().Metrics().
type reference struct {
	total, last *modelCount
}

var workloads = []workload{
	{
		name:     "batch-map",
		why:      "one caller runs fixed 4096-op flush-shaped batch cycles on a 2^18-key Map: core, pim and cpu layers only, exact model counts",
		instance: newBatchMap,
	},
	{
		name:     "serve-map",
		why:      "1024 closed-loop callers through the single-Map Frontend: the collector on top of core, no cluster",
		instance: servedInstance(serveMapSpec),
	},
	{
		name:     "serve-cluster",
		why:      "the serve-map traffic through ClusterFrontend over 4 shards: adds scatter/gather and the Successor broadcast",
		instance: servedInstance(serveClusterSpec),
	},
	{
		name:     "serve-cluster-churn",
		why:      "open-loop Poisson arrivals, write-heavy and zipf-skewed reads, a live split or merge every two seconds",
		instance: servedInstance(churnSpec),
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
