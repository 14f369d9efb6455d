// Command pimbench regenerates every table and figure of "The
// Processing-in-Memory Model" (SPAA 2021) on the pimgo simulator.
//
// Usage:
//
//	pimbench <experiment> [flags]
//
// Experiments (see DESIGN.md §4 for the paper mapping):
//
//	model     Fig. 1  — the PIM machine and its cost metrics
//	fig2      Fig. 2  — pointer structure on a 4-module system
//	fig3      Fig. 3  — pivot search phases of batched Successor
//	fig4      Fig. 4  — batch insert/delete pointer construction
//	table1    Table 1 — measured cost of all batched point operations
//	space     Thm 3.1 — per-module space
//	lemma42   Lem 4.2 — per-node access contention, pivoted vs naive
//	balls     Lem 2.1/2.2 — balls-in-bins max/mean loads
//	imbalance §4.2    — naive vs pivoted Successor under the adversary
//	range     Thm 5.1/5.2 — broadcast vs tree range operations
//	baseline  §2.2/§3.1 — ours vs range-partitioned skip list
//	ablate    design ablations: -what=hlow|pivot|dedup
//	chaos     fault-injection recovery costs under every built-in plan
//	frontend  concurrent batching frontend: client-goroutine ladder
//	trace     per-phase metric attribution; -chrome exports a Chrome trace
//	all       every experiment in sequence
//
// `pimbench -list` prints every command name, one per line (used by the
// docs CI job to validate command references in the documentation).
package main

import (
	"flag"
	"fmt"
	"os"
)

type experiment struct {
	name string
	desc string
	run  func(args []string)
}

var experiments = []experiment{
	{"model", "Fig. 1: the PIM machine model and metrics", runModel},
	{"fig2", "Fig. 2: pointer structure on 4 modules", runFig2},
	{"fig3", "Fig. 3: pivot search phases", runFig3},
	{"fig4", "Fig. 4: batch insert/delete pointer construction", runFig4},
	{"table1", "Table 1: batched point-operation costs", runTable1},
	{"space", "Theorem 3.1: per-module space", runSpace},
	{"lemma42", "Lemma 4.2: per-node contention", runLemma42},
	{"balls", "Lemmas 2.1/2.2: balls-in-bins", runBalls},
	{"imbalance", "§4.2: naive vs pivoted Successor", runImbalance},
	{"range", "Theorems 5.1/5.2: range operations", runRange},
	{"baseline", "§2.2/§3.1: vs range partitioning", runBaseline},
	{"ablate", "design ablations (hlow, pivot, dedup)", runAblate},
	{"ext", "future-work companions: PIM sort, PIM hash map", runExt},
	{"sweep", "CSV metric grid over P×n for plotting", runSweep},
	{"why", "§1: data movement saved vs shared-memory emulation", runWhy},
	{"cpuscale", "§2.1: O(W/P'+D) with a real work-stealing pool", runCPUScale},
	{"roundengine", "round-engine microbenchmarks → results/BENCH_roundengine.json", runRoundEngine},
	{"batchengine", "steady-state batch-op benchmarks → results/BENCH_batchengine.json", runBatchEngine},
	{"chaos", "fault-injection recovery costs → results/BENCH_chaos.json", runChaos},
	{"frontend", "concurrent batching frontend ladder → results/BENCH_frontend.json", runFrontend},
	{"cluster", "sharded multi-Map cluster ladder → results/BENCH_cluster.json", runCluster},
	{"rebalance", "live shard split/merge rebalancing ladder → results/BENCH_rebalance.json", runRebalance},
	{"clusterfrontend", "coalescing frontend over the elastic cluster, rebalance loop live → results/BENCH_clusterfrontend.json", runClusterFrontend},
	{"trace", "per-phase metric attribution → results/BENCH_trace.json (-chrome exports Chrome trace JSON)", runTrace},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	args := os.Args[2:]
	if name == "-list" || name == "--list" {
		// Machine-readable command list, one name per line ("all" included).
		// The docs CI job uses it to verify every `pimbench <cmd>` named in
		// the documentation exists.
		for _, e := range experiments {
			fmt.Println(e.name)
		}
		fmt.Println("all")
		return
	}
	if name == "all" {
		for _, e := range experiments {
			fmt.Printf("\n================ %s — %s ================\n", e.name, e.desc)
			e.run(nil)
		}
		return
	}
	for _, e := range experiments {
		if e.name == name {
			e.run(args)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pimbench <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
}

// fs builds a named FlagSet that exits on error.
func fs(name string) *flag.FlagSet {
	f := flag.NewFlagSet(name, flag.ExitOnError)
	return f
}
