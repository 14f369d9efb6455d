// Command bench is the repository benchmark: four workloads driven
// through the pimgo facade, every reply checked against an oracle, the
// end-to-end metrics measured untraced and the per-layer metrics from a
// separate traced run. See README.md.
//
//	bash bench/run.sh --workload serve-map --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out run.json
//	bash bench/run.sh compare set-a set-b
//
// The last line of a run's output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json lists for the run's mode. A run
// whose replies diverge from the oracles exits 1 and records nothing.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"

	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run, or all: each in a child process, one at a time")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "total length of the measurement windows, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing the per-layer metrics")
	out := fs.String("out", "", "write the run records to this JSON file")
	spans := fs.String("spans", "", "traced run of one workload: write its spans to this Chrome trace JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *traced != 0 && *traced != 1:
		return usage("--trace must be 0 or 1")
	case !(*seconds > 0 && *seconds <= 60):
		return usage("--seconds must be in (0, 60]")
	case *spans != "" && (*traced == 0 || *workload == "all"):
		return usage("--spans needs --trace 1 and one workload")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *workload == "all" {
		return runAll(args, *out, stdout, stderr)
	}
	if _, err := lookupWorkload(*workload); err != nil {
		return usage("%v", err)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, spans: *spans}
	return execute(cfg, *out, stdout, stderr)
}

// execute runs cfg, prints every metric by name and unit, writes the
// record to out (if set) and ends with the result line. A failed run
// prints what it measured before failing, writes nothing, and returns 1.
func execute(cfg config, out string, stdout, stderr io.Writer) int {
	res, err := run(cfg)
	if res != nil {
		printMetrics(stdout, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v; nothing recorded\n", cfg.workload, err)
		return 1
	}
	if out != "" {
		if err := writeRecords(out, []*result{res}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record: %s\n", raw)
	return printResultLine(stdout, stderr, res.Correct, res.Attempted, res.Failed, resultMetrics(res))
}

// printMetrics prints the metrics defined on the run's workload, in
// registry order.
func printMetrics(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d (NumCPU %d) %s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.GOMAXPROCS, res.NumCPU, res.GoVersion)
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			v, ok := res.Metrics[d.name]
			if !ok || !d.appliesTo(res.Workload) {
				continue
			}
			line := fmt.Sprintf("  %-34s %16.6g %-11s", d.name, v.Value, d.unit)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
}

// resultMetrics is the result line's metric set: every metric
// BENCHMARK.json lists for the run's mode, zero where its layer is not on
// the workload's path.
func resultMetrics(res *result) map[string]metricValue {
	set := endToEnd
	if res.Trace {
		set = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range set {
		if d.listed {
			v := res.Metrics[d.name]
			out[d.name] = metricValue{Value: v.Value, Unit: d.unit}
		}
	}
	return out
}

func printResultLine(stdout, stderr io.Writer, correct bool, attempted, failed int64, m map[string]metricValue) int {
	raw, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return 0
}

// recordFile is the on-disk form of a set of runs.
type recordFile struct {
	Runs []*result `json:"runs"`
}

func writeRecords(path string, runs []*result) error {
	raw, err := json.MarshalIndent(recordFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll runs every workload in a fresh child process of this binary, one
// at a time, with the same flags, and collects their records.
func runAll(args []string, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var runs []*result
	correct := true
	var attempted, failed int64
	summary := map[string]metricValue{}
	for _, wl := range workloads {
		var childOut bytes.Buffer
		cmd := exec.Command(self, childArgs(args, wl.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &childOut)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s failed (%v); nothing recorded\n", wl.name, err)
			return 1
		}
		res, err := parseRecord(childOut.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", wl.name, err)
			return 1
		}
		runs = append(runs, res)
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for name, v := range resultMetrics(res) {
			summary[wl.name+"/"+name] = v
		}
	}
	if out != "" {
		if err := writeRecords(out, runs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return printResultLine(stdout, stderr, correct, attempted, failed, summary)
}

// childArgs is args with --workload set to name and --out dropped.
func childArgs(args []string, name string) []string {
	out := []string{"--workload", name}
	for i := 0; i < len(args); i++ {
		flagName, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		switch flagName {
		case "workload", "out":
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// parseRecord finds the "record:" line a run prints.
func parseRecord(stdout []byte) (*result, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if raw, ok := strings.CutPrefix(sc.Text(), "record: "); ok {
			res := new(result)
			if err := json.Unmarshal([]byte(raw), res); err != nil {
				return nil, fmt.Errorf("bad record line: %w", err)
			}
			return res, nil
		}
	}
	return nil, errors.New("no record line in the output")
}
