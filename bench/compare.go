package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// Verdicts of compare, one per (workload, end-to-end metric) pair.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse beyond bound"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) pair of two run sets.
type comparison struct {
	workload string
	def      metricDef
	a, b     []float64 // values in run order
	verdict  string
	wins     int // pairs the candidate wins
}

// compareMain implements `bench compare BASELINE CANDIDATE`. Each argument
// is a directory of run files, a glob of them, or one file. It exits 1 if
// any pair is worse beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASELINE CANDIDATE (each a directory, glob or file of run records)")
		return 2
	}
	var sets [2][]*result
	for i := range sets {
		runs, err := loadRuns(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			return 2
		}
		sets[i] = runs
	}
	rows := compareRuns(sets[0], sets[1])
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench compare: the two sets share no untraced workload")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline median [q1, q3]\tcandidate median [q1, q3]\tchange\twins\tverdict")
	code := 0
	for _, c := range rows {
		qa, qb := quartiles(c.a), quartiles(c.b)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] n=%d\t%.4g [%.4g, %.4g] n=%d\t%+.2f%%\t%d/%d\t%s\n",
			c.workload, c.def.name, c.def.unit, qa[1], qa[0], qa[2], len(c.a), qb[1], qb[0], qb[2], len(c.b),
			100*relChange(qb[1], qa[1]), c.wins, min(len(c.a), len(c.b)), c.verdict)
		if c.verdict == verdictWorse {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	return code
}

// loadRuns reads the untraced runs of a directory, glob or file.
func loadRuns(arg string) ([]*result, error) {
	paths := []string{arg}
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		paths, _ = filepath.Glob(filepath.Join(arg, "*.json"))
	} else if err != nil {
		var gerr error
		if paths, gerr = filepath.Glob(arg); gerr != nil {
			return nil, gerr
		}
	}
	slices.Sort(paths)
	var runs []*result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f recordFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Runs {
			if !r.Trace {
				runs = append(runs, r)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no untraced runs in %s", arg)
	}
	return runs, nil
}

// compareRuns pairs up every workload both sets ran, for every end-to-end
// metric defined on it.
func compareRuns(a, b []*result) []comparison {
	var rows []comparison
	for _, wl := range workloads {
		for _, d := range endToEnd {
			if !d.appliesTo(wl.name) {
				continue
			}
			c := comparison{workload: wl.name, def: d, a: values(a, wl.name, d.name), b: values(b, wl.name, d.name)}
			if len(c.a) == 0 || len(c.b) == 0 {
				continue
			}
			c.verdict, c.wins = judge(d, c.a, c.b)
			rows = append(rows, c)
		}
	}
	return rows
}

func values(runs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies the acceptance rules to one pair. A gain needs the
// candidate to win at least nine tenths of the pairs (ties count for
// neither) and its median to differ from the baseline's by more than the
// baseline's interquartile spread. A spread wider than the bound leaves
// the pair unresolved, unless every candidate run beats every baseline
// run, or every pair ties — a count that repeats exactly, such as a model
// metric on the same seeds. Otherwise the candidate is worse when its
// median is worse than the baseline's by more than the bound.
func judge(d metricDef, a, b []float64) (verdict string, wins int) {
	pairs := min(len(a), len(b))
	ties := 0
	for i := range pairs {
		switch w := worseBy(d, a[i], b[i]); {
		case w < 0:
			wins++
		case w == 0:
			ties++
		}
	}
	if ties == pairs {
		return verdictWithin, 0
	}
	qa, qb := quartiles(a), quartiles(b)
	spread := qa[2] - qa[0]
	if !d.absolute {
		spread /= math.Abs(qa[1])
	}
	allBetter := worseBy(d, slices.Min(a), slices.Max(b)) < 0 && worseBy(d, slices.Max(a), slices.Min(b)) < 0
	switch {
	case wins*10 >= pairs*9 && worseBy(d, qa[1], qb[1]) < 0 && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]:
		return verdictBetter, wins
	case spread > d.bound && allBetter:
		return verdictBetter, wins
	case spread > d.bound:
		return verdictUnresolved, wins
	case worseBy(d, qa[1], qb[1]) > d.bound:
		return verdictWorse, wins
	}
	return verdictWithin, wins
}

// worseBy is how much worse y is than base x: a share of x, or for an
// absolute bound an amount in the metric's unit. Negative means better.
func worseBy(d metricDef, x, y float64) float64 {
	diff := y - x
	if d.better == "higher" {
		diff = -diff
	}
	if d.absolute {
		return diff
	}
	if x == 0 {
		if diff == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), diff)
	}
	return diff / math.Abs(x)
}

func relChange(y, x float64) float64 {
	if x == 0 {
		return 0
	}
	return (y - x) / math.Abs(x)
}

// quartiles returns the first quartile, median and third quartile of v,
// computed as Python's statistics.quantiles(v, n=4) does (the "exclusive"
// method); a single value is all three.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
