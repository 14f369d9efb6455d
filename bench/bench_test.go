package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pimgo"
)

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// TestSmoke runs every workload for about a second, untraced and traced:
// replies check out, traced spans reconcile, and the result line carries
// exactly the metrics BENCHMARK.json lists for the mode.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			set := endToEnd
			if traced {
				name, set = wl.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cfg := config{workload: wl.name, seed: 7, seconds: 1, trace: traced}
				if code := execute(cfg, "", &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var want []string
				for _, d := range set {
					if d.listed {
						want = append(want, d.name)
					}
				}
				var got []string
				for name, v := range res.Metrics {
					got = append(got, name)
					if d, _ := lookupMetric(name); d.e2e && !(v.Value > 0) {
						t.Errorf("%s = %v, end-to-end metrics are never 0", name, v.Value)
					}
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("result line metrics %v, want %v", got, want)
				}
			})
		}
	}
}

// corruptGets flips the presence bit of the 500th Get reply.
type corruptGets struct {
	pointStore
	n atomic.Int64
}

func (c *corruptGets) Get(k uint64) (pimgo.GetResult[int64], error) {
	res, err := c.pointStore.Get(k)
	if c.n.Add(1) == 500 {
		res.Found = !res.Found
	}
	return res, err
}

// corruptSuccs moves one answer of the third Successor batch.
type corruptSuccs struct {
	batchStore
	n int
}

func (c *corruptSuccs) TrySuccessorInto(keys []uint64, dst []pimgo.SearchResult[uint64, int64]) ([]pimgo.SearchResult[uint64, int64], pimgo.BatchStats, error) {
	res, st, err := c.batchStore.TrySuccessorInto(keys, dst)
	if c.n++; c.n == 3 && len(res) > 0 {
		res[len(res)/2].Key++
	}
	return res, st, err
}

// TestCorruptReplyRefuses checks that one wrong reply makes a run exit 1
// with no result line and no record written.
func TestCorruptReplyRefuses(t *testing.T) {
	cases := map[string]hooks{
		"serve-map": {point: func(s pointStore) pointStore { return &corruptGets{pointStore: s} }},
		"batch-map": {batch: func(s batchStore) batchStore { return &corruptSuccs{batchStore: s} }},
	}
	for wl, h := range cases {
		t.Run(wl, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.json")
			var stdout, stderr bytes.Buffer
			code := execute(config{workload: wl, seed: 3, seconds: 1, hooks: h}, out, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("the refused run wrote %s", out)
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("the refused run printed a result line:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), "nothing recorded") {
				t.Errorf("stderr does not report the refusal: %s", stderr.String())
			}
		})
	}
}

// TestBatchMapModelRepeats checks that model_msgs_per_op and
// model_io_per_op are exact functions of the seed.
func TestBatchMapModelRepeats(t *testing.T) {
	model := func() (float64, float64) {
		b := newBatchMap(11, nil, hooks{}).(*batchMap)
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(plan{windows: 1})
		rec.win.Store(1) // past the only window: run just the model cycles
		b.load(rec)
		if err := rec.error(); err != nil {
			t.Fatal(err)
		}
		if err := b.shutdown(); err != nil {
			t.Fatal(err)
		}
		return b.modelPerOp()
	}
	m1, io1 := model()
	m2, io2 := model()
	if m1 != m2 || io1 != io2 || !(m1 > 0 && io1 > 0) {
		t.Errorf("same seed gave msgs/op %v and %v, io/op %v and %v", m1, m2, io1, io2)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload registries.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why %q, registry %q", w.Name, w.Why, workloads[i].why)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, registry %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		var listed []metricDef
		for _, d := range defs {
			if d.listed {
				listed = append(listed, d)
			}
		}
		if len(got) != len(listed) {
			t.Fatalf("%s: %d metrics, registry lists %d", kind, len(got), len(listed))
		}
		for i, m := range got {
			d := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d] = %s %s %s, registry %s %s %s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if d.e2e && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, registry %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	thr, _ := lookupMetric("throughput_ops_s")
	lat, _ := lookupMetric("latency_p99_us")
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scale := func(f float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	rev := slices.Clone(base)
	slices.Reverse(rev)
	wide := []float64{50, 150, 80, 120, 60, 140, 70, 130, 90, 110}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", thr, base, rev, verdictWithin},
		{"slightly slower", thr, base, scale(0.95), verdictWithin},
		{"consistently a little faster", thr, base, scale(1.02), verdictBetter},
		{"faster", thr, base, scale(1.3), verdictBetter},
		{"slower", thr, base, scale(0.5), verdictWorse},
		{"lower latency", lat, base, scale(0.7), verdictBetter},
		{"higher latency", lat, base, scale(1.5), verdictWorse},
		{"noisy baseline", thr, wide, scale(1.0), verdictUnresolved},
		{"noisy but every run better", thr, wide, scale(2), verdictBetter},
		{"noisy but every pair ties", thr, wide, wide, verdictWithin},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestChildArgs(t *testing.T) {
	got := childArgs([]string{"--workload", "all", "--seed", "4", "--out=x.json", "-seconds", "2"}, "serve-map")
	want := []string{"--workload", "serve-map", "--seed", "4", "-seconds", "2"}
	if !slices.Equal(got, want) {
		t.Errorf("childArgs = %v, want %v", got, want)
	}
}
