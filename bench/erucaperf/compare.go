package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minRuns is how many runs per side -compare needs for a metric.
const minRuns = 10

// benchDef is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchMetric is one metric of BENCHMARK.json; per-layer metrics have
// no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// side summarises one side's runs of a metric.
type side struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarise(xs []float64) side {
	q1, med, q3 := quartiles(xs)
	return side{N: len(xs), Q1: q1, Median: med, Q3: q3, Spread: spread(xs)}
}

// metricVerdict is the comparison of one (workload, metric) pair.
// Worse is B's median change against A's as a share of A's, positive
// when B is worse.
type metricVerdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        side    `json:"a"`
	B        side    `json:"b"`
	Worse    float64 `json:"worse"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// exactVerdict compares the exact counts of one (workload, seed, trace)
// run present on both sides.
type exactVerdict struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Keys     int      `json:"keys"`
	Diffs    []string `json:"diffs,omitempty"`
}

type comparison struct {
	HostA   *host           `json:"host_a"`
	HostB   *host           `json:"host_b"`
	Metrics []metricVerdict `json:"metrics"`
	Exact   []exactVerdict  `json:"exact"`
}

// judge applies the rule for one metric. Host times from different
// machines are refused. When either side's spread exceeds the bound the
// metric is unresolved, unless every B run beats every A run. Otherwise
// B regresses when its median is worse than A's by more than the bound.
func judge(a, b []float64, bound float64, higherBetter, sameHost bool) metricVerdict {
	v := metricVerdict{A: summarise(a), B: summarise(b), Bound: bound}
	if len(a) > 0 && len(b) > 0 {
		v.Worse = (v.B.Median - v.A.Median) / math.Abs(v.A.Median)
		if higherBetter {
			v.Worse = -v.Worse
		}
	}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	switch {
	case len(a) < minRuns || len(b) < minRuns:
		v.Verdict = fmt.Sprintf("too few runs (need %d per side)", minRuns)
	case !sameHost:
		v.Verdict = "refused: hosts differ"
	case v.A.Spread > bound || v.B.Spread > bound:
		v.Verdict = "unresolved"
		bestA, worstB := a[0], b[0]
		for _, x := range a {
			if better(x, bestA) {
				bestA = x
			}
		}
		for _, x := range b {
			if better(worstB, x) {
				worstB = x
			}
		}
		if better(worstB, bestA) {
			v.Verdict = "improved"
		}
	case v.Worse > bound:
		v.Verdict = "regression"
	case -v.Worse > bound:
		v.Verdict = "improved"
	default:
		v.Verdict = "within bound"
	}
	return v
}

// compareDirs compares the end-to-end metrics of the timed runs and the
// exact counts of every run in two directories of -out results.
func compareDirs(dirA, dirB string, def benchDef) (*comparison, error) {
	ra, err := readResults(dirA)
	if err != nil {
		return nil, err
	}
	rb, err := readResults(dirB)
	if err != nil {
		return nil, err
	}
	cmp := &comparison{HostA: ra[0].Host, HostB: rb[0].Host}
	sameHost := true
	for _, r := range append(ra, rb...) {
		sameHost = sameHost && r.Host.sameMachine(cmp.HostA)
	}

	values := func(rs []*report, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload != workload || r.Trace {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	for _, w := range workloadsIn(ra, rb) {
		for _, m := range def.EndToEnd {
			v := judge(values(ra, w, m.Name), values(rb, w, m.Name), m.Bound, m.Better == "higher", sameHost)
			v.Workload, v.Metric = w, m.Name
			cmp.Metrics = append(cmp.Metrics, v)
		}
	}

	type runKey struct {
		w     string
		seed  int64
		trace bool
	}
	exactA := map[runKey]map[string]string{}
	for _, r := range ra {
		exactA[runKey{r.Workload, r.Seed, r.Trace}] = r.Exact
	}
	seen := map[runKey]bool{}
	for _, r := range rb {
		k := runKey{r.Workload, r.Seed, r.Trace}
		a, ok := exactA[k]
		if !ok || seen[k] {
			continue
		}
		seen[k] = true
		ev := exactVerdict{Workload: k.w, Seed: k.seed, Trace: k.trace, Keys: len(a)}
		for _, key := range unionKeys(a, r.Exact) {
			if a[key] != r.Exact[key] {
				ev.Diffs = append(ev.Diffs, fmt.Sprintf("%s: %q vs %q", key, a[key], r.Exact[key]))
			}
		}
		cmp.Exact = append(cmp.Exact, ev)
	}
	sort.Slice(cmp.Exact, func(i, j int) bool {
		x, y := cmp.Exact[i], cmp.Exact[j]
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.Seed != y.Seed {
			return x.Seed < y.Seed
		}
		return !x.Trace && y.Trace
	})
	return cmp, nil
}

// runCompare is the -compare command: it prints one line per
// (workload, metric) and per mismatching exact run, writes the whole
// comparison to out when set, and fails on a regression or a mismatch.
func runCompare(dirA, dirB, benchJSON, out string, stdout, stderr io.Writer) int {
	var def benchDef
	b, err := os.ReadFile(benchJSON)
	if err == nil {
		err = json.Unmarshal(b, &def)
	}
	if err != nil {
		fmt.Fprintln(stderr, "erucaperf: benchmark definition:", err)
		return 1
	}
	cmp, err := compareDirs(dirA, dirB, def)
	if err != nil {
		fmt.Fprintln(stderr, "erucaperf:", err)
		return 1
	}
	bad := false
	fmt.Fprintf(stdout, "%-14s %-18s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "bound", "verdict")
	for _, v := range cmp.Metrics {
		fmt.Fprintf(stdout, "%-14s %-18s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %+7.2f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.A.Median, v.A.Q1, v.A.Q3, v.B.Median, v.B.Q1, v.B.Q3, v.Worse*100, v.Bound*100, v.Verdict)
		bad = bad || v.Verdict == "regression"
	}
	for _, ev := range cmp.Exact {
		verdict := "exact counts match"
		if len(ev.Diffs) > 0 {
			verdict = fmt.Sprintf("EXACT MISMATCH: %v", ev.Diffs)
			bad = true
		}
		fmt.Fprintf(stdout, "%-14s seed %-6d trace=%-5v %d keys: %s\n", ev.Workload, ev.Seed, ev.Trace, ev.Keys, verdict)
	}
	if out != "" {
		if err := writeJSONFile(out, cmp); err != nil {
			fmt.Fprintln(stderr, "erucaperf:", err)
			return 1
		}
	}
	if bad {
		return 1
	}
	return 0
}

func readResults(dir string) ([]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(b, r); err != nil || r.Workload == "" {
			continue // not a result file
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

func workloadsIn(sides ...[]*report) []string {
	set := map[string]bool{}
	for _, rs := range sides {
		for _, r := range rs {
			set[r.Workload] = true
		}
	}
	var out []string
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func unionKeys(a, b map[string]string) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
