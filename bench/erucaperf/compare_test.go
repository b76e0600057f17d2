package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns n values spread evenly within ±jitter of center.
func runs(n int, center, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + jitter*(2*float64(i)/float64(n-1)-1)
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		sameHost     bool
		want         string
	}{
		{"steady, unchanged", runs(10, 100, 2), runs(10, 101, 2), true, true, "within bound"},
		{"throughput drops 20%", runs(10, 100, 2), runs(10, 80, 2), true, true, "regression"},
		{"latency rises 20%", runs(10, 100, 2), runs(10, 120, 2), false, true, "regression"},
		{"latency falls 20%", runs(10, 100, 2), runs(10, 80, 2), false, true, "improved"},
		{"spread wider than bound", runs(10, 100, 30), runs(10, 80, 30), true, true, "unresolved"},
		{"noisy but every run better", runs(10, 100, 30), runs(10, 200, 30), true, true, "improved"},
		{"different machines", runs(10, 100, 2), runs(10, 50, 2), true, false, "refused: hosts differ"},
		{"too few runs", runs(9, 100, 2), runs(10, 100, 2), true, true, "too few runs (need 10 per side)"},
	} {
		v := judge(c.a, c.b, 0.1, c.higherBetter, c.sameHost)
		if v.Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, spreads %.3f/%.3f), want %q",
				c.name, v.Verdict, v.Worse, v.A.Spread, v.B.Spread, c.want)
		}
	}
}

// compareDirs judges the timed runs' metrics and requires the exact
// counts of a (workload, seed, trace) run to match across the sides.
func TestCompareDirs(t *testing.T) {
	def := benchDef{EndToEnd: []benchMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}

	write := func(dir string, seed int64, ops float64, exact string, h *host) {
		r := newReport("mix0-eruca", seed, false, 10)
		r.Host = h
		r.add("ops_per_s", ops, "1/s", false, "")
		r.Exact["s+0.bus_cycles"] = exact
		if err := writeJSONFile(filepath.Join(dir, fmt.Sprintf("r%d.json", seed)), r); err != nil {
			t.Fatal(err)
		}
	}
	box := &host{CPU: "box", NProc: 2, GOMAXPROCS: 2}
	a, b := t.TempDir(), t.TempDir()
	for i := int64(1); i <= 10; i++ {
		write(a, i, 100+float64(i)/10, "1000", box)
		exact := "1000"
		if i == 3 {
			exact = "1001"
		}
		write(b, i, 70+float64(i)/10, exact, box)
	}
	cmp, err := compareDirs(a, b, def)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Metrics) != 1 || cmp.Metrics[0].Verdict != "regression" {
		t.Fatalf("metrics = %+v, want one regression", cmp.Metrics)
	}
	mismatched := 0
	for _, ev := range cmp.Exact {
		if len(ev.Diffs) > 0 {
			mismatched++
			if ev.Seed != 3 {
				t.Errorf("unexpected mismatch at seed %d: %v", ev.Seed, ev.Diffs)
			}
		}
	}
	if len(cmp.Exact) != 10 || mismatched != 1 {
		t.Errorf("exact verdicts %d with %d mismatches, want 10 with 1", len(cmp.Exact), mismatched)
	}

	// Another machine: host times are refused, counts still compared.
	write(b, 1, 70, "1000", &host{CPU: "other", NProc: 8, GOMAXPROCS: 8})
	if cmp, err = compareDirs(a, b, def); err != nil {
		t.Fatal(err)
	}
	if v := cmp.Metrics[0].Verdict; v != "refused: hosts differ" {
		t.Errorf("cross-host verdict %q", v)
	}

	var out, errOut bytes.Buffer
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeJSONFile(bench, def); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(a, b, bench, "", &out, &errOut); code != 1 || !strings.Contains(out.String(), "EXACT MISMATCH") {
		t.Errorf("runCompare exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
}
