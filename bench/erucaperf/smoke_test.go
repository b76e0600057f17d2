package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tinyScale runs every workload end to end in about a second; its
// search fragments memory less, because Fragment at FMFI 0.5 alone
// costs a tenth of a second.
var tinyScale = scale{
	mixInstrs:   2000,
	aloneInstrs: 2000,
	searchBase:  250,
	searchFrag:  0.1,
	searchDims:  []string{"planes"},
	svcDiv:      60,
	setupBuilds: 1,
	fragReps:    1,
}

func readBenchDef(t *testing.T) benchDef {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// Every workload, timed and traced, must emit exactly the metrics
// BENCHMARK.json names for that kind of run, with their units, and pass
// its own output checks.
func TestSmokeEmitsEveryBenchmarkMetric(t *testing.T) {
	def := readBenchDef(t)
	var names []string
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, erucaperf has %d", len(names), len(workloads))
	}
	sort.Strings(names)

	for _, name := range names {
		for _, trace := range []bool{false, true} {
			e := &env{name: name, seed: 7, trace: trace, sc: tinyScale, dir: t.TempDir(),
				rep: newReport(name, 7, trace, 0)}
			start := time.Now()
			if err := measure(e, workloads[name]); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			t.Logf("%s trace=%v: %v", name, trace, time.Since(start).Round(time.Millisecond))
			if e.rep.Failed > 0 || e.rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", name, trace, e.rep.Failed, e.rep.Attempted, e.rep.Failures)
			}
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			got := map[string]string{}
			for _, m := range e.rep.Metrics {
				if m.Layer == trace {
					got[m.Name] = m.Unit
				}
			}
			for _, m := range want {
				unit, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
				case unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, trace, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for extra := range got {
				t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", name, trace, extra)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(e.dir, name+".trace.json")); err != nil {
					t.Errorf("%s: no Perfetto trace: %v", name, err)
				}
			}
		}
	}
}

// At the golden seed a missing or differing exact count fails a check;
// -update merges the run's counts into the file.
func TestGoldenCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	r := newReport("mix0-eruca", goldenSeed, false, 0)
	r.Exact["s+0.bus_cycles"] = "100"
	if err := checkGolden(r, path, true); err != nil {
		t.Fatal(err)
	}
	r2 := newReport("mix0-eruca", goldenSeed, false, 0)
	r2.Exact["s+0.bus_cycles"] = "101"
	r2.Exact["s+1.bus_cycles"] = "100"
	if err := checkGolden(r2, path, false); err != nil {
		t.Fatal(err)
	}
	if r2.Failed != 2 || r2.Attempted != 2 {
		t.Errorf("failed %d of %d checks, want 2 of 2: %v", r2.Failed, r2.Attempted, r2.Failures)
	}
	other := newReport("mix0-eruca", 7, false, 0)
	other.Exact["s+0.bus_cycles"] = "5"
	if err := checkGolden(other, path, false); err != nil || other.Attempted != 0 {
		t.Errorf("another seed is not checked against the golden counts: %v, %d checks", err, other.Attempted)
	}
}
