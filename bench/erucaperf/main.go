// Command erucaperf is the repository's performance benchmark: it runs
// one workload of the simulator or of the erucad service in this
// process, checks its outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// The timed run (-trace 0) reports the end-to-end metrics with all
// tracing off. The traced run (-trace 1) reports the per-layer metrics:
// it records harness spans around every call into a layer, profiles the
// workload, and replays each layer's real input through the layer's
// public functions. See bench/README.md for the workloads and metrics.
//
// Usage, from anywhere inside the repository:
//
//	go -C bench run ./erucaperf -workload mix0-eruca -seed 42 -seconds 15 -trace 0 -out r.json
//	go -C bench run ./erucaperf -compare [-out cmp.json] A/ B/
//
// The defaults of -golden, -benchmark and -artifacts are resolved
// against the repository root, the nearest directory upwards holding
// BENCHMARK.json.
//
// The simulator is not validated against hardware measurements, so no
// error figure accompanies the simulated statistics it checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"eruca/internal/obs"
)

// unvalidated is printed with every run: the repository holds no
// hardware reference results, so simulated statistics carry no error
// figure.
const unvalidated = "model: unvalidated against hardware measurements; no simulator error figure is given"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("erucaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := repoRoot()
	var (
		name      = fs.String("workload", "", "workload: "+workloadNames())
		seed      = fs.Int64("seed", 42, "workload seed; every input is derived from it")
		seconds   = fs.Float64("seconds", 15, "run whole rounds of the workload until this many calibrated seconds have passed")
		trace     = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = timed run reporting the end-to-end metrics")
		out       = fs.String("out", "", "also write the host-stamped result as JSON to this file")
		artifacts = fs.String("artifacts", filepath.Join(root, "bench", ".bench_build"), "directory for traces, profiles and scratch WAL directories")
		golden    = fs.String("golden", filepath.Join(root, "bench", "golden", "seed42.json"), "golden exact counts checked at seed 42")
		update    = fs.Bool("update", false, "rewrite this workload's golden exact counts (seed 42 only)")
		compare   = fs.Bool("compare", false, "compare two directories of -out results: erucaperf -compare [-out file] A/ B/")
		benchJSON = fs.String("benchmark", filepath.Join(root, "BENCHMARK.json"), "benchmark definition holding each metric's bound (-compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "erucaperf: -compare takes two result directories")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *benchJSON, *out, stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "erucaperf: bad arguments; see -help")
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "erucaperf: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *update && *seed != goldenSeed {
		fmt.Fprintf(stderr, "erucaperf: -update needs -seed %d\n", goldenSeed)
		return 2
	}
	if err := os.MkdirAll(*artifacts, 0o755); err != nil {
		fmt.Fprintln(stderr, "erucaperf:", err)
		return 1
	}

	e := &env{
		name: *name, seed: *seed, trace: *trace == 1, sc: fullScale, dir: *artifacts,
		seconds: time.Duration(*seconds * float64(time.Second)),
		rep:     newReport(*name, *seed, *trace == 1, *seconds),
	}
	if err := measure(e, w); err != nil {
		fmt.Fprintln(stderr, "erucaperf:", err)
		return 1
	}
	if err := checkGolden(e.rep, *golden, *update); err != nil {
		fmt.Fprintln(stderr, "erucaperf:", err)
		return 1
	}
	if *out != "" {
		e.rep.Host = hostStamp(root)
		if err := writeJSONFile(*out, e.rep); err != nil {
			fmt.Fprintln(stderr, "erucaperf:", err)
			return 1
		}
	}
	e.rep.print(stdout)
	return 0
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json, or "." when there is none.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// env is one benchmark run: its inputs, scale and output.
type env struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	sc      scale
	dir     string
	// tr records harness spans around every call into a layer; nil on
	// the timed run, where every span call is a free no-op. root parents
	// the spans of the workload's own operations.
	tr   *obs.Tracer
	root obs.SpanContext
	// spans collects the daemon's spans for the Perfetto file.
	spans []obs.Span
	rep   *report
}

// measure runs workload w: set-up timing and end-to-end metrics on the
// timed run, layer replays and profile shares on the traced one.
func measure(e *env, w workloadDef) error {
	if !e.trace {
		setups, err := timeSetups(e, w)
		if err != nil {
			return err
		}
		e.rep.add("setup_s", median(durationsMS(setups))/1e3, "s", false, fmt.Sprintf("calibrated; median of %d", len(setups)))
		st := &opStats{}
		if err := w.run(e, st); err != nil {
			return err
		}
		st.endToEnd(e.rep)
		e.rep.add("max_rss_mb", maxRSSMB(), "MB", false, "")
		return nil
	}
	return measureTraced(e, w)
}

// timeSetups times sc.setupBuilds builds of the workload's set-up after
// one discarded build, in calibrated time. Each build starts from a
// collected heap, so the previous build's garbage does not land in its
// time.
func timeSetups(e *env, w workloadDef) ([]time.Duration, error) {
	var ds []time.Duration
	var clock calClock
	for i := 0; i <= e.sc.setupBuilds; i++ {
		runtime.GC()
		clock.tick()
		d, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		scale := clock.tick()
		if i > 0 {
			ds = append(ds, time.Duration(float64(d)*scale))
		}
	}
	return ds, nil
}

// opStats accumulates the workload's operations: one simulation, one
// search evaluation, or one cold erucad submission. Durations are
// calibrated; the clock holds the run's calibrated and wall time.
type opStats struct {
	mu        sync.Mutex
	clock     calClock
	durs, raw []time.Duration
	simInstrs int64 // simulated instructions, warm-up included, all cores
	clients   int   // concurrent callers issuing the operations
	rep       repRun
}

// op records an operation that took wall time raw and calibrated time
// cal.
func (st *opStats) op(raw, cal time.Duration, instrs int64) {
	st.mu.Lock()
	st.durs = append(st.durs, cal)
	st.raw = append(st.raw, raw)
	st.simInstrs += instrs
	st.mu.Unlock()
}

// calibrate ends an interval of a single caller that held an operation
// of wall time d: it ticks the clock and returns d in calibrated time.
func (st *opStats) calibrate(d time.Duration) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return time.Duration(float64(d) * st.clock.tick())
}

// elapsed is the calibrated time credited so far.
func (st *opStats) elapsed() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.clock.cal
}

// rate is the operations per calibrated second.
func (st *opStats) rate() float64 { return float64(len(st.durs)) / st.clock.cal.Seconds() }

func (st *opStats) endToEnd(r *report) {
	n := len(st.durs)
	cal, wall := st.clock.cal.Seconds(), st.clock.wall.Seconds()
	minstrs := float64(st.simInstrs) / 1e6
	note := func(wallValue float64) string {
		return fmt.Sprintf("calibrated; wall %.4g; n=%d", wallValue, n)
	}
	r.add("sim_minstrs_per_s", minstrs/cal, "Minstr/s", false, note(minstrs/wall))
	r.add("ops_per_s", st.rate(), "1/s", false, note(float64(n)/wall))
}

// perLayer reports the harness view of the operations on the traced run.
func (st *opStats) perLayer(r *report) {
	ms := durationsMS(st.durs)
	var busy float64
	for _, v := range ms {
		busy += v
	}
	tv, p := tail(ms)
	r.add("op.p50_ms", median(ms), "ms", true, fmt.Sprintf("n=%d; wall %.4g", len(ms), median(durationsMS(st.raw))))
	r.add("op.tail_ms", tv, "ms", true, fmt.Sprintf("p%g of n=%d", p*100, len(ms)))
	r.add("op.count", float64(len(ms)), "count", true, "")
	r.add("op.outside_frac", 1-busy/(st.clock.cal.Seconds()*1e3*float64(max(st.clients, 1))), "frac", true,
		"share of caller time outside operations")
}

// untilDeadline runs round at least once and then again until the run's
// seconds of calibrated time have passed, so that a run holds about the
// same work however fast the host is at the moment. The clock starts
// here; each operation inside a round ticks it as it ends.
func untilDeadline(e *env, st *opStats, round func(i int) error) error {
	st.clients = 1
	st.clock.tick()
	for i := 0; i == 0 || st.elapsed() < e.seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// metric is one named measurement. Layer marks a per-layer metric of
// the traced run; the others are end-to-end metrics of the timed run.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Layer bool    `json:"layer"`
	Note  string  `json:"note,omitempty"`
}

// report is one run's outcome; the service clients update it
// concurrently.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Model     string            `json:"model"`
	Host      *host             `json:"host,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   []metric          `json:"metrics"`
	Exact     map[string]string `json:"exact"`

	mu sync.Mutex
}

func newReport(name string, seed int64, trace bool, seconds float64) *report {
	return &report{Workload: name, Seed: seed, Trace: trace, Seconds: seconds, Model: unvalidated,
		Exact: make(map[string]string)}
}

func (r *report) add(name string, v float64, unit string, layer bool, note string) {
	r.mu.Lock()
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Layer: layer, Note: note})
	r.mu.Unlock()
}

// check counts one attempted operation and records err as its failure.
func (r *report) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// exact records a value that must repeat exactly for a given seed.
// Recording the same key twice with different values is a failure: the
// run is not deterministic.
func (r *report) exact(key, v string) {
	r.mu.Lock()
	old, seen := r.Exact[key]
	if !seen {
		r.Exact[key] = v
	}
	r.mu.Unlock()
	if seen {
		var err error
		if old != v {
			err = fmt.Errorf("%s: %s, earlier %s", key, v, old)
		}
		r.check(err)
	}
}

// print writes every metric and exact count, then the summary line
// holding the metrics of this run's kind.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# erucaperf workload=%s seed=%d trace=%v seconds=%g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Fprintf(w, "# %s\n", r.Model)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	line := map[string]any{}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-36s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
		if m.Layer == r.Trace {
			line[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	keys := make([]string, 0, len(r.Exact))
	for k := range r.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "exact %s %s\n", k, r.Exact[k])
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": line,
	})
	fmt.Fprintf(w, "%s\n", b)
}

// maxRSSMB reports the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
