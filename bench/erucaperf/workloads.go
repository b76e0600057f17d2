package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/exp"
	"eruca/internal/memctrl"
	"eruca/internal/osmem"
	"eruca/internal/search"
	"eruca/internal/sim"
	"eruca/internal/workload"
)

// workloadDef is one benchmark workload. BENCHMARK.json and the README
// record why each one is in the benchmark.
type workloadDef struct {
	// setup builds once what the workload constructs before its first
	// operation and returns how long that took.
	setup func(e *env) (time.Duration, error)
	// run executes whole rounds of operations until e.seconds of
	// calibrated time have passed, checking every output.
	run func(e *env, st *opStats) error
}

// Each workload stresses a different layer, so that a change to one
// layer moves one workload and leaves another flat.
var workloads = map[string]workloadDef{
	"mix0-eruca": {
		setup: func(e *env) (time.Duration, error) { return buildChain(mixOpts(e, 0)) },
		run:   runMix,
	},
	"alone-ddr4": {
		setup: func(e *env) (time.Duration, error) { return buildChain(aloneOpts(e, workload.Names()[0])) },
		run:   runAlone,
	},
	"search-frag50": {
		setup: func(e *env) (time.Duration, error) { return buildChain(searchSetupOpts(e)) },
		run:   runSearch,
	},
	"service-mix": {
		setup: timeServerSetup,
		run:   runService,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// scale sizes the workloads. fullScale is the benchmark; the smoke test
// runs a tiny one.
type scale struct {
	mixInstrs   int64   // mix0-eruca measured instructions per core
	aloneInstrs int64   // alone-ddr4 measured instructions
	searchBase  int64   // search-frag50 base-rung instructions per core
	searchFrag  float64 // search-frag50 fragmentation (FMFI)
	searchDims  []string
	svcDiv      int64 // service-mix jobs run the callers' instruction budgets divided by this
	setupBuilds int   // timed set-up builds, after one discarded
	fragReps    int   // osmem replay repetitions
}

var fullScale = scale{
	mixInstrs:   100_000,
	aloneInstrs: 1_000_000,
	searchBase:  4000,
	searchFrag:  0.5,
	searchDims:  []string{"planes", "ddb", "ewlr", "rap", "page_policy"},
	svcDiv:      6,
	setupBuilds: 9,
	fragReps:    5,
}

const busMHz = config.DefaultBusMHz

var mix0 = mustMix("mix0")

func mustMix(name string) workload.Mix {
	m, err := workload.MixByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// --- mix0-eruca -----------------------------------------------------------

// mixOpts is the k-th simulation of a mix0-eruca round (seed s+k).
func mixOpts(e *env, k int) sim.Options {
	n := e.sc.mixInstrs
	return sim.Options{Sys: config.VSB(4, true, true, true, busMHz), Benches: mix0.Bench,
		Instrs: n, Warmup: n / 2, Frag: 0.1, Seed: e.seed + int64(k)}
}

// runMix cycles through seeds s, s+1 and s+2, one simulation per round
// and operation; a repeated seed must reproduce its first result
// exactly.
func runMix(e *env, st *opStats) error {
	return untilDeadline(e, st, func(i int) error {
		opt := mixOpts(e, i%3)
		raw, cal := runSim(e, st, fmt.Sprintf("s+%d", i%3), opt)
		st.op(raw, cal, simulatedInstrs(opt))
		return nil
	})
}

// --- alone-ddr4 -----------------------------------------------------------

// aloneOpts is the sim.Options exp.Runner.AloneIPC builds for bench.
func aloneOpts(e *env, bench string) sim.Options {
	return sim.Options{Sys: config.Baseline(busMHz), Benches: []string{bench},
		Instrs: e.sc.aloneInstrs, Frag: 0.1, Seed: e.seed}
}

// runAlone's operation is one round: the ten alone simulations behind
// every weighted speedup.
func runAlone(e *env, st *opStats) error {
	return untilDeadline(e, st, func(int) error {
		var raw, cal time.Duration
		var instrs int64
		for _, b := range workload.Names() {
			opt := aloneOpts(e, b)
			r, c := runSim(e, st, b, opt)
			raw, cal, instrs = raw+r, cal+c, instrs+simulatedInstrs(opt)
		}
		st.op(raw, cal, instrs)
		return nil
	})
}

// runSim runs one simulation, records its exact counts under label,
// and returns its wall and calibrated time. The first simulation of the
// run is the representative one the traced run's layer replays start
// from.
func runSim(e *env, st *opStats, label string, opt sim.Options) (raw, cal time.Duration) {
	sp := e.tr.Start(e.root, "sim.Run", label)
	pr, err := runPlain(opt)
	sp.End()
	cal = st.calibrate(pr.dur)
	e.rep.check(err)
	if err == nil {
		recordSim(e.rep, label, pr.res)
		if st.rep.opt == nil {
			st.rep = repRun{opt: &opt, plain: pr}
		}
	}
	return pr.dur, cal
}

// simulatedInstrs counts warm-up plus measured instructions over all
// cores.
func simulatedInstrs(opt sim.Options) int64 {
	w := opt.Warmup
	if w == 0 {
		w = opt.Instrs / 2
	}
	return (opt.Instrs + w) * int64(len(opt.Benches))
}

// recordSim records a simulation's exact counts.
func recordSim(r *report, label string, res *sim.Result) {
	d := res.DRAM
	r.exact(label+".bus_cycles", strconv.FormatInt(res.BusCycles, 10))
	r.exact(label+".ipc", floats(res.IPC))
	r.exact(label+".achieved_fmfi", ftoa(res.AchievedFMFI))
	for _, c := range []struct {
		k string
		v uint64
	}{
		{"acts", d.Acts}, {"reads", d.Reads}, {"writes", d.Writes}, {"pres", d.Pres},
		{"refreshes", d.Refreshes}, {"ewlr_hits", d.ActsEWLRHit}, {"plane_conflict_pres", d.PlaneConfPre},
		{"rap_redirects", d.RAPRedirects}, {"ddb_saved_ck", d.DDBSavedCK},
	} {
		r.exact(label+"."+c.k, strconv.FormatUint(c.v, 10))
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floats(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = ftoa(v)
	}
	return strings.Join(s, ",")
}

// buildChain times the public constructor chain a simulation runs
// before its first cycle: the address mapper, the fragmented OS memory
// and one process per core, the workload generators, the cache
// hierarchy, and one DRAM channel plus controller per channel.
func buildChain(opt sim.Options) (time.Duration, error) {
	sys := opt.Sys
	t := time.Now()
	mapper := addrmap.New(sys)
	mem := osmem.NewMemory(sys.Geom.TotalBytes(), opt.Seed)
	mem.Fragment(opt.Frag)
	for i, name := range opt.Benches {
		p, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		mem.NewProcess(true, opt.Seed*1000003+int64(i))
		workload.New(p, opt.Seed*7919+int64(i))
	}
	if _, err := cache.New(cacheConfig(sys, len(opt.Benches))); err != nil {
		return 0, err
	}
	for c := 0; c < sys.Geom.Channels; c++ {
		memctrl.New(sys, dram.NewChannel(sys, mapper.RowBits()))
	}
	return time.Since(t), nil
}

func cacheConfig(sys *config.System, cores int) cache.Config {
	return cache.Config{
		Cores: cores, L1Bytes: sys.CPU.L1Bytes, L1Ways: sys.CPU.L1Ways,
		LLCBytes: sys.CPU.LLCBytesPerCore * sys.CPU.Cores, LLCWays: sys.CPU.LLCWays,
		LineBytes: sys.Geom.LineBytes,
	}
}

// --- search-frag50 --------------------------------------------------------

// searchSpec has neighbourhood refinement off, so every seed evaluates
// the same 32 + 16 + 8 (point, rung) shape and only the points differ.
func searchSpec(e *env) search.Spec {
	spec := search.Spec{Frag: e.sc.searchFrag, Seed: e.seed, Instrs: e.sc.searchBase * 16, Rungs: 3, RefineRounds: -1}
	if spec.Seed == 0 {
		spec.Seed = 1 // the engine rejects an unseeded spec
	}
	for _, d := range e.sc.searchDims {
		spec.Dims = append(spec.Dims, search.DimSpec{Name: d})
	}
	return spec
}

// searchSetupOpts builds the default design point (full ERUCA) at the
// search's fragmentation.
func searchSetupOpts(e *env) sim.Options {
	sys, err := search.SystemFor(defaultPoint(), busMHz)
	if err != nil {
		panic(err) // the defaults always resolve
	}
	return sim.Options{Sys: sys, Benches: mix0.Bench, Instrs: e.sc.searchBase, Frag: e.sc.searchFrag, Seed: e.seed}
}

func defaultPoint() map[string]string {
	a, err := search.ParseAssignment(nil)
	if err != nil {
		panic(err)
	}
	return a
}

func runSearch(e *env, st *opStats) error {
	spec := searchSpec(e)
	// Fragment's garbage keeps the collector busy on the second core (a
	// third of the profile), so the clock calibrates both: over ten
	// interleaved seeds this cut the run-to-run deviation from 3.9% to
	// 1.6%. The single-core workloads gained nothing from it.
	st.clock.cores = 2
	return untilDeadline(e, st, func(i int) error {
		// A fresh evaluator per round: RunnerEval caches results, and a
		// repeated search must simulate again. The first round runs to
		// the end; a later one stops at the deadline, and its partial
		// result is not checked.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ev := &timedEval{e: e, st: st,
			inner: search.NewRunnerEval(exp.Params{Seed: e.seed, Parallel: 1}, mix0, spec.Frag, busMHz)}
		if i > 0 {
			ev.stop = cancel
		}
		sp := e.tr.Start(e.root, "search.Run", "search")
		res, err := search.Run(ctx, spec, search.Options{Eval: ev, Parallel: 1})
		sp.End()
		if i > 0 && ctx.Err() != nil {
			return nil
		}
		e.rep.check(err)
		if err != nil {
			return nil
		}
		front, err := json.Marshal(res.Frontier)
		if err != nil {
			return err
		}
		e.rep.exact("search.points", strconv.Itoa(res.PointsEvaluated))
		e.rep.exact("search.failures", strconv.Itoa(res.Failures))
		e.rep.exact("search.frontier_size", strconv.Itoa(len(res.Frontier)))
		e.rep.exact("search.frontier", string(front))
		if st.rep.opt == nil && ev.rep != nil {
			st.rep = ev.rep.asRep(e)
		}
		return nil
	})
}

// timedEval wraps the search Evaluator, timing every evaluation. It
// keeps the representative evaluation: the cheapest rung's point with
// the smallest key (the engine's evaluation order varies from run to
// run).
type timedEval struct {
	e     *env
	st    *opStats
	inner search.Evaluator
	stop  context.CancelFunc // ends the round once the deadline has passed; nil on the first round

	mu  sync.Mutex
	rep *evalRecord
}

type evalRecord struct {
	key    string
	sys    *config.System
	instrs int64
	m      search.Metrics
}

func (t *timedEval) Eval(ctx context.Context, key string, a map[string]string, instrs int64) (search.Metrics, error) {
	sp := t.e.tr.Start(t.e.root, "eval", key)
	start := time.Now()
	m, err := t.inner.Eval(ctx, key, a, instrs)
	d := time.Since(start)
	sp.End()
	opt := sim.Options{Benches: mix0.Bench, Instrs: instrs}
	t.st.op(d, t.st.calibrate(d), simulatedInstrs(opt))
	if t.stop != nil && t.st.elapsed() >= t.e.seconds {
		t.stop()
	}
	t.e.rep.check(err)
	if err != nil {
		return m, err
	}
	sys, err := search.SystemFor(a, busMHz)
	if err != nil {
		return m, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.rep; r == nil || instrs < r.instrs || (instrs == r.instrs && key < r.key) {
		t.rep = &evalRecord{key: key, sys: sys, instrs: instrs, m: m}
	}
	return m, nil
}

// asRep is the simulation RunnerEval ran for the record, checked
// against the score it gave.
func (r *evalRecord) asRep(e *env) repRun {
	opt := sim.Options{Sys: r.sys, Benches: mix0.Bench, Instrs: r.instrs, Frag: e.sc.searchFrag, Seed: e.seed}
	return repRun{opt: &opt, check: func(res *sim.Result) error {
		if got := search.MetricsFor(r.sys, res); got != r.m {
			return fmt.Errorf("search: replayed point %s scores %+v, evaluator gave %+v", r.key, got, r.m)
		}
		return nil
	}}
}

// --- service-mix ----------------------------------------------------------

// runService drives erucad for the run's seconds. The traced run splits
// them: an untraced half, then a traced half whose spans give the
// server-layer metrics and the tracing overhead.
func runService(e *env, st *opStats) error {
	if e.trace {
		return serverLayer(e, e.seconds/2, st)
	}
	_, err := serviceLoop(e, nil, e.seconds, st)
	return err
}
