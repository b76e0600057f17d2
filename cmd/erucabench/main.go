// Command erucabench regenerates the tables and figures of the ERUCA
// paper's evaluation. Each experiment prints a text table alongside the
// paper's reported numbers for comparison.
//
// Examples:
//
//	erucabench -exp fig12 -instrs 250000
//	erucabench -exp all -frag 0.1 -parallel 8
//	erucabench -exp fig13a -frag 0.5 -mixes mix0,mix2,mix4,mix6
//	erucabench -exp fig12 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"eruca/internal/check"
	"eruca/internal/cli"
	"eruca/internal/exp"
	"eruca/internal/search"
	"eruca/internal/workload"
)

func main() {
	os.Exit(run())
}

// run holds the whole program so deferred profile writers execute even
// on failure exits (os.Exit in main would skip them).
func run() int {
	var (
		which    = flag.String("exp", "all", "experiment: tab1, tab2, tab3, fig4, fig11, fig12, fig13a, fig13b, fig14, fig15, fig16a, fig16b, locality, ablations, attribution, repair, gddr5, search, all")
		planes   = flag.Int("planes", 4, "plane count for the attribution ladder")
		instrs   = flag.Int64("instrs", 250_000, "measured instructions per core")
		warmup   = flag.Int64("warmup", 0, "warmup instructions per core (default instrs/2)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		frag     = flag.Float64("frag", 0.1, "memory fragmentation (FMFI)")
		mixes    = flag.String("mixes", "", "comma-separated mix subset (default all nine)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations (tables are identical at any setting)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		chart    = flag.Bool("chart", false, "render numeric results as bar charts too")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var rb cli.Robust
	rb.Register()
	var tr cli.Trace
	tr.Register()
	var sr cli.Search
	sr.Register()
	var lg cli.Log
	lg.Register()
	flag.Parse()

	logger, err := lg.Build(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erucabench:", err)
		return cli.ExitUsage
	}
	copts, wd, plan, err := rb.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "erucabench:", err)
		return cli.ExitUsage
	}
	tel, err := tr.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "erucabench:", err)
		return cli.ExitUsage
	}
	defer func() {
		if err := tr.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
		}
	}()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprof == "" {
			return
		}
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
		}
	}()

	p := exp.Params{Instrs: *instrs, Warmup: *warmup, Seed: *seed, Parallel: *parallel,
		Watchdog: wd, Faults: plan, Telemetry: tel}
	if copts != nil {
		p.Check = copts.Mode
	}
	p.Mixes, err = cli.ParseMixes(*mixes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erucabench:", err)
		return cli.ExitUsage
	}
	if !*quiet {
		p.Log = func(s string) { logger.Info(s) }
	}
	// -exp search is the autotuner entry: it explores the -search-dims
	// space instead of replaying a fixed figure, printing the Pareto
	// frontier table (and scatter with -chart). Deterministic in
	// (-search-*, -seed): byte-identical output at any -parallel.
	if *which == "search" {
		mixName := "mix0"
		if len(p.Mixes) > 0 {
			mixName = p.Mixes[0]
		}
		spec, err := sr.Spec(mixName, *frag, 0, *seed, *instrs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
			return cli.ExitUsage
		}
		mix, err := workload.MixByName(mixName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erucabench:", err)
			return cli.ExitUsage
		}
		ev := search.NewRunnerEval(p, mix, *frag, 0)
		start := time.Now()
		res, err := search.Run(context.Background(), spec, search.Options{
			Eval: ev, Parallel: *parallel, Log: p.Log,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "erucabench: search:", err)
			cli.WriteCrashDump(rb.CrashDump, err, nil)
			return cli.ExitCode(err)
		}
		fmt.Println(res.Table().Format())
		if *chart {
			if c := res.Chart(); c != "" {
				fmt.Println(c)
			}
		}
		if !*quiet {
			launched, joined := ev.Counters()
			fmt.Fprintf(os.Stderr, "  [search evaluated %d points: %d simulations, %d cache joins, %.1fs]\n",
				res.PointsEvaluated, launched, joined, time.Since(start).Seconds())
		}
		return cli.ExitOK
	}

	r := exp.NewRunner(p)

	type experiment struct {
		name string
		run  func() (*exp.Table, error)
	}
	static := func(t *exp.Table) func() (*exp.Table, error) {
		return func() (*exp.Table, error) { return t, nil }
	}
	all := []experiment{
		{"tab1", static(exp.Tab1())},
		{"tab2", static(exp.Tab2())},
		{"tab3", static(exp.Tab3())},
		{"fig4", func() (*exp.Table, error) { return r.Fig4(*frag) }},
		{"locality", func() (*exp.Table, error) { return r.Locality(*frag) }},
		{"fig11", static(exp.Fig11())},
		{"fig12", func() (*exp.Table, error) { return r.Fig12(*frag) }},
		{"fig13a", func() (*exp.Table, error) { return r.Fig13a(*frag) }},
		{"fig13b", func() (*exp.Table, error) { return r.Fig13b(*frag) }},
		{"fig14", func() (*exp.Table, error) { return r.Fig14(*frag) }},
		{"fig15", func() (*exp.Table, error) { return r.Fig15(*frag) }},
		{"fig16a", func() (*exp.Table, error) { return r.Fig16a(*frag) }},
		{"fig16b", func() (*exp.Table, error) { return r.Fig16b(*frag) }},
		{"ablations", func() (*exp.Table, error) { return r.Ablations(*frag) }},
		{"attribution", func() (*exp.Table, error) { return r.Attribution(*planes, *frag) }},
		{"repair", static(exp.Repair())},
		{"gddr5", func() (*exp.Table, error) { return r.GDDR5(*frag) }},
	}

	selected := all
	if *which != "all" {
		selected = nil
		for _, e := range all {
			if e.name == *which {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			var names []string
			for _, e := range all {
				names = append(names, e.name)
			}
			fmt.Fprintf(os.Stderr, "erucabench: unknown experiment %q (valid: %s, search, all)\n",
				*which, strings.Join(names, ", "))
			return 2
		}
	}

	// Experiments run to completion even when jobs fail: a *exp.SweepError
	// still carries an annotated table (ERR cells), so it prints, the
	// remaining experiments still run, and the process exits non-zero with
	// the first failure's classified code.
	exit := cli.ExitOK
	var firstErr error
	for _, e := range selected {
		start := time.Now()
		t, err := e.run()
		if t != nil {
			fmt.Println(t.Format())
			if *chart {
				if c := t.Chart(); c != "" {
					fmt.Println(c)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "erucabench: %s: %v\n", e.name, err)
			if firstErr == nil {
				firstErr = err
				exit = cli.ExitCode(err)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [%s took %.1fs]\n", e.name, time.Since(start).Seconds())
		}
	}
	// Log-mode checker feed: every violation recorded across the cached
	// results, for the run log and the crash dump.
	if lines := r.Protocol(); len(lines) > 0 {
		fmt.Fprintf(os.Stderr, "erucabench: %d protocol violation(s) logged:\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
		if firstErr == nil && p.Check == check.Fail {
			exit = cli.ExitProtocol
		}
	}
	if firstErr != nil {
		cli.WriteCrashDump(rb.CrashDump, firstErr, nil)
	}
	return exit
}
