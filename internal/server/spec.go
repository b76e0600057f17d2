// Package server turns the ERUCA evaluation engine into a long-lived
// simulation-as-a-service daemon: a JSON HTTP API over a bounded
// priority job queue, a worker pool that shares singleflight-cached
// exp.Runners (concurrent duplicate submissions collapse to one
// simulation), a content-addressed result cache with optional on-disk
// persistence, live progress streaming over SSE, Prometheus-text
// metrics, and graceful drain on shutdown.
//
// The subsystem exists because design-space studies amortize: thousands
// of near-duplicate configuration points (VSB/EWLR/RAP/DDB sweeps of
// Sec. VII-VIII) hit the same (system, mix, frag) simulations, so
// dedup, caching and admission control dominate end-to-end throughput
// once more than one client is asking.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"eruca/internal/cli"
	"eruca/internal/config"
	"eruca/internal/exp"
	"eruca/internal/search"
	"eruca/internal/sim"
	"eruca/internal/workload"
)

// JobSpec is the wire format of POST /v1/jobs: one simulation ("sim"),
// one experiment table ("sweep"), one design-space autotuning run
// ("search"), or one design-point evaluation ("eval", the unit a search
// fans out). The zero values of the scaling knobs inherit the daemon
// defaults, so a minimal spec is {"kind":"sim","system":"ddr4","mix":"mix0"}.
type JobSpec struct {
	// Kind selects the job type: "sim", "sweep", "search", or "eval".
	Kind string `json:"kind"`

	// Sim jobs: one preset against a mix or ad-hoc benchmark list.
	System  string   `json:"system,omitempty"`
	Mix     string   `json:"mix,omitempty"`
	Benches []string `json:"benches,omitempty"`

	// Sweep jobs: a named experiment (fig4, locality, fig12, fig13a,
	// fig13b, fig14, fig15, fig16a, fig16b, ablations, attribution,
	// gddr5, tab1, tab2, tab3, fig11, repair, sweep). Exp "sweep"
	// tabulates the Systems list; "attribution" walks the mechanism
	// ladder with Planes planes; Mixes restricts the workload mixes of
	// any sweep.
	Exp     string   `json:"exp,omitempty"`
	Systems []string `json:"systems,omitempty"`
	Mixes   []string `json:"mixes,omitempty"`

	// Search jobs: the autotuner spec (internal/search). The search seed
	// lives inside it — the engine rejects an unseeded spec — while the
	// shared Seed below still seeds the underlying simulations.
	Search *search.Spec `json:"search,omitempty"`

	// Eval jobs: one canonical design-point assignment (dimension name
	// -> ladder value, "-" for masked dimensions), evaluated at Instrs
	// on Mix/Frag. Searches submit these; clients can too.
	Point map[string]string `json:"point,omitempty"`

	// Shared scaling knobs (defaults: planes 4, stock bus, 250k instrs,
	// warmup instrs/2, seed 42).
	Planes int     `json:"planes,omitempty"`
	BusMHz float64 `json:"bus_mhz,omitempty"`
	Instrs int64   `json:"instrs,omitempty"`
	Warmup int64   `json:"warmup,omitempty"`
	Frag   float64 `json:"frag"`
	Seed   int64   `json:"seed,omitempty"`

	// Robustness options, same syntax as the CLI flags of the same
	// names (internal/cli.Robust validates both).
	Check    string `json:"check,omitempty"`
	Watchdog int64  `json:"watchdog,omitempty"`
	Latency  int64  `json:"latency,omitempty"`
	Faults   string `json:"faults,omitempty"`

	// Service knobs; excluded from the content hash because they do not
	// affect the result.
	Priority  int   `json:"priority,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalized returns the spec with every default made explicit, so two
// specs that mean the same job hash identically.
func (s JobSpec) normalized() JobSpec {
	n := s
	if n.Kind == "" {
		n.Kind = "sim"
	}
	if n.Kind == "sim" && n.System == "" {
		n.System = "ddr4"
	}
	if n.Kind == "sim" && n.Mix == "" && len(n.Benches) == 0 {
		n.Mix = "mix0"
	}
	if n.Kind == "sweep" && n.Exp == "" {
		n.Exp = "fig12"
	}
	if n.Kind == "eval" && n.Mix == "" {
		n.Mix = "mix0"
	}
	if n.Kind == "eval" && len(n.Point) > 0 {
		// Spellings of one design point (a masked dimension given a
		// value, a default left out) are one point; an invalid point is
		// left for Validate to reject.
		if a, err := search.ParseAssignment(n.Point); err == nil {
			n.Point = a
		}
	}
	if n.Kind == "search" && n.Search != nil {
		// The search spec normalizes its own defaults so two specs that
		// mean the same search hash identically (same rule as the job
		// fields below).
		ns := n.Search.Normalize()
		n.Search = &ns
	}
	if n.Planes == 0 {
		n.Planes = 4
	}
	if n.BusMHz == 0 {
		n.BusMHz = config.DefaultBusMHz
	}
	if n.Instrs == 0 {
		n.Instrs = exp.DefaultParams().Instrs
	}
	if n.Warmup == 0 {
		n.Warmup = n.Instrs / 2
	}
	if n.Seed == 0 {
		n.Seed = exp.DefaultParams().Seed
	}
	if n.Check == "" {
		n.Check = "off"
	}
	// Service knobs are not part of the content identity.
	n.Priority, n.TimeoutMS = 0, 0
	return n
}

// Hash is the content address of the spec: SHA-256 over the canonical
// JSON of the normalized spec. Two submissions with equal hashes are
// guaranteed to produce byte-identical results, which is what lets the
// result cache and the singleflight runner collapse them.
func (s JobSpec) Hash() string {
	b, err := json.Marshal(s.normalized())
	if err != nil {
		// JobSpec contains only marshalable fields; failure here is a
		// programmer error, but a degraded unique key keeps the daemon up.
		return fmt.Sprintf("unhashable-%p", &b)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// groupKey identifies the exp.Runner parameter group the spec executes
// under: every knob that is Runner-wide rather than per-call. Specs in
// the same group share one singleflight Runner (and therefore its
// simulation cache); specs in different groups must not, because their
// results legitimately differ.
func (s JobSpec) groupKey() string {
	n := s.normalized()
	return fmt.Sprintf("i%d|w%d|s%d|m%s|c%s|wd%d|l%d|f%s",
		n.Instrs, n.Warmup, n.Seed, strings.Join(n.Mixes, ","), n.Check, n.Watchdog, n.Latency, n.Faults)
}

// params builds the exp.Params of the spec's runner group.
func (s JobSpec) params() (exp.Params, error) {
	n := s.normalized()
	rb := cli.Robust{CheckMode: n.Check, WatchdogBudget: n.Watchdog, LatencyCeiling: n.Latency, FaultSpec: n.Faults}
	copts, wd, plan, err := rb.Build()
	if err != nil {
		return exp.Params{}, err
	}
	p := exp.Params{Instrs: n.Instrs, Warmup: n.Warmup, Seed: n.Seed, Mixes: n.Mixes,
		Watchdog: wd, Faults: plan}
	if copts != nil {
		p.Check = copts.Mode
	}
	return p, nil
}

// sweeps maps experiment names to table builders; "sweep" additionally
// consumes the Systems list.
var sweeps = map[string]func(r *exp.Runner, frag float64) (*exp.Table, error){
	"tab1":      func(*exp.Runner, float64) (*exp.Table, error) { return exp.Tab1(), nil },
	"tab2":      func(*exp.Runner, float64) (*exp.Table, error) { return exp.Tab2(), nil },
	"tab3":      func(*exp.Runner, float64) (*exp.Table, error) { return exp.Tab3(), nil },
	"fig11":     func(*exp.Runner, float64) (*exp.Table, error) { return exp.Fig11(), nil },
	"repair":    func(*exp.Runner, float64) (*exp.Table, error) { return exp.Repair(), nil },
	"fig4":      (*exp.Runner).Fig4,
	"locality":  (*exp.Runner).Locality,
	"fig12":     (*exp.Runner).Fig12,
	"fig13a":    (*exp.Runner).Fig13a,
	"fig13b":    (*exp.Runner).Fig13b,
	"fig14":     (*exp.Runner).Fig14,
	"fig15":     (*exp.Runner).Fig15,
	"fig16a":    (*exp.Runner).Fig16a,
	"fig16b":    (*exp.Runner).Fig16b,
	"ablations": (*exp.Runner).Ablations,
	"gddr5":     (*exp.Runner).GDDR5,
}

// Validate rejects malformed specs at admission time (HTTP 400), before
// they cost a queue slot: unknown kinds/experiments, unknown presets or
// benchmarks, and invalid robustness options.
func (s JobSpec) Validate() error {
	n := s.normalized()
	if _, err := n.params(); err != nil {
		return err
	}
	switch n.Kind {
	case "sim":
		if _, err := config.ByName(n.System, n.Planes, n.BusMHz); err != nil {
			return err
		}
		if _, err := n.benches(); err != nil {
			return err
		}
	case "sweep":
		if _, ok := sweeps[n.Exp]; !ok && n.Exp != "sweep" && n.Exp != "attribution" {
			return fmt.Errorf("server: unknown experiment %q", n.Exp)
		}
		if n.Exp == "sweep" {
			if _, err := cli.ParseSystems(strings.Join(n.Systems, ","), n.Planes, n.BusMHz); err != nil {
				return err
			}
		}
		if _, err := cli.ParseMixes(strings.Join(n.Mixes, ",")); err != nil {
			return err
		}
	case "search":
		if n.Search == nil {
			return fmt.Errorf("server: search job missing the \"search\" spec")
		}
		if _, err := n.Search.Validate(); err != nil {
			return err
		}
		if _, err := workload.MixByName(n.Search.Normalize().Mix); err != nil {
			return err
		}
	case "eval":
		if len(n.Point) == 0 {
			return fmt.Errorf("server: eval job missing the design point")
		}
		if _, err := search.ParseAssignment(n.Point); err != nil {
			return err
		}
		if _, err := workload.MixByName(n.Mix); err != nil {
			return err
		}
	default:
		return fmt.Errorf("server: unknown job kind %q (want sim, sweep, search, or eval)", n.Kind)
	}
	if n.Frag < 0 || n.Frag > 1 {
		return fmt.Errorf("server: frag %.2f out of range [0,1]", n.Frag)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("server: negative timeout_ms")
	}
	return nil
}

// benches resolves the sim-job workload via the shared CLI rule.
func (s JobSpec) benches() ([]string, error) {
	return cli.Workload{Mix: s.Mix, Bench: strings.Join(s.Benches, ",")}.Benches("mix0")
}

// SimSummary is the deterministic JSON result of a "sim" job — the
// fields of sim.Result that serialize stably.
type SimSummary struct {
	System       string    `json:"system"`
	Benches      []string  `json:"benches"`
	IPC          []float64 `json:"ipc"`
	MPKI         []float64 `json:"mpki"`
	BusCycles    int64     `json:"bus_cycles"`
	ElapsedNS    float64   `json:"elapsed_ns"`
	RowHitRate   float64   `json:"row_hit_rate"`
	PlaneConfPre float64   `json:"plane_conflict_pre_frac"`
	Acts         uint64    `json:"acts"`
	Reads        uint64    `json:"reads"`
	Writes       uint64    `json:"writes"`
	Pres         uint64    `json:"pres"`
	Refreshes    uint64    `json:"refreshes"`
	EnergyNJ     float64   `json:"energy_nj"`
	QueueLatMean float64   `json:"queue_lat_mean_ns"`
	HugeCoverage float64   `json:"huge_coverage"`
	AchievedFMFI float64   `json:"achieved_fmfi"`
	Faults       int       `json:"faults_injected,omitempty"`
	Violations   int       `json:"protocol_violations,omitempty"`
	Partial      bool      `json:"partial,omitempty"`
}

func summarize(res *sim.Result) *SimSummary {
	d := res.DRAM
	return &SimSummary{
		System: res.System, Benches: res.Benches,
		IPC: res.IPC, MPKI: res.MPKI,
		BusCycles: res.BusCycles, ElapsedNS: res.ElapsedNS,
		RowHitRate: res.RowHitRate(), PlaneConfPre: res.PlaneConflictPreFrac(),
		Acts: d.Acts, Reads: d.Reads, Writes: d.Writes, Pres: d.Pres, Refreshes: d.Refreshes,
		EnergyNJ: res.Energy.TotalNJ(), QueueLatMean: res.QueueLat.Mean(),
		HugeCoverage: res.HugeCoverage, AchievedFMFI: res.AchievedFMFI,
		Faults: res.FaultsInjected, Violations: len(res.Protocol), Partial: res.Partial,
	}
}

// EvalSummary is the deterministic JSON result of an "eval" job: the
// three autotuner objectives of one canonical design point. The search
// engine parses this to score points, so the encoding (like SimSummary)
// is part of the wire contract.
type EvalSummary struct {
	Point    string  `json:"point"`
	Instrs   int64   `json:"instrs"`
	IPC      float64 `json:"ipc"`
	EnergyNJ float64 `json:"energy_nj"`
	AreaPct  float64 `json:"area_pct"`
}

// execute runs the spec on the given (context- and log-scoped) runner
// view and returns the rendered result: canonical JSON for a sim or
// eval job, a formatted text table for a sweep ("search" jobs never
// reach here — Server.runSearch drives the engine, which fans out into
// "eval" executions). The output depends only on the normalized spec,
// never on cache state or concurrency — the property the
// content-addressed cache relies on.
func execute(ctx context.Context, r *exp.Runner, spec JobSpec) (string, error) {
	n := spec.normalized()
	switch n.Kind {
	case "eval":
		a, err := search.ParseAssignment(n.Point)
		if err != nil {
			return "", err
		}
		sys, err := search.SystemFor(a, n.BusMHz)
		if err != nil {
			return "", err
		}
		mix, err := workload.MixByName(n.Mix)
		if err != nil {
			return "", err
		}
		res, err := r.Result(sys, mix, n.Frag)
		if err != nil {
			return "", err
		}
		m := search.MetricsFor(sys, res)
		b, err := json.MarshalIndent(EvalSummary{
			Point: search.Key(a), Instrs: n.Instrs,
			IPC: m.IPC, EnergyNJ: m.EnergyNJ, AreaPct: m.AreaPct,
		}, "", "  ")
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	case "sim":
		sys, err := config.ByName(n.System, n.Planes, n.BusMHz)
		if err != nil {
			return "", err
		}
		benches, err := n.benches()
		if err != nil {
			return "", err
		}
		mix := workload.Mix{Name: strings.Join(benches, "+"), Bench: benches}
		res, err := r.Result(sys, mix, n.Frag)
		if err != nil {
			return "", err
		}
		b, err := json.MarshalIndent(summarize(res), "", "  ")
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	case "sweep":
		var (
			t   *exp.Table
			err error
		)
		switch n.Exp {
		case "sweep":
			var systems []*config.System
			systems, err = cli.ParseSystems(strings.Join(n.Systems, ","), n.Planes, n.BusMHz)
			if err != nil {
				return "", err
			}
			t, err = r.Sweep(systems, n.Frag)
		case "attribution":
			// Per-mechanism speedup attribution; Planes sizes the ladder.
			t, err = r.Attribution(n.Planes, n.Frag)
		default:
			t, err = sweeps[n.Exp](r, n.Frag)
		}
		// A canceled sweep must not be served from a half-built table;
		// other per-cell failures (SweepError) still return the annotated
		// table alongside the error.
		if err != nil && t != nil && ctx.Err() == nil {
			return t.Format(), err
		}
		if err != nil {
			return "", err
		}
		return t.Format(), nil
	}
	return "", fmt.Errorf("server: unknown job kind %q", n.Kind)
}
