package exp

import (
	"fmt"

	"eruca/internal/config"
	"eruca/internal/sim"
	"eruca/internal/stats"
	"eruca/internal/workload"
)

// attributionLadder is the mechanism ladder the Attribution table walks:
// baseline DDR4, then the ERUCA mechanisms switched on one at a time up
// to the full configuration, plus the Ideal32 upper bound. Each step
// isolates one mechanism so its counters explain the speedup delta from
// the previous rung.
func attributionLadder(planes int) []*config.System {
	const mhz float64 = config.DefaultBusMHz
	return []*config.System{
		config.Baseline(mhz),
		config.VSB(planes, false, false, true, mhz), // +VSB sub-banks +DDB
		config.VSB(planes, true, false, true, mhz),  // +EWLR
		config.VSB(planes, false, true, true, mhz),  // RAP instead of EWLR
		config.VSB(planes, true, true, true, mhz),   // full ERUCA
		config.Ideal32(mhz),                         // upper bound
	}
}

// mechTotals sums the mechanism counters of one system across every
// configured mix.
type mechTotals struct {
	d      sim.Result // only DRAM is used
	normWS float64
	ok     bool
}

// Attribution reproduces the Fig. 13-style table with a per-mechanism
// attribution breakdown: for every rung of the mechanism ladder it
// reports the gmean normalized weighted speedup, the delta to the
// previous rung, and the deterministic mechanism counters — EWLR hit
// rate, plane-conflict precharge fraction, partial precharges, RAP
// redirects per thousand ACTs, and DDB bus cycles saved per column
// command — so each speedup step is accounted for by the counters of
// the mechanism that produced it. Counters come from dram.Stats, which
// is always on; no tracing is required.
func (r *Runner) Attribution(planes int, frag float64) (*Table, error) {
	systems := attributionLadder(planes)
	r.warmNormWS(systems, frag)
	c := &collector{}
	t := &Table{
		Title: fmt.Sprintf("Mechanism attribution: VSB ladder, %d planes (FMFI %.0f%%)", planes, frag*100),
		Header: []string{"system", "normWS", "Δprev", "ewlr-hit", "plane-conf",
			"partial", "rap/kACT", "ddb-ck/col", "row-hit"},
	}

	prev := 0.0
	for i, sys := range systems {
		tot := r.mechTotals(sys, frag, c)
		row := []string{sys.Name}
		if !tot.ok {
			row = append(row, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			t.Rows = append(t.Rows, row)
			continue
		}
		delta := ""
		if i > 0 && prev > 0 {
			delta = fmt.Sprintf("%+.3f", tot.normWS-prev)
		}
		prev = tot.normWS

		d := &tot.d.DRAM
		row = append(row,
			f3(tot.normWS),
			delta,
			pct(stats.Ratio(float64(d.ActsEWLRHit), float64(d.Acts))),
			pct(stats.Ratio(float64(d.PlaneConfPre), float64(d.Pres))),
			pct(stats.Ratio(float64(d.PartialPres), float64(d.Pres))),
			f1(1000*stats.Ratio(float64(d.RAPRedirects), float64(d.Acts))),
			fmt.Sprintf("%.2f", stats.Ratio(float64(d.DDBSavedCK), float64(d.Reads+d.Writes))),
			pct(tot.d.RowHitRate()),
		)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Each rung adds one mechanism; Δprev is the speedup it buys and the counters name its cause:",
		"ewlr-hit = ACTs reusing a driven MWL (the Vpp activations saved), plane-conf = precharges",
		"forced by latch conflicts (Fig. 13b), rap/kACT = RAP-dodged collisions per 1000 ACTs,",
		"ddb-ck/col = single-bus tCCD_L/tWTR_L cycles the dual data bus recovered per column command.")
	return c.finish(t)
}

// mechTotals aggregates NormWS (gmean) and the summed DRAM mechanism
// counters of one system across the configured mixes, recording
// failures in the collector.
func (r *Runner) mechTotals(sys *config.System, frag float64, c *collector) mechTotals {
	var tot mechTotals
	var ws []float64
	ok := true
	for _, mix := range r.Mixes() {
		v, err := r.NormWS(sys, mix, frag)
		if err != nil {
			c.cell("", sysKey(sys)+"/"+mix.Name, err)
			ok = false
			continue
		}
		ws = append(ws, v)
		res, err := r.Result(sys, mix, frag)
		if err != nil {
			c.cell("", sysKey(sys)+"/"+mix.Name, err)
			ok = false
			continue
		}
		tot.d.DRAM.Add(res.DRAM)
	}
	tot.ok = ok && len(ws) > 0
	tot.normWS = stats.GeoMean(ws)
	return tot
}

// ensure workload import is used even if Mixes() changes shape.
var _ = []workload.Mix(nil)
