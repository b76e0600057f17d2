// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md and micro-benchmarks of the hot simulator paths.
//
// The figure benchmarks run scaled-down versions (fewer instructions,
// a mix subset) so the whole suite finishes in minutes; cmd/erucabench
// runs the full-scale versions. Figures of merit (speedups, conflict
// fractions) are attached via b.ReportMetric, so
//
//	go test -bench=Fig -benchtime=1x
//
// prints the reproduced numbers next to the timing.
package eruca_test

import (
	"strconv"
	"testing"

	"eruca"

	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/config"
	"eruca/internal/core"
	"eruca/internal/exp"
	"eruca/internal/osmem"
	"eruca/internal/sim"
	"eruca/internal/workload"
)

// benchParams scales figure reproductions for bench runs.
func benchParams() exp.Params {
	return exp.Params{Instrs: 40_000, Seed: 42, Mixes: []string{"mix0", "mix5"}}
}

const benchFrag = 0.1

func reportGMean(b *testing.B, r *exp.Runner, sys *config.System) {
	b.Helper()
	g, err := r.GMeanNormWS(sys, benchFrag)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(g, "normWS:"+sys.Name)
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(config.GenerationSpecs()); got != 4 {
			b.Fatalf("generations = %d", got)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		t, err := r.Fig4(benchFrag)
		if err != nil {
			b.Fatal(err)
		}
		two, _ := strconv.ParseFloat(t.Rows[0][1][:len(t.Rows[0][1])-1], 64)
		b.ReportMetric(two, "conflict%@2planes")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Fig11()
		if len(t.Rows) != 4 {
			b.Fatal("fig11 rows")
		}
	}
	sys, _ := eruca.NewSystem("vsb-ewlr-rap-ddb", 4, 0)
	b.ReportMetric(eruca.AreaOverhead(sys.Scheme)*100, "area%@4P")
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		reportGMean(b, r, config.VSB(4, false, false, false, config.DefaultBusMHz))
		reportGMean(b, r, config.VSB(4, true, true, true, config.DefaultBusMHz))
		reportGMean(b, r, config.Ideal32(config.DefaultBusMHz))
	}
}

func BenchmarkFig13a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		for _, planes := range []int{2, 16} {
			reportGMean(b, r, config.VSB(planes, true, true, true, config.DefaultBusMHz))
		}
	}
}

func BenchmarkFig13b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		t, err := r.Fig13b(benchFrag)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("fig13b rows")
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		for _, mhz := range []float64{1333, 2400} {
			reportGMean(b, r, config.VSB(4, true, true, true, mhz))
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		reportGMean(b, r, config.HalfDRAM(config.DefaultBusMHz))
		reportGMean(b, r, config.MASA(8, config.DefaultBusMHz))
		reportGMean(b, r, config.MASAERUCA(8, 4, true, config.DefaultBusMHz))
	}
}

func BenchmarkFig16a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		t, err := r.Fig16a(benchFrag)
		if err != nil {
			b.Fatal(err)
		}
		mean, _ := strconv.ParseFloat(t.Rows[0][1], 64)
		b.ReportMetric(mean, "ddr4-qlat-ns")
	}
}

func BenchmarkFig16b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchParams())
		if _, err := r.Fig16b(benchFrag); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of DESIGN.md design choices ---

func ablationRun(b *testing.B, sys *config.System) float64 {
	b.Helper()
	res, err := sim.Run(sim.Options{
		Sys: sys, Benches: []string{"mcf", "lbm", "omnetpp", "gemsFDTD"},
		Instrs: 60_000, Frag: benchFrag, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.BusCycles)
}

// Plane-ID bit placement (Fig. 9 #1 vs #2) under EWLR without RAP.
func BenchmarkAblationPlaneBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		low := config.VSB(4, true, false, true, config.DefaultBusMHz) // PlaneBitsLow by rule
		high := config.VSB(4, true, false, true, config.DefaultBusMHz)
		high.Scheme.PlaneBits = config.PlaneBitsHigh
		b.ReportMetric(ablationRun(b, low), "cycles-planebits-low")
		b.ReportMetric(ablationRun(b, high), "cycles-planebits-high")
	}
}

// EWLR offset width: more LWL_SEL latch bits widen the hit window at
// higher latch cost.
func BenchmarkAblationEWLRWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{2, 3, 4} {
			sys := config.VSB(4, true, true, true, config.DefaultBusMHz)
			sys.Scheme.EWLRBits = bits
			b.ReportMetric(ablationRun(b, sys), "cycles-ewlr"+strconv.Itoa(bits))
		}
	}
}

// Sub-bank select hashing: XOR-folded vs a plain dedicated bit.
func BenchmarkAblationSubbankHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hashed := config.VSB(4, true, true, true, config.DefaultBusMHz)
		plain := config.VSB(4, true, true, true, config.DefaultBusMHz)
		plain.Scheme.SubHashDisabled = true
		b.ReportMetric(ablationRun(b, hashed), "cycles-subhash")
		b.ReportMetric(ablationRun(b, plain), "cycles-plainsub")
	}
}

// Page policy: adaptive open (timeout) vs keep-open vs near-closed.
func BenchmarkAblationPagePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, idle := range []int{0, 1200, 40} {
			sys := config.VSB(4, true, true, true, config.DefaultBusMHz)
			sys.Ctrl.ClosePageIdleCK = idle
			b.ReportMetric(ablationRun(b, sys), "cycles-idle"+strconv.Itoa(idle))
		}
	}
}

// Scheduler: FR-FCFS (row hits first) vs plain FCFS.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frfcfs := config.VSB(4, true, true, true, config.DefaultBusMHz)
		fcfs := config.VSB(4, true, true, true, config.DefaultBusMHz)
		fcfs.Ctrl.HitFirstDisabled = true
		b.ReportMetric(ablationRun(b, frfcfs), "cycles-frfcfs")
		b.ReportMetric(ablationRun(b, fcfs), "cycles-fcfs")
	}
}

// Two-command windows at 2.4GHz: enforcing tTCW/tTWTRW vs an idealized
// (unbuildable) dual bus.
func BenchmarkAblationTTCW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real := config.VSB(4, true, true, true, 2400)
		ideal := config.VSB(4, true, true, true, 2400)
		ideal.CT.TwoCommandWindowsOn = false
		ideal.CT.TCW = 0
		ideal.CT.TWTRW = 0
		b.ReportMetric(ablationRun(b, real), "cycles-ttcw")
		b.ReportMetric(ablationRun(b, ideal), "cycles-nottcw")
	}
}

// --- Micro-benchmarks of hot paths ---

func BenchmarkAddrMap(b *testing.B) {
	m := addrmap.New(config.VSB(4, true, true, true, config.DefaultBusMHz))
	var sink addrmap.Loc
	for i := 0; i < b.N; i++ {
		sink = m.Map(uint64(i) * 0x9E3779B9 & (1<<35 - 1))
	}
	_ = sink
}

// BenchmarkFragment is the set-up every simulation pays: a fresh buddy
// allocator over the simulated physical memory, fragmented to the
// paper's two FMFI levels.
func BenchmarkFragment(b *testing.B) {
	total := config.Baseline(config.DefaultBusMHz).Geom.TotalBytes()
	for _, target := range []float64{0.1, 0.5} {
		b.Run("fmfi="+strconv.FormatFloat(target, 'g', -1, 64), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = osmem.NewMemory(total, 42).Fragment(target)
			}
			_ = sink
		})
	}
}

func BenchmarkPlaneDecide(b *testing.B) {
	sch := config.VSB(4, true, true, true, config.DefaultBusMHz).Scheme
	p := core.NewPlaneLogic(sch, 16)
	other := core.SubState{Active: true, Row: 0x1234}
	var sink core.Decision
	for i := 0; i < b.N; i++ {
		sink = p.Decide(uint32(i)&0xFFFF, i&1, core.SubState{}, other)
	}
	_ = sink
}

func BenchmarkCacheAccess(b *testing.B) {
	h := cache.MustNew(cache.Config{
		Cores: 4, L1Bytes: 32 << 10, L1Ways: 8,
		LLCBytes: 4 << 20, LLCWays: 16, LineBytes: 64,
	})
	for i := 0; i < b.N; i++ {
		h.Access(i&3, uint64(i*37)&0xFFFFF, i&7 == 0)
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	p, _ := workload.ByName("mcf")
	g := workload.New(p, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkSimThroughput reports simulated instructions per second and
// allocations of the full stack across a system matrix (stock DDR4 vs
// the full ERUCA configuration) in both run-loop modes, so the win from
// event-driven cycle skipping is measured directly:
//
//	go test -bench SimThroughput -benchtime 3x
//
// Alongside the throughput numbers it reports the deterministic
// mechanism counters of the measured run (plane-conflict precharges,
// EWLR hits, RAP redirects, DDB bus cycles saved). Like buscycles,
// these are simulation *results*, not speeds. The benchmark of record,
// with exact-count goldens gated in CI, is bench/erucaperf.
func BenchmarkSimThroughput(b *testing.B) {
	const simInstrs = 50_000
	benches := []string{"mcf", "lbm", "omnetpp", "gemsFDTD"}
	systems := []struct {
		name string
		sys  func() *config.System
	}{
		{"ddr4", func() *config.System { return config.Baseline(config.DefaultBusMHz) }},
		{"vsb-ewlr-rap-ddb", func() *config.System { return config.VSB(4, true, true, true, config.DefaultBusMHz) }},
	}
	modes := []struct {
		name string
		noFF bool
	}{
		{"fastforward", false},
		{"percycle", true},
	}
	for _, s := range systems {
		for _, m := range modes {
			b.Run(s.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles float64
				var mech [4]float64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Options{
						Sys: s.sys(), Benches: benches,
						Instrs: simInstrs, Frag: benchFrag, Seed: 42,
						NoFastForward: m.noFF,
					})
					if err != nil {
						b.Fatal(err)
					}
					cycles = float64(res.BusCycles)
					d := &res.DRAM
					mech = [4]float64{
						float64(d.PlaneConfPre), float64(d.ActsEWLRHit),
						float64(d.RAPRedirects), float64(d.DDBSavedCK),
					}
				}
				b.ReportMetric(cycles, "buscycles")
				b.ReportMetric(mech[0], "planeconf")
				b.ReportMetric(mech[1], "ewlrhits")
				b.ReportMetric(mech[2], "rapredir")
				b.ReportMetric(mech[3], "ddbsavedck")
				b.ReportMetric(float64(b.N)*float64(len(benches))*simInstrs/b.Elapsed().Seconds(), "instrs/s")
			})
		}
	}
}
