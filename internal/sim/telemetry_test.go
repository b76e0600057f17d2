package sim

import (
	"sync"
	"testing"

	"eruca/internal/config"
	"eruca/internal/telemetry"
)

// compareTelemetry asserts a run with a live telemetry Set is
// indistinguishable from the bare run: identical audited command stream
// and identical results. This is the design contract of the telemetry
// package — purely observational, never a timing input.
func compareTelemetry(t *testing.T, sys func() *config.System, benches []string) *telemetry.Set {
	t.Helper()
	bare, err := Run(ffOptions(sys(), benches, false))
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}
	tel := telemetry.New()
	opt := ffOptions(sys(), benches, false)
	opt.Telemetry = tel
	traced, err := Run(opt)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	if len(bare.AuditCommands) != len(traced.AuditCommands) {
		t.Fatalf("channel count differs: %d vs %d", len(bare.AuditCommands), len(traced.AuditCommands))
	}
	for ch := range bare.AuditCommands {
		b, tr := bare.AuditCommands[ch], traced.AuditCommands[ch]
		if len(b) != len(tr) {
			t.Fatalf("channel %d: command count differs: bare %d vs traced %d", ch, len(b), len(tr))
		}
		for i := range b {
			if b[i] != tr[i] {
				t.Fatalf("channel %d: command %d differs:\nbare:   %+v at %d\ntraced: %+v at %d",
					ch, i, b[i].Cmd, b[i].At, tr[i].Cmd, tr[i].At)
			}
		}
	}
	if bare.BusCycles != traced.BusCycles {
		t.Errorf("BusCycles differ: %d vs %d", bare.BusCycles, traced.BusCycles)
	}
	if bare.DRAM != traced.DRAM {
		t.Errorf("DRAM stats differ:\nbare:   %+v\ntraced: %+v", bare.DRAM, traced.DRAM)
	}
	if bare.Energy != traced.Energy {
		t.Errorf("energy differs:\nbare:   %+v\ntraced: %+v", bare.Energy, traced.Energy)
	}
	for i := range bare.IPC {
		if bare.IPC[i] != traced.IPC[i] {
			t.Errorf("core %d IPC differs: %v vs %v", i, bare.IPC[i], traced.IPC[i])
		}
	}
	if bare.QueueLat.N() != traced.QueueLat.N() || bare.QueueLat.Mean() != traced.QueueLat.Mean() {
		t.Errorf("queue-latency distribution differs")
	}

	// The Set's totals are the measured dram.Stats, handed over once.
	counters := tel.Snapshot(0).Counters
	traced.DRAM.Each(func(name string, v uint64) {
		if got := counters[name]; got != v {
			t.Errorf("telemetry %s = %d, want the measured %d", name, got, v)
		}
	})
	if traced.DRAM.Acts == 0 {
		t.Error("run issued no ACTs")
	}
	if tel.C.ReadLatency.N() == 0 || tel.C.RowOpen.N() == 0 || tel.C.InterACT.N() == 0 {
		t.Error("latency histograms not fed")
	}
	return tel
}

// TestTelemetryNonPerturbingBaseline pins the contract on plain DDR4.
func TestTelemetryNonPerturbingBaseline(t *testing.T) {
	tel := compareTelemetry(t, func() *config.System { return config.Baseline(config.DefaultBusMHz) },
		[]string{"mcf"})
	c := tel.Snapshot(0).Counters
	if c["ewlr_hits"]+c["plane_conflicts"]+c["rap_redirects"] != 0 {
		t.Error("baseline DDR4 must not report ERUCA mechanism events")
	}
	if tel.C.FFCyclesSkipped.Load() == 0 {
		t.Error("fast-forward run skipped no cycles")
	}
}

// TestTelemetryNonPerturbingERUCA pins the contract on the full ERUCA
// configuration and proves the mechanisms actually fire there:
// plane-latch conflicts and DDB savings reach the totals, and every
// traced ACT carries exactly one side of the EWLR hit/miss split.
func TestTelemetryNonPerturbingERUCA(t *testing.T) {
	tel := compareTelemetry(t, func() *config.System { return config.VSB(4, true, true, true, config.DefaultBusMHz) },
		[]string{"mcf", "lbm", "omnetpp", "gemsFDTD"})
	c := tel.Snapshot(0).Counters
	if c["plane_conflicts"] == 0 {
		t.Error("no plane conflicts observed on the 4-plane VSB config")
	}
	if c["ddb_saved_ck"] == 0 {
		t.Error("DDB saved no bus cycles on a dual-data-bus config")
	}
	if len(tel.Events()) == 0 {
		t.Error("no events captured")
	}
	acts := 0
	for _, e := range tel.Events() {
		// Every captured DRAM event carries valid coordinates.
		if e.Kind <= telemetry.EvREF && int(e.Chan) >= 8 {
			t.Fatalf("implausible channel in %v", e)
		}
		if e.Kind != telemetry.EvACT {
			continue
		}
		acts++
		if hit, miss := e.Flag&telemetry.FlagEWLRHit != 0, e.Flag&telemetry.FlagEWLRMiss != 0; hit == miss {
			t.Fatalf("ACT under an EWLR scheme is not exactly one of EWLR hit/miss: %v", e)
		}
	}
	if acts == 0 {
		t.Error("no ACT traced")
	}
}

// TestTelemetrySharedAcrossConcurrentRuns proves one Set can serve
// several simulations at once (the erucabench/erucad sharing pattern):
// run-id stamping happens at the emitter, the rings stay race-clean,
// and the counters sum both runs.
func TestTelemetrySharedAcrossConcurrentRuns(t *testing.T) {
	tel := telemetry.New()
	var wg sync.WaitGroup
	res := make([]*Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{
				Sys:     config.VSB(4, true, true, true, config.DefaultBusMHz),
				Benches: []string{"mcf"}, Instrs: 10_000, Frag: 0.1, Seed: int64(7 + i),
				Telemetry: tel,
			}
			res[i], errs[i] = Run(opt)
		}(i)
	}
	// Concurrent reader: the live-introspection path.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tel.Snapshot(32)
			_ = tel.Recent(-1, -1, 64)
		}
	}()
	wg.Wait()
	<-done
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := len(tel.Runs()); got != 2 {
		t.Fatalf("registered runs = %d, want 2", got)
	}
	runsSeen := map[uint16]bool{}
	for _, e := range tel.Events() {
		runsSeen[e.Run] = true
	}
	if len(runsSeen) != 2 {
		t.Fatalf("captured events tag %d distinct runs, want 2", len(runsSeen))
	}
	if got, want := tel.Snapshot(0).Counters["acts"], res[0].DRAM.Acts+res[1].DRAM.Acts; got != want {
		t.Fatalf("shared Set acts = %d, want the two runs' sum %d", got, want)
	}
}

// TestTelemetrySharedAcrossResume proves a Set shared by a run and a
// later resumed run sums both: a checkpoint carries no telemetry, and
// each run hands its measured DRAM counts to the Set once, so resuming
// into a Set adds to what it holds rather than overwriting it.
func TestTelemetrySharedAcrossResume(t *testing.T) {
	tel := telemetry.New()
	optA := crashOptions(config.Baseline(config.DefaultBusMHz), []string{"mcf"})
	optA.Telemetry = tel
	resA, err := Run(optA)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	optB := func() Options {
		return crashOptions(config.VSB(4, true, true, true, config.DefaultBusMHz), []string{"lbm"})
	}
	// B checkpoints under a Set of its own, as a daemon job does before
	// a crash.
	first := optB()
	first.Telemetry = telemetry.New()
	_, cps := collectCheckpoints(t, first, 2_500)
	if len(cps) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d", len(cps))
	}
	resumed := optB()
	resumed.Telemetry = tel
	resB, err := Resume(resumed, cps[len(cps)/2].Blob)
	if err != nil {
		t.Fatalf("resume B: %v", err)
	}
	want := resA.DRAM.Acts + resB.DRAM.Acts
	if got := tel.Snapshot(0).Counters["acts"]; got != want || resA.DRAM.Acts == 0 || resB.DRAM.Acts == 0 {
		t.Fatalf("shared Set acts = %d, want A's %d + resumed B's %d = %d",
			got, resA.DRAM.Acts, resB.DRAM.Acts, want)
	}
}

// TestTelemetryFFSkipAccounting proves the skip counter equals the
// cycles the event-driven loop jumped: bare per-cycle and fast-forward
// runs agree on bus cycles, so the skipped total must be consistent
// between the modes (zero when fast-forward is off).
func TestTelemetryFFSkipAccounting(t *testing.T) {
	mk := func(noFF bool) (*Result, *telemetry.Set) {
		tel := telemetry.New()
		opt := ffOptions(config.Baseline(config.DefaultBusMHz), []string{"mcf"}, noFF)
		opt.Telemetry = tel
		res, err := Run(opt)
		if err != nil {
			t.Fatalf("run(noFF=%v): %v", noFF, err)
		}
		return res, tel
	}
	_, plainTel := mk(true)
	if got := plainTel.C.FFCyclesSkipped.Load(); got != 0 {
		t.Errorf("per-cycle run reports %d skipped cycles", got)
	}
	fastRes, fastTel := mk(false)
	skipped := fastTel.C.FFCyclesSkipped.Load()
	if skipped == 0 {
		t.Fatal("fast-forward run skipped nothing")
	}
	if skipped >= uint64(fastRes.BusCycles) {
		t.Errorf("skipped %d >= total bus cycles %d", skipped, fastRes.BusCycles)
	}
}
