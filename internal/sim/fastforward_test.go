package sim

import (
	"testing"

	"eruca/internal/check"
	"eruca/internal/config"
	"eruca/internal/faults"
)

// ffOptions builds one audited run configuration.
func ffOptions(sys *config.System, benches []string, noFF bool) Options {
	return Options{
		Sys: sys, Benches: benches, Instrs: 30_000, Frag: 0.1, Seed: 7,
		Audit: true, NoFastForward: noFF,
	}
}

// compareRuns asserts that a fast-forwarding run is indistinguishable
// from the per-cycle run: identical audited command stream (same
// commands at the same cycles on every channel) and identical results.
func compareRuns(t *testing.T, sys func() *config.System, benches []string) {
	t.Helper()
	plain, err := Run(ffOptions(sys(), benches, true))
	if err != nil {
		t.Fatalf("per-cycle run: %v", err)
	}
	fast, err := Run(ffOptions(sys(), benches, false))
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}

	if len(plain.AuditCommands) != len(fast.AuditCommands) {
		t.Fatalf("channel count differs: %d vs %d", len(plain.AuditCommands), len(fast.AuditCommands))
	}
	for ch := range plain.AuditCommands {
		p, f := plain.AuditCommands[ch], fast.AuditCommands[ch]
		if len(p) != len(f) {
			t.Fatalf("channel %d: command count differs: per-cycle %d vs fast-forward %d", ch, len(p), len(f))
		}
		for i := range p {
			if p[i] != f[i] {
				t.Fatalf("channel %d: command %d differs:\nper-cycle:    %+v at %d\nfast-forward: %+v at %d",
					ch, i, p[i].Cmd, p[i].At, f[i].Cmd, f[i].At)
			}
		}
	}

	if plain.BusCycles != fast.BusCycles {
		t.Errorf("BusCycles differ: %d vs %d", plain.BusCycles, fast.BusCycles)
	}
	for i := range plain.IPC {
		if plain.IPC[i] != fast.IPC[i] {
			t.Errorf("core %d IPC differs: %v vs %v", i, plain.IPC[i], fast.IPC[i])
		}
		if plain.MPKI[i] != fast.MPKI[i] {
			t.Errorf("core %d MPKI differs: %v vs %v", i, plain.MPKI[i], fast.MPKI[i])
		}
	}
	if plain.DRAM != fast.DRAM {
		t.Errorf("DRAM stats differ:\nper-cycle:    %+v\nfast-forward: %+v", plain.DRAM, fast.DRAM)
	}
	if plain.Energy != fast.Energy {
		t.Errorf("energy differs:\nper-cycle:    %+v\nfast-forward: %+v", plain.Energy, fast.Energy)
	}
	if plain.AvgReadQueueDepth != fast.AvgReadQueueDepth {
		t.Errorf("read-queue depth differs: %v vs %v", plain.AvgReadQueueDepth, fast.AvgReadQueueDepth)
	}
	if plain.AvgWriteQueueDepth != fast.AvgWriteQueueDepth {
		t.Errorf("write-queue depth differs: %v vs %v", plain.AvgWriteQueueDepth, fast.AvgWriteQueueDepth)
	}
	if plain.QueueLat.N() != fast.QueueLat.N() || plain.QueueLat.Mean() != fast.QueueLat.Mean() {
		t.Errorf("queue-latency distribution differs: n=%d mean=%v vs n=%d mean=%v",
			plain.QueueLat.N(), plain.QueueLat.Mean(), fast.QueueLat.N(), fast.QueueLat.Mean())
	}
}

// TestFastForwardEquivalenceBaseline checks the baseline DDR4 preset
// under a single-core high-MPKI load (long all-blocked windows, the case
// the fast-forward is built for).
func TestFastForwardEquivalenceBaseline(t *testing.T) {
	compareRuns(t, func() *config.System { return config.Baseline(config.DefaultBusMHz) },
		[]string{"mcf"})
}

// TestFastForwardEquivalenceMix checks a four-core mix on the full ERUCA
// configuration (VSB EWLR+RAP with DDB), where refresh, plane conflicts
// and close-page timeouts all interleave with skips.
func TestFastForwardEquivalenceMix(t *testing.T) {
	compareRuns(t, func() *config.System { return config.VSB(4, true, true, true, config.DefaultBusMHz) },
		[]string{"mcf", "lbm", "omnetpp", "gemsFDTD"})
}

// TestFastForwardEquivalenceMASA covers the stacked MASA+ERUCA variant
// whose slot planes take a different step-planning path.
func TestFastForwardEquivalenceMASA(t *testing.T) {
	compareRuns(t, func() *config.System { return config.MASAERUCA(4, 4, true, config.DefaultBusMHz) },
		[]string{"lbm", "milc"})
}

// TestFastForwardWatchdogComposition proves the liveness monitors
// compose with event-driven cycle skipping: an armed watchdog (with a
// tight-but-legal budget and a latency ceiling) never false-trips in
// either run mode, and fast-forward results remain identical to the
// per-cycle run because the skip window is bounded by the watchdog
// deadline.
func TestFastForwardWatchdogComposition(t *testing.T) {
	mk := func(noFF bool) Options {
		o := ffOptions(config.VSB(4, true, true, true, config.DefaultBusMHz),
			[]string{"mcf", "lbm"}, noFF)
		o.Watchdog = &Watchdog{ProgressBudget: 20_000, LatencyCeiling: 200_000}
		o.Check = &check.Options{Mode: check.Log}
		return o
	}
	plain, err := Run(mk(true))
	if err != nil {
		t.Fatalf("per-cycle run with watchdog: %v", err)
	}
	fast, err := Run(mk(false))
	if err != nil {
		t.Fatalf("fast-forward run with watchdog: %v", err)
	}
	if plain.Partial || fast.Partial {
		t.Fatal("watchdog must not truncate a healthy run")
	}
	if len(plain.Protocol)+len(fast.Protocol) != 0 {
		t.Fatalf("checker flagged a healthy run: %d/%d violations",
			len(plain.Protocol), len(fast.Protocol))
	}
	if plain.BusCycles != fast.BusCycles {
		t.Errorf("BusCycles differ under watchdog: %d vs %d", plain.BusCycles, fast.BusCycles)
	}
	if plain.DRAM != fast.DRAM {
		t.Errorf("DRAM stats differ under watchdog:\nper-cycle:    %+v\nfast-forward: %+v",
			plain.DRAM, fast.DRAM)
	}
	for i := range plain.IPC {
		if plain.IPC[i] != fast.IPC[i] {
			t.Errorf("core %d IPC differs under watchdog: %v vs %v", i, plain.IPC[i], fast.IPC[i])
		}
	}
}

// TestFastForwardFaultComposition proves injections land on their exact
// cycle even when event-driven skipping is active: both run modes
// observe the same fault and record the same violation count.
func TestFastForwardFaultComposition(t *testing.T) {
	mk := func(noFF bool) Options {
		o := ffOptions(config.VSB(4, true, true, true, config.DefaultBusMHz),
			[]string{"mcf"}, noFF)
		// The legacy strict audit would fail the whole run on the seeded
		// violations; the Log-mode checker is the recording path here.
		o.Audit = false
		o.Check = &check.Options{Mode: check.Log}
		o.Faults = burst(faults.TimingReset, 5_000, 500, 4, 0)
		return o
	}
	plain, err := Run(mk(true))
	if err != nil {
		t.Fatalf("per-cycle chaos run: %v", err)
	}
	fast, err := Run(mk(false))
	if err != nil {
		t.Fatalf("fast-forward chaos run: %v", err)
	}
	if plain.FaultsInjected != fast.FaultsInjected {
		t.Errorf("injected fault counts differ: %d vs %d", plain.FaultsInjected, fast.FaultsInjected)
	}
	if plain.FaultsInjected == 0 {
		t.Fatal("no fault landed in either mode")
	}
	if len(plain.Protocol) != len(fast.Protocol) {
		t.Errorf("violation counts differ: per-cycle %d vs fast-forward %d",
			len(plain.Protocol), len(fast.Protocol))
	}
	if len(plain.Protocol) == 0 {
		t.Fatal("seeded corruption went undetected")
	}
}
