package sim

import (
	"errors"
	"strings"
	"testing"

	"eruca/internal/check"
	"eruca/internal/config"
	"eruca/internal/faults"
	"eruca/internal/telemetry"
)

// TestProtocolDumpEmbedsTelemetryTail proves the flight-recorder fix:
// a Fail-mode protocol violation raised with a telemetry set attached
// carries the recent traced events of the offending rank, so the crash
// dump shows the command history leading to the violation instead of
// only the checker's 32-command window.
func TestProtocolDumpEmbedsTelemetryTail(t *testing.T) {
	tel := telemetry.New()
	opt := Options{
		Sys:     config.VSB(4, true, true, true, config.DefaultBusMHz),
		Benches: []string{"mcf"}, Instrs: 30_000, Frag: 0.1, Seed: 7,
		Check:     &check.Options{Mode: check.Fail},
		Faults:    burst(faults.TimingReset, 5_000, 500, 4, 0),
		Telemetry: tel,
	}
	_, err := Run(opt)
	var pe *check.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("seeded corruption not detected: err = %v", err)
	}
	if len(pe.Trace) == 0 {
		t.Fatal("ProtocolError carries no telemetry tail")
	}
	if len(pe.Trace) > check.TraceTail {
		t.Fatalf("trace tail %d exceeds bound %d", len(pe.Trace), check.TraceTail)
	}
	dump := pe.Dump()
	if !strings.Contains(dump, "telemetry events") {
		t.Fatalf("dump missing telemetry section:\n%s", dump)
	}
	// The tail must be cycle-ordered and scoped near the violation.
	for i := 1; i < len(pe.Trace); i++ {
		if pe.Trace[i].At < pe.Trace[i-1].At {
			t.Fatal("telemetry tail not cycle-ordered")
		}
	}
}

// TestDeadlockReportEmbedsTelemetry proves the watchdog's system
// snapshot includes the recent telemetry events when a set is attached.
func TestDeadlockReportEmbedsTelemetry(t *testing.T) {
	tel := telemetry.New()
	opt := Options{
		Sys:     config.Baseline(config.DefaultBusMHz),
		Benches: []string{"mcf"}, Instrs: 50_000, Frag: 0.1, Seed: 7,
		// Impossible latency ceiling: trips as soon as any read queues.
		Watchdog:  &Watchdog{LatencyCeiling: 1},
		Telemetry: tel,
	}
	_, err := Run(opt)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("latency ceiling did not trip: err = %v", err)
	}
	if !strings.Contains(de.Report, "telemetry events") {
		t.Fatalf("deadlock report missing telemetry section:\n%s", de.Report)
	}
}
