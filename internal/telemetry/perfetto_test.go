package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a small curated stream exercising every exporter
// path: span open/close with mechanism args, PREA mass-close, orphan
// PRE, re-ACT without PRE, instants, ERUCA events, fast-forward, and a
// second run (process).
func goldenEvents() ([]Event, []string) {
	events := []Event{
		{At: 10, Kind: EvACT, Row: 0x2a, Bank: 1},
		{At: 14, Kind: EvRD, Bank: 1},
		{At: 18, Kind: EvWR, Bank: 1},
		{At: 30, Kind: EvPRE, Row: 0x2a, Bank: 1},
		{At: 35, Kind: EvACT, Row: 0x11, Bank: 2, Sub: 1, Flag: FlagEWLRHit},
		{At: 40, Kind: EvACT, Row: 0x12, Bank: 2, Sub: 0, Flag: FlagEWLRMiss | FlagRAPRemap},
		{At: 41, Kind: EvRAPRemap, Row: 0x12, Bank: 2, Sub: 1},
		{At: 44, Kind: EvDDBGrant, Arg: 3, Grp: 1},
		{At: 50, Kind: EvPRE, Row: 0x11, Bank: 2, Sub: 1, Flag: FlagPlaneConflict},
		{At: 55, Kind: EvPRE, Row: 0x12, Bank: 2, Sub: 0, Flag: FlagPartial},
		{At: 60, Kind: EvPRE, Bank: 3},           // orphan PRE: instant
		{At: 64, Kind: EvACT, Row: 0x7, Bank: 1}, // reopened ...
		{At: 70, Kind: EvACT, Row: 0x8, Bank: 1}, // ... re-ACT closes it
		{At: 75, Kind: EvACT, Row: 0x9, Bank: 4}, // left open for PREA
		{At: 76, Kind: EvACT, Row: 0xa, Bank: 5}, // left open for PREA
		{At: 80, Kind: EvPREA},                   // closes banks 4,5 and the bank-1 span
		{At: 85, Kind: EvREF},
		{At: 90, Kind: EvFFSkip, Arg: 1200},
		{At: 95, Kind: EvACT, Row: 0x30, Run: 1, Chan: 1, Rank: 1, Grp: 2, Bank: 6, Sub: 1, Slot: 2},
		// run-1 span left dangling: closed at ACT+1 by the exporter.
	}
	return events, []string{"DDR4 mix0", "VSB mix0"}
}

func TestPerfettoGolden(t *testing.T) {
	events, runs := goldenEvents()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, runs); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Perfetto output drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestPerfettoWellFormed proves the exporter output is valid JSON of
// the trace-event "object" form with balanced b/e span pairs.
func TestPerfettoWellFormed(t *testing.T) {
	events, runs := goldenEvents()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, runs); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.Unit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	var begins, ends, metas, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "b":
			begins++
		case "e":
			ends++
		case "M":
			metas++
		case "i":
			instants++
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("unbalanced spans: %d begins, %d ends", begins, ends)
	}
	if metas < 2 {
		t.Errorf("expected process+thread metadata, got %d", metas)
	}
	if instants == 0 {
		t.Error("no instant events emitted")
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, events, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteTrace is not deterministic")
	}
}
