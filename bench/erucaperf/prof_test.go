package main

import (
	"os"
	"testing"
)

// The fixture is `go tool pprof -top` output of a mix0-eruca profile,
// trimmed and extended with runtime, generic, inlined and foreign rows.
func TestParseTopGroupsFlatTimeByLayer(t *testing.T) {
	b, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseTop(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dram": 0.579, "memctrl": 0.219, "core": 0.083, "runtime": 0.0505, "sim": 0.017,
		"cpu": 0.012, "cache": 0.008, "addrmap": 0.007, "osmem": 0.007, "workload": 0.006, "server": 0.004,
	}
	if len(got) != len(profPackages) {
		t.Errorf("got %d layers, want one per profPackages entry (%d)", len(got), len(profPackages))
	}
	for layer, w := range want {
		if !near(got[layer], w) {
			t.Errorf("%s share = %v, want %v", layer, got[layer], w)
		}
	}
	if _, err := parseTop([]byte("no profile here\n")); err == nil {
		t.Error("output without a summary line should be an error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"eruca/internal/memctrl.(*Controller).tryQueue": "memctrl",
		"eruca/internal/sim.(*bridge).Access.func1":     "sim",
		"eruca/internal/exp.lead[go.shape.*uint8]":      "exp",
		"runtime.mallocgc":                              "runtime",
		"runtime/internal/syscall.Syscall6":             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":  "runtime",
		"sync/atomic.(*Uint64).Add":                     "",
		"net/http.(*conn).serve":                        "",
		"main.run":                                      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDur(t *testing.T) {
	for s, want := range map[string]float64{"1.25s": 1.25, "830ms": 0.83, "5us": 5e-6, "40ns": 4e-8, "2.5mins": 150, "1hrs": 3600} {
		if got, err := parseDur(s); err != nil || !near(got, want) {
			t.Errorf("parseDur(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"0", "flat", "1.2x"} {
		if _, err := parseDur(s); err == nil {
			t.Errorf("parseDur(%q) should fail", s)
		}
	}
}
