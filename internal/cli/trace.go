package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eruca/internal/clock"
	"eruca/internal/telemetry"
)

// Trace is the -trace-* flag cluster shared by erucasim, erucabench and
// erucatrace: it builds one telemetry.Set per process, attaches it to
// every simulation the binary launches, and exports the captured events
// on exit — Chrome trace-event / Perfetto JSON for a .json -trace-out,
// the compact 32-byte binary format for anything else. Tracing is
// purely observational: the simulated command stream and every table
// are byte-identical with or without it.
type Trace struct {
	// Out is the trace destination; empty disables event capture (the
	// mechanism counters still run if telemetry is attached elsewhere).
	Out string
	// Sample keeps 1-in-N traced events (counters always see all).
	Sample int
	// Depth is the per-rank recent-event ring capacity.
	Depth int
	// Cap bounds the in-memory capture buffer before spilling.
	Cap int
	// Spill is an optional binary overflow file for >Cap-event runs.
	Spill string
	// From/To gate tracing to a bus-cycle window (0 = unbounded).
	From, To int64

	spill *os.File
	set   *telemetry.Set
}

// Register installs the flags on the default flag set.
func (t *Trace) Register() {
	flag.StringVar(&t.Out, "trace-out", "",
		"write the event trace here: .json = Chrome/Perfetto trace, otherwise compact binary")
	flag.IntVar(&t.Sample, "trace-sample", 0, "keep 1-in-N traced events (0 or 1 = all; thins only the trace, never the counts)")
	flag.IntVar(&t.Depth, "trace-depth", 0, "per-rank recent-event ring depth (default 256)")
	flag.IntVar(&t.Cap, "trace-cap", 0, "in-memory trace capture cap in events (default 1M)")
	flag.StringVar(&t.Spill, "trace-spill", "", "binary spill file for events beyond -trace-cap")
	flag.Int64Var(&t.From, "trace-from", 0, "start tracing at this bus cycle")
	flag.Int64Var(&t.To, "trace-to", 0, "stop tracing at this bus cycle (0 = end of run)")
}

// Build resolves the flags into a telemetry.Set, or nil when no tracing
// was requested (the nil Set keeps the simulator hot path untouched).
func (t *Trace) Build() (*telemetry.Set, error) {
	if t.Out == "" && t.Spill == "" {
		return nil, nil
	}
	opt := telemetry.Options{
		RingDepth:   t.Depth,
		SampleEvery: t.Sample,
		WindowFrom:  clock.Cycle(t.From),
		WindowTo:    clock.Cycle(t.To),
		CaptureMax:  t.Cap,
		Capture:     t.Out != "",
	}
	if t.Spill != "" {
		f, err := os.Create(t.Spill)
		if err != nil {
			return nil, fmt.Errorf("cli: -trace-spill: %w", err)
		}
		t.spill = f
		opt.Spill = f
		if t.Out == "" {
			// Spill-only mode: stream everything straight to the binary
			// file by leaving the in-memory buffer at zero capacity.
			opt.Capture = true
			opt.CaptureMax = -1
		}
	}
	t.set = telemetry.NewSet(opt)
	return t.set, nil
}

// Set returns the telemetry Set built by Build (nil when disabled).
func (t *Trace) Set() *telemetry.Set { return t.set }

// Finish writes the requested trace artifacts and closes the spill
// file; it reports what was written on stderr. Call it once after the
// last simulation completes (a deferred call is fine: Finish on a
// disabled cluster is a no-op).
func (t *Trace) Finish() error {
	if t.set == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if t.Out != "" {
		f, err := os.Create(t.Out)
		if err != nil {
			keep(fmt.Errorf("cli: -trace-out: %w", err))
		} else {
			if strings.HasSuffix(t.Out, ".json") {
				keep(telemetry.WriteTraceFromSet(f, t.set))
			} else {
				keep(telemetry.WriteBinary(f, t.set.Events()))
			}
			keep(f.Close())
			if first == nil {
				fmt.Fprintf(os.Stderr, "trace: wrote %d event(s) to %s\n", len(t.set.Events()), t.Out)
			}
		}
	}
	if t.spill != nil {
		keep(t.spill.Close())
		if n, err := t.set.Spilled(); err != nil {
			keep(fmt.Errorf("cli: trace spill: %w", err))
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "trace: spilled %d event(s) to %s\n", n, t.Spill)
		}
	}
	if dropped := t.set.C.TraceDropped.Load(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: dropped %d event(s) beyond -trace-cap (set -trace-spill to keep them)\n", dropped)
	}
	return first
}
