package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"eruca/internal/clock"
)

func ev(at clock.Cycle, k Kind, ch, rk uint8) Event {
	return Event{At: at, Kind: k, Chan: ch, Rank: rk, Row: uint32(at)}
}

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	s.Configure(2, 2)
	s.Emit(ev(1, EvACT, 0, 0))
	if s.Enabled() {
		t.Fatal("nil set reports enabled")
	}
	if got := s.Events(); got != nil {
		t.Fatalf("nil set captured %d events", len(got))
	}
	if got := s.Recent(-1, -1, 8); got != nil {
		t.Fatalf("nil set has recent events")
	}
	if s.BeginRun("x") != 0 {
		t.Fatal("nil BeginRun != 0")
	}
	snap := s.Snapshot(4)
	if len(snap.Counters) != 0 || len(snap.Recent) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	s := NewSet(Options{RingDepth: 4})
	s.Configure(1, 1)
	for i := 0; i < 10; i++ {
		s.Emit(ev(clock.Cycle(i), EvACT, 0, 0))
	}
	got := s.Recent(0, 0, 4)
	if len(got) != 4 {
		t.Fatalf("recent len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := clock.Cycle(6 + i); e.At != want {
			t.Errorf("recent[%d].At = %d, want %d (oldest-first tail)", i, e.At, want)
		}
	}
	if n := len(s.Recent(0, 0, 2)); n != 2 {
		t.Errorf("bounded tail len = %d, want 2", n)
	}
}

// DropRings empties the rings for good and keeps the counters and
// histograms, even while a late emitter and a reader still run (a
// canceled job's simulation can still be winding down).
func TestDropRingsKeepsCounters(t *testing.T) {
	s := NewSet(Options{RingDepth: 8})
	s.Configure(1, 2)
	s.Emit(ev(1, EvACT, 0, 1))
	s.C.Add("acts", 1)
	s.C.RowOpen.Observe(7)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			s.Emit(ev(clock.Cycle(i), EvACT, 0, 1))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			_ = s.Recent(-1, -1, 8)
		}
	}()
	s.DropRings()
	wg.Wait()
	s.Emit(ev(2, EvACT, 0, 1))
	if got := s.Recent(-1, -1, 8); len(got) != 0 {
		t.Fatalf("recent after DropRings = %v", got)
	}
	snap := s.Snapshot(8)
	if snap.Counters["acts"] != 1 || snap.Hists["row_open_ck"].N != 1 || len(snap.Recent) != 0 {
		t.Fatalf("snapshot after DropRings = %+v", snap)
	}
}

func TestRecentMergesAcrossRings(t *testing.T) {
	s := NewSet(Options{RingDepth: 8})
	s.Configure(2, 2)
	// Interleave cycles across (chan, rank) pairs out of order.
	s.Emit(ev(5, EvACT, 1, 1))
	s.Emit(ev(1, EvACT, 0, 0))
	s.Emit(ev(3, EvPRE, 0, 1))
	s.Emit(ev(2, EvRD, 1, 0))
	all := s.Recent(-1, -1, 16)
	if len(all) != 4 {
		t.Fatalf("merged len = %d, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].At < all[i-1].At {
			t.Fatalf("merged events not cycle-sorted: %v", all)
		}
	}
	ch0 := s.Recent(0, -1, 16)
	if len(ch0) != 2 {
		t.Fatalf("channel-0 merge len = %d, want 2", len(ch0))
	}
}

func TestSamplingDecimatesTraceOnly(t *testing.T) {
	s := NewSet(Options{SampleEvery: 4, Capture: true})
	s.Configure(1, 1)
	for i := 0; i < 16; i++ {
		s.Emit(ev(clock.Cycle(i), EvACT, 0, 0))
	}
	if got := len(s.Events()); got != 4 {
		t.Fatalf("captured %d events with 1-in-4 sampling, want 4", got)
	}
}

func TestWindowGate(t *testing.T) {
	s := NewSet(Options{WindowFrom: 10, WindowTo: 20, Capture: true})
	s.Configure(1, 1)
	for i := 0; i < 30; i++ {
		s.Emit(ev(clock.Cycle(i), EvACT, 0, 0))
	}
	got := s.Events()
	if len(got) != 10 {
		t.Fatalf("window captured %d events, want 10", len(got))
	}
	for _, e := range got {
		if e.At < 10 || e.At >= 20 {
			t.Fatalf("event at %d escaped window [10,20)", e.At)
		}
	}
}

func TestCaptureCapSpillsAndCounts(t *testing.T) {
	var spill bytes.Buffer
	s := NewSet(Options{CaptureMax: 3, Spill: &spill, Capture: true})
	s.Configure(1, 1)
	for i := 0; i < 8; i++ {
		s.Emit(ev(clock.Cycle(i), EvACT, 0, 0))
	}
	if got := len(s.Events()); got != 3 {
		t.Fatalf("capture kept %d, want 3", got)
	}
	n, err := s.Spilled()
	if err != nil || n != 5 {
		t.Fatalf("spilled = %d, %v; want 5, nil", n, err)
	}
	back, err := ReadBinary(&spill)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(back) != 5 || back[0].At != 3 || back[4].At != 7 {
		t.Fatalf("spill round-trip mismatch: %v", back)
	}

	// Without a spill writer, overflow increments TraceDropped.
	s2 := NewSet(Options{CaptureMax: 2, Capture: true})
	s2.Configure(1, 1)
	for i := 0; i < 5; i++ {
		s2.Emit(ev(clock.Cycle(i), EvACT, 0, 0))
	}
	if got := s2.C.TraceDropped.Load(); got != 3 {
		t.Fatalf("TraceDropped = %d, want 3", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := []Event{
		{At: 0, Kind: EvACT, Flag: FlagEWLRHit | FlagRAPRemap, Chan: 1, Rank: 2, Grp: 3, Bank: 4, Sub: 1, Slot: 7, Row: 0xdeadbeef, Run: 513},
		{At: 1 << 40, Kind: EvFFSkip, Arg: 1<<32 - 1},
		{At: 42, Kind: EvDDBGrant, Arg: 3, Chan: 1, Grp: 2},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d events", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	// Corrupt magic must be rejected.
	bad := bytes.NewBufferString("NOTMAGIC")
	if _, err := ReadBinary(bad); err == nil {
		t.Fatal("ReadBinary accepted bad magic")
	}
}

func TestHistQuantileBounds(t *testing.T) {
	var h Hist
	for v := int64(0); v < 1000; v++ {
		h.Observe(v)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); got != 499.5 {
		t.Fatalf("Mean = %g, want 499.5 (exact)", got)
	}
	// Log2 buckets guarantee quantile upper bounds within 2x.
	if p50 := h.Quantile(0.5); p50 < 500 || p50 > 1024 {
		t.Errorf("p50 bound = %d, want in [500,1024]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 990 || p99 > 2048 {
		t.Errorf("p99 bound = %d, want in [990,2048]", p99)
	}
	h.Observe(-5)                    // clamps to bucket 0
	if b := h.Buckets(); b[0] != 2 { // v=0 and v=-5
		t.Errorf("bucket0 = %d, want 2", b[0])
	}
}

func TestSnapshotShapes(t *testing.T) {
	s := New()
	s.Configure(1, 1)
	s.BeginRun("runA")
	s.C.Add("acts", 3)
	s.C.Add("ewlr_hits", 2)
	s.C.Add("acts", 1)
	s.C.ReadLatency.Observe(100)
	s.Emit(ev(7, EvACT, 0, 0))
	snap := s.Snapshot(8)
	if snap.Counters["acts"] != 4 || snap.Counters["ewlr_hits"] != 2 {
		t.Fatalf("counter snapshot wrong: %v", snap.Counters)
	}
	if snap.Hists["read_latency_ck"].N != 1 {
		t.Fatalf("hist snapshot wrong: %+v", snap.Hists["read_latency_ck"])
	}
	if len(snap.Runs) != 1 || snap.Runs[0] != "runA" {
		t.Fatalf("runs = %v", snap.Runs)
	}
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %v", snap.Recent)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

// TestConcurrentReadersDuringEmit is the race test for live
// introspection: rings, counters, snapshots and the capture buffer are
// hammered from reader goroutines while a writer emits. Run under
// -race this proves the erucad live endpoint can read an in-flight run.
func TestConcurrentReadersDuringEmit(t *testing.T) {
	s := New()
	s.Configure(2, 2)
	run := s.BeginRun("writer")
	const n = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Recent(-1, -1, 64)
				_ = s.Snapshot(16)
				_ = s.Events()
				_ = s.C.FFCyclesSkipped.Load()
			}
		}()
	}
	for i := 0; i < n; i++ {
		e := ev(clock.Cycle(i), EvACT, uint8(i%2), uint8(i/2%2))
		e.Run = run
		s.C.FFCyclesSkipped.Add(1)
		s.C.InterACT.Observe(int64(i % 37))
		s.Emit(e)
	}
	close(stop)
	wg.Wait()
	if got := s.C.FFCyclesSkipped.Load(); got != n {
		t.Fatalf("ff_cycles_skipped = %d, want %d", got, n)
	}
	if got := len(s.Events()); got != n {
		t.Fatalf("captured = %d, want %d", got, n)
	}
}

func TestFlagAndKindStrings(t *testing.T) {
	if got := (FlagEWLRHit | FlagPartial).String(); got != "ewlr-hit|partial" {
		t.Errorf("flag string = %q", got)
	}
	if got := Flag(0).String(); got != "-" {
		t.Errorf("zero flag = %q", got)
	}
	for k := EvACT; k <= EvFFSkip; k++ {
		if got := k.String(); got == "" || got[0] == 'K' {
			t.Errorf("kind %d has no name: %q", k, got)
		}
	}
}
