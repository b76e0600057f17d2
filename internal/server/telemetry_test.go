package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"eruca/internal/telemetry"
)

func getTelemetry(t *testing.T, base, id string) (int, telemetry.Snapshot) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/telemetry?recent=16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	_ = json.NewDecoder(resp.Body).Decode(&snap)
	return resp.StatusCode, snap
}

// TestTelemetryEndpoint drives the live-introspection flow end to end:
// submit a job, poll its telemetry while it may still be running (the
// endpoint must serve mid-run), then assert the finished job's counters
// reflect the simulation it executed.
func TestTelemetryEndpoint(t *testing.T) {
	_, hs := newHTTPServer(t, Config{Workers: 2})
	code, v := postJob(t, hs.URL, JobSpec{Kind: "sim", System: "vsb-ewlr-rap-ddb", Mix: "mix0", Instrs: 30_000, Frag: 0.1})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// Mid-run polling must never error regardless of job state.
	for i := 0; i < 3; i++ {
		if code, _ := getTelemetry(t, hs.URL, v.ID); code != http.StatusOK {
			t.Fatalf("mid-run telemetry = %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	final := waitDone(t, hs.URL, v.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job state = %s (%+v)", final.State, final.Error)
	}
	code, snap := getTelemetry(t, hs.URL, v.ID)
	if code != http.StatusOK {
		t.Fatalf("telemetry = %d", code)
	}
	if snap.Counters["acts"] == 0 || snap.Counters["reads"] == 0 {
		t.Fatalf("counters empty after run: %v", snap.Counters)
	}
	// The counters are the finished simulation's measured dram.Stats.
	var sum SimSummary
	if err := json.Unmarshal([]byte(final.Result), &sum); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if snap.Counters["acts"] != sum.Acts || snap.Counters["reads"] != sum.Reads {
		t.Errorf("telemetry acts/reads = %d/%d, result says %d/%d",
			snap.Counters["acts"], snap.Counters["reads"], sum.Acts, sum.Reads)
	}
	if snap.Counters["plane_conflicts"] == 0 {
		t.Errorf("VSB job observed no plane conflicts: %v", snap.Counters)
	}
	if snap.Hists["read_latency_ck"].N == 0 {
		t.Error("read-latency histogram empty")
	}
	if len(snap.Runs) == 0 {
		t.Error("no run registered")
	}
	if len(snap.Recent) == 0 {
		t.Error("no recent events in snapshot")
	}

	// Unknown job: 404.
	if code, _ := getTelemetry(t, hs.URL, "job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job telemetry = %d, want 404", code)
	}

	// /metrics aggregates the simulator counters across jobs.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metricsText strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		metricsText.WriteString(sc.Text() + "\n")
	}
	for _, want := range []string{"eruca_sim_acts_total", "eruca_sim_plane_conflicts_total", "eruca_sim_read_latency_ck_bucket", "eruca_sim_ewlr_hits_total"} {
		if !strings.Contains(metricsText.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestTelemetrySSE checks the streaming variant: at least one snapshot
// frame arrives, and the stream ends with an "event: done" frame after
// the job completes.
func TestTelemetrySSE(t *testing.T) {
	_, hs := newHTTPServer(t, Config{Workers: 2})
	code, v := postJob(t, hs.URL, JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 20_000, Frag: 0.1})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + v.ID + "/telemetry?sse=1&interval_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var frames, doneFrames int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: done") {
			doneFrames++
		}
		if strings.HasPrefix(line, "data: ") {
			frames++
			var snap telemetry.Snapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("bad SSE frame: %v\n%s", err, line)
			}
		}
	}
	if frames == 0 {
		t.Fatal("no telemetry frames streamed")
	}
	if doneFrames != 1 {
		t.Fatalf("done frames = %d, want 1", doneFrames)
	}
}

// TestPprofGated proves the profiling surface is mounted only when
// configured.
func TestPprofGated(t *testing.T) {
	_, off := newHTTPServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without Config.Pprof = %d, want 404", resp.StatusCode)
	}
	_, on := newHTTPServer(t, Config{Workers: 1, Pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with Config.Pprof = %d, want 200", resp.StatusCode)
	}
}

// TestAttributionSweepJob proves the attribution experiment is
// reachable through the job API.
func TestAttributionSweepJob(t *testing.T) {
	_, hs := newHTTPServer(t, Config{Workers: 2})
	code, v := postJob(t, hs.URL, JobSpec{Kind: "sweep", Exp: "attribution", Planes: 4,
		Mixes: []string{"mix0"}, Instrs: 8_000, Frag: 0.1})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitDone(t, hs.URL, v.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("attribution job state = %s (%+v)", final.State, final.Error)
	}
	out := getJob(t, hs.URL, v.ID).Result
	if !strings.Contains(out, "Mechanism attribution") || !strings.Contains(out, "ewlr-hit") {
		t.Fatalf("unexpected attribution output:\n%s", out)
	}
}

// Only the last ringJobs jobs to finish keep their event rings: once
// one more has finished, the first serves no recent events while the
// last still does, and both keep their counters.
func TestFinishedJobsDropOldRings(t *testing.T) {
	_, hs := newHTTPServer(t, Config{Workers: 1})
	var ids []string
	for i := 0; i <= ringJobs; i++ {
		code, v := postJob(t, hs.URL, JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 2000, Frag: 0.1, Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		if final := waitDone(t, hs.URL, v.ID, 30*time.Second); final.State != StateDone {
			t.Fatalf("job %d state = %s (%+v)", i, final.State, final.Error)
		}
		ids = append(ids, v.ID)
	}
	_, first := getTelemetry(t, hs.URL, ids[0])
	_, last := getTelemetry(t, hs.URL, ids[len(ids)-1])
	if len(first.Recent) != 0 {
		t.Errorf("first job still serves %d recent events", len(first.Recent))
	}
	if len(last.Recent) == 0 {
		t.Error("last job serves no recent events")
	}
	if first.Counters["acts"] == 0 || last.Counters["acts"] == 0 {
		t.Errorf("counters lost: first %v, last %v", first.Counters, last.Counters)
	}
}
