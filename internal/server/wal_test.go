package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// appendAll opens the journal under dir, appends recs, and closes it —
// a crashed daemon's journal, crafted deterministically.
func writeJournal(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	w, _, err := openWAL(nil, filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// jobEvents returns the job's full progress log as one string.
func jobEvents(j *Job) string {
	history, _, cancel := j.events.SubscribeFrom(-1)
	defer cancel()
	var b strings.Builder
	for _, ll := range history {
		b.WriteString(ll.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	writeJournal(t, dir,
		walRecord{Type: "submit", Job: "job-000001", Idem: "k1", Spec: &spec},
		walRecord{Type: "start", Job: "job-000001"},
		walRecord{Type: "finish", Job: "job-000001", State: "done", Output: "table"},
		walRecord{Type: "submit", Job: "job-000002", Spec: &spec},
		walRecord{Type: "checkpoint", Job: "job-000002", Key: "ddr4|mix0|0.10", Bus: 50_000},
	)
	_, recs, err := openWAL(nil, filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	jobs, byID := replay(recs)
	if len(jobs) != 2 {
		t.Fatalf("replay found %d jobs, want 2", len(jobs))
	}
	j1 := byID["job-000001"]
	if j1 == nil || j1.state != StateDone || j1.output != "table" || j1.idem != "k1" {
		t.Errorf("job-000001 replayed wrong: %+v", j1)
	}
	j2 := byID["job-000002"]
	if j2 == nil || j2.state != "" {
		t.Errorf("job-000002 should be non-terminal: %+v", j2)
	}
}

// TestWALTornTailTruncated is the crash-mid-write case: garbage after
// the last complete record is discarded and the file truncated, and the
// journal stays appendable with consecutive LSNs.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	spec := testSpec()
	writeJournal(t, dir,
		walRecord{Type: "submit", Job: "job-000001", Spec: &spec},
		walRecord{Type: "start", Job: "job-000001"},
	)
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: half a JSON record, no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lsn":3,"type":"fin`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, recs, err := openWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(recs))
	}
	if fi, _ := os.Stat(path); fi.Size() != good.Size() {
		t.Errorf("torn tail not truncated: size %d, want %d", fi.Size(), good.Size())
	}
	// The journal stays appendable and the LSN chain stays consecutive.
	if err := w.append(walRecord{Type: "finish", Job: "job-000001", State: "failed"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, err = openWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].LSN != 3 || recs[2].Type != "finish" {
		t.Fatalf("post-truncation append wrong: %+v", recs)
	}
}

// TestWALReplayStopsAtBadRecord: a CRC mismatch or an LSN regression
// ends replay at the last good record.
func TestWALReplayStopsAtBadRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	spec := testSpec()

	mk := func(lsn int64, typ, job string) []byte {
		rec := walRecord{LSN: lsn, Type: typ, Job: job}
		if typ == "submit" {
			rec.Spec = &spec
		}
		line, err := rec.seal()
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	var buf []byte
	buf = append(buf, mk(1, "submit", "job-000001")...)
	buf = append(buf, mk(3, "start", "job-000001")...) // LSN gap: 2 skipped
	buf = append(buf, mk(4, "finish", "job-000001")...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := openWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replay crossed an LSN gap: %d records, want 1", len(recs))
	}

	// CRC corruption: flip a byte inside the second record's payload.
	buf = append([]byte(nil), mk(1, "submit", "job-000001")...)
	bad := mk(2, "start", "job-000001")
	bad[len(bad)/2] ^= 0x20
	buf = append(buf, bad...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err = openWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replay accepted a corrupt record: %d records, want 1", len(recs))
	}
}

// TestRecoveryReRunsUnfinishedJobs boots a daemon on a journal whose
// jobs never finished (a crash) and proves they re-run to completion,
// while terminal jobs come back with their original results without
// re-executing anything.
func TestRecoveryReRunsUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	writeJournal(t, dir,
		walRecord{Type: "submit", Job: "job-000001", Spec: &spec},
		walRecord{Type: "finish", Job: "job-000001", State: "done", Output: "preserved result"},
		walRecord{Type: "submit", Job: "job-000002", Spec: &spec},
		walRecord{Type: "start", Job: "job-000002"},
		walRecord{Type: "interrupted", Job: "job-000002", State: "canceled"},
	)
	s := newTestServer(t, Config{WALDir: dir})

	done := s.Job("job-000001")
	if done == nil {
		t.Fatal("terminal job not restored")
	}
	if st := done.State(); st != StateDone {
		t.Fatalf("terminal job state %s, want done", st)
	}
	if out := done.Output(); out != "preserved result" {
		t.Fatalf("terminal job output %q, want the journaled result", out)
	}

	rerun := s.Job("job-000002")
	if rerun == nil {
		t.Fatal("unfinished job not restored")
	}
	waitJob(t, rerun, 60*time.Second)
	if st := rerun.State(); st != StateDone {
		t.Fatalf("recovered job state %s, want done", st)
	}
	if rerun.Output() == "" {
		t.Fatal("recovered job has no output")
	}
	if !rerun.view(false).Recovered {
		t.Error("recovered job not flagged recovered")
	}

	// Exactly one simulation ran: the terminal job was NOT re-executed.
	if launched, _, _ := s.runnerCounters(); launched != 1 {
		t.Errorf("launched %d simulations, want 1 (only the unfinished job)", launched)
	}

	// New submissions never collide with recovered IDs.
	fresh, _, err := s.Submit(JobSpec{Kind: "sim", System: "ddr4", Mix: "mix1", Instrs: 20_000, Frag: 0.1}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "job-000003" {
		t.Errorf("fresh job ID %s, want job-000003", fresh.ID)
	}
	waitJob(t, fresh, 60*time.Second)
}

// TestIdempotencyKey proves the same-process half: a duplicate POST
// with the same key returns the original job, a different key runs a
// new one.
func TestIdempotencyKey(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := testSpec()
	j1, replayed, err := s.Submit(spec, SubmitOpts{IdemKey: "alpha"})
	if err != nil || replayed {
		t.Fatalf("first submit: %v replayed=%v", err, replayed)
	}
	j2, replayed, err := s.Submit(spec, SubmitOpts{IdemKey: "alpha"})
	if err != nil || !replayed {
		t.Fatalf("duplicate submit: %v replayed=%v", err, replayed)
	}
	if j1.ID != j2.ID {
		t.Errorf("duplicate key created a new job: %s vs %s", j1.ID, j2.ID)
	}
	j3, replayed, err := s.Submit(spec, SubmitOpts{IdemKey: "beta"})
	if err != nil || replayed {
		t.Fatalf("distinct key: %v replayed=%v", err, replayed)
	}
	if j3.ID == j1.ID {
		t.Error("distinct key mapped to the same job")
	}
	waitJob(t, j1, 60*time.Second)
	waitJob(t, j3, 60*time.Second)
}

// TestIdempotencyKeyConcurrent: concurrent submissions of one key yield
// one job. The key is claimed in the critical section that looks it up,
// so no caller can miss it while another is inside the WAL fsync.
func TestIdempotencyKeyConcurrent(t *testing.T) {
	s := newTestServer(t, Config{WALDir: t.TempDir(), QueueMax: 32})
	const callers = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ids      = map[string]bool{}
		replays  int
		start    = make(chan struct{})
		failures []error
	)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			j, replayed, err := s.Submit(testSpec(), SubmitOpts{IdemKey: "one-key"})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, err)
				return
			}
			ids[j.ID] = true
			if replayed {
				replays++
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("submissions failed: %v", failures)
	}
	if len(ids) != 1 || replays != callers-1 {
		t.Fatalf("%d callers with one key: job IDs %v, %d replayed; want one ID and %d replays", callers, ids, replays, callers-1)
	}
}

// TestIdempotencyKeyAcrossRestart is the crash-retry contract: a client
// that lost its 202 to a daemon crash retries the POST with the same
// Idempotency-Key against the restarted daemon and gets its original
// job (and result) back instead of a duplicate.
func TestIdempotencyKeyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	s1, err := New(Config{Workers: 2, QueueMax: 16, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, replayed, err := s1.Submit(spec, SubmitOpts{IdemKey: "retry-key"})
	if err != nil || replayed {
		t.Fatalf("submit: %v replayed=%v", err, replayed)
	}
	waitJob(t, j1, 60*time.Second)
	want := j1.Output()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{WALDir: dir})
	j2, replayed, err := s2.Submit(spec, SubmitOpts{IdemKey: "retry-key"})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Fatal("restarted daemon did not recognize the idempotency key")
	}
	if j2.ID != j1.ID {
		t.Errorf("replayed job ID %s, want %s", j2.ID, j1.ID)
	}
	if st := j2.State(); st != StateDone {
		t.Fatalf("replayed job state %s, want done", st)
	}
	if got := j2.Output(); got != want {
		t.Errorf("replayed output differs:\n got %q\nwant %q", got, want)
	}
	// No simulation ran on the restarted daemon.
	if launched, _, _ := s2.runnerCounters(); launched != 0 {
		t.Errorf("replayed submission launched %d simulations, want 0", launched)
	}
}

// TestForcedShutdownResumesFromCheckpoint is the end-to-end durability
// path: a job is interrupted by a forced drain after it has
// checkpointed, the journal is compacted down to its submit record (the
// checkpoint blob on disk is now strictly newer than anything in the
// journal — the "blob newer than journal tail" case), and the restarted
// daemon re-runs the job, resumes from the blob, and produces output
// byte-identical to an uninterrupted run.
func TestForcedShutdownResumesFromCheckpoint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-second simulation")
	}
	dir := t.TempDir()
	// Long enough to still be running when the forced drain lands, with
	// a checkpoint cadence tight enough to have blobs by then.
	spec := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 1_500_000, Frag: 0.1}
	s1, err := New(Config{Workers: 1, QueueMax: 16, WALDir: dir, CheckpointCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, _, err := s1.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpoint blob to land on disk.
	deadline := time.Now().Add(60 * time.Second)
	for s1.ckpts.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint blob appeared")
		}
		if j1.State().Terminal() {
			t.Fatalf("job finished before checkpointing (state %s)", j1.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Forced shutdown: an already-expired drain deadline.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Drain(expired); err == nil {
		t.Fatal("forced drain reported success")
	}
	if st := j1.State(); st != StateCanceled {
		t.Fatalf("interrupted job state %s, want canceled", st)
	}

	// Restart: the job must be re-enqueued (NOT canceled — the forced
	// shutdown withheld its terminal record), resume from the blob, and
	// complete.
	s2 := newTestServer(t, Config{Workers: 1, WALDir: dir, CheckpointCycles: 100_000})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("interrupted job not restored")
	}
	waitJob(t, j2, 120*time.Second)
	if st := j2.State(); st != StateDone {
		t.Fatalf("recovered job state %s, want done (%s)", st, jobEvents(j2))
	}
	if !strings.Contains(jobEvents(j2), "resuming") {
		t.Errorf("no resume line in recovered job events:\n%s", jobEvents(j2))
	}

	// Byte-identical to an uninterrupted run of the same spec.
	ref := newTestServer(t, Config{Workers: 1})
	jr, _, err := ref.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jr, 120*time.Second)
	if jr.Output() != j2.Output() {
		t.Error("resumed output differs from uninterrupted reference")
	}
}
