package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"eruca/internal/errfs"
)

// postJSON posts a spec body to the daemon's submit endpoint.
func postJSON(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestENOSPCMidAppendDegradesReadOnly: once a journal append hits
// ENOSPC, the daemon flips (stickily) to read-only — new submissions
// get ErrReadOnly / 503 + Retry-After, reads and health keep serving,
// and the process does not crash.
func TestENOSPCMidAppendDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := errfs.New(nil)
	s := newTestServer(t, Config{WALDir: dir, FS: ffs})
	h := s.Handler()

	j1, _, err := s.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1, 60*time.Second)

	// The disk fills: every journal write from here on fails.
	ffs.SetHook(func(op errfs.Op, path string) error {
		if op == errfs.OpWrite && strings.HasSuffix(path, "journal.wal") {
			return syscall.ENOSPC
		}
		return nil
	})
	_, _, err = s.Submit(testSpec(), SubmitOpts{})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("submit on full disk: %v, want ErrReadOnly", err)
	}
	if !s.Degraded() {
		t.Fatal("daemon did not degrade after the failed append")
	}

	// Sticky: the next submission is rejected before touching the disk.
	writes := ffs.Count(errfs.OpWrite)
	if _, _, err := s.Submit(testSpec(), SubmitOpts{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("second submit: %v, want ErrReadOnly", err)
	}
	if ffs.Count(errfs.OpWrite) != writes {
		t.Error("degraded submit still reached the journal")
	}
	if _, _, err := s.Submit(testSpec(), SubmitOpts{From: "n9"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("migrated submit: %v, want ErrReadOnly", err)
	}

	// HTTP mapping: 503 + Retry-After, typed error body.
	rr := postJSON(t, h, `{"kind":"sim","system":"ddr4","mix":"mix0","instrs":20000,"frag":0.1}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if !strings.Contains(rr.Body.String(), "read-only") {
		t.Errorf("error body does not name the degraded mode: %s", rr.Body.String())
	}

	// Reads keep serving: health stays 200 and reports the degradation,
	// the finished job's record is still fetchable.
	rh := httptest.NewRecorder()
	h.ServeHTTP(rh, httptest.NewRequest("GET", "/healthz", nil))
	if rh.Code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 (alive, just read-only)", rh.Code)
	}
	if !strings.Contains(rh.Body.String(), `"degraded": true`) {
		t.Errorf("healthz does not report degraded: %s", rh.Body.String())
	}
	rg := httptest.NewRecorder()
	h.ServeHTTP(rg, httptest.NewRequest("GET", "/v1/jobs/"+j1.ID, nil))
	if rg.Code != http.StatusOK {
		t.Errorf("job read status %d, want 200", rg.Code)
	}
	if s.metrics.rejectedReadOnly.Load() < 2 {
		t.Errorf("rejectedReadOnly = %d, want >= 2", s.metrics.rejectedReadOnly.Load())
	}
}

// TestTornCompactionKeepsJournal: a torn write while compacting the
// journal at drain time must never replace the good journal — the tmp
// file is discarded, Drain reports the error, and a reboot on the same
// directory replays the intact journal.
func TestTornCompactionKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	ffs := errfs.New(nil)
	s1, err := New(Config{Workers: 2, QueueMax: 16, WALDir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, _, err := s1.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1, 60*time.Second)
	want := j1.Output()

	journal := filepath.Join(dir, "journal.wal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	// The compaction's tmp-file write tears halfway.
	ffs.SetHook(func(op errfs.Op, path string) error {
		if op == errfs.OpWrite && strings.HasSuffix(path, ".tmp") {
			return errfs.ErrShortWrite
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err == nil {
		t.Fatal("drain with a torn compaction reported success")
	}
	ffs.SetHook(nil)

	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("torn compaction replaced the journal")
	}
	if _, err := os.Stat(journal + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("half-written compaction tmp file left behind")
	}

	// Reboot: the intact journal replays the finished job untouched.
	s2 := newTestServer(t, Config{WALDir: dir})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("job lost after torn compaction + reboot")
	}
	if st := j2.State(); st != StateDone {
		t.Fatalf("rebooted job state %s, want done", st)
	}
	if j2.Output() != want {
		t.Error("rebooted job output differs from the pre-drain result")
	}
}

// TestDoneOnlyAfterFinishJournaled: a job reads as finished to a
// waiter on Done only once its terminal record is on disk. Slowed
// journal writes widen the window between the terminal transition and
// the append.
func TestDoneOnlyAfterFinishJournaled(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.wal")
	ffs := errfs.New(nil)
	ffs.SetHook(func(op errfs.Op, path string) error {
		if op == errfs.OpWrite && path == journal {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	s := newTestServer(t, Config{WALDir: dir, FS: ffs})
	j, _, err := s.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 60*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s, want done", st)
	}
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var rec walRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "finish" && rec.Job == j.ID {
			return
		}
	}
	t.Fatalf("job %s reads as done but the journal holds no finish record for it:\n%s", j.ID, b)
}

// TestBlobFrameRoundTrip pins the checkpoint-blob frame: key and
// payload survive, verification fails (keeping the key) when any byte
// flips, and legacy unframed bytes read as corrupt with no key.
func TestBlobFrameRoundTrip(t *testing.T) {
	payload := []byte("simulated machine state \x00\x01\x02")
	b := frameBlob("ddr4|mix0|0.10", payload)
	key, got, err := parseBlob(b)
	if err != nil || key != "ddr4|mix0|0.10" || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: key=%q err=%v", key, err)
	}
	for _, i := range []int{len(b) - 1, len(b) - len(payload)/2} {
		c := append([]byte(nil), b...)
		c[i] ^= 0x01
		key, _, err := parseBlob(c)
		if err == nil {
			t.Fatalf("flipped payload byte %d still verified", i)
		}
		if key != "ddr4|mix0|0.10" {
			t.Errorf("payload corruption lost the key: %q", key)
		}
	}
	if _, _, err := parseBlob([]byte("legacy raw blob")); err == nil {
		t.Error("unframed bytes verified")
	}
}

// TestBlobScrubRepairsFromReplica is the scrub contract: flip bytes in
// a stored blob, the scrubber detects it (corrupt=1), re-fetches the
// payload from the replica tier, and a subsequent load returns bytes
// identical to the original.
func TestBlobScrubRepairsFromReplica(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("checkpoint payload: cycle 123456 state")
	replica := map[string][]byte{"ddr4|mix0|0.10": payload}
	s := newTestServer(t, Config{WALDir: dir, CkptFetch: func(key string) []byte {
		return replica[key]
	}})
	if err := s.CkptSave("ddr4|mix0|0.10", payload); err != nil {
		t.Fatal(err)
	}

	// Bit-rot: flip a payload byte in the one stored blob file.
	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("blob files: %v, %v", ents, err)
	}
	path := filepath.Join(dir, "checkpoints", ents[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	scanned, corrupt, repaired := s.Scrub()
	if scanned != 1 || corrupt != 1 || repaired != 1 {
		t.Fatalf("scrub = (%d scanned, %d corrupt, %d repaired), want (1,1,1)", scanned, corrupt, repaired)
	}
	if got := s.CkptLoad("ddr4|mix0|0.10"); !bytes.Equal(got, payload) {
		t.Fatalf("repaired blob = %q, want the replica payload", got)
	}
	if s.metrics.blobsCorrupt.Load() != 1 || s.metrics.blobsRepaired.Load() != 1 {
		t.Errorf("metrics corrupt=%d repaired=%d, want 1/1",
			s.metrics.blobsCorrupt.Load(), s.metrics.blobsRepaired.Load())
	}
	// A second pass finds nothing: the store is clean again.
	if _, corrupt, _ := s.Scrub(); corrupt != 0 {
		t.Error("scrub found corruption after the repair")
	}
}

// TestBlobScrubDeletesUnrecoverable: with no replica, a corrupt blob is
// removed so later loads miss cleanly instead of tripping on it again.
func TestBlobScrubDeletesUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{WALDir: dir})
	if err := s.CkptSave("k1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, "checkpoints"))
	path := filepath.Join(dir, "checkpoints", ents[0].Name())
	if err := os.WriteFile(path, []byte("garbage, not a framed blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, corrupt, repaired := s.Scrub(); corrupt != 1 || repaired != 0 {
		t.Fatalf("scrub corrupt=%d repaired=%d, want 1/0", corrupt, repaired)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("unrecoverable blob not deleted")
	}
	if s.ckpts.Len() != 0 {
		t.Error("store still counts the deleted blob")
	}
}

// TestBlobLoadDetectsCorruption: the read path itself verifies — a
// corrupt blob loads as nil (counted + deleted), which sends the
// caller down the CkptFetch read-through (natural repair on migration).
func TestBlobLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{WALDir: dir})
	if err := s.CkptSave("k1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, "checkpoints"))
	path := filepath.Join(dir, "checkpoints", ents[0].Name())
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.CkptLoad("k1"); got != nil {
		t.Fatalf("corrupt blob loaded as %q", got)
	}
	if s.metrics.blobsCorrupt.Load() != 1 {
		t.Errorf("blobsCorrupt = %d, want 1", s.metrics.blobsCorrupt.Load())
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt blob not removed on load")
	}
}

// TestCorruptBlobResumeByteIdentical is the full repair-and-resume
// path: a job checkpoints, the daemon is force-killed, every blob on
// disk rots, and the restarted daemon — with the coordinator's replica
// as CkptFetch — detects the corruption, re-fetches the blob, resumes,
// and produces output byte-identical to an uninterrupted run.
func TestCorruptBlobResumeByteIdentical(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-second simulation")
	}
	dir := t.TempDir()
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
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Drain(expired) // forced shutdown, job journaled interrupted

	// Snapshot the replica tier (what CkptReplicate would have pushed to
	// the coordinator), then rot every local blob.
	ckptDir := filepath.Join(dir, "checkpoints")
	replica := map[string][]byte{}
	ents, err := os.ReadDir(ckptDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("checkpoint dir: %v, %v", ents, err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".ckpt" {
			continue
		}
		path := filepath.Join(ckptDir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		key, payload, err := parseBlob(b)
		if err != nil {
			t.Fatalf("stored blob unreadable before corruption: %v", err)
		}
		replica[key] = payload
		b[len(b)-2] ^= 0x10
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, Config{Workers: 1, WALDir: dir, CheckpointCycles: 100_000,
		CkptFetch: func(key string) []byte { return replica[key] }})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("interrupted job not restored")
	}
	waitJob(t, j2, 120*time.Second)
	if st := j2.State(); st != StateDone {
		t.Fatalf("recovered job state %s, want done (%s)", st, jobEvents(j2))
	}
	if s2.metrics.blobsCorrupt.Load() == 0 {
		t.Error("corruption was never detected")
	}
	if !strings.Contains(jobEvents(j2), "fetched from cluster") {
		t.Errorf("no replica fetch in recovered job events:\n%s", jobEvents(j2))
	}

	ref := newTestServer(t, Config{Workers: 1})
	jr, _, err := ref.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jr, 120*time.Second)
	if jr.Output() != j2.Output() {
		t.Error("resumed-after-repair output differs from uninterrupted reference")
	}
}
