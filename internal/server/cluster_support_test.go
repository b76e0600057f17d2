package server

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitMigratedBypassesAdmissionBound: lease-expiry re-enqueue
// must land even on a survivor whose queue is at capacity — the work
// was already acknowledged cluster-side, so shedding it here would turn
// an eviction into data loss. Regular submissions still bounce off the
// same full queue.
func TestSubmitMigratedBypassesAdmissionBound(t *testing.T) {
	// Workers: 1 and QueueMax: 1, with a long blocker occupying the
	// worker and a second job filling the only queue slot.
	s := newTestServer(t, Config{Workers: 1, QueueMax: 1})
	long := func(mix string) JobSpec {
		return JobSpec{Kind: "sim", System: "ddr4", Mix: mix, Instrs: 50_000_000, Frag: 0.1}
	}
	blocker, _, err := s.Submit(long("mix0"), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	if _, _, err := s.Submit(long("mix1"), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}

	// The queue is now full: a plain submission is rejected, and the
	// rejection releases its idempotency key, so a retry is judged afresh
	// instead of replaying the failed job...
	for range 2 {
		if _, replayed, err := s.Submit(long("mix2"), SubmitOpts{IdemKey: "full-key"}); err != ErrQueueFull || replayed {
			t.Fatalf("plain submit on full queue: %v (replayed=%v), want ErrQueueFull", err, replayed)
		}
	}
	// ...but a migrated job is admitted past the bound.
	mig, replayed, err := s.Submit(long("mix3"), SubmitOpts{IdemKey: "mig-key", From: "w2"})
	if err != nil || replayed {
		t.Fatalf("migrated Submit on full queue: %v (replayed=%v)", err, replayed)
	}
	hist, _, unsub := mig.events.SubscribeFrom(-1)
	unsub()
	var lines []string
	for _, ll := range hist {
		lines = append(lines, ll.Text)
	}
	if got := strings.Join(lines, "\n"); !strings.Contains(got, "after eviction of w2") {
		t.Errorf("migrated job's event log does not record the eviction: %q", got)
	}
	// A retried migration (coordinator restart mid-eviction) replays the
	// original instead of enqueueing a twin.
	again, replayed, err := s.Submit(long("mix3"), SubmitOpts{IdemKey: "mig-key", From: "w2"})
	if err != nil || !replayed || again.ID != mig.ID {
		t.Errorf("migration retry: id %s replayed=%v err=%v, want replay of %s", again.ID, replayed, err, mig.ID)
	}

	for _, j := range []*Job{blocker, mig} {
		j.Cancel()
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", j.ID, j.State(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWALCompactionRacesConcurrentSubmits hammers the submit path while
// a drain (which compacts the WAL) begins. Every job that got a
// successful acknowledgement before the cutoff must survive into the
// compacted journal; submissions that lost the race get a clean
// ErrQueueClosed, never a corrupt or half-written record.
func TestWALCompactionRacesConcurrentSubmits(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 4, QueueMax: 256, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	var mu sync.Mutex
	accepted := map[string]string{} // job ID -> idem key
	var rejected atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				key := "race-" + string(rune('a'+g)) + "-" + string(rune('0'+i%10))
				spec := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0",
					Instrs: 20_000, Frag: 0.1, Seed: int64(g*1000 + i)}
				j, _, err := s.Submit(spec, SubmitOpts{IdemKey: key})
				if err != nil {
					rejected.Add(1)
					return // drain began: stop submitting
				}
				mu.Lock()
				accepted[j.ID] = key
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let submissions build up
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if len(accepted) == 0 || rejected.Load() == 0 {
		t.Fatalf("race did not race: %d accepted, %d rejected", len(accepted), rejected.Load())
	}

	// Reopen on the compacted WAL: every acknowledged job is present,
	// finished, and still reachable through its idempotency key.
	s2 := newTestServer(t, Config{WALDir: dir})
	for id, key := range accepted {
		j := s2.Job(id)
		if j == nil {
			t.Fatalf("acknowledged job %s missing after compaction (of %d accepted)", id, len(accepted))
		}
		if !j.State().Terminal() {
			waitJob(t, j, 60*time.Second)
		}
		if jj, replayed, err := s2.Submit(j.Spec, SubmitOpts{IdemKey: key}); err != nil || !replayed || jj.ID != id {
			t.Errorf("idempotency key %q after compaction: id %s replayed=%v err=%v, want %s", key, jj.ID, replayed, err, id)
		}
	}
}

// TestClusterRecordsSurviveCompaction: the coordinator's membership and
// placement journal must ride through drain-time WAL compaction via the
// ClusterSnapshot hook and replay on the next boot.
func TestClusterRecordsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 20_000, Frag: 0.1}
	snap := []ClusterRecord{
		{Kind: "join", Node: "w1", Addr: "a:1", Peer: "p:1", Epoch: 4},
		{Kind: "place", Node: "w1", Job: "w1-job-000001", Hash: spec.Hash(), Spec: &spec},
		{Kind: "migrate", Node: "w1", Job: "w2-job-000003", NewID: "w1-job-000002"},
	}
	s, err := New(Config{Workers: 1, QueueMax: 4, WALDir: dir,
		ClusterSnapshot: func() []ClusterRecord { return snap }})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Journal some records that compaction should *replace* with the
	// snapshot (the live table, not the raw history, is what survives).
	for _, rec := range []ClusterRecord{
		{Kind: "join", Node: "w2", Addr: "a:2", Peer: "p:2", Epoch: 2},
		{Kind: "evict", Node: "w2"},
	} {
		if err := s.JournalCluster(rec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{WALDir: dir})
	got := s2.ClusterReplay()
	if len(got) != len(snap) {
		t.Fatalf("replayed %d cluster records, want %d: %+v", len(got), len(snap), got)
	}
	for i, rec := range got {
		if rec.Kind != snap[i].Kind || rec.Node != snap[i].Node || rec.Job != snap[i].Job || rec.NewID != snap[i].NewID {
			t.Errorf("record %d = %+v, want %+v", i, rec, snap[i])
		}
	}
	if got[1].Spec == nil || got[1].Spec.Hash() != spec.Hash() {
		t.Error("placement spec did not survive compaction")
	}
}
