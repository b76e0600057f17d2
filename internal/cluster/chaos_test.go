package cluster

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"eruca/internal/chaosnet"
	"eruca/internal/server"
)

// meshed returns a nodeMod wiring every member of an in-process cluster
// to one shared chaos mesh, so the test can partition and stall members
// programmatically (Sever/Heal/StallNode).
func meshed(m *chaosnet.Mesh) nodeMod {
	return func(id string, cc *Config, sc *server.Config) { cc.Chaos = m }
}

// sweepN builds a fast figure sweep whose hash varies with seed — the
// workload the partition test interrupts ("mid-sweep" in the ERUCA
// sense: reproducing a paper figure, not just a single sim).
func sweepN(seed int64) server.JobSpec {
	return server.JobSpec{
		Kind: "sweep", Exp: "sweep", Systems: []string{"ddr4"},
		Mixes: []string{"mix0"}, Instrs: 40_000, Frag: 0.1, Seed: seed,
	}
}

// openPlacements counts the coordinator's live (non-done) placements on
// a member — the signal that admission reports have landed and an
// eviction would have something to migrate.
func openPlacements(coord *testNode, member string) int {
	c := coord.Node.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.placements {
		if p.Node == member && !p.Done && p.NewID == "" {
			n++
		}
	}
	return n
}

// TestClusterPartitionTolerance is the chaos-mesh acceptance test: a
// worker is partitioned from the rest of the cluster mid-sweep. The
// coordinator must evict it when its lease lapses and migrate its
// placements to survivors, the old job IDs must keep answering through
// the coordinator with byte-identical figures, and when the partition
// heals the zombie's stale-epoch writes must be fenced off with a 410
// (eruca_cluster_fenced_requests_total >= 1) before it rejoins fresh —
// no split-brain, no lost work.
func TestClusterPartitionTolerance(t *testing.T) {
	mesh := chaosnet.New(&chaosnet.Plan{Seed: 42})
	ttl := 500 * time.Millisecond
	nodes := startCluster(t, 3, ttl, meshed(mesh))
	coord, w2 := nodes[0], nodes[2]

	// Two sweeps forced local onto the soon-to-be-partitioned worker.
	var ids []string
	var specs []server.JobSpec
	for seed := int64(50); seed < 52; seed++ {
		spec := sweepN(seed)
		v, code := postSpec(t, w2.base, spec, fmt.Sprintf("chaos-%d", seed), true)
		if code != http.StatusAccepted {
			t.Fatalf("submit to w2: status %d", code)
		}
		if nodeOf(v.ID) != "w2" {
			t.Fatalf("forced submit landed on %s", v.ID)
		}
		ids = append(ids, v.ID)
		specs = append(specs, spec)
	}

	// Wait until the admission reports reach the coordinator, then cut
	// w2 off from both survivors while the sweeps are (at most) barely
	// under way.
	deadline := time.Now().Add(10 * time.Second)
	for openPlacements(coord, "w2") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator saw %d open placements on w2, want 2", openPlacements(coord, "w2"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	mesh.Sever("w2", "c")
	mesh.Sever("w2", "w1")

	// The lease lapses and the sweeper evicts w2.
	deadline = time.Now().Add(15 * time.Second)
	for coord.has("w2") {
		if time.Now().After(deadline) {
			t.Fatal("partitioned member was never evicted")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The old IDs keep answering through the coordinator (alias table ->
	// survivor), and the re-run figures are byte-identical to a clean
	// reference run of the same specs.
	solo := startNode(t, "solo", "", time.Minute, false)
	for i, id := range ids {
		got := awaitDone(t, coord.base, id, 60*time.Second).Result
		rv, _ := postSpec(t, solo.base, specs[i], "", true)
		want := awaitDone(t, solo.base, rv.ID, 60*time.Second).Result
		if got != want {
			t.Errorf("migrated sweep %s differs from the clean reference run", id)
		}
	}
	if n := scrapeMetric(t, coord.base, "eruca_cluster_nodes_evicted"); n < 1 {
		t.Errorf("eruca_cluster_nodes_evicted = %d, want >= 1", n)
	}
	if n := scrapeMetric(t, coord.base, "eruca_cluster_jobs_migrated"); n < 2 {
		t.Errorf("eruca_cluster_jobs_migrated = %d, want >= 2", n)
	}

	// Heal. The zombie heartbeats with its dead epoch; the coordinator
	// fences it (410, counted) and it rejoins with a fresh lease.
	mesh.Heal("w2", "c")
	mesh.Heal("w2", "w1")
	deadline = time.Now().Add(15 * time.Second)
	for !coord.has("w2") {
		if time.Now().After(deadline) {
			t.Fatal("healed member never rejoined the ring")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if n := scrapeMetric(t, coord.base, "eruca_cluster_fenced_requests_total"); n < 1 {
		t.Errorf("eruca_cluster_fenced_requests_total = %d, want >= 1 (stale-epoch write not fenced)", n)
	}
	if n := scrapeMetric(t, w2.base, "eruca_cluster_rejoins_total"); n < 1 {
		t.Errorf("eruca_cluster_rejoins_total = %d, want >= 1", n)
	}
}

// TestClusterSlowlorisPeerFastFail is the streaming-proxy regression
// test: a peer that accepts connections but never answers (stalled
// listener) must not hang the proxy path — the per-node proxy client's
// response-header timeout cuts it off and the caller degrades to a 503
// with Retry-After instead of holding the downstream request forever.
func TestClusterSlowlorisPeerFastFail(t *testing.T) {
	mesh := chaosnet.New(&chaosnet.Plan{Seed: 1})
	nodes := startCluster(t, 2, 500*time.Millisecond, meshed(mesh))
	coord, worker := nodes[0], nodes[1]

	spec := specOwnedBy(t, coord, "w1")
	v, _ := postSpec(t, worker.base, spec, "", true)
	awaitDone(t, worker.base, v.ID, 60*time.Second)
	// Sanity: the proxied read works before the stall.
	awaitDone(t, coord.base, v.ID, 10*time.Second)

	// Stall every new inbound connection on w1 and drop the pooled
	// (pre-stall) connections so the proxy has to dial fresh.
	mesh.StallNode("w1", true)
	defer mesh.StallNode("w1", false)
	coord.proxy.CloseIdleConnections()
	coord.client.CloseIdleConnections()

	start := time.Now()
	resp, err := http.Get(coord.base + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("proxy to stalled peer: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from stalled-peer proxy carries no Retry-After")
	}
	// Two proxy attempts at the streaming client's 2s response-header
	// floor plus resolution overhead; anything near this bound proves
	// the timeout fired rather than the request hanging.
	if elapsed > 15*time.Second {
		t.Errorf("proxy to stalled peer took %s; response-header timeout not enforced", elapsed)
	}
}
