package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eruca/internal/server"
)

// testNode is one in-process cluster member with live HTTP listeners
// for both the public API and the peer protocol.
type testNode struct {
	*Node
	base     string // public API base URL
	peerBase string // peer protocol base URL
}

// has reports whether id is in the node's membership view.
func (tn *testNode) has(id string) bool {
	_, ok := tn.view.Load().member(id)
	return ok
}

// nodeMod adjusts the cluster and/or server config of a test member
// before boot (tracer, SSE cadence, chaos mesh, ...).
type nodeMod func(id string, cc *Config, sc *server.Config)

// startNode boots a full member: server + public and peer listeners +
// cluster loops. started=false skips the loops (the member exists but
// never joins or heartbeats — the raw material for eviction tests).
func startNode(t *testing.T, id, joinURL string, ttl time.Duration, started bool, mods ...nodeMod) *testNode {
	t.Helper()
	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{
		Workers: 2, QueueMax: 16,
		WALDir: filepath.Join(t.TempDir(), id),
	}
	ccfg := Config{
		NodeID:     id,
		PublicAddr: pubLn.Addr().String(),
		PeerAddr:   peerLn.Addr().String(),
		JoinURL:    joinURL,
		LeaseTTL:   ttl,
	}
	for _, mod := range mods {
		mod(id, &ccfg, &scfg)
	}
	n, err := New(ccfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Server().Start()
	// Inbound listeners go through the chaos mesh too, so stalled
	// (slowloris) members are expressible in-process.
	go http.Serve(ccfg.Chaos.Listener(id, pubLn), n.Handler())
	go http.Serve(ccfg.Chaos.Listener(id, peerLn), n.PeerHandler())
	if started {
		n.Start()
	}
	t.Cleanup(func() {
		if started {
			n.Stop()
		}
		pubLn.Close()
		peerLn.Close()
		_ = n.Server().Close()
	})
	return &testNode{Node: n, base: "http://" + pubLn.Addr().String(), peerBase: "http://" + peerLn.Addr().String()}
}

// startCluster boots a coordinator plus workers-1 worker members and
// waits until every member's view holds all of them.
func startCluster(t *testing.T, members int, ttl time.Duration, mods ...nodeMod) []*testNode {
	t.Helper()
	nodes := []*testNode{startNode(t, "c", "", ttl, true, mods...)}
	for i := 1; i < members; i++ {
		nodes = append(nodes, startNode(t, fmt.Sprintf("w%d", i), nodes[0].peerBase, ttl, true, mods...))
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes {
		for len(n.view.Load().members) != members {
			if time.Now().After(deadline) {
				t.Fatalf("node %s sees %d members, want %d", n.cfg.NodeID, len(n.view.Load().members), members)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// specN builds a valid, fast spec whose hash varies with seed.
func specN(seed int64) server.JobSpec {
	return server.JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 20_000, Frag: 0.1, Seed: seed}
}

// specOwnedBy finds a spec whose ring owner is the wanted member.
func specOwnedBy(t *testing.T, n *testNode, owner string) server.JobSpec {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		spec := specN(seed)
		if ownerID(n.view.Load(), spec.Hash()) == owner {
			return spec
		}
	}
	t.Fatalf("no seed hashes onto %s", owner)
	return server.JobSpec{}
}

type wireJob struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Result string `json:"result"`
}

func postSpec(t *testing.T, base string, spec server.JobSpec, idemKey string, forced bool) (wireJob, int) {
	t.Helper()
	b, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if forced {
		req.Header.Set(forwardedHeader, "test")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v wireJob
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

// awaitDone polls id through base until the job is done, tolerating the
// 503 window while an evicted owner's jobs are being re-homed.
func awaitDone(t *testing.T, base, id string, within time.Duration) wireJob {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v wireJob
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("job %s: %v (%.200s)", id, err, body)
			}
			switch v.State {
			case "done":
				return v
			case "failed", "canceled":
				t.Fatalf("job %s ended %s", id, v.State)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done within %s (last status %d: %.200s)", id, within, resp.StatusCode, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func scrapeMetric(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v int
		if n, _ := fmt.Sscanf(sc.Text(), name+" %d", &v); n == 1 {
			return v
		}
	}
	return -1
}

// TestClusterPlacementAndProxy proves ring routing end to end: jobs
// submitted through one node land on their hash owners (job-ID prefix),
// and every node can answer for every job by proxying to its owner,
// with byte-identical results everywhere.
func TestClusterPlacementAndProxy(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second)

	ids := map[string]string{} // id -> result owner prefix check later
	owners := map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		spec := specN(seed)
		v, code := postSpec(t, nodes[0].base, spec, "", false)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		wantOwner := ownerID(nodes[0].view.Load(), spec.Hash())
		if got := nodeOf(v.ID); got != wantOwner {
			t.Errorf("seed %d placed on %s, ring owner is %s", seed, got, wantOwner)
		}
		owners[nodeOf(v.ID)] = true
		ids[v.ID] = ""
	}
	if len(owners) < 2 {
		t.Errorf("6 distinct specs all landed on %v; expected spread across members", owners)
	}

	// Every node answers for every job, identically.
	for id := range ids {
		var want string
		for i, n := range nodes {
			got := awaitDone(t, n.base, id, 60*time.Second).Result
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("job %s: node %s returned a different result than node %s", id, n.cfg.NodeID, nodes[0].cfg.NodeID)
			}
		}
	}
	if m := scrapeMetric(t, nodes[0].base, "eruca_cluster_members"); m != 3 {
		t.Errorf("eruca_cluster_members = %d, want 3", m)
	}
}

// TestClusterIdempotentDedupAcrossNodes: the same spec + key submitted
// through two different nodes collapses to one job, because both route
// to the same ring owner where the idempotency key replays.
func TestClusterIdempotentDedupAcrossNodes(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second)
	spec := specN(7)
	a, codeA := postSpec(t, nodes[1].base, spec, "dedup-key", false)
	b, codeB := postSpec(t, nodes[2].base, spec, "dedup-key", false)
	if codeA != http.StatusAccepted && codeA != http.StatusOK {
		t.Fatalf("first submit: status %d", codeA)
	}
	if a.ID != b.ID {
		t.Fatalf("same key through two nodes made two jobs: %s (status %d) vs %s (status %d)", a.ID, codeA, b.ID, codeB)
	}
}

// TestClusterCacheReadThrough: a node forced to run a spec another
// shard already finished serves it from the owner's cache shard instead
// of re-simulating.
func TestClusterCacheReadThrough(t *testing.T) {
	nodes := startCluster(t, 2, 2*time.Second)
	coord, worker := nodes[0], nodes[1]

	// A spec owned by the coordinator, run there first.
	spec := specOwnedBy(t, coord, "c")
	v, _ := postSpec(t, coord.base, spec, "", true) // forced: stays local
	want := awaitDone(t, coord.base, v.ID, 60*time.Second).Result

	// Force the worker to take the same spec locally: its cache misses,
	// and the read-through must pull the result from the owner's shard.
	v2, _ := postSpec(t, worker.base, spec, "", true)
	got := awaitDone(t, worker.base, v2.ID, 60*time.Second).Result
	if got != want {
		t.Error("read-through result differs from the owner's")
	}
	if hits := scrapeMetric(t, worker.base, "eruca_result_cache_remote_hits_total"); hits < 1 {
		t.Errorf("eruca_result_cache_remote_hits_total = %d, want >= 1", hits)
	}
}

// TestClusterSSEProxy: the event stream of a job is reachable through a
// non-owner node, and Last-Event-ID passes through the proxy so a
// resumed stream starts where it left off.
func TestClusterSSEProxy(t *testing.T) {
	nodes := startCluster(t, 2, 2*time.Second)
	coord, worker := nodes[0], nodes[1]

	spec := specOwnedBy(t, coord, "w1")
	v, _ := postSpec(t, worker.base, spec, "", true) // local on w1
	awaitDone(t, worker.base, v.ID, 60*time.Second)

	read := func(base, lastID string) string {
		req, err := http.NewRequest("GET", base+"/v1/jobs/"+v.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events via %s: status %d", base, resp.StatusCode)
		}
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: done") {
				break
			}
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		return b.String()
	}

	direct := read(worker.base, "")
	proxied := read(coord.base, "") // coordinator does not own w1's job
	if proxied != direct {
		t.Errorf("proxied stream differs from direct:\n--- direct ---\n%s--- proxied ---\n%s", direct, proxied)
	}
	if scrapeMetric(t, coord.base, "eruca_cluster_requests_proxied_total") < 1 {
		t.Error("no proxied request counted on the coordinator")
	}

	directTail := read(worker.base, "1")
	proxiedTail := read(coord.base, "1")
	if proxiedTail != directTail {
		t.Error("Last-Event-ID not preserved through the proxy")
	}
	if proxiedTail == proxied {
		t.Error("Last-Event-ID had no effect through the proxy")
	}
}

// TestClusterEvictionMigratesJobs is the tentpole's in-process proof: a
// member that stops heartbeating is evicted when its lease expires, and
// the jobs placed on it are re-enqueued on survivors — reachable under
// their old IDs through the coordinator's alias table — with the
// eviction and migration visible in the cluster metrics.
func TestClusterEvictionMigratesJobs(t *testing.T) {
	ttl := 500 * time.Millisecond
	coord := startNode(t, "c", "", ttl, true)
	w1 := startNode(t, "w1", coord.peerBase, ttl, true)
	_ = w1

	// The doomed member joins by hand and then never heartbeats.
	doomed := startNode(t, "w2", coord.peerBase, ttl, false)
	body, _ := json.Marshal(joinRequest{Node: "w2", Addr: doomed.cfg.PublicAddr, Peer: doomed.cfg.PeerAddr})
	resp, err := http.Post(coord.peerBase+"/v1/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Place two jobs directly on the doomed member (forced local). Its
	// admission hook reports the placements to the coordinator.
	var ids []string
	for seed := int64(30); seed < 32; seed++ {
		v, code := postSpec(t, doomed.base, specN(seed), fmt.Sprintf("evict-%d", seed), true)
		if code != http.StatusAccepted {
			t.Fatalf("submit to doomed member: status %d", code)
		}
		if nodeOf(v.ID) != "w2" {
			t.Fatalf("forced submit landed on %s", v.ID)
		}
		ids = append(ids, v.ID)
	}

	// Let the lease run out: the sweeper must evict w2 and migrate its
	// placements to survivors. (The jobs may well have finished on w2
	// already — the coordinator cannot know without heartbeats, so it
	// re-homes them regardless; determinism makes the re-run identical.)
	deadline := time.Now().Add(10 * time.Second)
	for coord.has("w2") {
		if time.Now().After(deadline) {
			t.Fatal("doomed member was never evicted")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The old IDs keep answering through the coordinator's alias
	// resolution.
	for _, id := range ids {
		awaitDone(t, coord.base, id, 60*time.Second)
	}
	if n := scrapeMetric(t, coord.base, "eruca_cluster_nodes_evicted"); n < 1 {
		t.Errorf("eruca_cluster_nodes_evicted = %d, want >= 1", n)
	}
	if n := scrapeMetric(t, coord.base, "eruca_cluster_jobs_migrated"); n < 2 {
		t.Errorf("eruca_cluster_jobs_migrated = %d, want >= 2", n)
	}
	if coord.has("w2") {
		t.Error("evicted member still in the coordinator's view")
	}
}

// TestCoordinatorJoinPublishesView: a join is in the coordinator's view
// the moment join returns. The ring owner of a key comes with its
// addresses, so routing never finds an owner it cannot reach while it
// waits for a heartbeat.
func TestCoordinatorJoinPublishesView(t *testing.T) {
	n, err := New(Config{NodeID: "c", PublicAddr: "a:0", PeerAddr: "p:0", LeaseTTL: time.Minute},
		server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Server().Close() })
	n.coord.join(joinRequest{Node: "c", Addr: "a:0", Peer: "p:0"})
	n.coord.join(joinRequest{Node: "w1", Addr: "a:1", Peer: "p:1"})

	v := n.view.Load()
	for _, k := range ringKeys(100) {
		if m, _ := v.owner(k); m.ID == "w1" {
			if m.Addr != "a:1" || m.Peer != "p:1" {
				t.Fatalf("owner of %s is %+v, want w1 at a:1 / p:1", k, m)
			}
			return
		}
	}
	t.Fatal("w1 owns none of 100 keys")
}

// TestCoordinatorRestoreFromJournal folds a synthetic journal back into
// coordinator state: membership, placements, and migration aliases all
// reconstruct, and a compaction snapshot round-trips losslessly.
func TestCoordinatorRestoreFromJournal(t *testing.T) {
	n, err := New(Config{NodeID: "c", PublicAddr: "a:0", PeerAddr: "p:0", LeaseTTL: time.Minute},
		server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Server().Close() })

	spec := specN(1)
	recs := []server.ClusterRecord{
		{Kind: "join", Node: "c", Addr: "a:0", Peer: "p:0", Epoch: 1},
		{Kind: "join", Node: "w1", Addr: "a:1", Peer: "p:1", Epoch: 2},
		{Kind: "join", Node: "w2", Addr: "a:2", Peer: "p:2", Epoch: 3},
		{Kind: "place", Node: "w2", Job: "w2-job-000001", Hash: spec.Hash(), Spec: &spec},
		{Kind: "place", Node: "w1", Job: "w1-job-000001", Hash: spec.Hash(), Spec: &spec},
		{Kind: "unplace", Job: "w1-job-000001"},
		{Kind: "evict", Node: "w2"},
		{Kind: "migrate", Node: "w1", Job: "w2-job-000001", NewID: "w1-job-000002"},
		{Kind: "place", Node: "w1", Job: "w1-job-000002", Hash: spec.Hash(), Spec: &spec},
	}
	n.coord.restore(recs)

	if got := n.view.Load().members; len(got) != 2 || got[0].ID != "c" || got[1].ID != "w1" || got[1].Addr != "a:1" {
		t.Fatalf("restored view = %+v, want [c w1@a:1]", got)
	}
	rr, err := n.coord.resolve("w2-job-000001")
	if err != nil {
		t.Fatalf("resolve migrated job: %v", err)
	}
	if rr.Addr != "a:1" || rr.ID != "w1-job-000002" {
		t.Errorf("alias resolved to %+v, want a:1 / w1-job-000002", rr)
	}
	if _, err := n.coord.resolve("w1-job-000001"); err != nil {
		// Done placements still resolve (results remain fetchable).
		t.Errorf("resolve finished job: %v", err)
	}

	// The compaction snapshot keeps live members, open placements and
	// aliases, and drops the finished placement.
	snap := n.coord.snapshot()
	kinds := map[string]int{}
	for _, r := range snap {
		kinds[r.Kind]++
		if r.Kind == "place" && r.Job == "w1-job-000001" {
			t.Error("snapshot kept a finished placement")
		}
	}
	if kinds["join"] != 2 || kinds["place"] != 2 || kinds["migrate"] != 1 {
		t.Errorf("snapshot kinds = %v, want 2 joins, 2 places, 1 migrate", kinds)
	}
}
