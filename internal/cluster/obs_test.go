package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"eruca/internal/obs"
	"eruca/internal/search"
	"eruca/internal/server"
)

// traced is the startNode mod that turns request tracing on.
func traced(id string, _ *Config, sc *server.Config) { sc.Tracer = obs.NewTracer(id, 4096) }

// postSpecTraced submits spec with a client traceparent, as an
// OpenTelemetry-instrumented client would.
func postSpecTraced(t *testing.T, base string, spec server.JobSpec, root obs.SpanContext) (wireJob, int) {
	t.Helper()
	b, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.Header, root.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v wireJob
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

// fetchTraceSpans reads one trace's spans from a node's /v1/traces.
func fetchTraceSpans(t *testing.T, base, traceID string) []obs.Span {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces: status %d", resp.StatusCode)
	}
	var v struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.Spans
}

// gatherTrace polls every node's trace endpoint until each wanted span
// kind appears (async span closure makes an immediate read racy).
func gatherTrace(t *testing.T, nodes []*testNode, traceID string, want ...obs.Kind) []obs.Span {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var spans []obs.Span
		for _, n := range nodes {
			spans = append(spans, fetchTraceSpans(t, n.base, traceID)...)
		}
		have := map[obs.Kind]bool{}
		for _, sp := range spans {
			have[sp.Kind] = true
		}
		missing := false
		for _, k := range want {
			if !have[k] {
				missing = true
			}
		}
		if !missing {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never grew the wanted kinds %v; have %v", traceID, want, have)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// assertConnected checks the parentage invariant: every span's parent is
// either the client's root span or another span in the trace — one
// connected tree, no orphans.
func assertConnected(t *testing.T, spans []obs.Span, root obs.SpanContext) {
	t.Helper()
	ids := map[string]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Errorf("span %s (%s on %s) carries trace %s, want %s", sp.ID, sp.Kind, sp.Node, sp.Trace, root.Trace)
		}
		if sp.Parent == "" {
			t.Errorf("span %s (%s on %s) has no parent — disconnected root inside the trace", sp.ID, sp.Kind, sp.Node)
			continue
		}
		if sp.Parent != root.Span && !ids[sp.Parent] {
			t.Errorf("span %s (%s on %s) is an orphan: parent %s not in the trace", sp.ID, sp.Kind, sp.Node, sp.Parent)
		}
	}
}

// spanOf returns the first span of the given kind (ok=false when absent).
func spanOf(spans []obs.Span, kind obs.Kind) (obs.Span, bool) {
	for _, sp := range spans {
		if sp.Kind == kind {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// TestClusterTraceEndToEnd is the acceptance test for the tracing
// tentpole: one submission through a non-owner node yields ONE connected
// trace spanning the forwarding node, the owner's admit/queue/schedule/
// run pipeline, and a proxied read through a third node — and tracing
// changes nothing about the result (byte-identical to an untraced run).
func TestClusterTraceEndToEnd(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second, traced)
	root := obs.SpanContext{Trace: "aaaabbbbccccddddaaaabbbbccccdddd", Span: "1234123412341234"}

	// Submit through the coordinator a spec owned by w1: the coordinator
	// must forward, and the admit on w1 must continue the client's trace.
	spec := specOwnedBy(t, nodes[0], "w1")
	v, code := postSpecTraced(t, nodes[0].base, spec, root)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("traced submit: status %d", code)
	}
	if nodeOf(v.ID) != "w1" {
		t.Fatalf("submission landed on %s, want w1", v.ID)
	}
	res := awaitDone(t, nodes[1].base, v.ID, 60*time.Second)

	// A by-ID read through w2 (neither owner nor submitter) proxies to
	// w1; with the client traceparent on the request the proxy hop joins
	// the same trace.
	req, err := http.NewRequest("GET", nodes[2].base+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.Header, root.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := gatherTrace(t, nodes, root.Trace,
		obs.KindForward, obs.KindAdmit, obs.KindQueueWait, obs.KindSchedule, obs.KindRun, obs.KindProxy)
	assertConnected(t, spans, root)

	fw, _ := spanOf(spans, obs.KindForward)
	if fw.Node != "c" {
		t.Errorf("forward span on node %q, want the submitting node c", fw.Node)
	}
	if fw.Parent != root.Span {
		t.Errorf("forward span parents to %s, want the client root %s", fw.Parent, root.Span)
	}
	ad, _ := spanOf(spans, obs.KindAdmit)
	if ad.Node != "w1" {
		t.Errorf("admit span on node %q, want the owner w1", ad.Node)
	}
	if ad.Parent != fw.ID {
		t.Errorf("admit span parents to %s, want the forward span %s", ad.Parent, fw.ID)
	}
	px, _ := spanOf(spans, obs.KindProxy)
	if px.Node != "w2" {
		t.Errorf("proxy span on node %q, want the proxying node w2", px.Node)
	}
	run, _ := spanOf(spans, obs.KindRun)
	if run.Job != v.ID {
		t.Errorf("run span tagged job %q, want %s", run.Job, v.ID)
	}

	// Purely observational: an untraced node running the same spec
	// produces a byte-identical result.
	solo := startNode(t, "solo", "", time.Minute, false)
	pv, _ := postSpec(t, solo.base, spec, "", true)
	plain := awaitDone(t, solo.base, pv.ID, 60*time.Second)
	if plain.Result != res.Result {
		t.Errorf("traced result differs from untraced run:\n%s\nvs\n%s", res.Result, plain.Result)
	}
}

// TestClusterTraceMigration: an evicted member's job is re-homed on a
// survivor, and the survivor's re-admit parents to the coordinator's
// migrate span — which itself parents to the dead job's admit span, so
// the whole fault-tolerance detour stays on the original submission's
// trace.
func TestClusterTraceMigration(t *testing.T) {
	ttl := 500 * time.Millisecond
	coord := startNode(t, "c", "", ttl, true, traced)
	w1 := startNode(t, "w1", coord.peerBase, ttl, true, traced)
	_ = w1
	doomed := startNode(t, "w2", coord.peerBase, ttl, false, traced)
	body, _ := json.Marshal(joinRequest{Node: "w2", Addr: doomed.cfg.PublicAddr, Peer: doomed.cfg.PeerAddr})
	resp, err := http.Post(coord.peerBase+"/v1/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	root := obs.SpanContext{Trace: "ffffeeeeddddccccbbbbaaaa99998888", Span: "abcdabcdabcdabcd"}
	v, code := postSpecTraced(t, doomed.base, specN(41), root)
	if code != http.StatusAccepted {
		t.Fatalf("submit to doomed member: status %d", code)
	}

	deadline := time.Now().Add(10 * time.Second)
	for coord.has("w2") {
		if time.Now().After(deadline) {
			t.Fatal("doomed member was never evicted")
		}
		time.Sleep(25 * time.Millisecond)
	}
	awaitDone(t, coord.base, v.ID, 60*time.Second)

	all := []*testNode{coord, w1, doomed}
	spans := gatherTrace(t, all, root.Trace, obs.KindAdmit, obs.KindMigrate, obs.KindRun)
	assertConnected(t, spans, root)

	mig, _ := spanOf(spans, obs.KindMigrate)
	if mig.Node != "c" {
		t.Errorf("migrate span on node %q, want the coordinator", mig.Node)
	}
	// The survivor's re-admit ("admit migrated") must hang off the
	// migrate span; the doomed node's original admit off the client root.
	var sawOriginalAdmit bool
	migratedAdmit := ""
	for _, sp := range spans {
		if sp.Kind != obs.KindAdmit {
			continue
		}
		switch {
		case sp.Parent == mig.ID:
			migratedAdmit = sp.ID
			if sp.Node == "w2" {
				t.Errorf("re-admit landed back on the evicted node")
			}
		case sp.Node == "w2" && sp.Parent == root.Span:
			sawOriginalAdmit = true
		}
	}
	if !sawOriginalAdmit {
		t.Error("no admit span on the doomed member parented to the client root")
	}
	if migratedAdmit == "" {
		t.Fatal("no admit span parented to the migrate span — the migration left the trace")
	}
	// The migrated admission journals through the same path as a client
	// submission, so its WAL append is on the trace too.
	if !slices.ContainsFunc(spans, func(sp obs.Span) bool {
		return sp.Kind == obs.KindWALAppend && sp.Parent == migratedAdmit
	}) {
		t.Error("no wal_append span parented to the migrated admit")
	}
}

// TestClusterSearchTraceFanout: the design-point evals a search job fans
// out to other members stay on the search submission's trace —
// eval_fanout hops on the search's node, admits on the points' owners.
func TestClusterSearchTraceFanout(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second, traced)
	root := obs.SpanContext{Trace: "0123456789abcdef0123456789abcdef", Span: "fedcba9876543210"}
	spec := server.JobSpec{
		Kind: "search",
		Search: &search.Spec{
			Dims: []search.DimSpec{
				{Name: "planes", Values: []string{"1", "2", "4", "8"}},
				{Name: "ddb"},
			},
			Seed:   7,
			Instrs: 4000,
			Rungs:  2,
		},
	}
	v, code := postSpecTraced(t, nodes[0].base, spec, root)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("search submit status %d", code)
	}
	awaitDone(t, nodes[0].base, v.ID, 120*time.Second)

	spans := gatherTrace(t, nodes, root.Trace, obs.KindAdmit, obs.KindRun, obs.KindEvalFanout)
	assertConnected(t, spans, root)

	// The fan-out must actually have crossed nodes: admit spans on at
	// least two distinct members all inside one trace.
	admitNodes := map[string]bool{}
	for _, sp := range spans {
		if sp.Kind == obs.KindAdmit {
			admitNodes[sp.Node] = true
		}
	}
	if len(admitNodes) < 2 {
		t.Errorf("trace admits confined to %v; expected evals admitted on other members", admitNodes)
	}
}

// TestClusterSSEKeepaliveThroughProxy: an idle event stream carries
// periodic ": keepalive" comment frames, and they survive the cluster's
// streaming proxy path.
func TestClusterSSEKeepaliveThroughProxy(t *testing.T) {
	fastKeepalive := func(id string, _ *Config, sc *server.Config) { sc.SSEKeepalive = 25 * time.Millisecond }
	nodes := startCluster(t, 2, 2*time.Second, fastKeepalive)

	// A long job parked on w1: its event stream goes quiet while the
	// simulation runs, which is exactly when keepalives matter.
	long := server.JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 50_000_000, Frag: 0.1}
	v, code := postSpec(t, nodes[1].base, long, "", true)
	if code != http.StatusAccepted {
		t.Fatalf("submit long job: status %d", code)
	}

	sawKeepalive := func(base string) bool {
		req, err := http.NewRequest("GET", base+"/v1/jobs/"+v.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := http.DefaultClient.Do(req.WithContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": keepalive") {
				return true
			}
		}
		return false
	}

	if !sawKeepalive(nodes[1].base) {
		t.Error("no keepalive comment on the direct stream")
	}
	if !sawKeepalive(nodes[0].base) {
		t.Error("no keepalive comment through the proxy")
	}

	// Cancel rather than simulate 50M instructions to the end.
	req, _ := http.NewRequest("DELETE", nodes[1].base+"/v1/jobs/"+v.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestClusterMetricsMergedAndSorted: the cluster /metrics exposition is
// one deterministically ordered document — server, simulator and cluster
// families interleaved in sorted order with the hop-latency family
// present — served with the exact Prometheus text content type.
func TestClusterMetricsMergedAndSorted(t *testing.T) {
	nodes := startCluster(t, 2, 2*time.Second, traced)
	v, _ := postSpec(t, nodes[0].base, specN(3), "", true)
	awaitDone(t, nodes[0].base, v.ID, 60*time.Second)

	resp, err := http.Get(nodes[0].base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var families []string
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line)
		body.WriteByte('\n')
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			families = append(families, strings.SplitN(name, " ", 2)[0])
		}
	}
	if len(families) < 10 {
		t.Fatalf("only %d families on the merged scrape", len(families))
	}
	for i := 1; i < len(families); i++ {
		if families[i] <= families[i-1] {
			t.Errorf("families out of order: %s after %s", families[i], families[i-1])
		}
	}
	for _, want := range []string{"eruca_cluster_hop_seconds", "eruca_cluster_members", "eruca_jobs_submitted_total", "eruca_spans_total"} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("merged scrape missing family %s", want)
		}
	}
}
