GO ?= go

.PHONY: build vet test race cluster-stress zero-alloc chaos chaos-restart chaos-cluster chaos-mesh fuzz-smoke search-smoke verify bench clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short -race smoke of the concurrency-sensitive paths: the parallel
# experiment engine, the fast-forward/per-cycle equivalence, the chaos
# harness (fault injection + checker + watchdog under -race), the
# telemetry rings shared across concurrent runs and snapshot readers,
# the span ring under concurrent writers and scrapers, concurrent
# submissions of one idempotency key (ten rounds), and the cluster's
# routing, tracing and partition paths.
race:
	$(GO) test -race -count=1 -run 'Parallel|Sweep|LogMode|Cancel|SharedFlight' ./internal/exp/
	$(GO) test -race -count=1 -run 'FastForward|Chaos|TelemetryShared' ./internal/sim/
	$(GO) test -race -count=1 -run 'Concurrency' ./internal/stats/
	$(GO) test -race -count=1 ./internal/telemetry/
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 ./internal/chaosnet/
	$(GO) test -race -count=1 ./internal/errfs/
	$(GO) test -race -count=1 ./internal/server/
	$(GO) test -race -count=10 -run 'IdempotencyKeyConcurrent' ./internal/server/
	$(GO) test -race -count=1 -run 'Trace|Keepalive|Partition|Slowloris|Placement|Search' ./internal/cluster/

# The whole cluster package five times on one OS thread: membership
# and admission races that a many-core machine hides show up here.
cluster-stress:
	GOMAXPROCS=1 $(GO) test -count=5 ./internal/cluster/

# Hard zero-cost gate for disabled tracing: every nil-tracer call path
# must stay at exactly 0 allocs/op (the bench-guard CI step runs this).
zero-alloc:
	$(GO) test -count=1 -v -run 'DisabledTracerZeroAlloc' ./internal/obs/

# Full chaos-harness pass: every seeded fault kind must be caught by the
# protocol checker or the watchdog, and benign perturbations must stay
# protocol-legal.
chaos:
	$(GO) test -count=1 -v -run 'Chaos|RunOOM' ./internal/sim/

# Kill-restart chaos harness against the real erucad binary: SIGKILL
# mid-sweep, restart on the same WAL directory, and require every job to
# complete with results byte-identical to an uninterrupted daemon. Set
# ERUCA_CHAOS_RESTART_DIR to keep the WAL, logs and trace dump.
chaos-restart:
	ERUCA_CHAOS_RESTART=1 ERUCA_CHAOS_RESTART_DIR=$(ERUCA_CHAOS_RESTART_DIR) \
		$(GO) test -count=1 -v -timeout 15m \
		-run 'ChaosKillRestart' ./cmd/erucad/

# Cluster chaos harness against real erucad binaries: a 3-node cluster
# takes a sweep, a random worker is SIGKILLed mid-run, and the cluster
# must evict it on lease expiry, re-enqueue its jobs on survivors, and
# finish with results byte-identical to an uninterrupted single-node
# daemon. Set ERUCA_CHAOS_CLUSTER_DIR to keep per-node WALs and logs.
chaos-cluster:
	ERUCA_CHAOS_CLUSTER=1 ERUCA_CHAOS_CLUSTER_DIR=$(ERUCA_CHAOS_CLUSTER_DIR) \
		$(GO) test -count=1 -v -timeout 15m \
		-run 'ChaosCluster' ./cmd/erucad/

# Chaos-mesh harness: both service-tier fault families composed against
# real erucad binaries — a DSL-driven timed network partition (-chaos)
# on one worker plus a SIGKILL of another, with live blob scrubbing
# (-scrub) — and the sweep must still finish byte-identical to an
# uninterrupted daemon, with the eviction/migration/fencing visible in
# the metrics. Set ERUCA_CHAOS_MESH_DIR to keep per-node WALs and logs.
chaos-mesh:
	ERUCA_CHAOS_MESH=1 ERUCA_CHAOS_MESH_DIR=$(ERUCA_CHAOS_MESH_DIR) \
		$(GO) test -count=1 -v -timeout 15m \
		-run 'ChaosMesh' ./cmd/erucad/

# Short fuzz of the hostile-input decoders: the fault-plan parser
# (corpus under internal/faults/testdata/fuzz/ keeps regressions pinned)
# and the snapshot container decoder (must reject corruption with typed
# errors, never panic or over-allocate), plus the service tier's
# attacker-facing parsers: the -chaos DSL and the W3C traceparent
# header.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFaultPlan' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz 'FuzzChaosPlan' -fuzztime 10s ./internal/chaosnet/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceparentParse' -fuzztime 10s ./internal/obs/

# Determinism smoke of the autotuner: the same tiny 2-dim search
# (successive halving over planes x ddb) run twice — once parallel,
# once serial — must print byte-identical, non-empty Pareto frontiers.
# Keep the artifacts on failure: they are the diff CI uploads.
SEARCH_SMOKE_FLAGS = -exp search -search-dims 'planes=1,2;ddb' \
	-search-rungs 2 -instrs 4000 -seed 7 -chart -q
search-smoke:
	$(GO) run ./cmd/erucabench $(SEARCH_SMOKE_FLAGS) > search-smoke-a.txt
	$(GO) run ./cmd/erucabench $(SEARCH_SMOKE_FLAGS) -parallel 1 > search-smoke-b.txt
	cmp search-smoke-a.txt search-smoke-b.txt
	grep -q 'planes=' search-smoke-a.txt
	rm -f search-smoke-a.txt search-smoke-b.txt

# verify is the tier-1 gate plus the race and chaos smokes.
verify: vet build test race zero-alloc chaos

# Scaled-down figure + ablation + micro benchmarks. End-to-end and
# per-layer performance is measured by bench/erucaperf (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

clean:
	rm -f cpu.pprof mem.pprof
