# Convenience targets for the AHS safety reproduction.

GO ?= go
BIN := bin

.PHONY: all build vet test race lint loc tools sanlint facts-golden serve worker cluster-smoke sweep-smoke store-smoke fleet-smoke chaos fuzz bench profile figures figures-full figures-check docs clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole module (mirrors CI). -short skips the
# heavy Monte-Carlo statistical cross-checks, which would exceed the package
# test timeout under race instrumentation; every concurrent code path still
# runs.
race:
	$(GO) test -race -short ./...

# Non-test Go lines under internal/ and cmd/, the size figure each change
# records in CHANGES.md.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Build the repo's own verification tools.
tools:
	$(GO) build -o $(BIN)/ahs-vet ./cmd/ahs-vet
	$(GO) build -o $(BIN)/ahs-lint ./cmd/ahs-lint

# Lint the models: structural checks (SAN001..SAN011, docs/linting.md) over
# every coordination strategy.
sanlint: tools
	$(BIN)/ahs-lint

# Regenerate the certified structural-facts golden for the four paper
# models (cmd/ahs-lint/testdata/facts.golden). CI diffs the live output
# against the committed file; run this after an intended model change and
# review the diff like any other golden update.
facts-golden: tools
	$(BIN)/ahs-lint -facts > cmd/ahs-lint/testdata/facts.golden
	@echo "facts golden regenerated; review with: git diff cmd/ahs-lint/testdata/facts.golden"

# Full static pass: formatting, standard vet, the repo's custom analyzers
# (ahsrand, ctxloop, floateq, locklabel) via the vettool protocol,
# staticcheck when installed, and the SAN model linter.
lint: tools
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/ahs-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	$(BIN)/ahs-lint

# Run the evaluation service on :8080 (see docs/api.md). Add cluster mode
# with: go run ./cmd/ahs-serve -addr :8080 -cluster
serve:
	$(GO) run ./cmd/ahs-serve -addr :8080

# Run one compute worker against a local cluster coordinator
# (ahs-serve -cluster). See docs/cluster.md.
worker:
	$(GO) run ./cmd/ahs-worker -coordinator http://localhost:8080

# End-to-end check of the distributed backend: the cluster test suites
# (chunk determinism, coordinator robustness, service integration, the
# serve binary in -cluster mode) plus the runnable demo, which asserts the
# merged curve is bit-identical to a single-process evaluation.
cluster-smoke:
	$(GO) test -count=1 ./internal/cluster/ -run 'Chunk|Cluster|Shard|Merger'
	$(GO) test -count=1 ./internal/mc/
	$(GO) test -count=1 ./internal/service/ ./cmd/ahs-serve/ -run 'Cluster|Backend'
	$(GO) run ./examples/cluster

# End-to-end check of the parameter-sweep engine: the sweep test suite
# (expansion goldens, engine scheduling, per-point bit-identity against
# standalone evaluation, locally and via the cluster backend), then the
# committed example grid driven through a live ahs-serve by cmd/ahs-sweep.
# The CLI exits non-zero unless every point completes, and the smoke fails
# unless the response-surface report actually rendered.
sweep-smoke:
	$(GO) test -count=1 ./internal/sweep/
	$(GO) build -o $(BIN)/ahs-serve ./cmd/ahs-serve
	$(GO) build -o $(BIN)/ahs-sweep ./cmd/ahs-sweep
	@set -e; \
	$(BIN)/ahs-serve -addr 127.0.0.1:18099 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:18099/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	$(BIN)/ahs-sweep -spec docs/sweep-example.json -server http://127.0.0.1:18099 \
		-poll 100ms -timeout 5m \
		-csv $(BIN)/sweep-smoke.csv -html $(BIN)/sweep-smoke.html; \
	test -s $(BIN)/sweep-smoke.csv; \
	test -s $(BIN)/sweep-smoke.html; \
	grep -q "<svg" $(BIN)/sweep-smoke.html; \
	echo "sweep-smoke: all points completed and the report rendered"

# End-to-end check of the persistent result store and multi-tenant
# serving: the resultstore suite (framing, compaction, corrupt-tail
# recovery, follower mode), the service-layer store tier / fair-share /
# streaming suites, the kill -9 server restart e2e, then a live-binary
# smoke — fill the store, restart the process on the same directory, and
# require the scenario to be answered from the store with zero
# re-evaluation (observed on /metrics).
store-smoke:
	$(GO) test -count=1 ./internal/resultstore/
	$(GO) test -count=1 -run 'Store|Tenant|FairQueue|FairShare|Stream|Snapshot' \
		./internal/service/ ./internal/sweep/ ./internal/mc/
	$(GO) test -count=1 -run 'ServeStore' ./cmd/ahs-serve/
	$(GO) build -o $(BIN)/ahs-serve ./cmd/ahs-serve
	@set -e; \
	dir=$$(mktemp -d); sc=$$dir/scenario.json; \
	printf '%s' '{"n":2,"lambdaPerHour":0.01,"tripHours":[0.5,1],"batches":500,"seed":7}' > $$sc; \
	$(BIN)/ahs-serve -addr 127.0.0.1:18098 -store-dir $$dir & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:18098/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d @$$sc \
		http://127.0.0.1:18098/v1/evaluate >/dev/null; \
	for i in $$(seq 1 300); do \
		curl -fsS -X POST -H 'Content-Type: application/json' -d @$$sc \
			http://127.0.0.1:18098/v1/evaluate | grep -q '"cached": true' && break; \
		sleep 0.1; \
	done; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	$(BIN)/ahs-serve -addr 127.0.0.1:18098 -store-dir $$dir & pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -fsS http://127.0.0.1:18098/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d @$$sc \
		http://127.0.0.1:18098/v1/evaluate | grep -q '"cached": true'; \
	curl -fsS http://127.0.0.1:18098/metrics | grep -q '^ahs_service_store_hits_total 1'; \
	rm -rf $$dir; \
	echo "store-smoke: restart served from the persistent store with zero re-evaluation"

# End-to-end check of the coordinator fleet (docs/store.md "Coordinator
# fleets"): the claims-region suite (claim lifecycle, steal after TTL,
# torn-tail recovery, epoch monotonicity, lock contention, follower
# staleness bound), the fleet-node suite under race (promotion, fencing,
# forwarding, seeded chaos schedules), the service-layer exactly-once and
# redirect tests, and the two-process kill -9 writer-failover e2e, which
# asserts promotion under a new epoch, zero double evaluation across the
# fleet (metrics), and bit-identical read-back of the dead writer's work.
fleet-smoke:
	$(GO) test -count=1 ./internal/resultstore/
	$(GO) test -race -count=1 ./internal/fleet/
	$(GO) test -race -count=1 -run 'Fleet|PeerClaim|RetryAfter|ScenarioByHash|StreamResume|SharedDir' ./internal/service/
	$(GO) test -count=1 -run 'ServeFleet' ./cmd/ahs-serve/

# Crash-safety suite under the race detector: deterministic fault
# injection, seeded chaos schedules (worker kills/pauses + network
# faults), journal recovery including the truncation table, graceful
# drain, and the kill -9 coordinator e2e. A failing chaos schedule
# prints its seed; replay it with
#   go test -race -run 'ChaosSchedules/seed=NNN' ./internal/cluster/
# See docs/cluster.md "Failure model & recovery".
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) test -race -count=1 -run 'Chaos|Journal|Drain|Backoff|KillMinus9' -timeout 20m ./internal/cluster/

# Native Go fuzzers over the /cluster/v1/ wire decoding and the frame
# scanner shared by the journal, result store and claims region, a short
# exploratory budget each; the committed seed corpora in
# internal/cluster/testdata/fuzz/ and internal/segment/testdata/fuzz/ also
# run as regression inputs in every plain "go test".
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 60s ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 20s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzClusterHandlers -fuzztime 20s ./internal/cluster/

# Quick-look benchmark pass: regenerates every paper figure at a reduced
# batch budget and runs the micro/ablation benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Profile a representative estimation run (CPU + heap + runtime trace;
# see docs/observability.md). Inspect with:
#   go tool pprof $(BIN)/cpu.prof
#   go tool pprof $(BIN)/mem.prof
#   go tool trace $(BIN)/runtime.trace
profile:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/ahs-sim -n 10 -lambda 1e-5 -horizon 10 -points 5 -batches 4000 \
		-cpuprofile $(BIN)/cpu.prof -memprofile $(BIN)/mem.prof \
		-runtimetrace $(BIN)/runtime.trace
	@echo "profiles written to $(BIN)/: cpu.prof mem.prof runtime.trace"

# Quick figures (about a minute).
figures:
	$(GO) run ./cmd/ahs-experiments -fig all

# Paper-quality figures with CSV, SVG and a self-contained HTML report
# (about a minute on a 2-vCPU VM; deterministic for a fixed seed).
figures-full:
	$(GO) run ./cmd/ahs-experiments -fig all -batches 20000 -seed 1 \
		-csv docs/results -svg docs/svg -html docs/report.html

# Regenerate the paper figures' CSVs at figures-full's settings into a
# temporary directory and require them byte for byte equal to the
# committed docs/results/ (about a minute on a 2-vCPU VM). A simulator
# change that moves any figure trajectory fails here, not only in the
# fingerprint test's sample of trajectories.
figures-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ahs-experiments -fig all -batches 20000 -seed 1 -csv "$$dir" >/dev/null; \
	diff -r docs/results "$$dir"; \
	echo "figures-check: docs/results reproduced byte for byte"

docs: figures-full

clean:
	$(GO) clean ./...
	rm -rf $(BIN)
