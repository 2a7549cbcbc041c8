# Repo tasks. `make bench` regenerates BENCH_recommend.json, the committed
# performance trajectory future PRs are judged against.

GO ?= go

# bench pipes go test into benchjson; pipefail keeps a mid-stream bench
# failure from being swallowed by a successful parse of the partial output.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: test race bench bench-serve bench-serve-sharded fuzz-smoke lint

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -short -race ./...

# lint always runs go vet; staticcheck and govulncheck run when installed
# (CI installs both — see .github/workflows/ci.yml) and are skipped with a
# note otherwise, so the target works in hermetic environments.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# Fig6 runs time-based for precision; Fig8 runs a fixed 20 elicitation
# rounds so the cached variant reaches the steady state the acceptance
# criterion measures (cache warm across feedback rounds). ChurnRecommend
# runs fixed iterations too: its per-op cost is deliberately
# non-stationary (epoch swaps land mid-loop), which defeats go test's
# time-based iteration estimation; the mutating variant warms up untimed
# until churn equilibrium, and 120 iterations average across enough swaps
# for a stable retained/op. ChurnRestore pairs with it: the cost of
# restoring a stable-ID snapshot after k mutation batches. EpochBuild is
# the full-vs-delta epoch construction comparison (10k items, 16-item
# batches). ScaleTopK is the large-catalogue tier: 100k and 1M items
# across three distributions, each unpruned vs pruned vs partitioned —
# benchjson folds the pairs into Comparisons; the pruned speedup is the
# dominance filter's evidence and the partitioned speedup the
# sketch-refine partition's (the anti-correlated tier, where dominance is
# inert, is its acceptance gate). The 1M tier lives here only; CI's bench
# smoke stops at 100k.
bench:
	@{ $(GO) test -run '^$$' -bench 'Fig6TopKPkg' -benchmem -benchtime 500ms . ; \
	   $(GO) test -run '^$$' -bench 'Fig8' -benchmem -benchtime 20x . ; \
	   $(GO) test -run '^$$' -bench 'ChurnRecommend' -benchmem -benchtime 120x . ; \
	   $(GO) test -run '^$$' -bench 'ChurnRestore' -benchmem -benchtime 40x . ; \
	   $(GO) test -run '^$$' -bench 'EpochBuild' -benchmem -benchtime 50x . ; \
	   $(GO) test -run '^$$' -bench 'ScaleTopK$$' -benchmem -benchtime 5x . ; \
	   $(GO) test -run '^$$' -bench 'ScaleTopK1M' -benchmem -benchtime 2x -timeout 30m . ; } \
	  | $(GO) run ./cmd/benchjson -out BENCH_recommend.json
	@echo wrote BENCH_recommend.json

# bench-serve regenerates BENCH_serve.json, the committed whole-system
# serving benchmark: cmd/loadgen drives the in-process serving stack with
# zipfian traffic over a 100k-session population, once against a static
# catalogue and once under background mutation churn, and benchjson -serve
# folds both run records into per-route latency quantiles plus
# static-vs-mutating comparisons. loadgen exits non-zero on any transport
# error or non-2xx response, and pipefail propagates that through the
# pipe. Catalogue/engine parameters are sized for the single-core bench
# container; latency numbers are only comparable across runs of the same
# parameter set.
LOADGEN_FLAGS := -sessions 100000 -items 1000 -samples 30 -k 3 -concurrency 4 -duration 30s

bench-serve:
	@{ $(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) ; \
	   $(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) -churn 50ms ; } \
	  | $(GO) run ./cmd/benchjson -serve -out BENCH_serve.json
	@echo wrote BENCH_serve.json

# bench-serve-sharded folds the sharded-tier runs into the same
# BENCH_serve.json: cmd/loadgen boots 3 in-process backends behind a
# shardgw gateway (one shared session store, consistent-hash routing) and
# drives the same static + mutating workloads through it. benchjson
# -serve pairs them with the single-process runs already in the file and
# records the throughput scaleout ratio and per-route p50/p99
# comparisons. On a single-core host expect scaleout ≤ 1 (the gateway
# adds a hop and the shards share the core); the ratio is only meaningful
# on a machine with ≥ 4 CPUs. Run bench-serve first so the single-process
# baselines come from the same parameter set.
bench-serve-sharded:
	@{ $(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) -shards 3 ; \
	   $(GO) run ./cmd/loadgen $(LOADGEN_FLAGS) -shards 3 -churn 50ms ; } \
	  | $(GO) run ./cmd/benchjson -serve -out BENCH_serve.json
	@echo wrote BENCH_serve.json

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaEpoch$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzSkylineDelta$$' -fuzztime 10s ./internal/skyline
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionDelta$$' -fuzztime 10s ./internal/partition
	$(GO) test -race -run '^TestSwapRaceCacheHitsMatchFresh$$' -count=1 ./internal/core
	$(GO) test -race -run '^TestPartition' -count=1 ./internal/search
