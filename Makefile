GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race bench bench-save bench-compare ab cover fuzz vet lint experiments ablations examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific determinism & correctness analyzers (internal/lint),
# including the dataflow/call-graph rules: parreduce (index-ordered
# parallel reduction), hotalloc (//colsim:hotpath allocation freedom) and
# lockcheck (copied locks, mixed atomic access, pool retention). The ./...
# pattern covers every package, ./cmd/... included. See DESIGN.md
# "Static analysis" for the rule catalogue.
lint:
	$(GO) run ./cmd/colsimlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmarks that feed the checked-in baseline: the detection hot path,
# the ledger memory-footprint benchmark that pins the CSR storage, the
# window-ledger rollover benchmarks, the sparse EigenTrust engine (matrix
# build, the per-iteration multiply kernel, and full Scores at n=100k and
# n=1M), and the resident service's snapshot plane (epoch publish cost and
# query latency under full ingest pressure).
BENCH_PATTERN = Detect|LedgerFootprint|WindowRollover|EigenTrust|SnapshotPublish|ServeQueryUnderIngest
BENCH_PKGS = ./internal/core/ ./internal/reputation/ ./internal/ingest/ ./internal/service/
# Repetitions per benchmark; benchjson collapses them to the per-metric
# minimum, so one noisy repetition cannot move a baseline or trip the gate.
BENCH_COUNT ?= 3

# Refresh the checked-in detector benchmark baseline. Runs the detection
# hot-path benchmarks and stores name/ns_per_op/bytes_per_op/allocs_per_op
# as JSON so perf regressions show up in review diffs.
bench-save:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_detect.json

# Gate the detection hot path against the checked-in baseline: fail on
# any benchmark more than 20% slower (ns/op) or more than 20% hungrier
# (bytes/op or allocs/op) than BENCH_detect.json.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > bench_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_detect.json bench_new.json

# Alternating epoch-benchmark runs of a parent revision against the
# working tree (scripts/ab.sh): per-pair metrics and digests, then both
# medians, the parent's IQR, the change's wins and the bound check for
# every end-to-end metric in BENCHMARK.json. Exits non-zero if any run
# fails its correctness check or reports failed operations.
#   make ab PARENT=HEAD~1 WORKLOAD=burst-100k [PAIRS=10] [SEED=7919]
PAIRS ?= 10
SEED ?= 7919
ab:
	@test -n "$(PARENT)" && test -n "$(WORKLOAD)" || \
		{ echo "usage: make ab PARENT=<rev> WORKLOAD=<workload> [PAIRS=10] [SEED=7919]" >&2; exit 2; }
	bash scripts/ab.sh '$(PARENT)' '$(WORKLOAD)' '$(PAIRS)' '$(SEED)'

# Coverage gate for the observability layer, the resident service, the
# epoch transition they share with the simulator, and the detectors it
# runs: the canonical trace encoding, metric exporters, snapshot plane,
# request codec, epoch transition and the incremental detection pass
# underpin byte-identical replays, so they must stay tested (>= 70% of
# statements).
cover:
	$(GO) test -coverprofile=cover_obs.out ./internal/obs/... ./internal/service/... ./internal/epoch/... ./internal/core/...
	@total=$$($(GO) tool cover -func=cover_obs.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "internal/obs + internal/service + internal/epoch + internal/core coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { if (t + 0 < 70) { print "coverage below 70%"; exit 1 } }'

# Run every fuzz target in the fuzzed packages for a short burst each; the
# target list is discovered dynamically so new Fuzz* functions are picked
# up automatically. Minimizing a new interesting input is capped at 100
# runs: Go's default of 60 s stalls a worker for up to a minute, so a short
# burst would explore only its first few seconds.
FUZZ_PKGS = ./internal/trace/ ./internal/reputation/ ./internal/service/ ./internal/core/
fuzz:
	@set -e; \
	for pkg in $(FUZZ_PKGS); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "==> $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x $$pkg; \
		done; \
	done

# Regenerate every paper figure (text tables + CSVs under results/).
experiments:
	$(GO) run ./cmd/experiments -fig all -runs 5 -out results

# Run the ablation studies.
ablations:
	$(GO) run ./cmd/experiments -fig ablations -runs 3 -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/marketplace
	$(GO) run ./examples/filesharing
	$(GO) run ./examples/decentralized
	$(GO) run ./examples/groupcollusion

clean:
	rm -rf results test_output.txt bench_output.txt bench_new.json cover_obs.out
