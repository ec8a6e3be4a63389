# symfail — reproduction of "How Do Mobile Phones Fail?" (DSN 2007).

GO ?= go

.PHONY: all build vet lint lint-json check chaos chaos-kill chaos-fleet chaos-replica chaos-checkpoint flake fuzz parallel stream test test-short bench bench-parallel bench-analysis bench-resnapshot bench-check repro repro-quick montecarlo cover loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static enforcement of the determinism and panic-taxonomy contracts
# (see DESIGN.md "Determinism contract & static enforcement").
lint:
	$(GO) run ./cmd/symlint ./...

# Machine-readable lint report (CI archives this as an artifact). The exit
# code is preserved: 1 when findings exist, so `make lint-json` still gates.
lint-json:
	$(GO) run ./cmd/symlint -json ./... > symlint-report.json; status=$$?; cat symlint-report.json; exit $$status

# The CI gate: vet, contract lint, and race-enabled short tests.
check: vet lint
	$(GO) test -race -short ./...

# The chaos harness: the fleet under deterministic flash + network fault
# injection, sharded across workers, under the race detector (see
# DESIGN.md §8, §9).
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# The kill-anything harness: chaos plus injected collection-server crashes
# — the supervisor kills the server at drawn crashpoints mid-study and
# recovers it from its write-ahead log; no acknowledged record may be lost
# or duplicated (DESIGN.md §10).
chaos-kill:
	$(GO) test -race -run 'TestKillAnything' -v .

# The fleet kill-any-subset harness: the collection tier sharded across
# three servers behind the device-hash router, with RNG-drawn subsets of
# {shards, router} killed at every crashpoint (handoff and rebalance
# aborts included), one shard joining and one leaving mid-study — every
# acknowledged record exactly once, whatever dies (DESIGN.md §13).
chaos-fleet:
	$(GO) test -race -run 'TestFleetKillAnything' -v .

# The quorum replication harness: the three-shard fleet with write-time
# R=3/W=2 replication, heartbeat failure detection and below-quorum
# refusal, under the same kill-any-subset crossfire (plus Workers:4 and
# the race detector) — zero acknowledged loss without crash handoff, and
# no healthy shard ever confirmed dead (DESIGN.md §15).
chaos-replica:
	$(GO) test -race -run 'TestReplicaKillAnything' -v .

# The checkpoint/resume harness: a continuous study over a Workers:4 fleet
# dataset, killed at RNG-drawn points — mid-record-stream and inside the
# checkpoint write/sync/rename protocol itself — and resumed from the
# crash-surviving store; the eventual tables must be byte-identical to an
# uninterrupted run (DESIGN.md §16).
chaos-checkpoint:
	$(GO) test -race -run 'TestCheckpoint' -v .

# Flake sampling: rerun N times (default 3) the tests that have failed
# intermittently on loaded multi-CPU hosts — the live record tap across
# server crashes on both topologies, and the server-crash equivalence
# sweep — and the kill-and-Settle tap tests of one supervisor, so their
# failure rate is measured, not seen once.
N ?= 3
flake:
	$(GO) test -count=$(N) -run 'TestLiveStudyAcrossServerCrashes|TestFleetEquivalenceSweep/servercrash' .
	$(GO) test -count=$(N) -run 'TestTap' ./internal/collect

# Fuzz for a short burst each (CI uses the seed corpora only): the
# collection server's wire protocol end to end (panics and wedged servers
# fail the run), the incremental CHUNK ingest against the whole-stream
# merge, chunk replication onto a replica's stream against the same
# merge, and the settled-offset scan they rest on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzServerHeader$$' -fuzztime 30s ./internal/collect/
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalIngest$$' -fuzztime 30s ./internal/collect/
	$(GO) test -run '^$$' -fuzz '^FuzzReplicaChunk$$' -fuzztime 30s ./internal/collect/
	$(GO) test -run '^$$' -fuzz '^FuzzScanSettled$$' -fuzztime 30s ./internal/core/

# Serial-vs-parallel equivalence: workers 1/2/4/8 must reproduce the
# golden fingerprints byte-for-byte, under the race detector (DESIGN.md §9).
parallel:
	$(GO) test -race -run 'ParallelEquivalence' -v .

# Streaming-vs-batch equivalence: the single-pass accumulators, the batch
# Study, and shard-merged partial accumulators must snapshot to identical
# bytes, anchored to the pinned golden fingerprints, under the race
# detector (DESIGN.md §11).
stream:
	$(GO) test -race -run 'Stream' -v . ./internal/analysis/...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Fleet-scaling grid (phones x workers) -> BENCH_parallel.json.
bench-parallel:
	$(GO) test -run xxx -bench BenchmarkFleetScaling -benchtime 1x .

# Batch-vs-stream analysis pipelines -> BENCH_analysis.json.
bench-analysis:
	$(GO) test -run xxx -bench BenchmarkStudyStreamVsBatch -benchtime 5x .

# Epoch-snapshot overhead on loaded live accumulators -> BENCH_resnapshot.json.
bench-resnapshot:
	$(GO) test -run xxx -bench BenchmarkResnapshotOverhead -benchtime 20x .

# Perf-regression gate: re-measure the quick benchmark cells into fresh
# reports (committed baselines untouched) and diff against the committed
# BENCH_*.json. Allocs/op always gates at benchdiff's 0.5% slack — wide
# enough for one-off lazy-init jitter, two orders of magnitude below a
# per-record leak. Throughput gates at BENCH_THRESHOLD, which
# defaults wide (50%) because the committed baselines come from the
# reference container and CI/dev hosts differ in both hardware and load
# (measured same-host noise alone spans ±20%): the wide default catches
# a lost fast path or accidental O(n^2), not scheduler jitter. For a
# same-host before/after comparison, tighten it:
# `make bench-check BENCH_THRESHOLD=0.10` (benchdiff's own default).
# The large-fleet cells (100k/1M phones) are skipped here — their
# anchored regex keeps this target CI-sized; refresh them with
# `make bench-parallel` when touching the engine hot path.
BENCH_THRESHOLD ?= 0.5
bench-check:
	BENCH_PARALLEL_OUT=.bench_new_parallel.json \
		$(GO) test -run xxx -bench 'BenchmarkFleetScaling/phones=(25|100|1000)$$/' -benchtime 1x .
	BENCH_ANALYSIS_OUT=.bench_new_analysis.json \
		$(GO) test -run xxx -bench BenchmarkStudyStreamVsBatch -benchtime 5x .
	BENCH_RESNAPSHOT_OUT=.bench_new_resnapshot.json \
		$(GO) test -run xxx -bench BenchmarkResnapshotOverhead -benchtime 20x .
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_parallel.json .bench_new_parallel.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_analysis.json .bench_new_analysis.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_resnapshot.json .bench_new_resnapshot.json
	rm -f .bench_new_parallel.json .bench_new_analysis.json .bench_new_resnapshot.json

# The whole paper: sections 4-6, every table and figure (~10 s).
repro:
	$(GO) run ./cmd/symfail -extras

repro-quick:
	$(GO) run ./cmd/symfail -quick

# Seed-noise quantification: replicate the study, report CIs per metric.
montecarlo:
	$(GO) run ./cmd/montecarlo -runs 20 -phones 10 -months 6

# Size of the program: non-test Go lines (blank and comment lines
# included), leaving out the benchmark harness and its build directory.
# Each change reports its before/after count.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' -not -path './.git/*' -print0 | xargs -0 cat | wc -l

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
