GO ?= go

.PHONY: ci build vet test race loc loc-check fuzz-smoke bench bench-hotpath bench-smoke bench-soak soak-smoke cascade-smoke shed-smoke drop-smoke scale-smoke cluster-smoke lint fmtcheck shellcheck staticcheck vulncheck

# ci is the fast gate, the line-count ceiling (loc-check) included; the
# race detector runs as its own CI job (make race) so the concurrency
# suites don't slow the edit loop. The smoke soaks run last: they need a
# building tree, and they are the only targets that exercise a live
# streamadd end to end — soak-smoke on the
# plain knn pipeline, cascade-smoke on the cascade(zscore, knn) screen,
# shed-smoke and drop-smoke on the shed / drop-oldest overload policies
# under deliberate overdrive, scale-smoke on the hot/warm/cold residency
# ladder with a 2k-stream fleet, and cluster-smoke on a 3-node cluster
# that loses a node mid-soak.
ci: fmtcheck vet lint loc-check build test soak-smoke cascade-smoke shed-smoke drop-smoke scale-smoke cluster-smoke

build:
	$(GO) build ./...

# vet also type-checks internal/nn for arm64, so the Go stubs that stand
# in for its amd64 kernels keep compiling; vet's asmdecl check holds the
# amd64 assembly's frames to the Go declarations.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn

# lint runs the repo's own checks (internal/lint: detrand and
# ctxgoroutine, parse-only) over the whole module through their
# self-check test, then shellcheck, staticcheck and govulncheck when
# they are on PATH (CI installs pinned versions; locally they are
# optional extras).
lint:
	$(GO) test -run TestSuiteCleanOnRepo ./internal/lint
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping (runs pinned in CI)"; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (runs pinned in CI)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (runs pinned in CI)"; \
	fi

# fmtcheck fails (listing the offenders) when any file needs gofmt.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

shellcheck:
	shellcheck scripts/*.sh

staticcheck:
	staticcheck ./...

vulncheck:
	govulncheck ./...

test:
	$(GO) test ./...

# race also repeats the tests whose failure mode is a schedule: the
# async fine-tune tests (a digest that depends on when training
# finished, a deadlock, the per-leaf queue bound), the pool's cancel
# claim racing its workers, and the stream entry paths (standby
# failover, migration in-process and between two live nodes, the adopt
# conflict rule, concurrent first observes of a cold stream), and the two
# tiering tests that page a stream right after its last observe.
race:
	$(GO) test -race ./...
	$(GO) test -race -run 'TestAsyncIsAPureFunctionOfTheInput|TestStepAfterTrainerPoolClose|TestQueuedJobsPerLeafBounded' -count=5 .
	$(GO) test -race -run 'TestPoolCancelRace' -count=5 ./internal/pool
	$(GO) test -race -run 'TestStandbyFailoverBitIdentical|TestMigrationOverTheWire' -count=5 ./internal/server
	$(GO) test -race -run 'TestMigrationBitIdentical|TestAdoptSeqConflict|TestConcurrentObservesSingleRestore' -count=5 ./internal/ingest
	$(GO) test -race -run 'TestWarmPageInFallsBackToSnapshot|TestWarmStreamColdEviction' -count=20 ./internal/ingest

# loc prints the number ROADMAP aim 2 ("least code") is about: non-test
# Go and assembly lines outside the frozen benchmark/. 25,998 before the detector-tree
# refactor (PR 22), 25,707 before the spec-tree one (PR 23), 25,495
# before the fork-join, the vet-protocol driver and two bench commands
# were deleted (PR 28), 24,247 before the fine-tune paths became one,
# 24,243 before the lint suite was culled to two parse-only analyzers,
# 21,254 before restart, cold restore, migration and standby failover
# came to share one way into the registry, 21,184 before the nn kernels
# went to SSE2 assembly (the first *.s lines counted) and SGD and
# Param.GradNorm were deleted, 21,411 before the trainer pool became a
# second instance of the scoring pool's FIFO and nn.Optimizer went,
# 21,207 before a dispatcher batch was scored in one forward pass per
# model (the batch kernel, PredictBatch, StepBatch and the ingest fold),
# 21,788 before both observe endpoints came to share one path and the
# code only its own unit tests called was deleted, 21,343 before streams
# crossed nodes in the store's own snapshot and WAL bytes and the unused
# metrics and single-value knobs went, 21,126 before a model's checkpoint
# became its only copy (core.Cloner, the fourteen hand-written deep
# copies and the model-only snapshot path deleted), 20,918 before the
# batch forward and the backward went to AVX behind a CPUID probe,
# 20,973 before isolation trees became two pointer-free slabs, 20,971
# before each checkpointed component came to define its state once, as
# one walk that both encodes and decodes, 20,539 before the code only
# tests reached went (N-BEATS's fixed bases, the test-only accessors,
# the model and nn codec one-liners, the dead Name methods and the lint
# suite's Analyzer/Pass layer), 19,866 before the sliding window came to
# store each stream row once, as a row log, the Task 1 generator came to
# be built on its first draw, and streamadd gained -sync-wal, and 19,951
# before a batch request came to reuse its line buffer and record slice.
loc:
	@git ls-files '*.go' '*.s' | grep -v _test.go | grep -v '^benchmark/' | xargs wc -l | tail -1

# loc-check fails when loc has grown past the ceiling: a PR that needs
# more lines raises LOC_CEILING in the same diff, where a reviewer sees it.
LOC_CEILING = 19996
loc-check:
	@n=$$($(MAKE) -s loc | awk '{print $$1}'); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "make loc is $$n, over the ceiling of $(LOC_CEILING)"; exit 1; \
	fi

# fuzz-smoke gives each native fuzz target five seconds on top of its
# committed seed corpus (testdata/fuzz): the snapshot-file and WAL
# decoders and the detector checkpoint decoder must never panic, never
# accept a CRC-bad file, and re-encode whatever they accept
# byte-identically — the snapshot-file and WAL decoders are also what
# reads every byte a cluster peer sends (a migration's snapshot file, a
# standby's WAL tail); the two spec grammars must never panic, a detector
# spec's canonical form must be a fixed point, and an accepted scenario
# must replay bit-identically; the nn kernels must match their scalar
# references bit for bit on edge values (±0, subnormals, ±Inf, NaN,
# 1e±300). go test -fuzz takes one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshotFile$$' -fuzztime=5s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAL$$' -fuzztime=5s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorLoad$$' -fuzztime=5s .
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime=5s .
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime=5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzKernelsMatchReference$$' -fuzztime=5s ./internal/nn

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-hotpath regenerates the numbers recorded in BENCH_hotpath.json:
# per-model Step cost, Fit cost, serving latency while a fine-tune is in
# flight (sync vs async), the ensemble Step (one vector, and one
# 16-vector burst through Run), the heavy pipeline against the cascade
# screening for it, the nn kernels (Linear.ForwardInto on the eleven
# layer shapes of the repo benchmark's model-heavy workload and
# Linear.ForwardBatchInto on them at batch 8 and 16, Linear.BackwardInto
# on USAD's six, each of those two also with the AVX kernels off (/go),
# Adam.Step),
# one PCB-iForest score on 512 forests at the tier-churn geometry,
# round-robin, one trip of a pcb stream around the residency ladder
# on a real directory (hot→warm→hot, and hot→warm→cold→hot), and each
# model's checkpoint save (with the snapshot file render), load and
# page-out/page-in, and one steady-state sliding-window Observe.
HOTPATH_BENCH = BenchmarkDetectorStep|BenchmarkStepDuringFineTune|BenchmarkModelFit|BenchmarkEnsembleStep|BenchmarkCascadeStep|BenchmarkCheckpoint|BenchmarkSlidingWindowObserve
KERNEL_BENCH = BenchmarkLinearForward|BenchmarkLinearBackward|BenchmarkAdamStep
PCB_BENCH = BenchmarkPCBScore
TIER_BENCH = BenchmarkTierCycle
bench-hotpath:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -benchtime 300x .
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -benchtime 20000x ./internal/nn
	$(GO) test -run '^$$' -bench '$(PCB_BENCH)' -benchmem -benchtime 20000x ./internal/iforest
	$(GO) test -run '^$$' -bench '$(TIER_BENCH)' -benchmem -benchtime 300x ./internal/ingest

# bench-smoke is the CI gate: a handful of iterations of every hot-path
# benchmark, enough to catch a benchmark that no longer compiles or a
# kernel that panics, without the cost of stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -benchtime 5x .
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -benchtime 5x ./internal/nn
	$(GO) test -run '^$$' -bench '$(PCB_BENCH)' -benchmem -benchtime 5x ./internal/iforest
	$(GO) test -run '^$$' -bench '$(TIER_BENCH)' -benchmem -benchtime 5x ./internal/ingest

# bench-soak is the long soak: scripts/soak.sh boots a real streamadd
# (knn, 4 channels, block policy) on a loopback port and drives 64
# streams of the abrupt-drift scenario at 50 vec/s for 30s through
# cmd/streamload, grading latency, shed/error rates, and online recall
# against SLOs and printing the report. Exit 1 means an SLO was violated.
bench-soak:
	scripts/soak.sh full

# soak-smoke is the CI-sized version of the same harness: 64 streams,
# ~2 seconds of traffic, hard SLOs (zero 5xx, zero shed, zero errors,
# p99 < 750ms, recall >= 0.25).
soak-smoke:
	scripts/soak.sh smoke

# cascade-smoke is the same smoke soak against a streamadd running the
# cascade(zscore, knn) spec: recall must hold the plain-knn gate while
# the tier-0 screen is engaged — the script additionally scrapes
# /metrics and fails if any stream's admission rate reaches 50%.
cascade-smoke:
	scripts/soak.sh cascade

# shed-smoke overdrives a streamadd running the shed overload policy
# with a 4-deep queue: sheds must surface as inline 429-style results
# (zero 5xx, zero per-record errors, p99 held) and /metrics must show
# the shed counter actually moved.
shed-smoke:
	scripts/soak.sh shed

# drop-smoke overdrives a streamadd running the drop-oldest overload
# policy with a 4-deep queue: displaced vectors must surface as inline
# dropped results (zero 5xx, zero sheds, zero per-record errors, p99
# held) and /metrics must show the dropped counter actually moved.
drop-smoke:
	scripts/soak.sh drop

# scale-smoke registers a 2k-stream fleet against a live streamadd with
# the residency ladder enabled (-tier-warm-after, -stream-ttl), then
# drives only a 1% hot subset: /metrics must show resident (hot+warm)
# streams collapsing under a hard ceiling while the idle fleet goes
# cold, with zero non-429 5xx across both phases.
scale-smoke:
	scripts/scale_smoke.sh

# cluster-smoke boots a 3-node cluster, soaks it through every node at
# once, and SIGKILLs one node mid-run: zero non-429 5xx on survivors,
# bounded per-record errors, recall holds on scored records, and a
# survivor's /metrics must show forwarding happened, the dead peer
# marked down, and the ring shrunk to 2 nodes.
cluster-smoke:
	scripts/cluster_smoke.sh
