GO ?= go

.PHONY: ci build vet test race loc loc-check fuzz-smoke bench bench-hotpath bench-smoke bench-soak soak-smoke cascade-smoke shed-smoke drop-smoke scale-smoke cluster-smoke lint fmtcheck shellcheck staticcheck vulncheck

# ci is the fast gate; the race detector runs as its own CI job (make
# race) so the concurrency suites don't slow the edit loop. The smoke
# soaks run last: they need a building tree, and they are the only
# targets that exercise a live streamadd end to end — soak-smoke on the
# plain knn pipeline, cascade-smoke on the cascade(zscore, knn) screen,
# shed-smoke and drop-smoke on the shed / drop-oldest overload policies
# under deliberate overdrive, scale-smoke on the hot/warm/cold residency
# ladder with a 2k-stream fleet, and cluster-smoke on a 3-node cluster
# that loses a node mid-soak.
ci: fmtcheck vet lint build test soak-smoke cascade-smoke shed-smoke drop-smoke scale-smoke cluster-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own analyzers (internal/lint: detrand and
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

# race also repeats the tests whose failure mode is a schedule: the two
# async fine-tune tests (a digest that depends on when training
# finished, a deadlock) and the stream entry paths (standby failover,
# migration, the adopt conflict rule, concurrent first observes of a
# cold stream).
race:
	$(GO) test -race ./...
	$(GO) test -race -run 'TestAsyncIsAPureFunctionOfTheInput|TestStepAfterTrainerPoolClose' -count=5 .
	$(GO) test -race -run 'TestStandbyFailoverBitIdentical' -count=5 ./internal/server
	$(GO) test -race -run 'TestMigrationBitIdentical|TestAdoptSeqConflict|TestConcurrentObservesSingleRestore' -count=5 ./internal/ingest

# loc prints the number ROADMAP aim 2 ("least code") is about: non-test
# Go lines outside the frozen benchmark/. 25,998 before the detector-tree
# refactor (PR 22), 25,707 before the spec-tree one (PR 23), 25,495
# before the fork-join, the vet-protocol driver and two bench commands
# were deleted (PR 28), 24,247 before the fine-tune paths became one,
# 24,243 before the lint suite was culled to two parse-only analyzers,
# 21,254 before restart, cold restore, migration and standby failover
# came to share one way into the registry.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs wc -l | tail -1

# loc-check fails when loc has grown past the ceiling: a PR that needs
# more lines raises LOC_CEILING in the same diff, where a reviewer sees it.
LOC_CEILING = 21184
loc-check:
	@n=$$($(MAKE) -s loc | awk '{print $$1}'); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "make loc is $$n, over the ceiling of $(LOC_CEILING)"; exit 1; \
	fi

# fuzz-smoke gives each native fuzz target five seconds on top of its
# committed seed corpus (testdata/fuzz): the snapshot-file and WAL
# decoders and the detector checkpoint decoder must never panic, never
# accept a CRC-bad file, and re-encode whatever they accept
# byte-identically; the two spec grammars must never panic, a detector
# spec's canonical form must be a fixed point, and an accepted scenario
# must replay bit-identically. go test -fuzz takes one target per
# invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshotFile$$' -fuzztime=5s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzReadWAL$$' -fuzztime=5s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorLoad$$' -fuzztime=5s .
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime=5s .
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime=5s ./internal/scenario

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-hotpath regenerates the numbers recorded in BENCH_hotpath.json:
# per-model Step cost, Fit cost, serving latency while a fine-tune is in
# flight (sync vs async), the ensemble Step, the heavy pipeline against
# the cascade screening for it, the two nn kernels (Linear.ForwardInto on
# the eleven layer shapes of the repo benchmark's model-heavy workload,
# Adam.Step),
# and one trip of a pcb stream around the residency ladder on a real
# directory (hot→warm→hot, and hot→warm→cold→hot).
HOTPATH_BENCH = BenchmarkDetectorStep|BenchmarkStepDuringFineTune|BenchmarkModelFit|BenchmarkEnsembleStep|BenchmarkCascadeStep
KERNEL_BENCH = BenchmarkLinearForward|BenchmarkAdamStep
TIER_BENCH = BenchmarkTierCycle
bench-hotpath:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -benchtime 300x .
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -benchtime 20000x ./internal/nn
	$(GO) test -run '^$$' -bench '$(TIER_BENCH)' -benchmem -benchtime 300x ./internal/ingest

# bench-smoke is the CI gate: a handful of iterations of every hot-path
# benchmark, enough to catch a benchmark that no longer compiles or a
# kernel that panics, without the cost of stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -benchtime 5x .
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem -benchtime 5x ./internal/nn
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
