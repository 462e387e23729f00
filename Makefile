# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test race race-hot cover bench bench-json benchsmoke perfsmoke faultsmoke durasmoke bdrsmoke optsmoke servesmoke proxysmoke docscheck check experiments fmt vet clean

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The hot-path packages (round engine, parallel sweep runner, exact
# solver) under the race detector with fresh (uncached) runs — the fast
# pre-commit subset. The offline package runs in -short mode: the full
# differential corpus under the race detector belongs to `make race`.
race-hot:
	go test -race -count=1 ./internal/sched/ ./internal/exp/ ./internal/serve/ ./internal/proxy/ ./internal/ckptlog/ ./internal/bdr/
	go test -race -count=1 -short ./internal/offline/

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem -run '^$$' ./...

# Measure the fixed regression suite and write BENCH_$(BENCH_LABEL).json
# (see docs/PERFORMANCE.md). Compare two files with:
#   go run ./cmd/rrbench -compare old.json new.json
BENCH_LABEL ?= local
BENCHTIME ?= 1s
bench-json:
	go run ./cmd/rrbench -json -label $(BENCH_LABEL) -benchtime $(BENCHTIME)

# One iteration of every benchmark plus an end-to-end run of the JSON
# emitter and comparator (self-compare doubles as a schema validation):
# a fast smoke test that the harnesses still compile and run, not a
# measurement.
benchsmoke:
	go test -bench=. -benchtime=1x -benchmem -run '^$$' ./...
	go run ./cmd/rrbench -json -label smoke -benchtime 10ms -out /tmp/BENCH_smoke.json
	go run ./cmd/rrbench -compare /tmp/BENCH_smoke.json /tmp/BENCH_smoke.json
	rm -f /tmp/BENCH_smoke.json

# The end-to-end benchmark (perfbench/, its own module) builds against
# internal/serve, internal/proxy and internal/sched, but `go test ./...`
# at the root never compiles it: vet and test it here so an API change
# that breaks the benchmark fails the build.
perfsmoke:
	cd perfbench && go vet ./... && go test -count=1 ./...

# The crash-fault-injection harness for the checkpoint/restore subsystem
# (docs/CHECKPOINT.md): kill a stream at every round, restore it, finish
# the trace, require a bit-identical Result — for every policy — plus
# corruption/mismatch rejection. Fresh runs, never cached.
faultsmoke:
	go test -run 'TestFaultInjection' -count=1 .
	go test -run 'TestCheckpoint' -count=1 ./internal/trace/

# The group-commit durability smoke (docs/CHECKPOINT.md "Group-commit
# log"): the whole ckptlog package fresh — segment framing, recovery
# scans over truncated/corrupted tails, rotation and compaction — plus
# the serve-layer log contracts: tombstones shadowing closed and
# released tenants, durable drain acknowledgements, compacting restarts,
# delta-chain recovery and the adaptive pacer. Fresh runs, never cached.
durasmoke:
	go test -count=1 ./internal/ckptlog/
	go test -run 'TestCloseTenantLogTombstone|TestReleaseLogTombstone|TestDrainAckIsDurable|TestServeLog|TestServeCrashRestartLogSegments|TestServeAdaptivePacing' -count=1 ./internal/serve/

# The admission-control smoke (docs/SCHEDULING.md "Admission (layer
# 0)"): the whole internal/bdr package fresh — SBF feasibility
# properties, the reservation tree, the fractional-share controller —
# plus the serve-layer BDR contracts: typed admission rejection with
# residuals, durable reservations across restarts, migration bounce and
# the deterministic isolation harness. Fresh runs, never cached.
bdrsmoke:
	go test -count=1 ./internal/bdr/
	go test -run 'TestBDR' -count=1 ./internal/serve/
	go test -run 'TestProxyMigrateAdmissionBounce|TestProxyDuraStatsFanout' -count=1 ./internal/proxy/

# The multi-tenant server smoke (docs/SERVER.md): the full serve-layer
# suite fresh — wire codec, admission control and overload shedding, the
# 64-tenant load-generator run verified bit-identical against local
# replays, and both restart harnesses (graceful SIGTERM-style drain and
# crash-fault injection between round ticks, each resumed from
# checkpoints). The fuzz seed corpus runs as part of the same package.
servesmoke:
	go test -count=1 ./internal/serve/

# The fleet smoke (docs/SERVER.md "Fleet"): the rrproxy router tier
# fresh — rendezvous placement stability, stats/ping fan-out, a verified
# load run through the proxy in both driver modes, a live tenant
# migration mid-run, and the 3-backend failover harness that kills a
# primary mid-run and requires bit-identical results via standby replay.
proxysmoke:
	go test -count=1 ./internal/proxy/

# The exact-solver smoke: the branch-and-bound optimum pinned
# bit-identical to the legacy DFS on the differential corpus, at several
# worker counts, plus the wide-key fallback. Fresh runs, never cached.
optsmoke:
	go test -run 'TestSolveExact|TestExactBetweenBounds' -short -count=1 ./internal/offline/

# Documentation drift gate: every relative link in README.md and
# docs/*.md must resolve, and every exported declaration of
# internal/serve must carry a doc comment.
docscheck:
	go run ./cmd/docscheck

# The pre-commit gate: static analysis, the docs drift gate, the
# race-detector subset on the hot-path packages, the fault-injection,
# durability, exact-solver and server harnesses, then the full test
# suite under the race detector.
check: vet docscheck race-hot faultsmoke durasmoke bdrsmoke optsmoke servesmoke proxysmoke race

# Regenerate every experiment table/figure (DESIGN.md §3) and refresh the
# data section of EXPERIMENTS.md.
experiments:
	go run ./cmd/rrbench -md experiments_generated.md

fmt:
	gofmt -w .

vet:
	go vet ./...

clean:
	go clean ./...
	rm -f experiments_generated.md
