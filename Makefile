GO ?= go

# VERSION stamps every binary under cmd/ (and the JSON documents
# benchjson emits) via -ldflags; override on the command line to cut a
# tagged build: `make build VERSION=v0.5.0`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
GO_LDFLAGS := -ldflags '-X vcsched/internal/version.Version=$(VERSION)'

.PHONY: check build vet test race learn bench bench-short bench-gate bench-figures fuzz-smoke faults service-smoke fleet-smoke slo slo-short slo-gate chaos ledger

# check is the tier-1 gate (see ROADMAP.md): vet, build, the full test
# suite under the race detector, the fault-injection and
# conflict-learning suites, the scheduling-service and sharded-fleet
# smoke runs, and the chaos suite (which replays the SLO scenario
# suite, chaos scenarios included, and gates it). Everything must be
# green before a change lands.
check: vet build race faults learn service-smoke fleet-smoke chaos

build:
	$(GO) build $(GO_LDFLAGS) ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# learn is the conflict-learning gate: the nogood store unit suite,
# the observe-mode byte-identity and portfolio-sharing tests and the
# nogood replay oracle — all under the race detector — then a short
# differential fuzz batch with the nogood cross-check armed (learn-on
# vs learn-off identity plus unsatisfiability replay of every learned
# nogood; violations shrink to .sb reproducers like any other kind).
learn:
	$(GO) test -race ./internal/nogood
	$(GO) test -race -run 'Learn|Nogood' ./internal/core ./internal/difftest
	$(GO) run ./cmd/vcfuzz -budget 40 -seed 7 -nogood -out results/repros

# bench runs the deduction-engine microbenchmarks (Shave, single
# probe, end-to-end block schedule) 5 times, records the averaged
# numbers in BENCH_deduce.json (EXPERIMENTS.md tracks before/after),
# and gates the result against the checked-in BENCH_baseline.json:
# allocs/op is deterministic so its band is tight (+10%); ns/op gets a
# wide band that still catches order-of-magnitude cliffs on noisy
# shared runners. bench-short is the single-run CI form; same gate.
# After an intentional improvement, refresh the baseline with
# `cp BENCH_deduce.json BENCH_baseline.json` and commit it.
bench:
	$(GO) test -bench='BenchmarkShave|BenchmarkProbeCommit|BenchmarkScheduleBlock|BenchmarkScheduleLearn' \
		-benchmem -count=5 -run '^$$' ./internal/deduce | $(GO) run $(GO_LDFLAGS) ./cmd/benchjson > BENCH_deduce.json
	cat BENCH_deduce.json
	$(MAKE) bench-gate

bench-short:
	$(GO) test -bench='BenchmarkShave|BenchmarkProbeCommit|BenchmarkScheduleBlock|BenchmarkScheduleLearn' \
		-benchmem -count=1 -run '^$$' ./internal/deduce | $(GO) run $(GO_LDFLAGS) ./cmd/benchjson > BENCH_deduce.json
	cat BENCH_deduce.json
	$(MAKE) bench-gate

bench-gate:
	$(GO) run $(GO_LDFLAGS) ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_deduce.json

# ledger runs one measurement of the performance ledger (perfbench/,
# workloads and metrics declared in BENCHMARK.json) and prints its
# provenance and result lines: `make ledger W=oversized SEED=12`.
W ?= corpus
SEED ?= 1
ledger:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 30 --trace 0

# bench-figures runs the paper-figure reproduction benchmarks at the
# repository root (the pre-existing `bench` target).
bench-figures:
	$(GO) test -bench=. -benchmem -run '^$$' .

# faults re-runs the fault-injection and degradation-ladder suite under
# the race detector (panic recovery, tier fallback, serial/parallel
# identity under starvation, the 50+-block resilient batch), then
# drives the CLI end to end with faults armed through the VCSCHED_FAULTS
# environment gate.
faults:
	$(GO) test -race ./internal/faultpoint ./internal/resilient
	$(GO) test -race -run 'Fault|Panic|Degrade|Starv|Resilient|Deadline|Exhaust' \
		./internal/core ./internal/difftest ./internal/bench
	VCSCHED_FAULTS='core.stage=panic:0:5,deduce.shave=contra:0:4' \
		$(GO) run ./cmd/vcsched -example -resilient -report -print=false

# slo replays the checked-in declarative scenario suite (scenarios/)
# through the in-process load harness (internal/loadsim) with hollow
# workers on a virtual clock, records the measured service-level
# objectives in BENCH_service.json, and gates them against the
# checked-in BENCH_service_baseline.json: p99 latency, cache hit rate,
# shed rate within tolerance bands, hard failures unconditionally zero.
# The suite is deterministic, so slo-short (one run, the CI and
# tier-1 form) measures the same numbers as slo (five runs). After an
# intentional SLO change, refresh the baseline with
# `cp BENCH_service.json BENCH_service_baseline.json` and commit it.
slo:
	$(GO) run $(GO_LDFLAGS) ./cmd/vcslo -suite scenarios -runs 5 -out BENCH_service.json
	$(MAKE) slo-gate

slo-short:
	$(GO) run $(GO_LDFLAGS) ./cmd/vcslo -suite scenarios -runs 1 -out BENCH_service.json
	$(MAKE) slo-gate

slo-gate:
	$(GO) run $(GO_LDFLAGS) ./cmd/benchgate -service -baseline BENCH_service_baseline.json -current BENCH_service.json

# chaos is the chaos-engineering gate: the scheduled-fault, watchdog,
# circuit-breaker and resilient-client suites under the race detector,
# then the full SLO scenario replay (the chaos scenarios under
# scenarios/ ride in the same suite) gated by benchgate -service —
# which fails unconditionally on any escaped hard failure, watchdog
# leak or warm/cold identity violation. DESIGN.md §13 documents the
# chaos grammar and the state machines under test.
chaos:
	$(GO) test -race -run 'Chaos|Watchdog|Breaker|RetryAfter|Retries|Shed|Hedge|Sleep' \
		./internal/faultpoint ./internal/service ./internal/loadsim ./internal/vcclient ./cmd/vcschedd
	$(MAKE) slo-short

# service-smoke drives the scheduling service end to end: build
# vcschedd and vcload under the race detector, start the daemon on an
# ephemeral port, replay the checked-in reproducer corpus (plus
# generated blocks) through vcload, and require zero hard failures and
# a clean SIGTERM drain.
service-smoke:
	VERSION=$(VERSION) GO=$(GO) ./scripts/service_smoke.sh

# fleet-smoke drives the sharded fleet end to end: three vcschedd
# shards behind vcrouter (all built with -race), duplicate-heavy vcload
# traffic through the router, an aggregate dedup-rate floor that only
# holds when fingerprints stick to their home shard, and a clean
# SIGTERM drain of the router and every shard.
fleet-smoke:
	VERSION=$(VERSION) GO=$(GO) ./scripts/fleet_smoke.sh

# fuzz-smoke is the short-budget fuzzing gate: a small differential
# campaign (internal/difftest via cmd/vcfuzz) plus 10 seconds of each
# native fuzz target. Any violation fails the target; shrunken
# reproducers land under results/repros/.
fuzz-smoke:
	$(GO) run ./cmd/vcfuzz -budget 60 -seed 1 -out results/repros
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzParseSuperblock -fuzztime 10s
	$(GO) test ./internal/sched -run '^$$' -fuzz FuzzValidate -fuzztime 10s
