# Tier-1 gate: everything must be gofmt-clean, build, vet clean, and pass
# the full test suite under the race detector (the parallel evaluation
# harness fans simulation cells across goroutines, so -race is part of the
# contract).
# `make fuzz` runs the native fuzz targets (link deframer, IR parser,
# DAG compiler, heartbeat codec, Q15 arithmetic, binary and JSON trace
# readers, JSON spec parser, fleetd payload codecs, checkpoint envelope
# loader) for a short fixed budget on top of their committed corpora; run
# it before shipping protocol or parser changes.

GO ?= go
FUZZTIME ?= 10s
# COVER_FLOOR is the minimum total statement coverage `make cover-check`
# accepts, in percent. CI fails below it; raise it as coverage grows.
COVER_FLOOR ?= 83.5
# PKG_FLOORS pins per-package floors on top of the total: the DAG compile
# pass is the correctness keystone of cross-app sharing, and the adaptive
# policy engine decides what programs reach the hub, so internal/ir and
# internal/adapt must each stay at >=85% on their own.
PKG_FLOORS = sidewinder/internal/ir=85.0 sidewinder/internal/adapt=85.0
# BENCH_PKGS are the packages whose benchmarks carry allocs/op contracts
# (hot paths that must not regress).
BENCH_PKGS = . ./internal/interp ./internal/telemetry ./internal/dsp ./internal/sim ./internal/link

.PHONY: verify fmt build vet staticcheck test race bench bench-telemetry \
	bench-baseline bench-check cover cover-check fuzz soak chaos fleetd-stress \
	swbench-check profile-eval profile-optin loc loc-delta testonly-api

verify: fmt build vet staticcheck race
	@echo "verify clean — consider 'make fuzz' (FUZZTIME=$(FUZZTIME) per target) for parser/framing changes"

# fmt fails when `gofmt -l` lists any Go file, swbench/ included.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it); on a bare
# toolchain `make verify` still passes but says so LOUDLY — a silent skip
# once hid real staticcheck findings until CI caught them. CI sets
# STATICCHECK_REQUIRED=1 so the skip branch can never fire there: a
# missing binary is a hard failure, not a banner.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$(STATICCHECK_REQUIRED)" ]; then \
		echo "ERROR: STATICCHECK_REQUIRED is set but staticcheck is not on PATH."; \
		echo "Install it with: go install honnef.co/go/tools/cmd/staticcheck@latest"; \
		exit 1; \
	else \
		echo "============================================================"; \
		echo "WARNING: staticcheck SKIPPED — binary not on PATH."; \
		echo "This verify run is INCOMPLETE; CI will run staticcheck and"; \
		echo "may fail where this pass did not. Install it with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@latest"; \
		echo "============================================================"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-telemetry proves the observability contract: registry/tracer
# primitives and the instrumented interpreter hot path must report
# 0 allocs/op with sinks disabled.
bench-telemetry:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry
	$(GO) test -run '^$$' -bench 'BenchmarkPushSample' -benchmem ./internal/interp

# bench-baseline regenerates the committed allocs/op baseline. Run it on
# any machine — the regression gate compares only allocs/op, which is
# deterministic, never timings.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) | tee docs/bench/baseline.txt

# bench-check reruns the benchmarks and fails on any allocs/op regression
# against docs/bench/baseline.txt (CI's bench-regression gate).
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS) | tee bench-current.txt
	scripts/check_bench_allocs.sh docs/bench/baseline.txt bench-current.txt

# swbench-check vets and race-tests the benchmark harness. swbench is its
# own Go module (swbench/go.mod), so `go build ./...` and `make verify`
# never compile it, yet it imports interp, ir, sim, eval and fleetd: an API
# change there breaks it silently without this gate (CI's swbench job).
swbench-check:
	cd swbench && $(GO) vet . && $(GO) test -race .

# profile-eval CPU-profiles the paper evaluation at the benchmark's
# paper-eval scale (every `-experiment all` table at 2/2/4-minute traces,
# one worker) and prints the top functions, so an optimization can name
# the layer it targets from a rerunnable profile.
profile-eval:
	$(GO) run ./cmd/sidewinder-eval -experiment all -robot-min 2 -audio-min 2 \
		-human-min 4 -workers 1 -cpuprofile eval-cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount=25 eval-cpu.prof

# profile-optin is profile-eval's twin for the opt-in sweeps: it
# CPU-profiles `-experiment fleet`, `adaptive` and `crash` at the
# benchmark's optin-sweeps scale (2/2/4-minute traces, one worker), one
# profile each, and prints the top functions of the three merged.
OPTIN_EXPERIMENTS = fleet adaptive crash
profile-optin:
	$(GO) build -o bin/sidewinder-eval ./cmd/sidewinder-eval
	for e in $(OPTIN_EXPERIMENTS); do \
		bin/sidewinder-eval -experiment $$e -robot-min 2 -audio-min 2 -human-min 4 \
			-workers 1 -cpuprofile optin-$$e-cpu.prof > /dev/null || exit 1; \
	done
	$(GO) tool pprof -top -nodecount=25 bin/sidewinder-eval $(OPTIN_EXPERIMENTS:%=optin-%-cpu.prof)

# loc prints the production Go lines per package and in total: non-blank,
# non-comment lines of every non-test .go file outside swbench/. Simplicity
# changes report their delta in this count.
loc:
	@scripts/loc.sh

# loc-delta prints the same count per package at git revision BASE
# (default HEAD) and in the working tree, with the difference. BASE is
# unpacked into a temporary directory that is removed afterwards.
BASE ?= HEAD
loc-delta:
	@scripts/loc_delta.sh $(BASE)

# testonly-api lists exported functions and methods that no production
# code (swbench included) calls, and fails on any not kept on purpose in
# scripts/testonly_api.allow (name  # reason), so API that only tests
# reach cannot pile up (CI's verify job). It also notes, never failing,
# the API only swbench and tests reach: what the swbench binary links and
# no cmd or example binary does.
testonly-api:
	@scripts/testonly_api.sh

# cover writes an aggregate coverage profile and prints the per-package
# summary; open coverage.html for the annotated source view.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	$(GO) tool cover -html=coverage.out -o coverage.html

# cover-check enforces the total and per-package coverage floors on an
# existing coverage.out (CI's coverage gate; run `make cover` first).
cover-check:
	scripts/check_coverage.sh coverage.out $(COVER_FLOOR) $(PKG_FLOORS)

# soak boots a race-instrumented sidewinderd, replays a fleet population
# at it with fleetload, SIGTERMs the daemon and asserts a clean drain with
# ledger conservation (CI's race-soak gate). SOAK_DEVICES scales the load.
SOAK_DEVICES ?= 200
soak:
	$(GO) build -race -o bin/sidewinderd-race ./cmd/sidewinderd
	$(GO) build -race -o bin/fleetload-race ./cmd/fleetload
	SOAK_DEVICES=$(SOAK_DEVICES) scripts/soak.sh bin/sidewinderd-race bin/fleetload-race

# chaos runs the chaos soak: race-built fleetload -> chaosproxy ->
# sidewinderd across every fault profile and seed in the sweep, each leg
# asserting zero unrecovered devices, bit-for-bit per-device totals (the
# bye handshake), and a clean conserving drain — plus a SIGKILL leg that
# corrupts the newest checkpoint and recovers from the .bak
# (scripts/chaos.sh; CI's chaos-soak gate). CHAOS_DEVICES scales the load,
# CHAOS_PROFILES / CHAOS_SEEDS shape the sweep.
CHAOS_DEVICES ?= 60
chaos:
	$(GO) build -race -o bin/sidewinderd-race ./cmd/sidewinderd
	$(GO) build -race -o bin/fleetload-race ./cmd/fleetload
	$(GO) build -race -o bin/chaosproxy-race ./cmd/chaosproxy
	CHAOS_DEVICES=$(CHAOS_DEVICES) scripts/chaos.sh \
		bin/sidewinderd-race bin/fleetload-race bin/chaosproxy-race

# fleetd-stress reruns the fleetd tests that are most sensitive to
# scheduling (the checkpoint kill/restart, shedding under reconnects, the
# bounded enqueue wait, resume dedup and the bit-identity replay) 20 times
# under the race detector while 3 x nproc busy loops compete for the
# CPUs; the busy loops are killed however the run ends (CI's
# fleetd-stress gate).
STRESS_TESTS = TestKillRestartRecoversFromCheckpointChain|TestChaosShedsWithReconnectsStayConsistent|TestFullQueueWaitsBeforeShedding|TestResumeAndDedup|TestLoadIdentity
fleetd-stress:
	$(GO) test -race -count=1 -run '^$$' ./internal/fleetd
	@n=$$((3 * $$(nproc))); hogs=""; trap 'kill $$hogs 2>/dev/null' EXIT INT TERM; \
	for i in $$(seq $$n); do sh -c 'while :; do :; done' & hogs="$$hogs $$!"; done; \
	echo "fleetd-stress: $$n busy loops"; \
	$(GO) test -race -count=20 -run '^($(STRESS_TESTS))$$' ./internal/fleetd

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/link
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz '^FuzzDAGCompile$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz '^FuzzHeartbeat$$' -fuzztime $(FUZZTIME) ./internal/resilience
	$(GO) test -run '^$$' -fuzz '^FuzzQ15Roundtrip$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/sensor
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime $(FUZZTIME) ./internal/sensor
	$(GO) test -run '^$$' -fuzz '^FuzzSpecParse$$' -fuzztime $(FUZZTIME) ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayloads$$' -fuzztime $(FUZZTIME) ./internal/fleetd
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/fleetd
