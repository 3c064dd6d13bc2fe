# GS3 build/test entry points. `make check` is the CI gate: it must be
# green before any commit — formatting, build, vet, and the full test suite under
# the race detector (the engine is single-threaded per trial, but the
# runner fans trials across goroutines, so the whole tree is required
# to be race-clean). Performance is gated by the exact work pins in
# bench_test.go, which run with the suite; no target here compares
# benchmark timings (perfbench/ times changes in paired runs instead).

GO ?= go

.PHONY: all fmt build vet test race bench bench-smoke smoke fuzz-smoke chaos traffic-smoke engine-smoke adversary-smoke goldens golden-diff check

all: check

# Fails, listing the offenders, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The paper's tables, regenerated serially (comparable ns/op).
bench:
	$(GO) test -bench=. -benchmem

# One iteration of every benchmark — a cheap compile-and-run gate that
# keeps the benchmark suite from bit-rotting. -short skips the heavy
# scaling sweeps; a single iteration proves every other benchmark still
# builds, runs, and passes its internal assertions.
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# Parallel-vs-serial scaling-sweep smoke benchmark only.
smoke:
	$(GO) test -bench='BenchmarkScalingSweep' -benchtime=1x

# Run every fuzz target briefly: each package with Fuzz* functions gets
# a short randomized burst beyond its checked-in seed corpus.
FUZZTIME ?= 5s
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Chaos smoke scenario: lossy radio with blackouts on the default grid;
# gs3sim exits nonzero if the watchdog sees no convergence.
chaos:
	$(GO) run ./cmd/gs3sim -region 300 -loss 0.2 -blackout-rate 0.02 -blackout-sweeps 3 \
		-chaos -sweeps 120 -seed 7

# Data-plane smoke scenario: routed packets (mixed convergecast and
# point-to-point geographic) through a lossy, churning structure while
# maintenance heals it.
traffic-smoke:
	$(GO) run ./cmd/gs3sim -region 300 -r 50 -sweeps 15 -packets 20000 -traffic-rate 500 \
		-p2p 0.3 -loss 0.1 -blackout-rate 0.01 -churn 20 -seed 4 -q

# Event-engine churn smoke: a million-event schedule/cancel/fire
# mix (sliding-window churn plus a wide 300k-pending drain) under the
# race detector, asserting exact (At, seq) fire order and live-event
# accounting throughout. The scale gate for the calendar-queue engine.
engine-smoke:
	GS3_ENGINE_SMOKE=1 $(GO) test -race -run TestEngineSmokeMillionEvents -v ./internal/sim

# Adversarial-daemon smoke: the greedy worst-case daemon and the random
# daemon replay the same candidate strikes on the scenario matrix; the
# tests assert greedy healing effort >= random on every scenario.
adversary-smoke:
	$(GO) test -run 'TestGreedyAtLeastRandom|TestAdversaryMatrixGreedyAtLeastRandom' \
		./internal/adversary ./internal/exp

# Re-archive the golden experiment stdout under testdata/goldens/.
goldens:
	./scripts/goldens.sh generate

# Replay every golden scenario and diff its stdout byte-for-byte
# against the archive — the determinism gate for optimization PRs.
golden-diff:
	./scripts/goldens.sh diff

check: fmt build vet race bench-smoke engine-smoke golden-diff fuzz-smoke chaos traffic-smoke adversary-smoke
