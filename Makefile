# Build/test entry points. `make ci` is the tier-1 gate plus the race
# detector over the whole tree, a short differential-fuzzing smoke, the
# fault-injection chaos smoke, the core-optimizer benchmark smoke, the
# assembly-backend smoke, the cost-model calibration gate, the cluster
# smoke (3 shards + router under a zipfian burst), and the cluster
# chaos smoke (faulty links + a shard crash-restarted from its cache
# snapshot mid-burst), and the fleet-telemetry smoke (traced burst
# through the router; every sampled trace must stitch across processes
# and the latency aggregation must be self-consistent); `make bench`
# regenerates the machine-readable service perf record
# (results/BENCH_service.json), `make bench-core` the optimizer one
# (results/BENCH_core.json), `make bench-cluster` the cluster one
# (results/BENCH_cluster.json), `make bench-chaos` the survivability
# one (results/BENCH_chaos.json), and `make bench-fleet` the
# fleet-telemetry one (results/BENCH_fleet.json).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz-smoke chaos-smoke bench-smoke explain-smoke asm-smoke calib-check cluster-smoke chaos-cluster-smoke fleet-smoke ci calib bench bench-core bench-cluster bench-chaos bench-fleet serve clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short differential-fuzzing run over every native fuzz target; any
# counterexample fails the build and lands in
# internal/fuzzgen/testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzGenerated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzMutated$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fuzzgen -run '^$$' -fuzz '^FuzzSource$$' -fuzztime $(FUZZTIME)

# Fault-injection chaos smoke: the seeded chaos suite under the race
# detector plus a short rolag-fuzz -chaos campaign. Violations of the
# fail-soft contract (crash, verifier failure, equivalence break, or a
# wrong Degraded report) fail the build.
chaos-smoke:
	$(GO) test -race ./internal/fuzzgen -run '^TestChaos' -short -v
	$(GO) run ./cmd/rolag-fuzz -chaos -n 60 -crashers $(or $(TMPDIR),/tmp)/rolag-chaos-crashers

# Observability smoke: run rolagc -remarks=json over every example C
# program and validate each stream against the committed remark schema
# (internal/obs/schematest/remarks.schema.json). A remark-format change
# that breaks the schema contract fails here before it reaches users.
explain-smoke:
	$(GO) build -o $(or $(TMPDIR),/tmp)/rolagc-smoke ./cmd/rolagc
	@set -e; for f in examples/c/*.c; do \
		echo "explain-smoke: $$f"; \
		$(or $(TMPDIR),/tmp)/rolagc-smoke -remarks json $$f 2>/dev/null \
			| $(GO) run ./internal/obs/schematest/remarklint; \
	done

# Assembly-backend smoke: compile every example straight-line and
# rolled through `rolagc -emit asm`, require nonzero measured .text
# bytes, and require the measured size delta to agree in sign with the
# binary cost model's claimed direction (the calibration gate's sign
# contract, re-checked on the real examples). When a system assembler
# is on PATH, both listings must also assemble without error.
asm-smoke:
	$(GO) build -o $(or $(TMPDIR),/tmp)/rolagc-smoke ./cmd/rolagc
	@set -e; for f in examples/c/*.c; do \
		echo "asm-smoke: $$f"; \
		if command -v as >/dev/null 2>&1; then \
			for o in none rolag; do \
				$(or $(TMPDIR),/tmp)/rolagc-smoke -opt $$o -emit asm $$f 2>/dev/null >$(or $(TMPDIR),/tmp)/rolagc-smoke.s; \
				as --64 -o /dev/null $(or $(TMPDIR),/tmp)/rolagc-smoke.s \
					|| { echo "asm-smoke: $$f opt=$$o: assembler error"; exit 1; }; \
			done; \
		fi; \
		none=$$($(or $(TMPDIR),/tmp)/rolagc-smoke -opt none -emit asm $$f 2>&1 >/dev/null); \
		roll=$$($(or $(TMPDIR),/tmp)/rolagc-smoke -opt rolag -emit asm $$f 2>&1 >/dev/null); \
		mn=$$(printf '%s\n' "$$none" | sed -n 's/^text: \([0-9]*\) bytes.*/\1/p'); \
		mr=$$(printf '%s\n' "$$roll" | sed -n 's/^text: \([0-9]*\) bytes.*/\1/p'); \
		est=$$(printf '%s\n' "$$roll" | sed -n 's/^size: \([0-9]*\) -> \([0-9]*\) bytes.*/\1 \2/p'); \
		echo "$$mn $$mr $$est" | awk -v f=$$f '{ \
			if (NF != 4) { printf "asm-smoke: %s: missing measurements (%s)\n", f, $$0; exit 1 } \
			if ($$1 <= 0 || $$2 <= 0) { printf "asm-smoke: %s: empty .text\n", f; exit 1 } \
			md = $$2 - $$1; ed = $$4 - $$3; \
			ms = (md > 0) - (md < 0); es = (ed > 0) - (ed < 0); \
			if (ms != es) { printf "asm-smoke: %s: measured %+d bytes but model claims %+d\n", f, md, ed; exit 1 } \
		}'; \
	done

# Cost-model calibration gate: compile a 200-function corpus both
# straight-line and rolled through the assembly backend, and fail if
# the binary cost model drifts past its error gates (MAPE > 15% or
# rolled-vs-straight sign agreement < 95%). The report goes to a
# scratch dir; `make calib` regenerates the committed
# results/CALIB_costmodel.json from the full 400-function corpus.
calib-check:
	$(GO) run ./cmd/experiments -run calib -check -calibn 200 \
		-out $(or $(TMPDIR),/tmp)/rolag-calib-check

calib:
	$(GO) run ./cmd/experiments -run calib -check

# One-iteration core benchmark gated against the committed baseline:
# fails if the output JSON is malformed (the gate parses it) or if
# ns-per-function regresses by more than 2x. The comparison is
# normalized per corpus function, so the small smoke corpus is
# comparable to the full committed baseline.
bench-smoke:
	$(GO) run ./cmd/rolag-bench -n 120 -iters 1 \
		-out $(or $(TMPDIR),/tmp)/rolag-bench-smoke.json \
		-check results/BENCH_core.json -max-slowdown 2

# Cluster smoke: spawn a local 3-shard cluster plus router and push a
# 500-request zipfian burst through it (a quarter of it shard-direct, so
# the fetch-on-miss peer cache tier is exercised). Fails on any byte
# difference from the serial reference, on zero peer-cache hits, or on a
# >5x p99/throughput regression vs the committed cluster baseline.
cluster-smoke:
	$(GO) run ./cmd/rolag-loadgen -shards 3 -requests 500 -n 120 -rate 400 \
		-require-peer-hits \
		-out $(or $(TMPDIR),/tmp)/rolag-cluster-smoke.json \
		-check results/BENCH_cluster.json -max-slowdown 5

# Cluster chaos smoke: the same local cluster with every router→shard
# link running through armed fault injection (stall/refuse/blackhole)
# and the shard owning the hottest key crashed un-drained mid-burst,
# then restarted from its periodic cache snapshot. Gates: byte parity
# on 100% of successful responses, availability >= 99%, and the
# restarted shard serving snapshot-warm hits.
chaos-cluster-smoke:
	$(GO) run ./cmd/rolag-loadgen -chaos -shards 3 -requests 400 -n 120 \
		-rate 200 -timeout 8s \
		-out $(or $(TMPDIR),/tmp)/rolag-chaos-cluster-smoke.json

# Fleet-telemetry smoke: boot the local 3-shard cluster + router with
# tracing on and one span ring per process, push a traced burst through
# the router, and gate the telemetry plane's SLOs — every sampled
# request must yield a fully-stitched multi-process trace from
# GET /debug/trace/{id} (completeness >= 99%), and the router-observed
# /v1/compile p99 must agree with the fleet-merged shard-reported p99.
fleet-smoke:
	$(GO) run ./cmd/rolag-loadgen -fleet -shards 3 -requests 300 -n 120 -rate 400 \
		-out $(or $(TMPDIR),/tmp)/rolag-fleet-smoke.json

ci: vet build race fuzz-smoke chaos-smoke bench-smoke explain-smoke asm-smoke calib-check cluster-smoke chaos-cluster-smoke fleet-smoke

bench:
	$(GO) run ./cmd/experiments -run bench

# Full core-optimizer benchmark; regenerates the committed baseline.
bench-core:
	$(GO) run ./cmd/rolag-bench -n 300 -iters 5 -out results/BENCH_core.json

# Full cluster benchmark; regenerates the committed baseline.
bench-cluster:
	$(GO) run ./cmd/rolag-loadgen -out results/BENCH_cluster.json

# Full chaos run; regenerates the committed survivability record.
bench-chaos:
	$(GO) run ./cmd/rolag-loadgen -chaos -timeout 8s -out results/BENCH_chaos.json

# Full fleet-telemetry run; regenerates the committed record.
bench-fleet:
	$(GO) run ./cmd/rolag-loadgen -fleet -out results/BENCH_fleet.json

serve:
	$(GO) run ./cmd/rolagd

clean:
	$(GO) clean ./...
