# Local dev and CI invoke the exact same commands: .github/workflows/ci.yml
# runs `make ci`. Keep the two in sync by editing only this file.

GO ?= go

# Build identity, stamped into every binary's -version output via the
# shared cliutil helper (CI runs these same targets, so release and CI
# builds report the commit they were built from).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X whirlpool/internal/cliutil.buildVersion=$(VERSION)"

.PHONY: build examples test race fuzz vet lint fmt fmt-check bench bench-json bench-delta smoke trace-smoke serve-smoke dist-smoke fleet-smoke load-smoke obs-smoke ci

build:
	$(GO) build $(LDFLAGS) ./...

# ./... already covers examples/, but an explicit target keeps example
# drift visible as its own CI step.
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# The concurrency hot spots: the sweep worker pool (same-app batching,
# per-worker sim.Runner reuse) and the per-app once-cache in the
# experiments harness, per-goroutine Runners and concurrent mapped-trace
# cursors in the simulator and trace codec, the result store's
# concurrent writers, the daemon's job pool + SSE broadcast, the
# distributed dispatcher's shard fan-out, the fleet registry's
# heartbeat/expiry races, the load generator's worker/collector fan-in,
# and the tracer's concurrent span recording.
race:
	$(GO) test -race -count=1 -timeout 20m ./internal/experiments/... ./internal/sim/ ./internal/trace/ ./internal/results/ ./internal/server/ ./internal/dispatch/ ./internal/fleet/ ./internal/traffic/ ./internal/obs/

# Fuzz the one .wtrc parser behind OpenMapped, ReadFile and ReadFrom
# (internal/trace FuzzParseWTRC) for a fixed short budget. Minimizing
# each new interesting input is capped so it cannot eat that budget. A
# crasher lands in internal/trace/testdata/fuzz/ and replays under
# plain go test from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseWTRC$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/

vet:
	$(GO) vet ./...

# The repo's own analyzers (cmd/whirlvet): determinism of the compute
# path, //whirl:zeroalloc hot-path contracts, envelope-only API errors,
# lowercase_snake log/span keys, and mutex discipline on the
# schemes/workloads/fleet registries. New findings fail; grandfathered
# ones live in lint.baseline.json (empty today — keep it that way).
# See docs/lint.md.
lint:
	$(GO) run ./cmd/whirlvet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash, without benchmarking anything for real.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The perf trajectory: trace-pipeline benchmarks (filter, cursor replay,
# codec, warm vs cold harness load, one sim pass), the per-scheme kernel
# cells (BenchmarkCell/<scheme>/<app>), plus the observability alloc
# guards (span emission, the traced sweep loop), rendered as
# BENCH_trace.json. The raw benchmark lines ride along inside the JSON,
# so benchstat can compare two snapshots:
#   jq -r '.raw[]' BENCH_trace.json | benchstat /dev/stdin
bench-json:
	$(GO) test -run '^$$' -bench 'FilterPrivate|TraceCursor|TraceCodec|TraceMmap|HarnessTrace|SimRun|SweepBatched|SpanEmit|SweepSpan|Cell' \
		-benchmem -benchtime 200ms -count 1 ./internal/trace/ ./internal/sim/ ./internal/experiments/ ./internal/obs/ \
		| $(GO) run ./cmd/whirltool benchjson > BENCH_trace.json
	@echo "wrote BENCH_trace.json"

# Regression gate over the bench trajectory: compares the fresh
# BENCH_trace.json against the committed baseline (HEAD) and fails when
# a guarded decode-path benchmark (TraceCodec/TraceCursor/TraceMmap/
# FilterPrivate) regressed >20% in ns/op or allocs/op. Opt out of a
# known-noisy run with BENCH_DELTA_SKIP=1.
bench-delta:
	./scripts/bench-delta.sh

# End-to-end CLI smoke: the spec engine, the sweep runner, and the
# error paths CI asserts on (bad flags must exit non-zero).
smoke:
	$(GO) run ./cmd/whirlsim -app delaunay -scheme whirlpool -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/phase-shift.json -app phaser -scheme whirlpool -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/phase-shift.json -app phaser -scheme jigsaw -scale 0.05
	$(GO) run ./cmd/whirlsim -spec specs/multitenant-kv.json -list | grep -q 'kv-hot (spec file)'
	$(GO) run ./cmd/whirlsim -list | grep -q 'whirlpool (Whirlpool)'
	$(GO) run ./cmd/whirlsim -app delaunay -scheme snuca-lru -chip 6x6:4 -scale 0.05
	$(GO) run ./cmd/whirlsweep -spec specs/multitenant-kv.json -mix kv2-dense -schemes whirlpool -scale 0.05 -q
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS,mcf -scale 0.05 -format csv -q | grep -q '^delaunay,whirlpool,'
	$(GO) run ./cmd/whirlsweep -spec specs/streaming-mix.json -mix stream-vs-rank -schemes snuca-lru,whirlpool -scale 0.05 -q
	$(GO) run ./cmd/whirlsweep -dump-builtin | diff -q - specs/builtin.json
	! $(GO) run ./cmd/whirlsim -scheme bogus -scale 0.05 2>/dev/null
	! $(GO) run ./cmd/whirlsim -spec no-such-file.json 2>/dev/null
	! $(GO) run ./cmd/whirlsim -app nosuchapp -scale 0.05 2>/dev/null
	! $(GO) run ./cmd/whirlsweep -apps nosuchapp -q 2>/dev/null
	! $(GO) run ./cmd/whirlsim -chip 1x1 -scale 0.05 2>/dev/null
	$(GO) run $(LDFLAGS) ./cmd/whirlsim -version | grep -q '^whirlsim '
	$(GO) run ./cmd/whirlsweep -version | grep -q '^whirlsweep dev'
	$(GO) run ./cmd/whirlbench -version | grep -q '^whirlbench '
	$(GO) run ./cmd/whirltool -version | grep -q '^whirltool '
	$(GO) run ./cmd/whirld -version | grep -q '^whirld '
	$(GO) run $(LDFLAGS) ./cmd/whirlvet -version | grep -q '^whirlvet '
	! $(GO) run ./cmd/whirld -store '' 2>/dev/null
	! $(GO) run ./cmd/whirld -workers not-a-url 2>/dev/null
	! $(GO) run ./cmd/whirld -workers 8 -parallel 4 2>/dev/null
	@echo "smoke OK"

# Record/replay smoke: a trace recorded with `whirltool trace record`
# and replayed through a "trace"-sourced spec app must reproduce the
# direct run bit-for-bit (MPKI and the rest of the report columns), and
# a warm -trace-cache sweep must regenerate zero traces.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(GO) run ./cmd/whirltool trace record -app delaunay -scale 0.05 -o .trace-smoke/delaunay.wtrc
	$(GO) run ./cmd/whirltool trace info .trace-smoke/delaunay.wtrc
	$(GO) run ./cmd/whirltool trace cat -n 3 .trace-smoke/delaunay.wtrc >/dev/null
	printf '{"name":"trace-smoke","apps":[{"name":"dt-rec","source":"trace","trace":"delaunay.wtrc"}]}' \
		> .trace-smoke/spec.json
	$(GO) run ./cmd/whirlsim -spec .trace-smoke/spec.json -app dt-rec -scheme jigsaw -scale 0.05 2>/dev/null \
		| awk 'NR==2{print "jigsaw", $$5}' > .trace-smoke/replay.txt
	$(GO) run ./cmd/whirlsim -spec .trace-smoke/spec.json -app dt-rec -scheme snuca-lru -scale 0.05 2>/dev/null \
		| awk 'NR==2{print "snuca", $$5}' >> .trace-smoke/replay.txt
	$(GO) run ./cmd/whirlsim -app delaunay -scheme jigsaw -scale 0.05 \
		| awk 'NR==2{print "jigsaw", $$5}' > .trace-smoke/direct.txt
	$(GO) run ./cmd/whirlsim -app delaunay -scheme snuca-lru -scale 0.05 \
		| awk 'NR==2{print "snuca", $$5}' >> .trace-smoke/direct.txt
	diff .trace-smoke/replay.txt .trace-smoke/direct.txt
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS -schemes jigsaw -scale 0.05 \
		-trace-cache .trace-smoke/cache -q
	$(GO) run ./cmd/whirlsweep -apps delaunay,MIS -schemes jigsaw -scale 0.05 \
		-trace-cache .trace-smoke/cache -o /dev/null 2>&1 \
		| grep -q 'traces: 0 generated'
	rm -rf .trace-smoke
	@echo "trace-smoke OK"

# Serving smoke: start whirld, submit a sweep over HTTP, await the SSE
# stream, diff the rows (timing stripped) against a direct whirlsweep
# run, then resubmit against the warm store and assert zero
# re-simulations. See scripts/serve-smoke.sh.
serve-smoke:
	GO="$(GO)" sh scripts/serve-smoke.sh

# Distributed smoke: a coordinator whirld shards sweeps across two
# worker whirlds sharing one result store; the merged grid must be
# bit-identical to a single-node run, a warm resubmit must re-simulate
# nothing on any node, and a worker killed mid-sweep must not lose the
# job. See scripts/dist-smoke.sh.
dist-smoke:
	GO="$(GO)" sh scripts/dist-smoke.sh

# Elastic-fleet smoke: workers join a coordinator by registration alone
# (-join, no -workers flag), a third worker joining mid-sweep receives
# cells, and a worker killed -9 mid-sweep has its lease expire and its
# cells re-route to the survivors — with the merged grid bit-identical
# to a single-node run. See scripts/fleet-smoke.sh.
fleet-smoke:
	GO="$(GO)" sh scripts/fleet-smoke.sh

# Serving-SLO smoke: whirltool load drives a warm whirld with a mixed
# traffic spec (throughput floors + p99 SLOs fail the run when
# breached), then overdrives /v1/results past its concurrency limit and
# asserts it sheds 429 + Retry-After while other endpoints keep
# serving. See scripts/load-smoke.sh.
load-smoke:
	GO="$(GO)" sh scripts/load-smoke.sh

# Observability smoke: a 2-worker distributed sweep must collect as ONE
# trace tree (single root, both workers' spans stitched under the
# coordinator's job span) fetched from /v1/jobs/{id}/trace and rendered
# by `whirltool spans`; /metrics?format=prom must lint as valid
# Prometheus exposition; pprof serves on -debug-addr only. See
# scripts/obs-smoke.sh.
obs-smoke:
	GO="$(GO)" sh scripts/obs-smoke.sh

ci: build examples vet lint fmt-check test race fuzz bench smoke trace-smoke serve-smoke dist-smoke fleet-smoke load-smoke obs-smoke
