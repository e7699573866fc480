# Tier-1 gate plus the deeper checks CI and pre-commit runs use.

GO ?= go

# Minimum total statement coverage `make cover` enforces. Measured headroom:
# the suite sits around 82% — raise this as coverage grows, never lower it
# to make a failing build pass.
COVER_MIN ?= 75

.PHONY: build test vet race allocs bench bench-layered lifecycle-e2e serve-smoke fuzz-smoke verify fmt fmt-check cover lint vulncheck tidy-check

# Staticcheck version the lint gate pins (see .github/workflows/ci.yml —
# keep the two in sync so local runs match CI).
STATICCHECK_VERSION ?= 2024.1.1

# govulncheck version the vulnerability gate pins (same sync rule).
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# -short skips the heaviest ablation drivers, which exceed the default
# per-package timeout under race instrumentation; everything else runs
# fully instrumented.
race:
	$(GO) test -race -short ./...

# allocs runs every allocation pin (the tests named *Allocs* or *AllocFree*)
# verbose and without -race. The pins skip under -race (sync.Pool drops Puts
# there, so pooled paths allocate), so `make race` and the race job never run
# them, and in `make test` a regression is one line among hundreds.
allocs:
	$(GO) test -run 'Allocs|AllocFree' -v ./...

# bench smoke-runs every root Benchmark* once; it proves they still build
# and finish, not how fast they are.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-layered is the perf gate: the layered admission benchmark (see
# bench/README.md) over all four workloads, end-to-end metrics plus the
# per-layer breakdown, into bench/out/results.json. Judge a change with
# `go run ./bench -compare base/results.json new/results.json` over
# interleaved runs of the two commits — never from a single run.
bench-layered:
	$(GO) run ./bench -out bench/out

# lifecycle-e2e runs the self-healing headline proof on its own: a mid-run
# physics perturbation must trip the drift alarm, retrain on post-drift
# evidence, pass the shadow gate, hot-swap, and end the run healthy — all
# without a restart. Part of `make test` too (it only skips under -short);
# this target exists for a fast, verbose signal while working on the
# lifecycle.
lifecycle-e2e:
	$(GO) test -run 'TestLifecycleRecoversFromPerturbedPhysics|TestDriftAlarmPerturbedPhysics' -v ./internal/core/

# serve-smoke proves the admission front end end to end through the real
# binary: build gaugur, boot `serve -demo` on a throwaway port, replay a
# flash-crowd arrival trace over the wire with loadgen (which exits
# non-zero if any request errors and propagates deterministic trace ids),
# pull /debug/flightrecorder and require a non-empty dump with zero
# dropped events that the flightrec reader can render, and among its
# retained traces an admission whose place-batch span has both its score
# and commit children (the span tree recorded from the op's stamps, end to
# end through the real binary with two lanes), then SIGTERM the
# server and require "drained clean": exit 0, fleet.CheckInvariants passed
# on the quiescent cluster, no session left active. The subshell traps
# EXIT so the server never outlives a failed run; the dump lands in
# flightrecorder.json, which CI archives.
serve-smoke:
	$(GO) build -o bin/gaugur ./cmd/gaugur
	@set -e; \
	./bin/gaugur serve -demo -addr 127.0.0.1:18080 -lanes 2 -queue-cap 1024 -flight-cap 8192 > serve_smoke.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1; then break; fi; \
		[ "$$i" = 50 ] && { echo "serve-smoke: server never became ready"; cat serve_smoke.log; exit 1; }; \
		sleep 0.2; \
	done; \
	./bin/gaugur loadgen -target http://127.0.0.1:18080 -rps 300 -horizon 4 -time-scale 4 -crowd-at 1 -crowd-duration 1; \
	curl -sf "http://127.0.0.1:18080/debug/flightrecorder?traces=64" -o flightrecorder.json \
		|| { echo "serve-smoke: flight recorder fetch failed"; cat serve_smoke.log; exit 1; }; \
	test -s flightrecorder.json || { echo "serve-smoke: flight recorder dump is empty"; exit 1; }; \
	grep -q '"dropped": 0' flightrecorder.json \
		|| { echo "serve-smoke: flight recorder dropped events under load"; head -5 flightrecorder.json; exit 1; }; \
	grep -q '"kind": "admit"' flightrecorder.json \
		|| { echo "serve-smoke: no admit events in the flight recorder"; exit 1; }; \
	./bin/gaugur flightrec -in flightrecorder.json -expand 64 > serve_smoke_traces.txt \
		|| { echo "serve-smoke: flightrec reader choked on the dump"; exit 1; }; \
	awk '/^trace .* \(admission\):$$/ { adm = 1; next } /^trace / { adm = 0 } \
		pb && /^      score / { s = 1; next } pb && /^      commit / { c = 1; next } \
		pb { if (s && c) ok = 1; pb = 0 } adm && /^    place-batch / { pb = 1; s = 0; c = 0 } \
		END { if (pb && s && c) ok = 1; exit !ok }' serve_smoke_traces.txt \
		|| { echo "serve-smoke: no retained admission trace with place-batch -> score + commit"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: server exited non-zero"; cat serve_smoke.log; exit 1; }; \
	trap - EXIT; \
	grep -q "drained clean" serve_smoke.log || { echo "serve-smoke: no clean drain"; cat serve_smoke.log; exit 1; }; \
	echo "serve-smoke: OK"; tail -2 serve_smoke.log

# fuzz-smoke gives each fuzz target ten seconds of mutation beyond the seed
# corpus `make test` already replays: the wire's binary frame loop, the
# model deserializer, and the wire's JSON admit/leave bodies with their
# trace-id header — the places bytes from outside are parsed — the
# compiled forest kernel against the reference tree walk, and the fleet's
# op sequences (place, batch, remove, migrate, fail, restore, model swap)
# against the flat oracle. One package and one target per invocation is a
# `go test -fuzz` restriction.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBinaryFrame -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzLoadModel -fuzztime 10s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzHTTPBody -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzCompiledForest -fuzztime 10s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzClusterOps -fuzztime 10s ./internal/sched/fleet

# fmt rewrites every tracked Go file in place; fmt-check is the CI gate
# that fails (and lists offenders) when anything is unformatted.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# cover runs the suite with a statement-coverage profile and enforces the
# COVER_MIN floor on the total.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# lint runs staticcheck when it is on PATH and explains how to get the
# pinned version otherwise. It is not part of `make verify` because the
# tool is an external binary; CI runs it as its own cached job.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; \
	fi

# vulncheck scans the module against the Go vulnerability database with
# the pinned govulncheck. Like lint, it needs an external binary (and
# network access to fetch the DB), so it is CI's own cached job rather
# than part of `make verify`.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; run:"; \
		echo "  go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
		exit 1; \
	fi

# tidy-check fails when go.mod/go.sum would change under `go mod tidy` —
# the committed module graph must already be tidy.
tidy-check:
	$(GO) mod tidy -diff

# verify is the full gate: tier-1 build+test, formatting, static analysis,
# and the race detector over every package.
verify: build test fmt-check vet race
