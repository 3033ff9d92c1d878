# Convenience targets; the source of truth for the gate is scripts/verify.sh.

# Pinned lint tool versions — keep in sync with scripts/verify.sh and
# .github/workflows/ci.yml.
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: build test vet race fmt lint lint-tools verify bench serve serve-smoke clean-cache

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./internal/engine/... ./internal/exp/... ./internal/sim/... \
	    ./internal/serve/... ./internal/serveclient/... ./internal/backend/... \
	    ./internal/pimdram/... ./internal/artifact/...

fmt:
	gofmt -l cmd internal examples

# Static analysis + known-vulnerability scan. Skips any tool that is not
# installed (the hermetic dev container ships neither); `make lint-tools`
# installs the pinned versions where the network allows it.
lint:
	sh scripts/verify.sh lint

lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The full pre-merge gate: build + test + vet + race + lint + gofmt.
verify:
	sh scripts/verify.sh

# Run the simulation-as-a-service job server on localhost:8080 with the
# default on-disk caches (see docs/SERVING.md for the API).
serve:
	go run ./cmd/distda-serve -addr localhost:8080 -cache-dir .distda-cache -state-dir .distda-serve

# End-to-end smoke test: start a server, submit jobs over HTTP, assert the
# served bytes match the batch CLIs.
serve-smoke:
	sh scripts/serve_smoke.sh

# Runs every benchmark SAMPLES times (default 5) and records mean/stddev as
# BENCH_<date>.json (schema: docs/results-bench.txt). SAMPLES=10 and/or
# BENCHTIME=5x make bench for tighter statistics. Compare two snapshots with
# scripts/bench_check.sh (the CI regression gate).
bench:
	sh scripts/bench.sh

# Remove the default on-disk compile cache and any run checkpoints, forcing
# the next distda-repro/-run to compile and execute everything cold.
clean-cache:
	rm -rf .distda-cache
	rm -f *.ckpt
