#!/bin/sh
# verify.sh — the pre-merge gate: build, tests, vet, race on the packages
# that exercise parallelism, lint (when the pinned tools are installed),
# and gofmt + layering cleanliness. Exits non-zero on the first failure.
# Run from anywhere; operates on the repo root.
#
#   sh scripts/verify.sh            # every stage (the full local gate)
#   sh scripts/verify.sh build      # one stage, as the CI matrix runs them
#
# Stages: build, test, race, lint, gates. The CI workflow fans these out
# across jobs so a vet failure is reported independently of a race failure;
# locally the no-argument form runs them all in order.
set -eu

cd "$(dirname "$0")/.."

# Pinned lint tool versions — keep in sync with the Makefile lint target
# and .github/workflows/ci.yml. Pinning makes lint failures reproducible:
# a new staticcheck release cannot break CI until the pin moves.
STATICCHECK_VERSION=2025.1.1
GOVULNCHECK_VERSION=v1.1.4

stage_build() {
    echo "== go build ./..."
    go build ./...

    echo "== go vet ./..."
    go vet ./...

    echo "== gofmt -l"
    fmt=$(gofmt -l cmd internal examples 2>/dev/null || gofmt -l cmd internal)
    if [ -n "$fmt" ]; then
        echo "gofmt needed on:" >&2
        echo "$fmt" >&2
        exit 1
    fi
}

stage_test() {
    echo "== go test ./..."
    go test ./...
}

stage_race() {
    # GOMAXPROCS is left to the environment on purpose: the CI matrix runs
    # this stage at 2 and 8 to shake out schedules a single setting hides
    # (the exp -parallel cell workers and the serve worker pool are the
    # main beneficiaries; both share one artifact.Cache).
    echo "== go test -race (parallel-heavy packages, GOMAXPROCS=${GOMAXPROCS:-default})"
    go test -race ./internal/engine/... ./internal/exp/... ./internal/sim/... \
        ./internal/serve/... ./internal/serveclient/... ./internal/backend/... \
        ./internal/pimdram/... ./internal/artifact/...
}

stage_lint() {
    # Both tools are gated on availability: the hermetic dev container does
    # not ship them (and must not install anything), while CI installs the
    # pinned versions before calling this stage.
    if command -v staticcheck >/dev/null 2>&1; then
        echo "== staticcheck ./... (pinned $STATICCHECK_VERSION in CI)"
        staticcheck ./...
    else
        echo "== staticcheck not installed; skipping (CI runs $STATICCHECK_VERSION)"
    fi
    if command -v govulncheck >/dev/null 2>&1; then
        echo "== govulncheck ./... (pinned $GOVULNCHECK_VERSION in CI)"
        govulncheck ./...
    else
        echo "== govulncheck not installed; skipping (CI runs $GOVULNCHECK_VERSION)"
    fi
}

stage_gates() {
    echo "== no sim.Config struct literals outside internal/sim"
    # Configs must come from the constructors + functional options so Validate
    # always runs; slices of constructor results ([]sim.Config{...}) are fine,
    # bare struct literals are not.
    viol=$(grep -rn 'sim\.Config{' cmd internal examples --include='*.go' \
        | grep -v '^internal/sim/' \
        | grep -v '\[\]sim\.Config{' || true)
    if [ -n "$viol" ]; then
        echo "sim.Config struct literal outside internal/sim (use sim.NewConfig + options):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== no raw trace-event aggregation outside internal/profile"
    # internal/profile is the single aggregation layer over raw trace events:
    # everything else must consume profiles, never
    # walk Tracer.VisitEvents itself — otherwise attribution logic fragments
    # across the tree and merge-order determinism stops being one proof.
    viol=$(grep -rn 'VisitEvents(' cmd internal examples --include='*.go' \
        | grep -v '^internal/profile/' \
        | grep -v '^internal/trace/' || true)
    if [ -n "$viol" ]; then
        echo "raw trace span aggregation outside internal/profile (use profile.Profiler):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== no tree-walk ir.Run on non-test hot paths"
    # The bytecode VM (ir.Program.Run, via ir.NewProgram / the artifact program
    # cache) replaced the tree-walk interpreter everywhere results are produced;
    # ir.Run survives as the reference semantics for differential tests only.
    # Non-test code outside internal/ir must not call it, or the hot paths
    # silently regress to the slow executor.
    viol=$(grep -rn 'ir\.Run(' cmd internal examples --include='*.go' \
        | grep -v '^internal/ir/' \
        | grep -v '_test\.go:' || true)
    if [ -n "$viol" ]; then
        echo "tree-walk ir.Run outside internal/ir or tests (use ir.NewProgram(k) or Cache.GetOrProgram, then Program.Run):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== naive engine scheduler only in differential tests"
    # engine.ModeNaive is the one-tick-at-a-time reference that the
    # differential tests compare the adaptive scheduler against. Results
    # are bit-identical across the two, so selecting it anywhere else can
    # only make a run slower: it must not become a user knob again.
    # internal/backend/backendtest is the shared backend test harness,
    # imported only by _test.go files.
    viol=$(grep -rn 'engine\.ModeNaive' cmd internal examples --include='*.go' \
        | grep -v '^internal/engine/' \
        | grep -v '^internal/backend/backendtest/' \
        | grep -v '_test\.go:' || true)
    if [ -n "$viol" ]; then
        echo "engine.ModeNaive outside internal/engine or tests (it is the TestEngineSchedulerDifferential reference, not an option):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== structured logging only in internal/serve"
    # The job server logs through Config.Logger (slog) — one structured
    # line per event, keyed by job ID. Raw log.Print or stderr
    # writes would bypass the embedder's logger and desynchronize the
    # request log from the job lifecycle.
    viol=$(grep -rn 'log\.Print\|fmt\.Fprint[a-z]*(os\.Stderr' internal/serve --include='*.go' \
        | grep -v '_test\.go:' || true)
    if [ -n "$viol" ]; then
        echo "raw logging in internal/serve (use the structured logger via Server.logkv):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== one cell path"
    # Every simulation the CLIs, the experiment planner and the job server
    # start goes through exp.RunCell (internal/exp/cell.go): strip-mining,
    # the cached compile, the program fetch and the run live in one place,
    # and the worker pool gives every cell cancellation, deadlines,
    # checkpoints, tracing and progress. Examples call the simulator
    # directly on purpose.
    # A sim.Runner's RunPrecompiled method counts too, whatever the
    # receiver is called.
    viol=$(grep -rnE 'sim\.(Run|RunAnnotated|RunThreads)\(|RunPrecompiled\(|GetOrCompile\(' cmd internal/exp internal/serve --include='*.go' \
        | grep -v '^internal/exp/cell\.go:' \
        | grep -v '_test\.go:' || true)
    if [ -n "$viol" ]; then
        echo "simulation started outside the cell runner (build an exp.Cell and call exp.RunCell, or plan it as a figure cell):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== simulated machines are owned by their workers"
    # A sim.Runner resets one machine between the runs of the worker that
    # owns it. A sync.Pool or a package-level holder of a machine or one of
    # its parts (cache levels, mesh, DRAM, meter) would share that storage
    # across goroutines and runs, where one run's leftovers or a recycled
    # definition pointer could reach another.
    viol=$(grep -rn 'sync\.Pool' internal/sim internal/cache internal/noc internal/dram \
        internal/energy internal/exp internal/serve --include='*.go' | grep -v '_test\.go:' || true)
    viol="$viol$(find internal/sim internal/cache internal/noc internal/dram internal/energy \
        internal/exp internal/serve -name '*.go' ! -name '*_test.go' -exec awk '
        /^var[ \t]*\(/ { blk = 1; next }
        blk && /^\)/ { blk = 0; next }
        (blk || /^var[ \t]/) && /(machine|Machine|Runner|Level|Hierarchy|Mesh|Memory|Slab|Meter)([^A-Za-z]|$)/ {
            print FILENAME ":" FNR ": " $0
        }' {} +)"
    if [ -n "$viol" ]; then
        echo "shared machine storage (give each worker its own sim.Runner):" >&2
        echo "$viol" >&2
        exit 1
    fi

    echo "== no direct accelerator imports outside internal/backend"
    # The backend registry (internal/backend) is the only seam the rest of the
    # tree may reach accelerators through: sim, compiler, partition and profile
    # stay accelerator-agnostic, and new engines plug in by registering.
    # Tests may import the concrete packages to reach their own internals.
    viol=$(grep -rn '"distda/internal/\(iocore\|cgra\|pimdram\)"' cmd internal examples --include='*.go' \
        | grep -v '^internal/backend/' \
        | grep -v '^internal/iocore/' \
        | grep -v '^internal/cgra/' \
        | grep -v '^internal/pimdram/' \
        | grep -v '_test\.go:' || true)
    if [ -n "$viol" ]; then
        echo "direct accelerator import outside internal/backend (go through backend.Lookup):" >&2
        echo "$viol" >&2
        exit 1
    fi
}

case "${1:-all}" in
build) stage_build ;;
test) stage_test ;;
race) stage_race ;;
lint) stage_lint ;;
gates) stage_gates ;;
all)
    stage_build
    stage_test
    stage_race
    stage_lint
    stage_gates
    echo "verify: OK"
    ;;
*)
    echo "usage: sh scripts/verify.sh [build|test|race|lint|gates]" >&2
    exit 2
    ;;
esac
