#!/usr/bin/env bash
# Lint + format + (optionally) build/test/bench gate for the QDN
# workspace.
#
# Run before pushing any change (especially perf refactors, which tend to
# accumulate lint debt):
#
#     ./scripts/ci-gate.sh                  # fmt, clippy, qdn-lint and
#                                           # rustdoc only (fast)
#     ./scripts/ci-gate.sh --full           # also build + tier-1,
#                                           # workspace and perfbench
#                                           # tests
#     ./scripts/ci-gate.sh --full --bench   # also the bench regression
#                                           # gate (scripts/bench-gate.sh)
#
# `--bench` re-runs the profile_eval bench and fails on >25% median
# regression against the committed BENCH_profile_eval.json baseline on
# the memoized-re-eval and cold-solve rows; tune with BENCH_GATE_FACTOR /
# CRITERION_TARGET_MS (documented in scripts/bench-gate.sh). It is not
# part of plain `--full` because wall-clock medians are only meaningful
# on a quiet machine — CI instead runs a reduced-iteration smoke of the
# same bench and archives the snapshot (see .github/workflows/ci.yml).
#
# The gate is intentionally strict: clippy warnings are errors across all
# targets (lib, tests, benches, examples, bins), formatting must match
# rustfmt exactly, and the workspace invariant checker (qdn-lint — see
# crates/lint/README.md) must report zero errors, and so must rustdoc.
# The lint JSON report lands in target/lint-report.json for CI to
# archive.
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
bench=0
for arg in "$@"; do
    case "$arg" in
        --full) full=1 ;;
        --bench) bench=1 ;;
        *)
            echo "ci-gate: unknown flag $arg (expected --full and/or --bench)" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

# Workspace-wide clippy, minus the vendored compat shims that mirror
# upstream APIs (pinned by their own behavior tests — same carve-out as
# lint.toml's skip list). The threadpool and serde shims follow no
# upstream internals, and the serde shims parse untrusted frames on the
# daemon's serving thread, so they are held to clippy and the workspace
# lints like any other crate.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude wide \
    --all-targets -- -D warnings

echo "==> qdn-lint --report target/lint-report.json"
cargo run -q -p qdn_lint --bin qdn-lint -- --report target/lint-report.json

# Rustdoc with warnings as errors, over the same crates as clippy: a
# broken intra-doc link, or a public doc linking to a private item,
# fails the gate.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude wide

if [[ "$full" -eq 1 ]]; then
    # --workspace: the serve smoke below runs qdn_serve's binaries, which
    # a root-package build does not produce.
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace
    echo "==> cargo test -q"
    cargo test -q

    # The paper reproduction: every figure, ablation, extension and DES
    # experiment and the Theorem 1-2 check at --quick scale. run_all
    # exits non-zero when any of its 17 shape checks fails; its tables
    # go to a file (archived by CI) and only the verdicts are echoed.
    echo "==> run_all --quick (paper reproduction shape checks)"
    run_all_out=target/run-all-quick.txt
    if ! cargo run -q --release -p qdn_bench --bin run_all -- --quick >"$run_all_out"; then
        grep "shape check" "$run_all_out" || true
        echo "ci-gate: run_all --quick failed (full output in $run_all_out)" >&2
        exit 1
    fi
    grep "shape check" "$run_all_out"

    # Every other crate's suite: serve daemon (including the decoder
    # fuzz), solve, core (including early_rejection_matches_reference_chain),
    # sim (including parallel_trials_byte_identical_to_serial), net, lint
    # and the vendored shims. The root package `qdn` is a workspace
    # member, and `cargo test -q` above already ran its suite (the
    # goldens and tests/differential.rs), so it is excluded here and
    # every test runs once per gate.
    echo "==> cargo test -q --workspace --exclude qdn"
    cargo test -q --workspace --exclude qdn

    # The end-to-end benchmark harness is a package of its own (empty
    # `[workspace]`), so the workspace build above does not compile it.
    # Building and testing it here catches public-API removals that
    # would break the benchmark.
    echo "==> cargo test -q --locked --manifest-path perfbench/Cargo.toml"
    cargo test -q --locked --manifest-path perfbench/Cargo.toml

    # Serve smoke: boot the controller daemon on a Unix socket, replay
    # 64 slots through the load generator, require a clean shutdown, a
    # nonzero decision count, the one advisory on file, some degraded
    # requests, and every submitted request accounted for.
    echo "==> serve smoke (qdn-served + qdn-serve-load, 64 slots, --kill-node 3)"
    smoke_sock="$(mktemp -u /tmp/qdn-ci-smoke-XXXXXX.sock)"
    ./target/release/qdn-served --socket "$smoke_sock" --seed 7 --shards 4 &
    served_pid=$!
    trap 'kill "$served_pid" 2>/dev/null || true; rm -f "$smoke_sock"' EXIT
    for _ in $(seq 1 50); do
        [[ -S "$smoke_sock" ]] && break
        sleep 0.1
    done
    [[ -S "$smoke_sock" ]] || { echo "ci-gate: daemon never bound $smoke_sock" >&2; exit 1; }
    # --kill-node advises a node outage over the middle third of the
    # run, exercising the advisory/degraded path end to end on every
    # full gate.
    smoke_report="$(./target/release/qdn-serve-load \
        --socket "$smoke_sock" --slots 64 --workload uniform \
        --kill-node 3 --shutdown)"
    wait "$served_pid"
    trap - EXIT
    rm -f "$smoke_sock"
    echo "$smoke_report"
    report_field() {
        echo "$smoke_report" | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p" | head -n1
    }
    submitted="$(report_field submitted)"
    decided="$(report_field served)"
    unserved="$(report_field unserved)"
    degraded="$(report_field degraded)"
    advisories="$(report_field advisories)"
    if [[ -z "$decided" || "$decided" -eq 0 ]]; then
        echo "ci-gate: serve smoke decided nothing" >&2
        exit 1
    fi
    if [[ "$advisories" != 1 ]]; then
        echo "ci-gate: serve smoke advisories ${advisories:-missing}, expected 1" >&2
        exit 1
    fi
    if [[ -z "$degraded" || "$degraded" -eq 0 ]]; then
        echo "ci-gate: serve smoke degraded no request under --kill-node" >&2
        exit 1
    fi
    if [[ -z "$submitted" || -z "$unserved" ]] \
        || (( submitted != decided + unserved + degraded )); then
        echo "ci-gate: serve smoke submitted ${submitted:-?} != served $decided" \
            "+ unserved ${unserved:-?} + degraded $degraded" >&2
        exit 1
    fi
fi

if [[ "$bench" -eq 1 ]]; then
    ./scripts/bench-gate.sh
fi

echo "ci-gate: OK"
