#!/usr/bin/env bash
# Bench regression gate for the profile-evaluation engine.
#
# Re-runs the `profile_eval` criterion bench BENCH_RUNS times (default
# 3), reduces each gated row to the median of its per-run medians, and
# compares against the committed baseline snapshot
# `BENCH_profile_eval.json`. The median-of-N discipline is what PR 3 did
# by hand: this container's small-row noise is ±15%, so single-run
# medians made the 1.25× gate flap — medians-of-medians do not.
#
# The gated row families — the ones that guard the PR-1..PR-6 perf
# work:
#
#   * profile_eval_paper20/incremental_move/*       (memoized re-eval)
#   * profile_eval_paper20/incremental_cold_eval/*  (cold component solves)
#   * profile_eval_wax50/incremental_*              (50-node/25-pair scale)
#   * dual_solver_paper20/cold_solve/*              (accelerated dual cold
#                                                    solve, paper scale)
#   * dynamic_vs_static_partition/*                 (route-keyed partition)
#   * session_vs_fresh/*                            (200-slot OSCAR e2e,
#                                                    cold vs session)
#   * churn_recovery/*                              (post-cut decide latency,
#                                                    region-scoped vs
#                                                    global-flush invalidation)
#   * node_churn_recovery/*                         (node cuts: PR 9 batch
#                                                    repair + invalidation)
#   * regional_outage_recovery/*                    (whole-corridor blackouts)
#   * serve_throughput/*                            (controller daemon over a
#                                                    Unix socket: 256-slot
#                                                    load-gen replay, wire
#                                                    protocol + shard fan-out)
#   * parallel_gibbs_restarts/*                     (PR 10: 4-chain restarts,
#                                                    serial vs pool width 4)
#   * parallel_trial_fanout/*                       (PR 10: sim trial fan-out,
#                                                    pool width 1 vs 4)
#   * csr_pass_ns_per_row/*                         (PR 10: SIMD-shaped CSR
#                                                    solver passes)
#
# A row FAILS when `fresh_median_of_medians > baseline_median *
# BENCH_GATE_FACTOR`. Getting *faster* never fails — refresh the
# baseline when it happens: run this script (it writes the combined
# median-of-N snapshot to $BENCH_GATE_JSON) and copy it over:
#
#     ./scripts/bench-gate.sh
#     cp target/bench-gate/BENCH_profile_eval.json BENCH_profile_eval.json
#
# Knobs (environment variables):
#   BENCH_RUNS           bench repetitions per comparison, default 3.
#                        Use 1 for a quick (noisier) single-run check.
#   BENCH_GATE_FACTOR    allowed slowdown ratio, default 1.25 (= +25%).
#                        Loosen on shared/noisy runners.
#   CRITERION_TARGET_MS  per-sample calibration target for the criterion
#                        shim (default 40 ms). The CI smoke job uses a
#                        small value (e.g. 4) for a fast, coarse run —
#                        note coarse runs are noisier, so pair reduced
#                        targets with a looser BENCH_GATE_FACTOR.
#   BENCH_GATE_JSON      where the combined fresh snapshot is written,
#                        default target/bench-gate/BENCH_profile_eval.json
#                        (per-run snapshots land next to it as *.runN).
#
# Invoked by `scripts/ci-gate.sh --bench` (see there); usable standalone:
#
#     ./scripts/bench-gate.sh
#     BENCH_GATE_FACTOR=1.5 CRITERION_TARGET_MS=4 ./scripts/bench-gate.sh
#
# `--compare-only` skips the bench runs and compares an existing snapshot
# at $BENCH_GATE_JSON against the baseline (the CI smoke job uses this
# to report, non-fatally, on the snapshot it just produced).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${BENCH_RUNS:-3}"
FACTOR="${BENCH_GATE_FACTOR:-1.25}"
OUT="${BENCH_GATE_JSON:-target/bench-gate/BENCH_profile_eval.json}"
BASELINE="BENCH_profile_eval.json"
compare_only=0
[[ "${1:-}" == "--compare-only" ]] && compare_only=1

if [[ ! -f "$BASELINE" ]]; then
    echo "bench-gate: no baseline $BASELINE — nothing to compare against" >&2
    exit 1
fi

# "name median_ns" pairs, keeping only the LAST occurrence of each name
# (snapshots are append-mode).
extract() {
    sed -n 's/.*"bench":"\([^"]*\)".*"median_ns":\([0-9.]*\).*/\1 \2/p' "$1" \
        | awk '{last[$1] = $2} END {for (n in last) print n, last[n]}'
}

if [[ "$compare_only" -eq 1 ]]; then
    if [[ ! -f "$OUT" ]]; then
        echo "bench-gate: --compare-only but no snapshot at $OUT" >&2
        exit 1
    fi
    echo "==> bench-gate: comparing existing snapshot $OUT"
else
    mkdir -p "$(dirname "$OUT")"
    run_files=()
    for i in $(seq 1 "$RUNS"); do
        run_file="$OUT.run$i"
        rm -f "$run_file"
        echo "==> bench-gate: profile_eval run $i/$RUNS (CRITERION_TARGET_MS=${CRITERION_TARGET_MS:-40})"
        # Relative paths are fine: the criterion shim resolves them
        # against the workspace root (we cd'd there above), not the
        # bench binary's cwd.
        CRITERION_JSON="$run_file" cargo bench -p qdn_bench --bench profile_eval
        run_files+=("$run_file")
    done
    # Combine: per row, the median of the per-run medians (insertion
    # sort in portable awk; even counts average the two middles).
    rm -f "$OUT"
    for f in "${run_files[@]}"; do extract "$f"; done | awk -v runs="$RUNS" '
        {vals[$1] = vals[$1] " " $2; n[$1]++}
        END {
            for (name in vals) {
                m = split(vals[name], a, " ")
                for (i = 2; i <= m; i++) {
                    v = a[i] + 0
                    for (j = i - 1; j >= 1 && a[j] + 0 > v; j--) a[j + 1] = a[j]
                    a[j + 1] = v
                }
                if (m % 2 == 1) med = a[(m + 1) / 2]
                else med = (a[m / 2] + a[m / 2 + 1]) / 2
                # %.1f, not %s: numeric awk values stringify via CONVFMT
                # ("%.6g"), which turns medians above 1e6 into scientific
                # notation that the sed extractor would truncate at "e".
                printf "{\"bench\":\"%s\",\"median_ns\":%.1f,\"runs\":%d}\n", name, med, runs
            }
        }' | sort > "$OUT"
    echo "==> bench-gate: combined median-of-$RUNS snapshot at $OUT"
fi

fail=0
checked=0
while read -r name base_med; do
    case "$name" in
        profile_eval_paper20/incremental_move/* | \
            profile_eval_paper20/incremental_cold_eval/* | \
            profile_eval_wax50/incremental_move/* | \
            profile_eval_wax50/incremental_cold_eval/* | \
            dynamic_vs_static_partition/* | \
            session_vs_fresh/* | \
            churn_recovery/* | \
            node_churn_recovery/* | \
            regional_outage_recovery/* | \
            serve_throughput/* | \
            parallel_gibbs_restarts/* | \
            parallel_trial_fanout/* | \
            csr_pass_ns_per_row/* | \
            dual_solver_paper20/cold_solve/*) ;;
        *) continue ;;
    esac
    fresh_med="$(extract "$OUT" | awk -v n="$name" '$1 == n {print $2}')"
    if [[ -z "$fresh_med" ]]; then
        echo "bench-gate: FAIL $name missing from fresh run"
        fail=1
        continue
    fi
    checked=$((checked + 1))
    verdict="$(awk -v f="$fresh_med" -v b="$base_med" -v t="$FACTOR" \
        'BEGIN {printf "%s %.3f", (f <= b * t) ? "OK" : "FAIL", f / b}')"
    status="${verdict%% *}"
    ratio="${verdict##* }"
    echo "bench-gate: ${status}  ${name}  ${ratio}x of baseline (fresh ${fresh_med} ns vs base ${base_med} ns, limit ${FACTOR}x)"
    [[ "$status" == "OK" ]] || fail=1
done < <(extract "$BASELINE")

if [[ "$checked" -eq 0 ]]; then
    echo "bench-gate: FAIL no gated rows found in $BASELINE"
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    echo "bench-gate: REGRESSION (>${FACTOR}x on a gated row)"
    exit 1
fi
echo "bench-gate: OK (${checked} rows within ${FACTOR}x)"
