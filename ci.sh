#!/usr/bin/env bash
# CI gate for the slide-rs workspace. Run from the repo root:
#
#   ./ci.sh            # full gate: fmt, clippy, release build, tests, docs
#   ./ci.sh full       # same, explicitly
#   ./ci.sh quick      # skip the workspace release build (debug build +
#                      # tests; still release-builds the one profile_phases
#                      # binary that emits BENCH_train.json)
#   ./ci.sh smoke      # release-build + run the experiment binaries with
#                      # tiny configs (seconds, not minutes) to catch bin rot
#
# Both gate modes leave a BENCH_train.json at the repo root and smoke leaves
# BENCH_train.json + BENCH_net.json (the fault-injected loopback fleet:
# hedge/breaker/deadline counters beside what the proxies injected) +
# BENCH_deploy.json (the continuous train→serve loop: staleness, swap-window
# p99, P@1-over-time under drift, gate counters) — ungated reports, run for
# their exit status. Serving, snapshot and network-hop numbers come from
# benchmark/ alone: smoke runs all four of its workloads for their checks
# (every reply bit-equal to the direct engine), the int8 workload again
# under forced SLIDE_SIMD=avx2 and SLIDE_SIMD=scalar (the scalar leg builds,
# saves and mmap-verifies a real image and frames real requests on the
# byte-at-a-time CRC-32), train_w2v again under forced SLIDE_SIMD=scalar and
# avx2 (the hashing kernels on each ISA), the benchmark's own unit tests,
# and a soak
# (both serve workloads ten times each under a timeout: one hang or failed
# check on the request path fails CI). Smoke also runs the chaos suite and,
# twenty times over, the request path's concurrency tests under forced
# SLIDE_SIMD=scalar, a fleet scrape and a live deploy leg (slide_trainerd
# publishing gated versions into a followed slide_netd); CI uploads all
# BENCH_*.json as per-leg artifacts. Gate modes also enforce a test-count
# ratchet (`cargo test -q` must report at least MIN_TIER1_TESTS passing
# tests, see below) and that the request path stays free of `unsafe`.
#
# SLIDE_SIMD={auto|scalar|avx2|avx512} forces the global SimdPolicy inside
# every test/binary process (the env hook in slide_simd::policy), so the
# scalar and AVX2 dispatch paths are gate-tested, not just whatever the host
# auto-detects. The GitHub Actions workflow runs the matrix
# SLIDE_SIMD x {quick,full}; locally an unset SLIDE_SIMD means auto.
#
# Everything here must pass before merging. The clippy gate is -D warnings
# with NO repo-wide allowlist: the workspace is warning-clean, and any
# intentional exception must be a commented inline #[allow] at the site
# (grep for `allow(clippy` to audit the current ones).
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
case "$MODE" in
    full|quick|smoke) ;;
    *)
        echo "usage: ./ci.sh [full|quick|smoke]" >&2
        exit 2
        ;;
esac

SIMD="${SLIDE_SIMD:-auto}"
case "$SIMD" in
    auto|scalar|avx2|avx512) ;;
    *)
        echo "ci.sh: invalid SLIDE_SIMD='$SIMD' (want auto|scalar|avx2|avx512)" >&2
        exit 2
        ;;
esac
export SLIDE_SIMD="$SIMD"

step() { printf '\n==> %s\n' "$*"; }

echo "ci.sh mode=$MODE SLIDE_SIMD=$SLIDE_SIMD"

if [[ "$MODE" == "smoke" ]]; then
    # Experiment-binary smoke gate: every binary must still start, run a
    # tiny configuration, and (where applicable) emit its artifact.
    step "cargo build --release -p slide-bench --bins"
    cargo build --release -p slide-bench --bins

    step "smoke: table1"
    SLIDE_SCALE=1 ./target/release/table1 > /dev/null

    step "smoke: profile_phases (1 epoch, emits BENCH_train.json)"
    SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_JSON_OUT=BENCH_train.json \
        ./target/release/profile_phases > /dev/null
    grep -q '"simd_level"' BENCH_train.json || {
        echo "profile_phases smoke: BENCH_train.json missing simd_level meta" >&2
        exit 1
    }

    step "smoke: net_bench (fault-injected loopback fleet, emits BENCH_net.json)"
    # A router over two replicas behind seeded stall/drop proxies, every
    # request on a deadline budget. The exit status is the gate (no hard
    # errors behind the router); the report must carry the hedge, breaker
    # and deadline-shed counters next to what was injected
    # (EXPERIMENTS.md §7).
    SLIDE_NET_MS=400 SLIDE_NET_QPS=300 SLIDE_NET_REPLICAS=2 SLIDE_NET_CLIENTS=4 \
        SLIDE_JSON_OUT=BENCH_net.json ./target/release/net_bench > /dev/null
    grep -q '"mode":"fault"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the fault phase" >&2
        exit 1
    }
    grep -q '"deadline_exceeded"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the deadline_exceeded column" >&2
        exit 1
    }
    grep -q '"fault_router":{"hedges":.*"breaker_opens":.*"healthy":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing fault_router hedge/breaker counters" >&2
        exit 1
    }
    grep -q '"fault_proxies":{"stalled":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing fault_proxies injection counters" >&2
        exit 1
    }

    step "smoke: chaos suite under forced SLIDE_SIMD=scalar"
    # The fault-injection acceptance run and the per-hop deadline tests on
    # the scalar dispatch path: robustness machinery (hedging, breakers,
    # deadline shedding) must behave identically when the kernels
    # underneath are at their slowest.
    SLIDE_SIMD=scalar cargo test --release -q -p slide-net \
        --test fault_injection --test deadline_hops

    step "smoke: request-path concurrency tests x20 under forced SLIDE_SIMD=scalar"
    # Each of these forces its interleaving with a gate inside a fake model
    # or a counter, never a sleep, so a failure in any of the twenty rounds
    # is a bug in crates/serve/src/server.rs, not a flake to re-run.
    for round in $(seq 1 20); do
        SLIDE_SIMD=scalar cargo test --release -q -p slide-serve --lib server::tests \
            > /dev/null || {
            echo "request-path concurrency tests failed in round $round" >&2
            exit 1
        }
    done

    step "smoke: registry cold start + fleet scrape (slide_cli obs scrape)"
    # Publish a snapshot through the CLI, cold-start a replica daemon from
    # the registry, front it with slide_router, scrape BOTH tiers over the
    # wire via `slide_cli obs scrape` (the GetMetrics frame), and gate on
    # the metric families the observability contract promises; then drain
    # everything gracefully via stdin EOF (FIFOs stand in for parent pipes).
    cargo build --release -q -p slide --bin slide_cli
    cargo build --release -q -p slide-net \
        --bin slide_netd --bin slide_router --bin slide_trainerd
    REG_DIR="$(mktemp -d)"
    NETD_OUT="$(mktemp)"
    ROUTER_OUT="$(mktemp)"
    ./target/release/slide_cli snapshot --registry "$REG_DIR" --train-epochs 0 > /dev/null
    mkfifo "$REG_DIR/stdin.fifo"
    ./target/release/slide_netd --addr 127.0.0.1:0 --snapshot "$REG_DIR" \
        > "$NETD_OUT" < "$REG_DIR/stdin.fifo" &
    NETD_PID=$!
    exec 9> "$REG_DIR/stdin.fifo" # hold the daemon's stdin open
    for _ in $(seq 1 100); do
        grep -q 'SLIDE_NETD LISTENING' "$NETD_OUT" && break
        sleep 0.1
    done
    grep -q 'SLIDE_NETD LISTENING' "$NETD_OUT" || {
        echo "registry smoke: slide_netd did not cold-start from the registry" >&2
        kill "$NETD_PID" 2> /dev/null || true
        exit 1
    }
    NETD_ADDR="$(grep 'SLIDE_NETD LISTENING' "$NETD_OUT" | awk '{print $3}')"

    mkfifo "$REG_DIR/router.fifo"
    ./target/release/slide_router --addr 127.0.0.1:0 --replica "$NETD_ADDR" \
        > "$ROUTER_OUT" < "$REG_DIR/router.fifo" &
    ROUTER_PID=$!
    exec 8> "$REG_DIR/router.fifo"
    for _ in $(seq 1 100); do
        grep -q 'SLIDE_ROUTER LISTENING' "$ROUTER_OUT" && break
        sleep 0.1
    done
    grep -q 'SLIDE_ROUTER LISTENING' "$ROUTER_OUT" || {
        echo "fleet scrape smoke: slide_router did not start" >&2
        kill "$NETD_PID" "$ROUTER_PID" 2> /dev/null || true
        exit 1
    }
    ROUTER_ADDR="$(grep 'SLIDE_ROUTER LISTENING' "$ROUTER_OUT" | awk '{print $3}')"

    DAEMON_SCRAPE="$(./target/release/slide_cli obs scrape --addr "$NETD_ADDR")"
    for family in \
        slide_net_requests_total \
        slide_net_unavailable_total \
        slide_net_connections_active \
        slide_net_refused_total \
        slide_net_inflight \
        slide_net_latency_us \
        slide_serve_requests_total \
        slide_serve_batches_total \
        slide_serve_batch_size \
        slide_serve_inline_total \
        slide_serve_slot_handoffs_total \
        slide_serve_overloaded_total \
        'slide_stage_us_count{stage="kernel"}' \
        'slide_stage_us_count{stage="encode"}'; do
        grep -qF "$family" <<< "$DAEMON_SCRAPE" || {
            echo "fleet scrape smoke: daemon scrape missing family $family" >&2
            kill "$NETD_PID" "$ROUTER_PID" 2> /dev/null || true
            exit 1
        }
    done
    ROUTER_SCRAPE="$(./target/release/slide_cli obs scrape --addr "$ROUTER_ADDR")"
    for family in \
        slide_router_forwarded_total \
        slide_router_breaker_state \
        slide_router_hedges_total \
        slide_router_deadline_exceeded_total; do
        grep -qF "$family" <<< "$ROUTER_SCRAPE" || {
            echo "fleet scrape smoke: router scrape missing family $family" >&2
            kill "$NETD_PID" "$ROUTER_PID" 2> /dev/null || true
            exit 1
        }
    done

    exec 8>&- # router stdin EOF = graceful drain
    wait "$ROUTER_PID"
    grep -q 'SLIDE_ROUTER DRAINED' "$ROUTER_OUT" || {
        echo "fleet scrape smoke: slide_router did not drain gracefully" >&2
        exit 1
    }
    exec 9>&- # daemon stdin EOF = graceful drain
    wait "$NETD_PID"
    grep -q 'SLIDE_NETD DRAINED' "$NETD_OUT" || {
        echo "registry smoke: slide_netd did not drain gracefully" >&2
        exit 1
    }
    rm -rf "$REG_DIR" "$NETD_OUT" "$ROUTER_OUT"

    step "smoke: deploy_bench (continuous train→serve loop, emits BENCH_deploy.json)"
    # The deployment loop benchmark: a TrainerLoop publishes gated versions
    # while a followed BatchingServer hot-swaps under drifting Zipf load;
    # the report must carry staleness percentiles, the swap-window p99
    # comparison, the P@1-over-time windows, and the gate counters
    # (EXPERIMENTS.md §8).
    SLIDE_DEPLOY_MS=2000 SLIDE_DEPLOY_QPS=200 SLIDE_DEPLOY_ROUNDS=3 \
        SLIDE_EPOCHS=2 SLIDE_JSON_OUT=BENCH_deploy.json \
        ./target/release/deploy_bench > /dev/null
    grep -q '"bench":"deploy"' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing bench meta" >&2
        exit 1
    }
    grep -q '"staleness_us":{"p50":' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing staleness percentiles" >&2
        exit 1
    }
    grep -q '"accepted":' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing the gate accepted counter" >&2
        exit 1
    }
    grep -q '"rejected":' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing the gate rejected counter" >&2
        exit 1
    }
    grep -q '"swap_window"' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing the swap-window p99 split" >&2
        exit 1
    }
    grep -q '"p_at_1_windows"' BENCH_deploy.json || {
        echo "deploy_bench smoke: BENCH_deploy.json missing P@1-over-time windows" >&2
        exit 1
    }

    step "smoke: live deploy loop (slide_trainerd -> followed slide_netd)"
    # The tentpole end to end as real processes: a follower starts against
    # an EMPTY registry, a tiny trainer publishes >=2 gated versions into
    # it (with one injected regression the gate must hold back), and the
    # follower must hot-swap onto every accepted version and report the
    # swaps in its scrape. Same FIFO idiom as above: daemon backgrounded
    # with the FIFO as stdin FIRST, then the writer end opened.
    DEPLOY_DIR="$(mktemp -d)"
    FNETD_OUT="$(mktemp)"
    TRAINERD_OUT="$(mktemp)"
    mkfifo "$DEPLOY_DIR/netd.fifo" "$DEPLOY_DIR/trainerd.fifo"
    ./target/release/slide_netd --addr 127.0.0.1:0 --snapshot "$DEPLOY_DIR" \
        --follow --poll-ms 20 \
        > "$FNETD_OUT" < "$DEPLOY_DIR/netd.fifo" &
    FNETD_PID=$!
    exec 9> "$DEPLOY_DIR/netd.fifo"
    # --period-ms keeps each version live long enough that the follower's
    # 20 ms poller observes every pointer flip (back-to-back publishes can
    # legitimately be skipped; the strict swap-count gate below needs each
    # one seen).
    ./target/release/slide_trainerd --registry "$DEPLOY_DIR" \
        --rounds 3 --epochs-per-round 2 --period-ms 500 --inject-regression-at 3 \
        > "$TRAINERD_OUT" < "$DEPLOY_DIR/trainerd.fifo" &
    TRAINERD_PID=$!
    exec 8> "$DEPLOY_DIR/trainerd.fifo"
    for _ in $(seq 1 600); do
        grep -q 'SLIDE_TRAINERD DONE' "$TRAINERD_OUT" && break
        sleep 0.1
    done
    grep -q 'SLIDE_TRAINERD DONE' "$TRAINERD_OUT" || {
        echo "deploy smoke: slide_trainerd did not finish its rounds" >&2
        kill "$FNETD_PID" "$TRAINERD_PID" 2> /dev/null || true
        exit 1
    }
    PUBLISHED="$(grep -c 'SLIDE_TRAINERD PUBLISHED' "$TRAINERD_OUT" || true)"
    if [[ "$PUBLISHED" -lt 2 ]]; then
        echo "deploy smoke: want >=2 published versions, got $PUBLISHED" >&2
        kill "$FNETD_PID" "$TRAINERD_PID" 2> /dev/null || true
        exit 1
    fi
    grep -q 'SLIDE_TRAINERD REJECTED' "$TRAINERD_OUT" || {
        echo "deploy smoke: the injected regression was not gate-rejected" >&2
        kill "$FNETD_PID" "$TRAINERD_PID" 2> /dev/null || true
        exit 1
    }
    # The follower cold-starts on v1 and must swap onto each later accepted
    # version (PUBLISHED-1 swaps); give the 20 ms poller a moment to catch
    # the last publish.
    for _ in $(seq 1 100); do
        [[ "$(grep -c 'SLIDE_NETD SWAPPED' "$FNETD_OUT" || true)" -ge $((PUBLISHED - 1)) ]] && break
        sleep 0.1
    done
    SWAPS="$(grep -c 'SLIDE_NETD SWAPPED' "$FNETD_OUT" || true)"
    if [[ "$SWAPS" -ne $((PUBLISHED - 1)) ]]; then
        echo "deploy smoke: want $((PUBLISHED - 1)) hot-swaps for $PUBLISHED publishes, got $SWAPS" >&2
        kill "$FNETD_PID" "$TRAINERD_PID" 2> /dev/null || true
        exit 1
    fi
    FNETD_ADDR="$(grep 'SLIDE_NETD LISTENING' "$FNETD_OUT" | awk '{print $3}')"
    DEPLOY_SCRAPE="$(./target/release/slide_cli obs scrape --addr "$FNETD_ADDR")"
    for family in \
        slide_deploy_swaps_total \
        slide_deploy_staleness_us \
        slide_deploy_current_version; do
        grep -qF "$family" <<< "$DEPLOY_SCRAPE" || {
            echo "deploy smoke: follower scrape missing family $family" >&2
            kill "$FNETD_PID" "$TRAINERD_PID" 2> /dev/null || true
            exit 1
        }
    done
    exec 8>&- # trainer stdin EOF (already DONE; reaps the process)
    wait "$TRAINERD_PID"
    exec 9>&- # follower stdin EOF = graceful drain
    wait "$FNETD_PID"
    grep -q 'SLIDE_NETD DRAINED' "$FNETD_OUT" || {
        echo "deploy smoke: followed slide_netd did not drain gracefully" >&2
        exit 1
    }
    rm -rf "$DEPLOY_DIR" "$FNETD_OUT" "$TRAINERD_OUT"

    step "smoke: benchmark, all four workloads (their checks gate training and serving)"
    # benchmark/ is a package of its own outside the root workspace, so this
    # is the one place the gate compiles it against the training and serving
    # APIs. Each run's exit status is its checks: on the serve workloads
    # every reply — open loop, closed loop, before and after the mid-phase
    # publish — must equal the direct engine's answer bit for bit. Two
    # seconds is enough for that; the timings it prints are not read here
    # (see benchmark/README.md).
    benchmark/run.sh all --seconds 2 > /dev/null

    step "smoke: benchmark soak (serve_inproc and serve_net_i8, 10x each, timeout 120)"
    # The driver's command must exit 0 every time: a lost slot or a lost
    # wake-up on the request path shows up as a hang (the timeout) and a
    # wrong reply as a failed check, and neither need happen on every run.
    for w in serve_inproc serve_net_i8; do
        for seed in $(seq 1 10); do
            timeout 120 benchmark/run.sh "$w" --seed "$seed" --seconds 2 > /dev/null || {
                echo "benchmark soak: $w seed $seed failed or timed out (exit $?)" >&2
                exit 1
            }
        done
    done

    step "smoke: benchmark serve_net_i8 under forced SLIDE_SIMD=avx2 and scalar"
    # The quantized serving path on the AVX2 maddubs kernels, so the int8
    # leg exercises a fixed integer ISA whatever the runner's AVX-512
    # support; then on the scalar reference, where every snapshot build,
    # save, mmap verification and wire frame goes through the byte-at-a-time
    # CRC-32 instead of the carry-less-multiply fold.
    SLIDE_SIMD=avx2 benchmark/run.sh serve_net_i8 --seconds 2 > /dev/null
    SLIDE_SIMD=scalar benchmark/run.sh serve_net_i8 --seconds 2 > /dev/null

    step "smoke: benchmark train_w2v under forced SLIDE_SIMD=scalar and avx2"
    # The hashing kernels behind every select_active and table rebuild, on
    # the scalar reference and on the 8-lane ISA whatever the runner
    # auto-detects: the benchmark's training checks (fixed work done, loss
    # and P@1 as expected) must pass on each.
    SLIDE_SIMD=scalar benchmark/run.sh train_w2v --seconds 2 > /dev/null
    SLIDE_SIMD=avx2 benchmark/run.sh train_w2v --seconds 2 > /dev/null

    step "smoke: benchmark unit tests (BENCHMARK.json equals spec.rs)"
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

    step "OK — smoke gates passed"
    exit 0
fi

step "cargo fmt --check"
cargo fmt --check

step "no unsafe on the request path (crates/serve/src/server.rs)"
# Slots are owned values passed between threads through one mutex and the
# waiters' channels; nothing there needs a raw pointer, and it stays so.
if grep -n 'unsafe' crates/serve/src/server.rs; then
    echo "ci.sh: crates/serve/src/server.rs must not contain 'unsafe'" >&2
    exit 1
fi

step "one shape per kernel, one rebuild path (no variant switch, no _pf/_nopf twins)"
# Each kernel's prefetch decision is written into it (DESIGN.md §6) and the
# trainer rebuilds tables in full; neither fork comes back under a new flag.
if grep -rnE 'KernelVariant|SLIDE_KERNELS|kernel_variant|_nopf\b|RebuildMode|refresh_rows' \
    crates src examples; then
    echo "ci.sh: the kernel-variant switch / incremental rebuild path is back" >&2
    exit 1
fi

step "cargo clippy --all-targets --all-features -- -D warnings"
cargo clippy --all-targets --all-features -- -D warnings

if [[ "$MODE" != "quick" ]]; then
    step "cargo build --release"
    cargo build --release
fi

# Test-count ratchet: the baseline is the previous PR's count, raised by the
# tests a PR adds and lowered only by tests deleted together with the code
# they tested (each listed in CHANGES.md). A drop below it means tests were
# deleted or silently stopped being discovered (e.g. a [[test]] target fell
# out of the manifest).
# PR 21: 642 - 26 + 1 = 617. Deleted with their code: 7 wire-version tests
# (5 in wire.rs, 2 in wire_props.rs), MinHash (6 + 1 doctest), XcReader
# (4 + 1 doctest), sub_f32/scale_add_f32 (3), k_folds/subsample (3), the
# document_frequencies doctest (now private). Added:
# wire::tests::predict_length_depends_on_nnz_alone.
# PR 22: 617 - 7 + 2 = 612. Deleted with their code: the KernelVariant
# switch (2 policy tests + the parse_kernel_variant doctest), the
# incremental rebuild path (2 trainer tests) and LshTables::remove (1 table
# test, 1 lsh_props case) — named in CHANGES.md. Added:
# crates/core/tests/bench_surface.rs (2).
# CRC-32 kernels: 612 + 8 = 620. Added: their equivalence suite (3 tests +
# 1 proptest in kernel_equivalence.rs), the fold-constant derivation test,
# the crc32_update doctest, and two registry_durability section-layout
# cases.
MIN_TIER1_TESTS=620

step "cargo test -q (ratchet: >= $MIN_TIER1_TESTS tests)"
TEST_LOG="$(mktemp)"
cargo test -q 2>&1 | tee "$TEST_LOG"
TOTAL_TESTS="$(grep -Eo '[0-9]+ passed' "$TEST_LOG" | awk '{s+=$1} END {print s+0}')"
rm -f "$TEST_LOG"
echo "tier-1 tests passed: $TOTAL_TESTS (baseline $MIN_TIER1_TESTS)"
if [[ "$TOTAL_TESTS" -lt "$MIN_TIER1_TESTS" ]]; then
    echo "ci.sh: test-count ratchet failed: $TOTAL_TESTS < $MIN_TIER1_TESTS" >&2
    exit 1
fi

step "cargo test --doc -q"
cargo test --doc -q

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

# Emit the training-perf trajectory artifact (table1/profile_phases tiny
# config) so every gate leg leaves a BENCH_train.json behind: the meta block
# stamps the leg's resolved SIMD level, making PR-over-PR perf visible per
# forced-SLIDE_SIMD leg. The quick mode builds just the one
# release binary it needs; full mode already built everything.
step "bench trajectory: BENCH_train.json (profile_phases, tiny config)"
cargo build --release -q -p slide-bench --bin profile_phases
SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_JSON_OUT=BENCH_train.json \
    ./target/release/profile_phases > /dev/null
grep -q '"simd_level"' BENCH_train.json || {
    echo "profile_phases: BENCH_train.json missing simd_level meta" >&2
    exit 1
}

step "OK — all gates passed"
