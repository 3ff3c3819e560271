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
# BENCH_serve.json + BENCH_serve_shard.json + BENCH_serve_i8.json +
# BENCH_net.json (the loopback 1-router+2-replica fleet leg, incl. the
# fault-injection phase with hedge/breaker/deadline counters and the
# scrape-overhead phase with its per-stage latency breakdown) +
# BENCH_snapshot.json (registry cold-start vs rebuild) +
# BENCH_deploy.json (the continuous train→serve loop: staleness, swap-window
# p99, P@1-over-time under drift, gate counters); smoke also runs
# the chaos suite under forced SLIDE_SIMD=scalar, a live deploy leg
# (slide_trainerd publishing gated versions into a followed slide_netd), and
# the benchmark's two serve workloads for their bit-equality exit status; CI
# uploads all BENCH_*.json as per-leg artifacts. Gate modes also enforce a
# test-count ratchet: `cargo test -q` must report at least MIN_TIER1_TESTS
# passing tests (see below).
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
    grep -q '"kernel_variant"' BENCH_train.json || {
        echo "profile_phases smoke: BENCH_train.json missing kernel_variant meta" >&2
        exit 1
    }

    step "smoke: serve_bench (tiny closed+open load)"
    # Written at the repo root (not a tempfile) so CI can upload BENCH_*.json
    # as trajectory artifacts.
    SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_SERVE_MS=500 SLIDE_CLIENTS=4 \
        SLIDE_JSON_OUT=BENCH_serve.json ./target/release/serve_bench > /dev/null
    grep -q '"p99"' BENCH_serve.json || {
        echo "serve_bench smoke: BENCH_serve.json missing latency percentiles" >&2
        exit 1
    }
    grep -q '"kernel_variant"' BENCH_serve.json || {
        echo "serve_bench smoke: BENCH_serve.json missing kernel_variant meta" >&2
        exit 1
    }
    grep -q '"precision":"f32"' BENCH_serve.json || {
        echo "serve_bench smoke: BENCH_serve.json missing precision meta" >&2
        exit 1
    }

    step "smoke: serve_bench sharded leg (--shards 4, closed sweep + open loop)"
    # The engine at N > 1 shards end to end: the closed-loop phase sweeps
    # N in {1,2,4,8} and the report meta must stamp the shard axis.
    SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_SERVE_MS=300 SLIDE_CLIENTS=4 \
        SLIDE_JSON_OUT=BENCH_serve_shard.json \
        ./target/release/serve_bench --shards 4 > /dev/null
    grep -q '"shards":4' BENCH_serve_shard.json || {
        echo "serve_bench shard smoke: BENCH_serve_shard.json missing shards meta" >&2
        exit 1
    }
    grep -q '"shard_precisions":"f32|f32|f32|f32"' BENCH_serve_shard.json || {
        echo "serve_bench shard smoke: BENCH_serve_shard.json missing per-shard precision meta" >&2
        exit 1
    }
    grep -q '"mode":"closed","offered_qps":null,"shards":8' BENCH_serve_shard.json || {
        echo "serve_bench shard smoke: closed-loop shard sweep missing the N=8 point" >&2
        exit 1
    }

    step "smoke: serve_bench int8 leg (SLIDE_SIMD=avx2, --precision i8)"
    # The quantized serving path, forced to the AVX2 maddubs kernels so the
    # leg exercises a fixed integer ISA regardless of the runner's AVX-512
    # support; its report is uploaded alongside the f32 one.
    SLIDE_SIMD=avx2 SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_SERVE_MS=500 SLIDE_CLIENTS=4 \
        SLIDE_JSON_OUT=BENCH_serve_i8.json \
        ./target/release/serve_bench --precision i8 > /dev/null
    grep -q '"precision":"i8"' BENCH_serve_i8.json || {
        echo "serve_bench i8 smoke: BENCH_serve_i8.json missing precision meta" >&2
        exit 1
    }
    grep -q '"p99"' BENCH_serve_i8.json || {
        echo "serve_bench i8 smoke: BENCH_serve_i8.json missing latency percentiles" >&2
        exit 1
    }

    step "smoke: net_bench loopback fleet (1 router + 2 replicas, open loop)"
    # The whole network tier end to end on loopback sockets: in-process
    # baseline, single-socket, router-fronted fleet, and fault-injected
    # fleet phases, each with socket-measured percentiles and an explicit
    # shed-rate column; the fault phase additionally reports hedge,
    # breaker, and deadline-shed counters (EXPERIMENTS.md §11).
    SLIDE_NET_MS=400 SLIDE_NET_QPS=300 SLIDE_NET_REPLICAS=2 SLIDE_NET_CLIENTS=4 \
        SLIDE_JSON_OUT=BENCH_net.json ./target/release/net_bench > /dev/null
    grep -q '"bench":"net"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing bench meta" >&2
        exit 1
    }
    grep -q '"replicas":2' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing replicas meta" >&2
        exit 1
    }
    grep -q '"shed_rate"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing shed_rate" >&2
        exit 1
    }
    grep -q '"mode":"fleet"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the fleet phase" >&2
        exit 1
    }
    grep -q '"mode":"fault"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the fault phase" >&2
        exit 1
    }
    grep -q '"deadline_exceeded"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the deadline_exceeded column" >&2
        exit 1
    }
    grep -q '"fault_router":{.*"hedges":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing fault_router hedge/breaker counters" >&2
        exit 1
    }
    grep -q '"fault_proxies":{"stalled":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing fault_proxies injection counters" >&2
        exit 1
    }
    grep -q '"mode":"scrape"' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the scrape-overhead phase" >&2
        exit 1
    }
    grep -q '"scrape_overhead":{"scrapes":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing scrape_overhead meta" >&2
        exit 1
    }
    grep -q '"stage_breakdown_us":{"admission":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json missing the per-stage latency breakdown" >&2
        exit 1
    }
    grep -q '"kernel":{"p50_us":' BENCH_net.json || {
        echo "net_bench smoke: BENCH_net.json stage breakdown missing the kernel stage" >&2
        exit 1
    }

    step "smoke: chaos suite under forced SLIDE_SIMD=scalar"
    # The fault-injection acceptance run and the per-hop deadline tests on
    # the scalar dispatch path: robustness machinery (hedging, breakers,
    # deadline shedding) must behave identically when the kernels
    # underneath are at their slowest.
    SLIDE_SIMD=scalar cargo test --release -q -p slide-net \
        --test fault_injection --test deadline_hops

    step "smoke: snapshot_bench (cold-start vs rebuild, emits BENCH_snapshot.json)"
    # The registry cold-start benchmark: mmap-load time must be reported
    # separately from the re-freeze/re-quantize alternative (EXPERIMENTS §10).
    SLIDE_EPOCHS=1 SLIDE_SNAPSHOT_ITERS=3 SLIDE_JSON_OUT=BENCH_snapshot.json \
        ./target/release/snapshot_bench > /dev/null
    grep -q '"mmap_load_ms"' BENCH_snapshot.json || {
        echo "snapshot_bench smoke: BENCH_snapshot.json missing mmap_load_ms" >&2
        exit 1
    }
    grep -q '"refreeze_ms"' BENCH_snapshot.json || {
        echo "snapshot_bench smoke: BENCH_snapshot.json missing the f32 refreeze column" >&2
        exit 1
    }
    grep -q '"requantize_ms"' BENCH_snapshot.json || {
        echo "snapshot_bench smoke: BENCH_snapshot.json missing the i8 requantize column" >&2
        exit 1
    }

    step "smoke: registry cold start + fleet scrape (slide_cli obs scrape)"
    # Publish a snapshot through the CLI, cold-start a replica daemon from
    # the registry, front it with slide_router, scrape BOTH tiers over the
    # wire via `slide_cli obs scrape` (the v3 GetMetrics frame), and gate on
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
        slide_net_latency_us \
        slide_serve_requests_total \
        slide_serve_batches_total \
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
    # (EXPERIMENTS.md §13).
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

    step "smoke: benchmark serve workloads (bit-equality under load gates the engine)"
    # benchmark/ is a package of its own outside the root workspace, so this
    # is also the one place the gate compiles it against the serving API.
    # Each run's exit status is its ok_share: every reply — open loop,
    # closed loop, before and after the mid-phase publish — must equal the
    # direct engine's answer bit for bit. Two seconds is enough for that;
    # the timings it prints are not read here (see benchmark/README.md).
    benchmark/run.sh serve_inproc --seconds 2 > /dev/null
    benchmark/run.sh serve_net_i8 --seconds 2 > /dev/null

    step "OK — smoke gates passed"
    exit 0
fi

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --all-targets --all-features -- -D warnings"
cargo clippy --all-targets --all-features -- -D warnings

if [[ "$MODE" != "quick" ]]; then
    step "cargo build --release"
    cargo build --release
fi

# Test-count ratchet: the tier-1 suite may only grow. The baseline is the
# previous PR's count; bump it (never lower it) when landing new tests. A
# drop below the baseline means tests were deleted or silently stopped
# being discovered (e.g. a [[test]] target fell out of the manifest).
MIN_TIER1_TESTS=628

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
# stamps the leg's resolved SIMD level + kernel variant, making PR-over-PR
# perf visible per forced-SLIDE_SIMD leg. The quick mode builds just the one
# release binary it needs; full mode already built everything.
step "bench trajectory: BENCH_train.json (profile_phases, tiny config)"
cargo build --release -q -p slide-bench --bin profile_phases
SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_JSON_OUT=BENCH_train.json \
    ./target/release/profile_phases > /dev/null
grep -q '"kernel_variant"' BENCH_train.json || {
    echo "profile_phases: BENCH_train.json missing kernel_variant meta" >&2
    exit 1
}

step "OK — all gates passed"
