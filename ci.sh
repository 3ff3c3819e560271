#!/usr/bin/env bash
# CI gate for the slide-rs workspace. Run from the repo root:
#
#   ./ci.sh            # full gate: fmt, clippy, release build, tests, docs
#   ./ci.sh full       # same, explicitly
#   ./ci.sh quick      # skip the workspace release build (debug build +
#                      # tests; still release-builds the `paper` binary,
#                      # whose `phases` section emits BENCH_train.json)
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
# avx2 (the hashing kernels on each ISA), the trainer's row-owned batch
# pass against its per-sample reference under the same two forced levels, the
# benchmark's own unit tests,
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

    # Every section of `paper` (each table, figure and ablation, and the
    # per-tier kernel table) at the smallest configuration, each distinct
    # run trained once: 51-54 s on 2 vCPUs for the trained sections, against
    # 124 s for the nine per-table programs they replaced (EXPERIMENTS.md
    # §20), plus ~10 s for `kernels`. --barchart keeps fig6 from writing
    # fig6_out/; the phases section writes BENCH_train.json.
    step "smoke: paper --barchart (every section, 1 epoch, emits BENCH_train.json)"
    SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_JSON_OUT=BENCH_train.json \
        ./target/release/paper --barchart > /dev/null
    grep -q '"simd_level"' BENCH_train.json || {
        echo "paper smoke: BENCH_train.json missing simd_level meta" >&2
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
        slide_router_deadline_exceeded_total \
        slide_net_connections_active \
        slide_net_protocol_errors_total; do
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

    step "smoke: row-owned batch pass vs the per-sample reference under forced SLIDE_SIMD=scalar and avx2"
    # One batch through Trainer::train_batch must leave the output layer
    # bit-identical to the test's per-sample reference (row gradients summed
    # in batch order, one ADAM step per row), and the input layer within its
    # stated tolerance (DESIGN.md §6, "Row-owned batch pass"), on the scalar
    # and the 8-lane kernels too, whatever the runner auto-detects.
    for simd in scalar avx2; do
        SLIDE_SIMD=$simd cargo test --release -q -p slide-core --test batch_equivalence
    done

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

step "every unsafe block states why it is sound (crates/*/src)"
# Each `unsafe {` carries a `// SAFETY:` comment on one of the four lines
# above it: the pointer, length or ISA argument the block relies on.
if ! find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { h1 = h2 = h3 = h4 = "" }
    /unsafe \{/ && (h1 h2 h3 h4) !~ /SAFETY/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    { h4 = h3; h3 = h2; h2 = h1; h1 = $0 }
    END { exit bad }
'; then
    echo "ci.sh: an unsafe block above lacks a // SAFETY: comment in the 4 lines before it" >&2
    exit 1
fi

step "one kernel catalog (every kernel has a caller, no uncalled twin comes back)"
# slide-simd ships the kernels a product path, benchmark/ or a reference
# test runs (DESIGN.md §6); the uncalled add, vector argmax, bf16 dot,
# one-accumulator norm and the pool's per-index loop stay out.
if grep -rnE 'add_f32|argmax_f32|norm_sq_f32|dot_bf16_f32|axpy_bf16_f32|fn dot_bf16\b|parallel_for' \
    crates src tests examples; then
    echo "ci.sh: an uncalled kernel or pool loop is back" >&2
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

step "one output-layer retrieval (slide-core's, no serving copy)"
# The family, the seed chain, the table fill and the select loop live in
# crates/core/src/retrieval.rs; serving and the wire call it and restate
# none of it.
if grep -rnE '0x0707|0xD1A7|0x51A7|0x9AD5|7AB1|family_for|fn build_tables' \
    crates/serve crates/net || test -e crates/serve/src/retrieval.rs; then
    echo "ci.sh: a second copy of the output-layer retrieval is back" >&2
    exit 1
fi

step "one socket front-end (one accept site, one frame loop in crates/net/src)"
# Every port in slide-net is a listener::Listener, and the replica and the
# router serve frames through its one Front loop (DESIGN.md §8); neither a
# second accept loop nor a per-tier frame loop comes back.
if grep -rnE 'fn (router_)?(accept|connection)_loop' crates/net/src; then
    echo "ci.sh: a per-tier accept or connection loop is back in crates/net/src" >&2
    exit 1
fi
ACCEPT_SITES="$(grep -rn '\.accept()' crates/net/src | wc -l)"
if [[ "$ACCEPT_SITES" -ne 1 ]]; then
    grep -rn '\.accept()' crates/net/src >&2 || true
    echo "ci.sh: want exactly one .accept() call site in crates/net/src, got $ACCEPT_SITES" >&2
    exit 1
fi

step "one paper binary (no per-table program), no always-zero merge stage"
# Every table, figure and ablation is a section of `paper` over one
# memoised run set (DESIGN.md §3); a per-table binary would train its own
# copy of runs the set already has. Retrieval builds one global active
# list, so the trace stages have no merge step to time.
if grep -nE '^name = "(table[1-4]|fig6|ablation_(memory|lsh|sampling)|profile_phases)"' \
    crates/bench/Cargo.toml || grep -rn 'Stage::Merge' crates src tests examples; then
    echo "ci.sh: a per-table experiment binary or Stage::Merge is back" >&2
    exit 1
fi

step "one hidden layer (no dense hidden stack in training, serving or snapshots)"
# The network is the paper's: sparse input -> one hidden layer -> sampled
# softmax output (DESIGN.md §4). NetworkConfig carries one width, `hidden`;
# no dense layer type, depth list or hidden-ordinal arithmetic comes back.
if grep -rnE 'DenseLayer|hidden_dims|hidden_layers\(|dense_hidden_count' \
    crates src tests examples; then
    echo "ci.sh: the dense hidden stack is back" >&2
    exit 1
fi

step "one write discipline in the trainer (row-owned batch pass, no HOGWILD write)"
# Trainer::train_batch writes both layers row by row, each row by the one
# worker that owns it (DESIGN.md §6, "Row-owned batch pass"). No atomic
# stamp, touched-row list, scattered gradient, racy row view or separate
# ADAM sweep comes back into the trainer.
if grep -nE 'mark_active|grad_axpy|grad_bias_axpy|adam_row|row_racy|parallel_for|touched_' \
    crates/core/src/trainer.rs crates/core/src/batch_pass.rs ||
    test -e crates/core/src/output_pass.rs; then
    echo "ci.sh: a HOGWILD write or a separate ADAM sweep is back in the trainer" >&2
    exit 1
fi

step "one training path (baselines are active-set policies, no HOGWILD scatter)"
# The dense and uniform baselines are ActiveSets policies of the trainer's
# row-owned pass (DESIGN.md §6), and Network::train_sample writes nothing.
# No second training loop, racy parameter view, dense gradient arena,
# touched-row stamp or per-row ADAM sweep comes back anywhere in the product.
if grep -rnE 'HogwildPtr|row_racy|grad_w|grad_b\b|mark_active|grad_axpy|adam_row|adam_bias_full|adam_flat_span|touched_(out|in)|DenseBaseline|SampledSoftmaxBaseline' \
    crates/*/src src; then
    echo "ci.sh: a HOGWILD scatter or a second training loop is back" >&2
    exit 1
fi

step "one table shape (CSR from build to .slsnap, no bucket objects or policy knob)"
# LshTables is built by one counting sort (LshTables::from_keys) and loaded
# as validated views over a snapshot's sections (DESIGN.md §4); no
# per-bucket object, incremental insert, CSR conversion, whole-table clone
# or bucket-policy knob comes back.
if grep -rnE 'struct Bucket\b|BucketPolicy|fn to_csr|fn from_csr|fn retained|fn clear\(|pub fn insert\(' \
    crates/hash/src crates/core/src/retrieval.rs; then
    echo "ci.sh: a second LSH table shape or the bucket-policy knob is back" >&2
    exit 1
fi

step "one experiment harness (no slide-baseline crate beside slide-bench)"
# Every table and figure lists slide-bench Runs measured by its one runner;
# the method lineup and the modeled V100 column live in slide-bench
# (DESIGN.md §3). No second presets crate comes back.
if grep -rnE 'slide[-_]baseline' crates src tests examples Cargo.toml; then
    echo "ci.sh: the slide-baseline crate is back" >&2
    exit 1
fi

step "one shard plan (contiguous ranges only, no strided plan or indexer)"
# A shard owns one contiguous row range and keeps its first global row, so
# local = global - start (DESIGN.md §4). A .slsnap naming plan kind 2 is
# refused as Unsupported; no second partitioning policy comes back.
if grep -rnE 'Strided|ShardPlanKind|ShardPlan::strided' crates src tests examples; then
    echo "ci.sh: a second shard-plan policy is back" >&2
    exit 1
fi

step "one table set per engine (shards split the output arena, not retrieval)"
# Every engine probes one global LshTables, whatever its shard count, so
# the active list, max_active and exact ties do not depend on N (DESIGN.md
# §4). No per-shard table partition, and no refusal of max_active at N > 1,
# comes back.
if grep -rnE 'partition_tables|MaxActiveUnsupported' crates src tests examples; then
    echo "ci.sh: per-shard table partitions are back" >&2
    exit 1
fi

step "one way to build a serving engine (network -> .slsnap image -> view)"
# Engine::freeze is Snapshot::build followed by Engine::from_image, and the
# writer lays the whole image out before filling each payload in place
# (DESIGN.md §9). No direct arena constructor, shard cut, row-list helper
# or staged section buffer comes back.
if grep -rnE 'freeze_sharded|from_params_rows|cut_layers|widen_rows_into|bias_gather_into|section_pod' \
        crates src tests examples; then
    echo "ci.sh: a second serving-engine build path is back" >&2
    exit 1
fi

step "one routing rule (least-load over closed breakers, no hash ring)"
# The router sends each attempt to the closed-breaker replica with the
# fewest inflight forwards (DESIGN.md §8); no second routing policy, ring
# or policy switch comes back.
if grep -rnE 'RoutePolicy|ConsistentHash|build_ring|ring_pick' crates src tests examples; then
    echo "ci.sh: a second routing policy is back" >&2
    exit 1
fi

step "one request count (the slide_net_* registry instruments, no typed copy)"
# Every Predict frame is counted once, in the batching server's registry,
# and a GetMetrics scrape (or a registry read in tests) is the only way to
# see it (DESIGN.md §11).
if grep -rnE 'NetStats|ClientCounters' crates src tests examples; then
    echo "ci.sh: a typed copy of the wire tier's request counters is back" >&2
    exit 1
fi

step "no quant cycle (slide-quant is the benchmark's shim, and nothing else names it)"
# The int8 engine, p_at_k and the snapshot API live in slide-serve
# (DESIGN.md §7). slide-quant only re-exports what benchmark/ imports; no
# workspace code, and no serve, bench or facade manifest, depends on it.
QUANT_USES="$(grep -rl --include='*.rs' --exclude-dir=target --exclude-dir=.git \
    --exclude-dir=.bench_build 'slide_quant' . | grep -vE '^\./(crates/quant|benchmark)/' || true)"
if [[ -n "$QUANT_USES" ]]; then
    echo "$QUANT_USES" >&2
    echo "ci.sh: slide_quant is named outside crates/quant and benchmark/" >&2
    exit 1
fi
if grep -nE 'slide-quant' crates/serve/Cargo.toml crates/bench/Cargo.toml ||
    sed -n '/^\[dependencies\]/,/^\[/p' Cargo.toml | grep -n 'slide-quant'; then
    echo "ci.sh: slide-quant is a dependency of serve, bench or the facade again" >&2
    exit 1
fi

step "one byte reader (slide_mem::ByteReader, no bytes shim)"
# Wire frames, .slsnap images and checkpoints are parsed through the one
# bounds-checked reader in slide-mem, and writers append to_le_bytes()
# (DESIGN.md §9); the bytes shim and its Buf/BufMut traits stay gone.
if grep -rnE '\bbytes::|\bBufMut\b|shims/bytes' crates src tests examples Cargo.toml; then
    echo "ci.sh: the bytes shim or a Buf/BufMut codec is back" >&2
    exit 1
fi

step "one ungated harness (no Criterion shim, no cargo benches)"
# Kernel timings are the `paper kernels` section; gated cells live in
# benchmark/. No crate pulls in a bench harness and no manifest declares a
# bench target.
if grep -rnE 'criterion(::|_group|_main|\.workspace| *=)|shims/criterion|\[\[bench\]\]|crates/bench/benches' \
        Cargo.toml crates src tests examples shims ||
    [[ -e shims/criterion || -e crates/bench/benches ]]; then
    echo "ci.sh: a bench harness (criterion, [[bench]] or crates/bench/benches) is back" >&2
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
# One retrieval: 620 - 3 + 3 = 620. Deleted with their code: the three
# LrSchedule tests (config.rs 2, trainer.rs 1). Added: the shared select's
# two-table-set test and two registry_durability forged-table-id cases.
# Four select/rebuild tests moved from layer.rs to retrieval.rs unchanged
# in number.
# One socket front-end: 620 + 9 = 629. Added in wire_faults.rs: the seven
# socket cases again against a router (7), and the connection cap against
# each tier (2).
# Row-owned output pass: 629 + 9 = 638. Added: batch_equivalence.rs (4),
# the two row x samples proptests in kernel_equivalence.rs, the trainer's
# label-less loss test, the lazy-zero AlignedVec test and the pool's
# parallel_chunks test.
# One hidden layer: 638 - 6 + 3 = 635. Deleted with the dense hidden stack
# (their subject was depth): network::tests::deep_network_builds_and_runs,
# frozen::tests::{deep_network_freezes_and_predicts,
# deep_network_quantizes_and_predicts, deep_i8_trunk_matches_unsharded_forward},
# snapshot::tests::deep_network_round_trips and batch_equivalence's
# three-hidden-layer case. Added: config::tests::zero_hidden_width_rejected,
# registry_durability's two-hidden-layer image refusal, and slide-bench's
# run_slide_keeps_a_forced_policy.
# Row-owned batch pass: 635 + 3 = 638. Added: batch_pass::tests (2: the
# input-row visit against the per-sample scatter and sweep, the RowCsr
# order) and end_to_end's resume across a scheduled rebuild.
# CSR tables: 638 - 3 + 4 = 639. Deleted with their code: the FIFO policy
# and LshTables::clear (table::tests::{fifo_evicts_oldest,
# clear_empties_everything}); moved with `retained` to the shard split:
# table::tests::retained_partitions_exactly. Added:
# lsh_props::from_keys_equals_sequential_reservoir_inserts,
# shard::tests::partition_tables_splits_every_bucket_stably and
# registry_durability's two forged bucket-policy words (0 Unsupported,
# 2 Corrupt). Ported to from_keys / from_views under their names:
# wrong_key_count_panics, csr_round_trip_is_bit_identical,
# bucket_cap_is_respected_under_both_policies and lsh_props'
# bucket_never_exceeds_cap (both now reservoir-only).
# One training path: 639 - 21 + 8 = 626. Deleted with their code (named in
# CHANGES.md): the DenseBaseline, SampledSoftmaxBaseline and HogwildArray
# doctests (3); dense::tests::{convergence_log_shape,
# parameter_count_matches_formula} (2); hogwild::tests (5); the other
# three tests of hogwild_stress.rs (3); params::tests::{flat_adam_matches_row_adam,
# fragmented_layout_rejects_flat_adam, mark_active_dedups_within_batch} (3);
# and, ported under new names, dense::tests::{learns_synthetic_task,
# loss_decreases_over_epochs} and sampled::tests::{learns_synthetic_task,
# active_set_is_labels_plus_negatives} to the trainer (4), and
# hogwild_stress's disjoint_row_writes_land_exactly_under_contention to the
# arena (1).
# Added: trainer::tests::{dense_policy_learns_synthetic_task,
# dense_policy_loss_decreases_over_epochs, uniform_policy_learns_synthetic_task,
# dense_and_uniform_policies_leave_the_tables_alone},
# batch_pass::tests::uniform_active_sets_are_labels_plus_negatives_at_any_thread_count,
# retrieval::tests::{select_all_lists_the_labels_then_every_other_row_once,
# select_uniform_draws_distinct_rows_deterministically_in_the_salt} and
# arena::tests::row_ptr_writes_of_disjoint_owners_land_exactly. Renamed in
# place: params::tests::adam_row_moves_weights_against_gradient_and_clears
# -> step_row_moves_weights_against_gradient and core_props'
# zero_scale_training_probe_leaves_weights_unchanged ->
# train_sample_leaves_every_exported_byte_unchanged.
# Row-ordered logits: 626 + 2 = 628. Added: batch_equivalence's output
# layer thread-count test and batch_pass::tests' entry_of property check.
# One run description: 628 - 2 + 2 = 628. Deleted with slide_simd's
# sum_f32: kernels::tests::sum_all_levels_agree and kernel_equivalence.rs's
# sum_levels_agree (scale_f32's half of scale_and_add_all_levels_agree went
# with scale_f32; its add half stays as add_all_levels_agree). Added:
# slide-bench's presets::tests::every_named_run_trains_its_pinned_configuration
# and trainer::tests::evaluating_between_epochs_leaves_training_unchanged.
# Moved into slide-bench unchanged in number: slide-baseline's 4 preset and
# 4 DeviceModel tests and its doctest, and baseline_parity.rs's
# v100_model_is_plausible_for_our_scale.
# One shard plan: 628 - 0 + 1 = 629. Deleted: none (the two strided golden
# digests were rows of golden_slsnap_digests_hold, which stays). Added:
# registry_durability's a_strided_plan_is_refused_as_unsupported. Moved
# unchanged in number: quant_props.rs and snapshot_parity.rs from
# crates/quant/tests to crates/serve/tests, and slide-quant's crate doctest
# to the QuantizedFrozenNetwork doctest in slide-serve.
# The caller is worker 0: 629 + 5 = 634. Added: pool::tests::{the_caller_is_worker_zero,
# a_caller_panic_unwinds_after_the_spawned_workers_return},
# config::tests::{trainer_validation_refuses_a_zero_or_non_finite_eps,
# trainer_validation_refuses_a_non_finite_learning_rate} and
# trainer::tests::the_epoch_loss_does_not_depend_on_the_thread_count.
# The request path keeps only what runs: 634 - 4 + 2 = 632. Deleted with
# the code they tested: router::tests::{ring_is_deterministic_and_covers_all_replicas,
# ring_pick_walks_past_excluded_replicas, query_ring_key_depends_on_indices}
# (the consistent-hash ring) and
# server::tests::deadline_expiring_while_parked_on_a_full_queue_is_shed_without_a_slot
# (the deadline-bounded park). Added:
# model::tests::p_at_k_skips_unlabelled_samples_and_matches_the_batching_server
# and router::tests::pick_replica_takes_the_least_loaded_closed_breaker_replica.
# Moved unchanged in number: slide-net's model::tests::precision_flag_parses
# to slide-serve's snapshot::tests::precision_flag_parses.
# Every kernel has a caller: 632 - 13 + 1 = 620. Deleted with the code
# they tested: slide-simd's kernels::tests::{add_all_levels_agree,
# argmax_all_levels_agree_exactly, argmax_with_duplicated_max_prefers_first,
# argmax_max_in_tail_found}, extra::tests::norm_sq_levels_agree,
# policy::tests::lanes_match_register_width,
# bf16::tests::dot_bf16_vector_matches_scalar, kernel_equivalence.rs's
# argmax_levels_agree_exactly and the argmax_f32 and SimdLevel::lanes_f32
# doctests (10); slide-mem's sparse::tests::densify_and_clear_are_inverse
# and batch_props.rs's densify_clear_restores_zero (2); and
# pool::tests::parallel_for_covers_all_indices, whose coverage
# parallel_chunks_hand_each_chunk_to_one_worker already asserts (1). Added:
# config::tests::trainer_validation_refuses_a_non_finite_growth_or_a_zero_max_period.
# Moved unchanged in number: scalar::tests::{argmax_first_wins_on_ties,
# argmax_ignores_nan} to slide-hash's dwta::tests; renamed in place:
# sparse::tests::sparse_vec_dot_dense ->
# sparse_vec_is_sorted_means_strictly_increasing and pool::tests'
# parallel_for_{empty_is_noop,panic_leaves_pool_reusable} ->
# parallel_chunks_{empty_is_noop,panic_leaves_pool_reusable}.
# One table set per engine: 620 - 3 + 1 = 618. Deleted with the code they
# tested: shard::tests::partition_tables_splits_every_bucket_stably
# (partition_tables), config::tests::{trainer_validation_refuses_a_zero_or_non_finite_eps,
# trainer_validation_refuses_a_non_finite_growth_or_a_zero_max_period}
# (the eps, growth and max_period settings, now constants). Added:
# snapshot::tests::loaded_sharded_tables_view_the_image_not_copies.
# Renamed in place: frozen::tests::shard_tables_partition_the_global_tables
# -> sharded_engines_hold_the_unsharded_tables,
# frozen::tests::max_active_is_rejected_only_beyond_one_shard and
# quant_props' max_active_is_refused_beyond_one_shard ->
# max_active_is_honoured_beyond_one_shard, and
# retrieval::tests::select_over_two_sets_forces_dedups_caps_and_pads ->
# select_forces_dedups_caps_and_pads.
# One paper binary over memoised runs: 618 + 2 = 620. Added: slide-bench's
# tests::{lab_trains_each_configuration_once, lab_runs_keep_a_forced_policy}.
# The nine deleted binaries and examples/ablation.rs had no tests.
# One byte reader: 620 - 2 + 8 = 626. Deleted with the bytes shim:
# its tests::{roundtrip_le, underflow_panics}. Added: slide-mem's
# reader_props.rs (3) and the ByteReader doctest,
# wire::tests::golden_frame_bytes and checkpoint::tests::{golden_checkpoint_digest,
# truncated_output_layer_leaves_network_untouched, trailing_bytes_rejected}.
# One ungated harness: 626 - 2 + 1 = 625. Deleted with the criterion shim:
# its tests::{bencher_times_work, ids_format}. Added:
# wire::tests::encoding_after_existing_bytes_appends_exactly_the_frame.
# Moved unchanged in number: the percentile_us doctest from slide-serve to
# slide-obs.
# One serving-engine build path: 625 - 1 + 1 = 625. Deleted with the code it
# tested: params::tests::widen_rows_into_matches_per_row_widen
# (LayerParams::{widen_rows_into, bias_gather_into}). Added:
# snapshot::tests::written_sections_align_pack_and_read_back.
MIN_TIER1_TESTS=625

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

# Emit the training-perf trajectory artifact (`paper phases`, tiny config)
# so every gate leg leaves a BENCH_train.json behind: the meta block
# stamps the leg's resolved SIMD level, making PR-over-PR perf visible per
# forced-SLIDE_SIMD leg. The quick mode builds just the one
# release binary it needs; full mode already built everything.
step "bench trajectory: BENCH_train.json (paper phases, tiny config)"
cargo build --release -q -p slide-bench --bin paper
SLIDE_SCALE=1 SLIDE_EPOCHS=1 SLIDE_JSON_OUT=BENCH_train.json \
    ./target/release/paper phases > /dev/null
grep -q '"simd_level"' BENCH_train.json || {
    echo "paper phases: BENCH_train.json missing simd_level meta" >&2
    exit 1
}

step "OK — all gates passed"
