#!/usr/bin/env bash
# Local CI gate — the same stages .github/workflows/ci.yml runs as jobs.
#
# Everything runs with --offline --locked: the workspace is
# dependency-free by design (see DESIGN.md) and must keep building on
# machines with no registry access. Run from anywhere in the repository.
#
# usage: scripts/ci.sh [stage...]
#   With no arguments every stage runs in order; otherwise only the
#   named stages run. Stages: build test fmt clippy bench-smoke
#   determinism chaos scaling-sanity memory-cap server-smoke
#   checkpoint-resume variant-matrix bench-diff.
#
# All binary-driving stages share ONE --locked release build
# (build_release below): the first stage that needs target/release pays
# for it, the rest reuse it. A per-stage wall-clock summary prints at
# the end of the run.
set -euo pipefail

cd "$(dirname "$0")/.."

CURRENT_STAGE="(startup)"
trap 'echo "ci: FAILED in stage ${CURRENT_STAGE}" >&2' ERR

stage() {
    CURRENT_STAGE="$1"
    echo
    echo "=== stage: $1 ==="
}

run() {
    echo "==> $*"
    "$@"
}

SIM=./target/release/hyperhammer-sim
RELEASE_BUILT=0

# The one shared release build: every stage that needs target/release
# binaries calls this; only the first call compiles anything.
build_release() {
    if [ "$RELEASE_BUILT" = 0 ]; then
        run cargo build --release --offline --locked --workspace
        RELEASE_BUILT=1
    fi
}

stage_build() {
    stage build
    build_release
}

stage_test() {
    stage test
    run cargo test -q --offline --locked --workspace
}

stage_fmt() {
    stage fmt
    run cargo fmt --all --check
}

stage_clippy() {
    stage clippy
    run cargo clippy --offline --locked --workspace --all-targets -- -D warnings
}

stage_bench_smoke() {
    stage bench-smoke
    # Exercise the reporting binaries on the tiny scenario so regressions
    # in the bench crate surface here, not on the next full paper run.
    build_release
    run ./target/release/table1 --scenario tiny
    run ./target/release/table3 --scenario tiny --attempts 5
}

# same_bytes_across_jobs DIR JOBS FILES REF SKIP ARGS...
#
# The "same bytes across --jobs" gate every determinism-style stage
# shares. Runs `campaign ARGS --jobs J` once per worker count J in JOBS
# (space-separated); in ARGS, `@J` stands for the count and `@D` for
# DIR. Each run's stdout, minus its first SKIP lines (banners that name
# the worker count or a per-run path), lands in DIR/stdout_J.txt and its
# wall-clock milliseconds in ELAPSED[J]. Then, for every file pattern in
# FILES (relative to DIR, `@J` again the count), each count's file must
# `cmp` equal to REF — or, when REF is `-`, to the first count's file.
declare -A ELAPSED
same_bytes_across_jobs() {
    local dir=$1 jobs=$2 files=$3 ref=$4 skip=$5
    shift 5
    local j t0 file first=""
    local args
    for j in $jobs; do
        args=("${@//@J/$j}")
        args=("${args[@]//@D/$dir}")
        echo "==> campaign ${args[*]} --jobs $j"
        t0=$(date +%s%N)
        "$SIM" campaign "${args[@]}" --jobs "$j" \
            | tail -n +"$((skip + 1))" >"$dir/stdout_$j.txt"
        ELAPSED[$j]=$((($(date +%s%N) - t0) / 1000000))
        first=${first:-$j}
    done
    for file in $files; do
        for j in $jobs; do
            if [ "$ref" = - ]; then
                [ "$j" = "$first" ] && continue
                run cmp "$dir/${file//@J/$first}" "$dir/${file//@J/$j}"
            else
                run cmp "$ref" "$dir/${file//@J/$j}"
            fi
        done
    done
}

# start_server LOG ARGS...
#
# Starts `serve --addr 127.0.0.1:0 ARGS` in the background with its
# output in LOG and waits for its "listening on" line. Sets SERVER_PID
# and SERVER_ADDR; fails (killing the server) if no address shows up
# within five seconds.
start_server() {
    local log=$1
    shift
    "$SIM" serve --addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
    SERVER_PID=$!
    SERVER_ADDR=""
    for _ in $(seq 50); do
        SERVER_ADDR=$(sed -n 's/^listening on //p' "$log")
        [ -n "$SERVER_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$SERVER_ADDR" ]; then
        echo "$CURRENT_STAGE: server never reported its address" >&2
        kill "$SERVER_PID" 2>/dev/null || true
        return 1
    fi
    echo "==> campaign server at $SERVER_ADDR"
}

stage_determinism() {
    stage determinism
    # The campaign engine must produce byte-identical --trace NDJSON for
    # every worker count (see crates/core/src/parallel.rs). Run the tiny
    # grid at 1, 2 and 8 workers and diff the merged event streams.
    local tmpdir
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release
    # SKIP 2 drops the "N cells on M workers" banner and the "trace:
    # wrote ... to PATH" line — the only lines allowed to mention the
    # worker count or the per-run trace path.
    same_bytes_across_jobs "$tmpdir" "1 2 8" "trace_@J.ndjson stdout_@J.txt" - 2 \
        --scenarios tiny --seeds 3 --attempts 2 --bits 4 --trace "@D/trace_@J.ndjson"
    echo "determinism: --jobs 1/2/8 campaign outputs are byte-identical"
}

stage_chaos() {
    stage chaos
    # Fault injection is part of the simulation, so a hostile-host
    # campaign must stay exactly as deterministic as a fault-free one:
    # identical --trace NDJSON (injections, retries and degradations
    # included) for every worker count.
    local tmpdir
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release
    same_bytes_across_jobs "$tmpdir" "1 2 8" "trace_@J.ndjson stdout_@J.txt" - 2 \
        --scenarios tiny --seeds 3 --attempts 2 --bits 4 \
        --faults 0.05 --fault-seed 37 --trace "@D/trace_@J.ndjson"
    # The injected faults must actually be there to be deterministic
    # about: a 5% plan on the tiny grid always fires at least once.
    run grep -q '"event": "fault_injected"' "$tmpdir/trace_1.ndjson"
    run grep -q '"event": "retry"' "$tmpdir/trace_1.ndjson"
    echo "chaos: --faults 0.05 campaign outputs are byte-identical across --jobs 1/2/8"
}

stage_scaling_sanity() {
    stage scaling-sanity
    # The parallel engine's whole point: more workers must never
    # make a campaign slower (the static-split engine was ~24% slower at
    # 4 workers than serial on a 1-CPU host). Run an 8-cell tiny grid at
    # 1/2/4/8 workers, require the 4-worker run to be no slower than
    # serial (plus timing-noise headroom), and require the traced NDJSON
    # to stay byte-identical across every worker count.
    local tmpdir jobs ncpus
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release
    same_bytes_across_jobs "$tmpdir" "1 2 4 8" "trace_@J.ndjson stdout_@J.txt" - 2 \
        --scenarios tiny --seeds 8 --attempts 2 --bits 4 --trace "@D/trace_@J.ndjson"
    for jobs in 1 2 4 8; do
        echo "    --jobs $jobs: ${ELAPSED[$jobs]} ms"
    done
    # 4 workers no slower than serial (25% headroom for timer noise).
    if [ "${ELAPSED[4]}" -gt $((ELAPSED[1] * 125 / 100)) ]; then
        echo "scaling-sanity: inverted scaling — 4 workers took" \
            "${ELAPSED[4]} ms vs ${ELAPSED[1]} ms serial" >&2
        return 1
    fi
    ncpus=$(nproc 2>/dev/null || echo 1)
    if [ "$ncpus" -ge 4 ]; then
        # With real cores behind the workers, demand actual speedup.
        if [ $((ELAPSED[1] * 100)) -lt $((ELAPSED[4] * 150)) ]; then
            echo "scaling-sanity: expected >=1.5x at 4 workers on $ncpus CPUs:" \
                "serial ${ELAPSED[1]} ms vs 4-worker ${ELAPSED[4]} ms" >&2
            return 1
        fi
    else
        echo "scaling-sanity: $ncpus CPU(s) — skipping the >=1.5x speedup" \
            "check (effective workers are clamped to the CPU count)"
        STAGE_NOTE="skipped the >=1.5x speedup check: $ncpus CPU(s) < 4"
    fi
    echo "scaling-sanity: 4 workers no slower than serial; traces" \
        "byte-identical across --jobs 1/2/4/8"
}

stage_memory_cap() {
    stage memory-cap
    # Every campaign streams its output in grid order, so memory is
    # O(workers): peak RSS (VmHWM, reported on stderr) of a 4096-cell
    # --stream-out micro campaign must stay within 2x of a 64-cell run
    # at the same --jobs, and so must a 256-cell traced --json run
    # against a 64-cell one. The --stream-out cells.ndjson must be
    # byte-identical to the plain --json output at 1/2/8 workers.
    local tmpdir cells rss_small rss_large
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release

    for cells in 64 4096; do
        echo "==> campaign --stream-out --jobs 2 (${cells}-cell micro grid)"
        ./target/release/hyperhammer-sim \
            campaign --scenarios micro --seeds "$cells" --attempts 2 --bits 4 \
            --jobs 2 --json --stream-out "$tmpdir/stream_${cells}" \
            >/dev/null 2>"$tmpdir/rss_${cells}.txt"
        cat "$tmpdir/rss_${cells}.txt"
    done
    rss_small=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_64.txt")
    rss_large=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_4096.txt")
    if [ -z "$rss_small" ] || [ -z "$rss_large" ]; then
        echo "memory-cap: peak RSS report missing from campaign stderr" >&2
        return 1
    fi
    if [ "$rss_large" -gt $((rss_small * 2)) ]; then
        echo "memory-cap: streaming peak RSS grew with cell count:" \
            "${rss_small} KiB @ 64 cells -> ${rss_large} KiB @ 4096 cells" >&2
        return 1
    fi

    # The traced default path: each cell's trace lines leave as the
    # grid prefix completes instead of piling up until the end.
    for cells in 64 256; do
        echo "==> campaign --json --trace --jobs 2 (${cells}-cell micro grid)"
        ./target/release/hyperhammer-sim \
            campaign --scenarios micro --seeds "$cells" --attempts 2 --bits 4 \
            --jobs 2 --json --trace "$tmpdir/trace_${cells}.ndjson" \
            >/dev/null 2>"$tmpdir/rss_traced_${cells}.txt"
        cat "$tmpdir/rss_traced_${cells}.txt"
        rm -f "$tmpdir/trace_${cells}.ndjson"
    done
    local traced_small traced_large
    traced_small=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_traced_64.txt")
    traced_large=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_traced_256.txt")
    if [ -z "$traced_small" ] || [ -z "$traced_large" ]; then
        echo "memory-cap: peak RSS report missing from traced campaign stderr" >&2
        return 1
    fi
    if [ "$traced_large" -gt $((traced_small * 2)) ]; then
        echo "memory-cap: traced peak RSS grew with cell count:" \
            "${traced_small} KiB @ 64 cells -> ${traced_large} KiB @ 256 cells" >&2
        return 1
    fi

    # A traced tiny cell's lines go straight to the --trace file when the
    # cell is next in grid order, so one worker never holds a cell's
    # whole formatted trace: at --jobs 1 the traced run must peak within
    # 3x of the same grid run untraced.
    local untraced traced
    for mode in untraced traced; do
        local trace_flags=()
        if [ "$mode" = traced ]; then
            trace_flags=(--trace "$tmpdir/tiny_trace.ndjson")
        fi
        echo "==> campaign --json --jobs 1 (4-seed tiny grid, ${mode})"
        ./target/release/hyperhammer-sim \
            campaign --scenarios tiny --seeds 4 --attempts 2 --bits 4 \
            --jobs 1 --json "${trace_flags[@]}" \
            >/dev/null 2>"$tmpdir/rss_tiny_${mode}.txt"
        cat "$tmpdir/rss_tiny_${mode}.txt"
    done
    rm -f "$tmpdir/tiny_trace.ndjson"
    untraced=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_tiny_untraced.txt")
    traced=$(sed -n 's/^campaign: peak RSS \([0-9]*\) KiB$/\1/p' "$tmpdir/rss_tiny_traced.txt")
    if [ -z "$untraced" ] || [ -z "$traced" ]; then
        echo "memory-cap: peak RSS report missing from tiny campaign stderr" >&2
        return 1
    fi
    if [ "$traced" -gt $((untraced * 3)) ]; then
        echo "memory-cap: traced tiny campaign holds its trace in memory:" \
            "${traced} KiB traced vs ${untraced} KiB untraced" >&2
        return 1
    fi

    # Byte-identity: plain --json vs the --stream-out file, 1/2/8 workers.
    # --json emits pure NDJSON (the human banner only prints without it).
    ./target/release/hyperhammer-sim \
        campaign --scenarios micro --seeds 16 --attempts 2 --bits 4 \
        --jobs 1 --json >"$tmpdir/inmem_cells.ndjson" 2>/dev/null
    same_bytes_across_jobs "$tmpdir" "1 2 8" "eq_@J/cells.ndjson" "$tmpdir/inmem_cells.ndjson" 0 \
        --scenarios micro --seeds 16 --attempts 2 --bits 4 --json --stream-out "@D/eq_@J"
    echo "memory-cap: 4096-cell streaming peaked at ${rss_large} KiB" \
        "(64-cell: ${rss_small} KiB); 256-cell traced at ${traced_large} KiB" \
        "(64-cell: ${traced_small} KiB); traced tiny at ${traced} KiB" \
        "(untraced: ${untraced} KiB); streamed output byte-identical at --jobs 1/2/8"
}

stage_server_smoke() {
    stage server-smoke
    # End-to-end over real sockets: start the campaign daemon on an
    # ephemeral port, submit two overlapping jobs, cancel one mid-run,
    # stream the other and require its NDJSON byte-identical to a serial
    # `campaign --json --jobs 1` run, require a 400 for a deeply nested
    # body and a served request after it, then shut the server down
    # remotely and demand a clean exit (leak-free thread teardown).
    local tmpdir sim addr server_pid
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release
    sim=$SIM

    start_server "$tmpdir/serve.log"
    server_pid=$SERVER_PID
    addr=$SERVER_ADDR

    # A long job to cancel mid-run, and a short one to stream to the end.
    local victim_id stream_id
    victim_id=$("$sim" client submit --addr "$addr" --json \
        --scenarios tiny --seeds 12 --attempts 2 --bits 4 --jobs 1 \
        | sed -n 's/.*"id": \([0-9]*\).*/\1/p')
    stream_id=$("$sim" client submit --addr "$addr" --json \
        --scenarios micro --seeds 4 --attempts 2 --bits 4 \
        | sed -n 's/.*"id": \([0-9]*\).*/\1/p')
    echo "==> submitted jobs $victim_id (to cancel) and $stream_id (to stream)"
    run "$sim" client cancel --addr "$addr" --id "$victim_id"
    echo "==> $sim client stream --addr $addr --id $stream_id"
    "$sim" client stream --addr "$addr" --id "$stream_id" \
        >"$tmpdir/streamed.ndjson"
    "$sim" campaign --scenarios micro --seeds 4 --attempts 2 --bits 4 \
        --jobs 1 --json >"$tmpdir/serial.ndjson" 2>/dev/null
    run cmp "$tmpdir/serial.ndjson" "$tmpdir/streamed.ndjson"

    # A body of 20,000 `[` must get a 400 from the JSON depth bound, not
    # overflow a connection thread's stack; the status call after it
    # proves the server is still serving.
    local nested_code
    echo "==> POST /jobs with 20,000 '[' (want HTTP 400)"
    nested_code=$(head -c 20000 /dev/zero | tr '\0' '[' \
        | curl -s -o "$tmpdir/nested.json" -w '%{http_code}' \
            -H 'Content-Type: application/json' --data-binary @- "http://$addr/jobs" \
        || true)
    if [ "$nested_code" != 400 ]; then
        echo "server-smoke: nested body got HTTP '$nested_code', want 400" >&2
        kill "$server_pid" 2>/dev/null || true
        return 1
    fi
    cat "$tmpdir/nested.json"
    echo
    run "$sim" client status --addr "$addr" --id "$victim_id"

    run "$sim" client shutdown --addr "$addr"
    if ! wait "$server_pid"; then
        echo "server-smoke: server exited non-zero after shutdown" >&2
        return 1
    fi
    echo "server-smoke: streamed NDJSON byte-identical to the serial run;" \
        "a 20,000-'[' body got a 400; mid-run cancel and remote shutdown" \
        "exited cleanly"
}

stage_checkpoint_resume() {
    stage checkpoint-resume
    # The checkpoint/resume promise: a faulted campaign interrupted
    # mid-run and resumed from its checkpoint emits NDJSON byte-identical
    # to an uninterrupted run, at every worker count. Then the same
    # promise for the server: kill -9 mid-job, restart on the same spool
    # dir, and the resumed job's stream must match a serial CLI run.
    local tmpdir jobs server_pid job_id
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release

    # --- CLI checkpoint/resume byte-identity (faulted grid) ---
    # Two variants, so the resumed output must also carry the
    # per-variant rollup records the uninterrupted run ends with.
    "$SIM" campaign --scenarios tiny,micro@xen --seeds 3 --attempts 2 --bits 4 \
        --faults 0.05 --fault-seed 37 --jobs 1 --json \
        >"$tmpdir/ref.ndjson" 2>/dev/null
    for jobs in 1 2 8; do
        echo "==> checkpoint at 2 cells with --jobs $jobs"
        "$SIM" campaign --scenarios tiny,micro@xen --seeds 3 --attempts 2 --bits 4 \
            --faults 0.05 --fault-seed 37 --jobs "$jobs" --json \
            --checkpoint "$tmpdir/ck_${jobs}" --stop-after-cells 2 \
            >/dev/null 2>/dev/null
    done
    same_bytes_across_jobs "$tmpdir" "1 2 8" "stdout_@J.txt" "$tmpdir/ref.ndjson" 0 \
        --resume "@D/ck_@J" --json
    echo "checkpoint-resume: interrupted+resumed output byte-identical" \
        "to the uninterrupted run at --jobs 1/2/8"

    # --- server spool survives kill -9 ---
    start_server "$tmpdir/serve.log" --spool "$tmpdir/spool"
    server_pid=$SERVER_PID
    job_id=$("$SIM" client submit --addr "$SERVER_ADDR" --json \
        --scenarios tiny --seeds 12 --attempts 2 --bits 4 --jobs 1 \
        | sed -n 's/.*"id": \([0-9]*\).*/\1/p')
    echo "==> submitted job $job_id to $SERVER_ADDR; kill -9 mid-run"
    sleep 0.5
    kill -9 "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    if [ ! -f "$tmpdir/spool/job-${job_id}.journal" ]; then
        echo "checkpoint-resume: job $job_id finished before kill -9" \
            "(or was never spooled) — nothing to resume" >&2
        return 1
    fi

    start_server "$tmpdir/serve2.log" --spool "$tmpdir/spool"
    server_pid=$SERVER_PID
    echo "==> restarted with the same spool; streaming job $job_id"
    "$SIM" client stream --addr "$SERVER_ADDR" --id "$job_id" \
        >"$tmpdir/streamed.ndjson"
    "$SIM" campaign --scenarios tiny --seeds 12 --attempts 2 --bits 4 \
        --jobs 1 --json >"$tmpdir/serial.ndjson" 2>/dev/null
    run cmp "$tmpdir/serial.ndjson" "$tmpdir/streamed.ndjson"
    run "$SIM" client shutdown --addr "$SERVER_ADDR"
    if ! wait "$server_pid"; then
        echo "checkpoint-resume: server exited non-zero after shutdown" >&2
        return 1
    fi
    if compgen -G "$tmpdir/spool/job-*" >/dev/null; then
        echo "checkpoint-resume: spool files left behind after job completed" >&2
        return 1
    fi
    echo "checkpoint-resume: kill -9'd job resumed from the spool" \
        "byte-identical to a serial run"
}

stage_variant_matrix() {
    stage variant-matrix
    # The attack-variant sweep: a scenario x variant grid (virtio-mem,
    # balloon, xen, pthammer, gbhammer cells side by side) must emit
    # byte-identical NDJSON — cell records plus the per-variant
    # comparison report — at every worker count, in memory and streamed.
    local tmpdir variant
    tmpdir="$(mktemp -d)"
    # shellcheck disable=SC2064  # expand tmpdir now, not at trap time
    trap "rm -rf '$tmpdir'" RETURN
    build_release
    same_bytes_across_jobs "$tmpdir" "1 2 8" "stdout_@J.txt" - 0 \
        --scenarios tiny@all,micro@all --seeds 2 --attempts 2 --bits 4 --json
    echo "==> streamed sweep at --jobs 4"
    same_bytes_across_jobs "$tmpdir" "4" "stdout_@J.txt" "$tmpdir/stdout_1.txt" 0 \
        --scenarios tiny@all,micro@all --seeds 2 --attempts 2 --bits 4 --json \
        --stream-out "@D/stream"
    # The sweep must actually span the matrix: every variant's cells and
    # its row in the comparison report.
    for variant in balloon xen pthammer gbhammer; do
        run grep -q "\"scenario\": \"tiny@${variant}\"" "$tmpdir/stdout_1.txt"
        run grep -q "\"variant\": \"${variant}\"" "$tmpdir/stdout_1.txt"
    done
    run grep -q '"variant": "virtio-mem"' "$tmpdir/stdout_1.txt"
    echo "variant-matrix: scenario x variant sweep byte-identical across" \
        "--jobs 1/2/8 and the streamed path, all five variants present"
}

stage_bench_diff() {
    stage bench-diff
    run scripts/bench_diff.sh
}

ALL_STAGES=(build test fmt clippy bench-smoke determinism chaos scaling-sanity memory-cap server-smoke checkpoint-resume variant-matrix bench-diff)
if [ "$#" -gt 0 ]; then
    STAGES=("$@")
else
    STAGES=("${ALL_STAGES[@]}")
fi

# A stage may set STAGE_NOTE to say what it skipped; the note follows
# its line in the wall-clock summary.
STAGE_SUMMARY=()
for name in "${STAGES[@]}"; do
    STAGE_NOTE=""
    stage_t0=$(date +%s%N)
    case "$name" in
        build) stage_build ;;
        test) stage_test ;;
        fmt) stage_fmt ;;
        clippy) stage_clippy ;;
        bench-smoke) stage_bench_smoke ;;
        determinism) stage_determinism ;;
        chaos) stage_chaos ;;
        scaling-sanity) stage_scaling_sanity ;;
        memory-cap) stage_memory_cap ;;
        server-smoke) stage_server_smoke ;;
        checkpoint-resume) stage_checkpoint_resume ;;
        variant-matrix) stage_variant_matrix ;;
        bench-diff) stage_bench_diff ;;
        *)
            CURRENT_STAGE="$name"
            echo "ci: unknown stage '$name' (stages: ${ALL_STAGES[*]})" >&2
            exit 2
            ;;
    esac
    stage_t1=$(date +%s%N)
    STAGE_SUMMARY+=("$(printf '%-20s %7d ms%s' "$name" $(((stage_t1 - stage_t0) / 1000000)) \
        "${STAGE_NOTE:+  ($STAGE_NOTE)}")")
done

echo
echo "ci: stage wall-clock:"
for line in "${STAGE_SUMMARY[@]}"; do
    echo "  $line"
done
echo "ci: all green (${STAGES[*]})"
