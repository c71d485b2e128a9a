#!/usr/bin/env bash
# Full verification sweep: build and run the whole test suite under a
# plain build and a ThreadSanitizer build (which is what proves the
# thread pool's exception barrier and the runner's determinism
# machinery are actually race-free, not just lucky), run the
# crash-safety tier (tier2) once more under AddressSanitizer (the
# journal and atomic-file paths do raw POSIX I/O) and under fatal
# UBSan (the worker pipe protocol decodes raw, deliberately corrupted
# frames), and finish with two end-to-end smoke tests against the real
# csched_bench binary: SIGTERM a journaled grid mid-run, expect a
# graceful 143, resume, and demand a byte-identical report; then
# inject a worker segfault and a worker hang under --isolate and
# demand both are contained as per-cell outcomes (exit 1) with the
# healthy cells salvaged.  The serve drain smoke (plain and ASan) runs
# the csched_serve daemon under fault-injected csched_load traffic,
# SIGTERMs it mid-load, and demands a graceful drain: exit 143, no
# orphaned workers, socket unlinked, and a load ledger proving every
# request got exactly one structured reply.  The dist fleet smoke
# (plain and ASan) runs a grid over two localhost csched_workerd
# daemons, injects a network partition and SIGKILLs one daemon
# mid-grid, and demands the grid heal by lease reassignment with a
# report byte-identical to the in-process run.  The degraded-grid
# smoke (plain and ASan) sweeps seeded fault-mapped meshes and demands
# byte-identical reports across --jobs and under --isolate.  The
# perfbench smoke builds csched_perfbench from this tree and runs
# one short traced convergent-regions cycle.
#
#   tools/ci.sh [BUILD_DIR_PREFIX]
#
# Exits non-zero on the first failing step.

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"

build() {
    local build_dir="$1"
    shift
    echo "=== configure ${build_dir} ($*)"
    cmake -B "${build_dir}" -S . "$@" >/dev/null
    echo "=== build ${build_dir}"
    cmake --build "${build_dir}" -j >/dev/null
}

run_suite() {
    local build_dir="$1"
    shift
    build "${build_dir}" "$@"
    echo "=== tier1 ${build_dir}"
    ctest --test-dir "${build_dir}" -L tier1 -j --output-on-failure
    echo "=== tier2 ${build_dir}"
    ctest --test-dir "${build_dir}" -L tier2 -j --output-on-failure
}

# The runner/journal subsystem under ASan: raw write/fsync/rename
# paths, signal-flag handling, and the resume replay buffers.  Tier 1
# runs too: the preference-matrix engine (pristine template, windowed
# kernels) and the scheduler's pass guard live there.
run_tier2_asan() {
    local build_dir="$1"
    build "${build_dir}" -DCSCHED_SANITIZE=address
    echo "=== tier1 ${build_dir} (asan)"
    ctest --test-dir "${build_dir}" -L tier1 -j --output-on-failure
    echo "=== tier2 ${build_dir} (asan)"
    ctest --test-dir "${build_dir}" -L tier2 -j --output-on-failure
}

# The same tiers once more under fatal UBSan: the worker pipe protocol
# decodes raw length prefixes and frames that tests deliberately
# truncate and corrupt, which is where undefined behaviour would hide.
run_tier2_ubsan() {
    local build_dir="$1"
    build "${build_dir}" -DCSCHED_SANITIZE=undefined
    echo "=== tier1 ${build_dir} (ubsan)"
    ctest --test-dir "${build_dir}" -L tier1 -j --output-on-failure
    echo "=== tier2 ${build_dir} (ubsan)"
    ctest --test-dir "${build_dir}" -L tier2 -j --output-on-failure
}

kill_resume_smoke() {
    local bench="$1/tools/csched_bench"
    echo "=== kill-and-resume smoke"
    local tmp
    tmp="$(mktemp -d)"
    local args=(--workloads vvmul,fir --machines vliw2
                --algorithms uas,convergent --jobs 2 --quiet
                --no-timings)

    "${bench}" suite "${args[@]}" --json "${tmp}/base.json"

    # Slow every job so SIGTERM lands mid-grid; the run must drain,
    # journal what finished, and exit 128+15.
    "${bench}" suite "${args[@]}" --json "${tmp}/partial.json" \
        --journal "${tmp}/journal.jsonl" \
        --inject 'runner.job.start=slow:ms=200' &
    local pid=$!
    sleep 0.3
    kill -TERM "${pid}"
    local code=0
    wait "${pid}" || code=$?
    if [ "${code}" -ne 143 ]; then
        echo "kill-and-resume: expected exit 143 after SIGTERM," \
             "got ${code}" >&2
        exit 1
    fi
    grep -q '"interrupted": true' "${tmp}/partial.json" || {
        echo "kill-and-resume: partial report not marked interrupted" >&2
        exit 1
    }

    "${bench}" suite "${args[@]}" --json "${tmp}/final.json" \
        --journal "${tmp}/journal.jsonl" --resume
    diff "${tmp}/base.json" "${tmp}/final.json" || {
        echo "kill-and-resume: resumed report differs from an" \
             "uninterrupted run" >&2
        exit 1
    }
    rm -rf "${tmp}"
    echo "=== kill-and-resume ok (143 on SIGTERM, byte-identical resume)"
}

# Benchmark smoke: build csched_perfbench from this tree in its own
# build directory (run.py checks its metric names against
# BENCHMARK.json), then run one short traced cycle of two workloads.
# convergent-regions: the traced replica must reproduce every untraced
# assignment and makespan.  mesh-baselines: every UAS, RawCC, PCC and
# convergent schedule on the 64- to 1024-tile meshes must pass the
# checker and reach at least the critical path.  csched_perfbench
# counts a divergence or a rejected schedule as a failed operation,
# and its final JSON line says "correct": true only when none failed.
perfbench_smoke() {
    local tmp
    tmp="$(mktemp -d)"
    local workload
    for workload in convergent-regions mesh-baselines; do
        echo "=== perfbench smoke (${workload})"
        CARGO_TARGET_DIR="${prefix}-perfbench" python3 perfbench/run.py \
            --workload "${workload}" --seed 1 --seconds 2 --trace 1 \
            >"${tmp}/out" 2>"${tmp}/err" || {
            echo "perfbench smoke: ${workload}: build or run failed" >&2
            cat "${tmp}/err" >&2
            exit 1
        }
        tail -n 1 "${tmp}/out" | grep -q '^{"correct": true, ' || {
            echo "perfbench smoke: ${workload}: the run reported" \
                 "failed operations" >&2
            cat "${tmp}/out" "${tmp}/err" >&2
            exit 1
        }
    done
    rm -rf "${tmp}"
    echo "=== perfbench smoke ok"
}

# Perf regression gate: re-measure the quick cell set in the optimised
# (Release) build and compare against the checked-in BENCH_*.json
# baselines at the repo root, which were recorded with Release builds
# (csched-bench-report-v1; see DESIGN.md s10).  The gate
# fails on a >15% median slowdown in any cell and prints the
# per-kernel delta table.  Single-core timer noise at 3 repeats stays
# well inside that margin; re-baseline with `csched_bench perf` when a
# deliberate perf change moves the needle.
perf_gate() {
    local bench="$1/tools/csched_bench"
    echo "=== perf gate (vs checked-in baselines)"
    "${bench}" perf --quick --check --baseline-dir . \
        --out-dir "$(mktemp -d)" || {
        echo "perf gate: regression against the checked-in baseline" >&2
        exit 1
    }
    echo "=== perf gate ok"
}

# End-to-end containment smoke against the real binary: one cell's
# worker segfaults, another hangs past its deadline; under --isolate
# both must come back as recorded per-cell outcomes (exit 1 per the
# grid's exit contract -- job failures, not a runner error), with the
# healthy cells salvaged.
containment_smoke() {
    local bench="$1/tools/csched_bench"
    echo "=== worker containment smoke"
    local tmp
    tmp="$(mktemp -d)"
    local code=0
    "${bench}" suite --workloads vvmul,fir --machines vliw2 \
        --algorithms uas,convergent --jobs 4 --quiet --no-timings \
        --isolate --deadline-ms 2000 --json "${tmp}/report.json" \
        --inject 'worker.crash=fail:match=fir/vliw2/uas;worker.hang=fail:match=vvmul/vliw2/convergent' \
        || code=$?
    if [ "${code}" -ne 1 ]; then
        echo "containment: expected exit 1 (contained job failures)," \
             "got ${code}" >&2
        exit 1
    fi
    grep -q '"error": "worker-crashed"' "${tmp}/report.json" || {
        echo "containment: segfaulted cell not marked worker-crashed" >&2
        exit 1
    }
    grep -q '"error": "worker-killed"' "${tmp}/report.json" || {
        echo "containment: hung cell not marked worker-killed" >&2
        exit 1
    }
    if [ "$(grep -c '"outcome": "ok"' "${tmp}/report.json")" -ne 2 ]; then
        echo "containment: healthy cells were not salvaged" >&2
        exit 1
    fi
    rm -rf "${tmp}"
    echo "=== containment ok (crash + hang contained, healthy cells salvaged)"
}

# Online replay smoke: stream scheduling must be deterministic and
# replayable.  Run an online grid serially and with a thread pool and
# demand byte-identical reports; then emit the arrival trace from a
# generated stream, replay it through stream:trace:file=, and demand
# the replay reproduces the same weighted-completion numbers.  Run on
# the TSan build so the online commit loop inside worker threads is
# also race-checked.
online_replay_smoke() {
    local bench="$1/tools/csched_bench"
    local cli="$1/tools/csched_cli"
    echo "=== online replay smoke"
    local tmp
    tmp="$(mktemp -d)"
    local stream='stream:bursty:n=10:seed=7:gap=400:burst=3:workloads=fir+vvmul'
    local args=(--workloads "${stream}" --machines vliw2,vliw4
                --algorithms online-convergent,online-pcc
                --quiet --no-timings)

    "${bench}" suite "${args[@]}" --jobs 1 --json "${tmp}/serial.json"
    "${bench}" suite "${args[@]}" --jobs 4 --json "${tmp}/parallel.json"
    diff "${tmp}/serial.json" "${tmp}/parallel.json" || {
        echo "online smoke: report depends on --jobs" >&2
        exit 1
    }
    grep -q '"weightedCompletion"' "${tmp}/serial.json" || {
        echo "online smoke: report carries no online metrics" >&2
        exit 1
    }

    "${cli}" --online --streams "${stream}" --machines vliw4 \
        --policies online-convergent --emit-trace "${tmp}/trace.jsonl" \
        --json "${tmp}/live.json" >/dev/null
    "${cli}" --online --streams "stream:trace:file=${tmp}/trace.jsonl" \
        --machines vliw4 --policies online-convergent \
        --json "${tmp}/replay.json" >/dev/null
    local live replay
    live="$(grep -o '"weightedCompletion": [0-9]*' "${tmp}/live.json")"
    replay="$(grep -o '"weightedCompletion": [0-9]*' "${tmp}/replay.json")"
    if [ -z "${live}" ] || [ "${live}" != "${replay}" ]; then
        echo "online smoke: trace replay diverged from the live run" >&2
        echo "live:   ${live}" >&2
        echo "replay: ${replay}" >&2
        exit 1
    fi
    rm -rf "${tmp}"
    echo "=== online replay smoke ok (byte-identical across --jobs," \
         "trace replay reproduces metrics)"
}

# Degraded-machine smoke: a grid over seeded fault-mapped meshes (dead
# tiles, dead links, slowed tiles) with all four algorithms must
# produce byte-identical reports across --jobs values and under
# --isolate -- the dead sets are rebuilt deterministically from the
# spec text on whichever worker runs the job, so no fault state ever
# crosses a process boundary.  Exit 0 also asserts every algorithm
# produced a checker-valid schedule on the degraded machines.
degraded_grid_smoke() {
    local build_dir="$1"
    local tag="$2"
    local bench="${build_dir}/tools/csched_bench"
    echo "=== degraded grid smoke (${tag})"
    local tmp
    tmp="$(mktemp -d)"
    local args=(--workloads jacobi,sha
                --machines 'raw4x4,raw4x4/faults=seed:7,tiles:12%,links:5%,slow:12%'
                --algorithms uas,convergent,pcc,rawcc
                --quiet --no-timings)
    "${bench}" suite "${args[@]}" --jobs 1 --json "${tmp}/serial.json"
    "${bench}" suite "${args[@]}" --jobs 4 --json "${tmp}/parallel.json"
    "${bench}" suite "${args[@]}" --jobs 4 --isolate \
        --json "${tmp}/isolated.json"
    diff "${tmp}/serial.json" "${tmp}/parallel.json" || {
        echo "degraded smoke: report depends on --jobs" >&2
        exit 1
    }
    diff "${tmp}/serial.json" "${tmp}/isolated.json" || {
        echo "degraded smoke: report differs under --isolate" >&2
        exit 1
    }
    grep -q 'faults=seed' "${tmp}/serial.json" || {
        echo "degraded smoke: degraded machine missing from report" >&2
        exit 1
    }
    rm -rf "${tmp}"
    echo "=== degraded grid smoke ok (${tag}: byte-identical across" \
         "--jobs and --isolate)"
}

# End-to-end serve drain smoke: the daemon under fault-injected load
# (admission refusals, rewritten replies, workers that crash on first
# dispatch and heal on retry), SIGTERM mid-load.  The daemon must
# drain gracefully -- exit 143, socket unlinked, no orphaned worker
# processes -- and the load ledger must balance: zero lost and zero
# duplicated replies, with the drain visible as `interrupted` ones.
serve_smoke() {
    local build_dir="$1"
    local tag="$2"
    local serve="${build_dir}/tools/csched_serve"
    local load="${build_dir}/tools/csched_load"
    echo "=== serve drain smoke (${tag})"
    local tmp
    tmp="$(mktemp -d)"
    # Any exit, a failed check's too, kills what this smoke started (all
    # of it names ${tmp} in its argv): a daemon holds this script's
    # stdout, which a caller reading through a pipe waits on.
    trap "pkill -KILL -f '${tmp}' || true" EXIT
    local sock="${tmp}/serve.sock"

    # --cache 0 so every admitted request runs a real job, which keeps
    # the load running long enough that SIGTERM lands mid-run; the
    # small queue exercises `overloaded` backpressure at the same time.
    "${serve}" --socket "${sock}" --workers 2 --dispatchers 2 \
        --queue 8 --cache 0 --retries 1 \
        --inject 'serve.admit=fail:nth=3;serve.reply=fail:nth=5;worker.crash=fail:match=vvmul/vliw2/uas:nth=1' &
    local serve_pid=$!

    "${load}" --socket "${sock}" --clients 12 --requests 80 \
        --json "${tmp}/load.json" &
    local load_pid=$!

    sleep 0.6
    kill -TERM "${serve_pid}"
    local serve_code=0
    wait "${serve_pid}" || serve_code=$?
    local load_code=0
    wait "${load_pid}" || load_code=$?

    if [ "${serve_code}" -ne 143 ]; then
        echo "serve smoke: expected a graceful drain exit 143 after" \
             "SIGTERM, got ${serve_code}" >&2
        exit 1
    fi
    if [ "${load_code}" -ne 0 ]; then
        echo "serve smoke: load ledger did not balance" \
             "(csched_load exit ${load_code})" >&2
        cat "${tmp}/load.json" >&2 || true
        exit 1
    fi
    # Workers share the daemon's argv, so the unique per-run socket
    # path finds any orphan -- without ever matching this shell.
    if pgrep -f "${sock}" >/dev/null; then
        echo "serve smoke: processes survived the drain:" >&2
        pgrep -af "${sock}" >&2
        exit 1
    fi
    if [ -e "${sock}" ]; then
        echo "serve smoke: socket file not unlinked by the drain" >&2
        exit 1
    fi
    grep -q '"schema": "csched-load-report-v1"' "${tmp}/load.json" || {
        echo "serve smoke: malformed load report" >&2
        exit 1
    }
    grep -q '"lost": 0' "${tmp}/load.json" || {
        echo "serve smoke: lost replies under drain" >&2
        cat "${tmp}/load.json" >&2
        exit 1
    }
    grep -q '"duplicates": 0' "${tmp}/load.json" || {
        echo "serve smoke: duplicated replies under drain" >&2
        cat "${tmp}/load.json" >&2
        exit 1
    }
    grep -q '"sawDrain": true' "${tmp}/load.json" || {
        echo "serve smoke: SIGTERM did not land mid-load" \
             "(no interrupted reply observed)" >&2
        exit 1
    }
    grep -q '"p99":' "${tmp}/load.json" || {
        echo "serve smoke: load report missing latency percentiles" >&2
        cat "${tmp}/load.json" >&2
        exit 1
    }

    # A second daemon, no faults, takes two bursts of 400 requests over
    # 8 connections.  Its readers are joined on the accept loop's next
    # tick, so its thread count falls back within 1 s of a burst, and
    # its mappings stay flat from the first burst to the second: a
    # thread per request that nobody joins would keep 400 stacks
    # mapped, two lines each.
    local leak_sock="${tmp}/leak.sock"
    "${serve}" --socket "${leak_sock}" --workers 2 --dispatchers 2 &
    local leak_pid=$!
    for _ in $(seq 100); do
        [ -S "${leak_sock}" ] && break
        sleep 0.05
    done
    threads_of() { awk '/^Threads:/ { print $2 }' "/proc/$1/status"; }
    leak_fail() {
        echo "serve smoke: $*" >&2
        exit 1
    }
    local threads_idle maps_before maps_after
    threads_idle=$(threads_of "${leak_pid}")
    for burst in 1 2; do
        "${load}" --socket "${leak_sock}" --clients 8 --requests 50 \
            >/dev/null || leak_fail "load burst ${burst} did not balance"
        [ "${burst}" -eq 1 ] && maps_before=$(wc -l <"/proc/${leak_pid}/maps")
        for _ in $(seq 20); do
            [ "$(threads_of "${leak_pid}")" -eq "${threads_idle}" ] && break
            sleep 0.05
        done
        [ "$(threads_of "${leak_pid}")" -eq "${threads_idle}" ] ||
            leak_fail "${threads_idle} threads before burst ${burst}," \
                      "$(threads_of "${leak_pid}") 1 s after it"
    done
    maps_after=$(wc -l <"/proc/${leak_pid}/maps")
    [ $((maps_after - maps_before)) -lt 100 ] ||
        leak_fail "csched_serve maps grew from ${maps_before} to" \
                  "${maps_after} lines over 400 requests"
    kill -TERM "${leak_pid}"
    local leak_code=0
    wait "${leak_pid}" || leak_code=$?
    if [ "${leak_code}" -ne 143 ]; then
        echo "serve smoke: the load-burst daemon did not drain" \
             "gracefully (exit ${leak_code})" >&2
        exit 1
    fi

    trap - EXIT
    rm -rf "${tmp}"
    echo "=== serve drain smoke ok (${tag}: 143, ledger balanced," \
         "no orphans, threads and maps flat across load bursts)"
}

# End-to-end distributed smoke: a two-daemon localhost fleet under
# injected network faults (a partition on one cell's primary dispatch)
# plus a real SIGKILL of one daemon mid-grid.  The grid must heal by
# lease reassignment -- exit 0, report byte-identical to the same grid
# run in-process -- and the killed fleet must leave no orphaned
# processes behind.
dist_smoke() {
    local build_dir="$1"
    local tag="$2"
    local bench="${build_dir}/tools/csched_bench"
    local workerd="${build_dir}/tools/csched_workerd"
    echo "=== dist fleet smoke (${tag})"
    local tmp
    tmp="$(mktemp -d)"
    # Any exit, a failed check's too, kills the fleet and the grid (all
    # name ${tmp} in their argv): a daemon holds this script's stdout,
    # which a caller reading through a pipe waits on.
    trap "pkill -KILL -f '${tmp}' || true" EXIT
    local args=(--workloads fir,vvmul,jacobi,mxm --machines vliw2,vliw4
                --algorithms uas,convergent --jobs 4 --quiet
                --no-timings)

    "${bench}" suite "${args[@]}" --json "${tmp}/base.json"

    # The port-file handshake: ephemeral ports, discovered once the
    # daemon is actually listening.  The unique --port-file path also
    # marks each daemon's argv for the orphan sweep below.
    "${workerd}" --port 0 --workers 2 --port-file "${tmp}/a.port" &
    local pid_a=$!
    "${workerd}" --port 0 --workers 2 --port-file "${tmp}/b.port" &
    local pid_b=$!
    for _ in $(seq 100); do
        [ -s "${tmp}/a.port" ] && [ -s "${tmp}/b.port" ] && break
        sleep 0.05
    done
    if [ ! -s "${tmp}/a.port" ] || [ ! -s "${tmp}/b.port" ]; then
        echo "dist smoke: workerd never wrote its port file" >&2
        exit 1
    fi
    local hosts="127.0.0.1:$(cat "${tmp}/a.port"),127.0.0.1:$(cat "${tmp}/b.port")"

    # Slow the jobs so the SIGKILL lands mid-grid, partition one cell's
    # first dispatch, and shrink the liveness/reconnect knobs so the
    # healing happens inside smoke-test time.
    "${bench}" suite "${args[@]}" --json "${tmp}/dist.json" \
        --hosts "${hosts}" \
        --dist-opts 'liveness-timeout-ms=800,heartbeat-interval-ms=100,reconnect-base-ms=20,partition-ms=300' \
        --inject 'runner.job.start=slow:ms=150;net.partition=fail:nth=1:match=fir/*' &
    local bench_pid=$!
    sleep 0.9
    kill -KILL "${pid_a}"
    local code=0
    wait "${bench_pid}" || code=$?
    wait "${pid_a}" 2>/dev/null || true
    if [ "${code}" -ne 0 ]; then
        echo "dist smoke: grid did not survive the partition +" \
             "SIGKILL (exit ${code})" >&2
        cat "${tmp}/dist.json" >&2 || true
        exit 1
    fi
    diff "${tmp}/base.json" "${tmp}/dist.json" || {
        echo "dist smoke: fleet report differs from the in-process" \
             "run" >&2
        exit 1
    }

    # The survivor's memory must not grow with jobs served: 400 more
    # jobs over 8 connections.  A thread per job or per connection
    # that nobody joins keeps its stack mapped (two maps lines each).
    local maps_before maps_after
    maps_before=$(wc -l <"/proc/${pid_b}/maps")
    "${build_dir}/tools/csched_load" --clients 8 --requests 50 \
        --endpoint "127.0.0.1:$(cat "${tmp}/b.port")" >/dev/null
    maps_after=$(wc -l <"/proc/${pid_b}/maps")
    if [ $((maps_after - maps_before)) -ge 100 ]; then
        echo "dist smoke: workerd maps grew from ${maps_before} to" \
             "${maps_after} lines over 400 jobs" >&2
        exit 1
    fi

    # Graceful drain of the survivor: SIGTERM, exit 143, no orphans.
    kill -TERM "${pid_b}"
    local drain_code=0
    wait "${pid_b}" || drain_code=$?
    if [ "${drain_code}" -ne 143 ]; then
        echo "dist smoke: surviving workerd did not drain gracefully" \
             "(exit ${drain_code})" >&2
        exit 1
    fi
    if pgrep -f "${tmp}/a.port" >/dev/null || \
       pgrep -f "${tmp}/b.port" >/dev/null; then
        echo "dist smoke: processes survived the fleet shutdown:" >&2
        pgrep -af "${tmp}" >&2
        exit 1
    fi
    trap - EXIT
    rm -rf "${tmp}"
    echo "=== dist fleet smoke ok (${tag}: partition + SIGKILL healed," \
         "byte-identical report, no orphans)"
}

run_suite "${prefix}-plain"
run_suite "${prefix}-tsan" -DCSCHED_SANITIZE=thread
run_tier2_asan "${prefix}-asan"
run_tier2_ubsan "${prefix}-ubsan"
kill_resume_smoke "${prefix}-plain"
containment_smoke "${prefix}-plain"
online_replay_smoke "${prefix}-tsan"
degraded_grid_smoke "${prefix}-plain" plain
degraded_grid_smoke "${prefix}-asan" asan
serve_smoke "${prefix}-plain" plain
serve_smoke "${prefix}-asan" asan
dist_smoke "${prefix}-plain" plain
dist_smoke "${prefix}-asan" asan
perfbench_smoke
build "${prefix}-release" -DCMAKE_BUILD_TYPE=Release
perf_gate "${prefix}-release"

echo "=== all suites passed (plain + tsan + asan/ubsan tier1+tier2 + smokes + online replay + degraded grid + serve drain + dist fleet + perfbench + perf gate)"
