#!/bin/sh
# tools_contract_test.sh CSCHED_BENCH CSCHED_CLI CSCHED_WORKERD
# CSCHED_SERVE -- pin the grid front-end contract both drivers share:
# report byte-identity across --jobs and across job executors
# (in-process, --isolate, and --hosts against one csched_workerd this
# script starts), and the 0/1/2 exit-code convention (0 success or
# --keep-going, 1 a failed job, 2 a usage error caught before any job
# runs -- csched_serve's flag checks included), that csched_cli runs
# its one job once through the grid, and that README's CLI and
# degraded-machine examples run.  Registered in ctest as a tier-2
# check.
set -u

if [ $# -ne 4 ]; then
    echo "usage: $0 CSCHED_BENCH CSCHED_CLI CSCHED_WORKERD CSCHED_SERVE" >&2
    exit 2
fi

bench=$1
cli=$2
workerd=$3
serve=$4
for binary in "$bench" "$cli" "$workerd" "$serve"; do
    if [ ! -x "$binary" ]; then
        echo "tools_contract: '$binary' not found or not executable" >&2
        exit 2
    fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/tools_contract.XXXXXX") || exit 1
workerd_pid=
cleanup() {
    if [ -n "$workerd_pid" ]; then
        kill "$workerd_pid" 2>/dev/null
        wait "$workerd_pid" 2>/dev/null
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

failures=0

# expect CODE NAME CMD...: run CMD (stdout to $tmp/out, stderr to
# $tmp/err) and demand it exits with CODE.
expect() {
    want=$1
    name=$2
    shift 2
    "$@" >"$tmp/out" 2>"$tmp/err"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL $name: expected exit $want, got $got" >&2
        sed 's/^/    /' "$tmp/out" "$tmp/err" >&2
        failures=$((failures + 1))
    else
        echo "ok   $name (exit $got)"
    fi
}

# check NAME CMD...: demand CMD succeeds.
check() {
    name=$1
    shift
    if "$@"; then
        echo "ok   $name"
    else
        echo "FAIL $name" >&2
        failures=$((failures + 1))
    fi
}

# ---- Byte-identity across --jobs ------------------------------------

grid="--workloads fir,vvmul --machines vliw2,raw4 --algorithms uas,convergent"
# shellcheck disable=SC2086
expect 0 "bench --jobs 1 report" \
    "$bench" suite $grid --jobs 1 --no-timings --quiet \
    --json "$tmp/jobs1.json"
# shellcheck disable=SC2086
expect 0 "bench --jobs 4 report" \
    "$bench" suite $grid --jobs 4 --no-timings --quiet \
    --json "$tmp/jobs4.json"
# same NAME REPORT: demand REPORT is byte-identical to the --jobs 1
# in-process report.
same() {
    if cmp -s "$tmp/jobs1.json" "$2"; then
        echo "ok   bench report byte-identical: $1"
    else
        echo "FAIL bench report differs: $1" >&2
        diff "$tmp/jobs1.json" "$2" >&2
        failures=$((failures + 1))
    fi
}
same "--jobs 1 vs --jobs 4" "$tmp/jobs4.json"

# ---- Byte-identity across executors ---------------------------------

# shellcheck disable=SC2086
expect 0 "bench --isolate report" \
    "$bench" suite $grid --jobs 4 --isolate --no-timings --quiet \
    --json "$tmp/isolate.json"
same "in-process vs --isolate" "$tmp/isolate.json"

"$workerd" --port 0 --workers 2 --port-file "$tmp/workerd.port" \
    2>"$tmp/workerd.err" &
workerd_pid=$!
for _ in $(seq 100); do
    [ -s "$tmp/workerd.port" ] && break
    sleep 0.05
done
if [ -s "$tmp/workerd.port" ]; then
    # shellcheck disable=SC2086
    expect 0 "bench --hosts report" \
        "$bench" suite $grid --jobs 4 --no-timings --quiet \
        --hosts "127.0.0.1:$(cat "$tmp/workerd.port")" \
        --json "$tmp/hosts.json"
    same "in-process vs --hosts" "$tmp/hosts.json"
else
    echo "FAIL csched_workerd never wrote its port file" >&2
    sed 's/^/    /' "$tmp/workerd.err" >&2
    failures=$((failures + 1))
fi

# ---- A full fd table paces the accept loop --------------------------

# Under `ulimit -n 24` a workerd runs out of descriptors after a few
# connections; accept(2) then fails with EMFILE at once for as long as
# a connection waits in the backlog.  The loop must wait out a tick
# after each failure, not retry hot: at most 40 warnings in 1 s.  Bash
# holds 30 connections open through /dev/tcp.
if command -v bash >/dev/null 2>&1; then
    bash -c '
        workerd=$1 tmp=$2
        (ulimit -n 24 && exec "$workerd" --port 0 --workers 1 \
            --port-file "$tmp/emfile.port") 2>"$tmp/emfile.err" &
        pid=$!
        for _ in $(seq 100); do
            [ -s "$tmp/emfile.port" ] && break
            sleep 0.05
        done
        port=$(cat "$tmp/emfile.port" 2>/dev/null)
        [ -n "$port" ] || { kill -9 $pid; exit 3; }
        for _ in $(seq 30); do
            exec {fd}<>"/dev/tcp/127.0.0.1/$port" || break
        done
        sleep 0.3
        first=$(grep -c "accept failed" "$tmp/emfile.err")
        sleep 1
        last=$(grep -c "accept failed" "$tmp/emfile.err")
        kill -9 $pid
        wait $pid 2>/dev/null
        echo "$first $last"
    ' emfile-probe "$workerd" "$tmp" >"$tmp/emfile.out" 2>/dev/null
    read -r first last <"$tmp/emfile.out"
    if grep -q "object has invalid vptr" "$tmp/emfile.err"; then
        # UBSan reads a vtable only after probing it through pipe(2),
        # which fails with EMFILE too; its fatal report ends the daemon
        # before the loop can be timed.  The other builds time it.
        echo "skip workerd accept loop under EMFILE (UBSan's vptr" \
             "check needs free descriptors)"
    elif [ -z "${last:-}" ] || [ "$first" -lt 1 ] ||
       [ $((last - first)) -gt 40 ]; then
        echo "FAIL workerd accept loop under EMFILE: expected >= 1" \
             "warning first and <= 40 more in 1 s, got" \
             "'$(cat "$tmp/emfile.out")'" >&2
        failures=$((failures + 1))
    else
        echo "ok   workerd accept loop under EMFILE" \
             "($((last - first)) warnings in 1 s)"
    fi
fi

# ---- Pass sequences: only the --algorithm suffix names them ---------

expect 0 "cli --algorithm with a pass suffix" \
    "$cli" --workload fir --algorithm convergent:INITTIME,PLACE,COMM

# ---- Usage errors: exit 2 -------------------------------------------

expect 2 "bench unknown workload" \
    "$bench" suite --workloads nonesuch --quiet
expect 2 "cli unknown workload" \
    "$cli" --workload nonesuch
expect 2 "cli --sequence is an unknown flag" \
    "$cli" --workload fir --sequence INITTIME
expect 2 "bench --resume without --journal" \
    "$bench" suite --workloads fir --resume --quiet
expect 2 "cli --resume without --journal" \
    "$cli" --workload fir --json "$tmp/r.json" --resume
# A journal written for another grid is refused before any job runs,
# by a message that names it, and is left as it was.
expect 0 "bench journal of a vliw2 grid" \
    "$bench" suite --workloads fir --machines vliw2 --algorithms uas \
    --journal "$tmp/vliw2.journal" --quiet
cp "$tmp/vliw2.journal" "$tmp/vliw2.journal.orig"
expect 2 "bench --resume with another grid's journal" \
    "$bench" suite --workloads fir --machines vliw4 --algorithms uas \
    --journal "$tmp/vliw2.journal" --resume --quiet
check "bench resume refusal names the journal" \
    grep -q "vliw2.journal' was written for a different grid" "$tmp/err"
expect 2 "cli --resume with another grid's journal" \
    "$cli" --workload fir --machine vliw4 --algorithm uas \
    --journal "$tmp/vliw2.journal" --resume
check "cli resume refusal names the journal" \
    grep -q "vliw2.journal' was written for a different grid" "$tmp/err"
check "a refused resume leaves the journal as it was" \
    cmp -s "$tmp/vliw2.journal" "$tmp/vliw2.journal.orig"
# 127.0.0.1:1 is never contacted: the flag conflict is rejected first.
expect 2 "bench --hosts with --isolate" \
    "$bench" suite --workloads fir --hosts 127.0.0.1:1 --isolate \
    --quiet
expect 2 "cli --hosts with --isolate" \
    "$cli" --workload fir --json "$tmp/h.json" \
    --hosts 127.0.0.1:1 --isolate
expect 2 "cli --online with an offline policy" \
    "$cli" --online --policies convergent
expect 2 "cli --online --emit-trace with a malformed machine" \
    "$cli" --online \
    --streams "stream:poisson:n=3:seed=1:mean-gap=200:workloads=fir" \
    --machines vliw0 --policies online-uas --emit-trace "$tmp/bad.jsonl"
check "cli --online --emit-trace writes no trace on a usage error" \
    [ ! -e "$tmp/bad.jsonl" ]
expect 2 "cli --online --emit-trace with an offline workload" \
    "$cli" --online --streams fir --policies online-uas \
    --emit-trace "$tmp/offline.jsonl"
check "cli --online --emit-trace writes no trace for an offline workload" \
    [ ! -e "$tmp/offline.jsonl" ]
expect 2 "cli --gantt with --isolate" \
    "$cli" --workload fir --gantt --isolate
expect 2 "bench grid flags without a subcommand" \
    "$bench" --workloads fir --quiet
expect 2 "bench perf --repeats not a number" \
    "$bench" perf --repeats abc
expect 2 "bench suite --jobs with trailing characters" \
    "$bench" suite --workloads fir --jobs 2x --quiet
# Refused before the worker pool forks or the socket is bound.
expect 2 "serve --dispatchers 0" \
    "$serve" --socket "$tmp/usage.sock" --dispatchers 0
expect 2 "serve --queue 0" \
    "$serve" --socket "$tmp/usage.sock" --queue 0

# ---- Job failures: exit 1, or 0 with --keep-going -------------------

inject="pass.apply=fail:match=convergent"
expect 1 "bench injected job failure" \
    "$bench" suite --workloads fir --machines vliw2 \
    --algorithms convergent,uas --quiet --inject "$inject"
expect 0 "bench injected job failure with --keep-going" \
    "$bench" suite --workloads fir --machines vliw2 \
    --algorithms convergent,uas --quiet --inject "$inject" \
    --keep-going
expect 1 "cli injected job failure" \
    "$cli" --workload fir --machine vliw2 --algorithm convergent \
    --inject "$inject"
expect 0 "cli injected job failure with --keep-going" \
    "$cli" --workload fir --machine vliw2 --algorithm convergent \
    --inject "$inject" --keep-going

stream="stream:poisson:n=3:seed=1:mean-gap=200:workloads=fir"
expect 1 "cli --online injected job failure" \
    "$cli" --online --streams "$stream" --policies online-uas \
    --json "$tmp/online.json" --inject "runner.job.start=fail"
expect 0 "cli --online injected job failure with --keep-going" \
    "$cli" --online --streams "$stream" --policies online-uas \
    --json "$tmp/online.json" --inject "runner.job.start=fail" \
    --keep-going

# ---- csched_cli runs its one job once, through the grid -------------

expect 0 "cli --json with a skipped pass" \
    "$cli" --workload fir --json "$tmp/skip.json" \
    --inject "pass.body=fail:nth=1"
check "cli --json schedules once (one skipped-pass warning)" \
    [ "$(grep -c "skipped" "$tmp/err")" -eq 1 ]
expect 1 "cli failed job with --json and --journal" \
    "$cli" --workload fir --json "$tmp/failed.json" \
    --journal "$tmp/failed.journal" --inject "runner.job.start=fail"
check "cli report records the failed cell" \
    grep -q '"outcome": "failed"' "$tmp/failed.json"
check "cli journal records the failed cell" \
    grep -q '"outcome": "failed"' "$tmp/failed.journal"
expect 1 "cli --isolate contains a worker crash without --json" \
    "$cli" --workload fir --isolate --inject "worker.crash=fail"
expect 0 "cli --json - report" "$cli" --workload fir --json -
check "cli --json - puts only the report on stdout" \
    [ "$(head -c 1 "$tmp/out")" = "{" ]
expect 0 "cli --online --json - report" \
    "$cli" --online --streams "$stream" --policies online-uas --json -
check "cli --online --json - puts only the report on stdout" \
    [ "$(head -c 1 "$tmp/out")" = "{" ]

# ---- README examples: the CLI and degraded-machine sections ---------

expect 0 "README: cli --workload list" \
    "$cli" --workload list
expect 0 "README: cli mxm --trace --speedup" \
    "$cli" --workload mxm --machine raw4x4 \
    --algorithm convergent --trace --speedup
expect 0 "README: cli fir --gantt --pressure" \
    "$cli" --workload fir --machine vliw4 \
    --algorithm uas --gantt --pressure
expect 0 "README: cli jacobi --dot" \
    "$cli" --workload jacobi --machine raw2x2 \
    --dot "$tmp/jacobi.dot"
expect 0 "README: bench suite on seeded raw8x8 faults" \
    "$bench" suite --workloads jacobi,sha \
    --machines "raw8x8,raw8x8/faults=seed:7,tiles:5%,links:3%,slow:10%,factor:2" \
    --algorithms convergent,uas,pcc,rawcc
expect 0 "README: bench suite on explicit vliw8 faults" \
    "$bench" suite --workloads mxm \
    --machines "vliw8/faults=clusters:2+5" --algorithms convergent

if [ "$failures" -ne 0 ]; then
    echo "tools_contract: $failures case(s) failed" >&2
    exit 1
fi
echo "tools_contract: all cases passed"
exit 0
