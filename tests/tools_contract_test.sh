#!/bin/sh
# tools_contract_test.sh CSCHED_BENCH CSCHED_CLI -- pin the grid
# front-end contract both drivers share: report byte-identity across
# --jobs, and the 0/1/2 exit-code convention (0 success or
# --keep-going, 1 a failed job, 2 a usage error caught before any job
# runs).  Registered in ctest as a tier-2 check.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 CSCHED_BENCH CSCHED_CLI" >&2
    exit 2
fi

bench=$1
cli=$2
for binary in "$bench" "$cli"; do
    if [ ! -x "$binary" ]; then
        echo "tools_contract: '$binary' not found or not executable" >&2
        exit 2
    fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/tools_contract.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT

failures=0

# expect CODE NAME CMD...: run CMD (output to $tmp/out) and demand it
# exits with CODE.
expect() {
    want=$1
    name=$2
    shift 2
    "$@" >"$tmp/out" 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL $name: expected exit $want, got $got" >&2
        sed 's/^/    /' "$tmp/out" >&2
        failures=$((failures + 1))
    else
        echo "ok   $name (exit $got)"
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
if cmp -s "$tmp/jobs1.json" "$tmp/jobs4.json"; then
    echo "ok   bench reports byte-identical at --jobs 1 and 4"
else
    echo "FAIL bench reports differ between --jobs 1 and --jobs 4" >&2
    diff "$tmp/jobs1.json" "$tmp/jobs4.json" >&2
    failures=$((failures + 1))
fi

# ---- Usage errors: exit 2 -------------------------------------------

expect 2 "bench unknown workload" \
    "$bench" suite --workloads nonesuch --quiet
expect 2 "cli unknown workload" \
    "$cli" --workload nonesuch
expect 2 "bench --resume without --journal" \
    "$bench" suite --workloads fir --resume --quiet
expect 2 "cli --resume without --journal" \
    "$cli" --workload fir --json "$tmp/r.json" --resume
# 127.0.0.1:1 is never contacted: the flag conflict is rejected first.
expect 2 "bench --hosts with --isolate" \
    "$bench" suite --workloads fir --hosts 127.0.0.1:1 --isolate \
    --quiet
expect 2 "cli --hosts with --isolate" \
    "$cli" --workload fir --json "$tmp/h.json" \
    --hosts 127.0.0.1:1 --isolate
expect 2 "cli --online with an offline policy" \
    "$cli" --online --policies convergent

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

if [ "$failures" -ne 0 ]; then
    echo "tools_contract: $failures case(s) failed" >&2
    exit 1
fi
echo "tools_contract: all cases passed"
exit 0
