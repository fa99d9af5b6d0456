#!/bin/sh
# Records points of the benchmark trajectory: runs the benchmark that
# BENCHMARK.json declares (bench/, all five workloads, default seed) on the
# files of one commit and writes BENCH_<pr>.json at the repository root,
# with the commit, the host's shape and the result line of each workload
# as the benchmark printed it.
#
#   scripts/bench_point.sh PR [COMMIT] [SECONDS]
#   scripts/bench_point.sh PR:COMMIT [PR:COMMIT ...] [SECONDS]
#
# COMMIT defaults to HEAD and SECONDS (measured host seconds per workload,
# the benchmark's --seconds) to its default, 12. The second form records
# one point per PR:COMMIT pair, one after another in the order given, so
# a parent and its change are measured on the same host in one call. Each
# commit's files are unpacked with `git archive` into a temporary
# directory and built there, in that directory's own target directory, so
# neither the working tree nor another build is used; the directory is
# removed once its point is written. Deterministic metrics repeat exactly
# for a commit; host-time ones (setup_s, threads_flip's wall-clock
# figures) depend on the host shape recorded beside them. If the benchmark
# fails, the file still records what it printed, the remaining pairs are
# still run, and the script exits non-zero.
set -eu

usage() {
    echo "usage: $0 PR [COMMIT] [SECONDS]" >&2
    echo "       $0 PR:COMMIT [PR:COMMIT ...] [SECONDS]" >&2
    exit 2
}
number() { case $1 in '' | *[!0-9]*) echo "$2 is a number: $1" >&2; exit 2 ;; esac; }

[ $# -ge 1 ] || usage
seconds=12
pairs=
case $1 in
*:*)
    i=0
    for arg in "$@"; do
        i=$((i + 1))
        case $arg in
        *:*) number "${arg%%:*}" PR; pairs="$pairs $arg" ;;
        *) [ "$i" -eq $# ] || usage; number "$arg" SECONDS; seconds=$arg ;;
        esac
    done
    ;;
*)
    [ $# -le 3 ] || usage
    number "$1" PR
    pairs="$1:${2:-HEAD}"
    [ $# -lt 3 ] || { number "$3" SECONDS; seconds=$3; }
    ;;
esac

root=$(git rev-parse --show-toplevel)
tmp=
trap '[ -z "$tmp" ] || rm -rf "$tmp"' EXIT INT TERM
esc() { printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'; }

# Records the point of commit $2 as BENCH_$1.json; false if the benchmark
# failed.
point() {
    pr=$1
    sha=$(git -C "$root" rev-parse --verify "$2^{commit}") || return 1
    out="$root/BENCH_$pr.json"
    tmp=$(mktemp -d)

    git -C "$root" archive "$sha" | tar -x -C "$tmp" || return 1
    [ -f "$tmp/bench/Cargo.toml" ] || { echo "$sha has no bench/" >&2; return 1; }

    cmd="cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --seconds $seconds"
    status=ok
    (cd "$tmp" && $cmd) > "$tmp/bench.log" 2>&1 || status="failed (exit $?)"

    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
    {
        printf '{\n  "pr": %s,\n  "commit": "%s",\n  "status": "%s",\n' "$pr" "$sha" "$status"
        printf '  "host": {"nproc": %s, "cpu": "%s", "rustc": "%s"},\n' \
            "$(nproc)" "$(esc "${cpu:-$(uname -m)}")" "$(esc "$(rustc --version)")"
        printf '  "command": "%s",\n  "results": {\n' "$(esc "$cmd")"
        # Each workload's result line follows its `# result NAME` line.
        awk '/^# result / { name = $3; next }
             name != "" && /^\{/ { printf "%s    \"%s\": %s", sep, name, $0; sep = ",\n"; name = "" }
             END { if (sep != "") print "" }' "$tmp/bench.log"
        printf '  }\n}\n'
    } > "$out"
    rm -rf "$tmp"
    tmp=
    echo "wrote $out ($status)"
    [ "$status" = ok ]
}

failed=0
for pair in $pairs; do
    point "${pair%%:*}" "${pair#*:}" || failed=1
done
exit $failed
