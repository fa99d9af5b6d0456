#!/bin/sh
# Records one point of the benchmark trajectory: runs the benchmark that
# BENCHMARK.json declares (bench/, all five workloads, default seed) on the
# files of one commit and writes BENCH_<pr>.json at the repository root,
# with the commit, the host's shape and the result line of each workload
# as the benchmark printed it.
#
#   scripts/bench_point.sh PR [COMMIT] [SECONDS]
#
# COMMIT defaults to HEAD and SECONDS (measured host seconds per workload,
# the benchmark's --seconds) to its default, 12. The commit's files are
# unpacked with `git archive` into a temporary directory and built there,
# in that directory's own target directory, so neither the working tree
# nor another build is used; the directory is removed on exit. Deterministic
# metrics repeat exactly for a commit; host-time ones (setup_s,
# threads_flip's wall-clock figures) depend on the host shape recorded
# beside them. If the benchmark fails, the file still records what it
# printed, and the script exits non-zero.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PR [COMMIT] [SECONDS]" >&2
    exit 2
fi
pr=$1
commit=${2:-HEAD}
seconds=${3:-12}
case $pr$seconds in *[!0-9]*) echo "PR and SECONDS are numbers" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$commit^{commit}")
out="$root/BENCH_$pr.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

git -C "$root" archive "$sha" | tar -x -C "$tmp"
[ -f "$tmp/bench/Cargo.toml" ] || { echo "$sha has no bench/" >&2; exit 1; }

cmd="cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --seconds $seconds"
status=ok
(cd "$tmp" && $cmd) > "$tmp/bench.log" 2>&1 || status="failed (exit $?)"

esc() { printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'; }
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
echo "wrote $out ($status)"
[ "$status" = ok ]
