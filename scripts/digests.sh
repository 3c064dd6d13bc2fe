#!/usr/bin/env bash
# Shows that a change simulates exactly what a git revision simulates:
# builds the benchmark (perfbench/run.sh) once from REV and once from
# the working tree, runs the configure, maintain and traffic workloads
# at seeds 1-3 on both, and prints the two digests of every run. The
# digest hashes each run's simulated outputs, so equal digests mean the
# same simulation. Exits non-zero on any mismatch or failed run.
#
# Usage: scripts/digests.sh REV        (or: make digest-diff REV=<rev>)
#
# Each workload runs its minimum three repetitions (--seconds 0), so the
# whole comparison takes minutes; it is not part of `make check`. REV is
# exported with `git archive`, which leaves the repository's .git
# untouched, and every build output goes to a temporary directory that
# is removed on exit. Nothing under perfbench/ changes.
set -euo pipefail

rev="${1:?usage: scripts/digests.sh REV}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

commit="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
mkdir "$tmp/base"
git -C "$root" archive "$commit" | tar -x -C "$tmp/base"

# digest TREE SIDE WORKLOAD SEED prints the run's digest, building the
# benchmark from TREE into its own target directory on first use.
digest() {
    local out
    out="$(cd "$1" && CARGO_TARGET_DIR="$tmp/build-$2" \
        bash perfbench/run.sh --workload "$3" --seed "$4" --seconds 0 --trace 0)" || {
        echo "digests: $2 $3 seed $4 failed" >&2
        return 1
    }
    sed -n 's/^digest \([0-9a-f]\{16\}\) .*/\1/p' <<<"$out"
}

status=0
printf '%-10s %4s  %-16s  %-16s\n' workload seed "${rev:0:16}" "working tree"
for w in configure maintain traffic; do
    for seed in 1 2 3; do
        base="$(digest "$tmp/base" base "$w" "$seed")" || base=failed
        work="$(digest "$root" work "$w" "$seed")" || work=failed
        mark=""
        if [ -z "$base" ] || [ "$base" = failed ] || [ "$base" != "$work" ]; then
            mark="  MISMATCH"
            status=1
        fi
        printf '%-10s %4s  %-16s  %-16s%s\n' "$w" "$seed" "$base" "$work" "$mark"
    done
done
if [ "$status" -ne 0 ]; then
    echo "digests: the working tree does not simulate what $rev simulates" >&2
fi
exit "$status"
