#!/usr/bin/env sh
# Replays the archived experiment scenarios and either regenerates the
# golden stdout files (generate) or diffs fresh output against them
# (diff). The golden set covers zero-fault and chaos runs, serial and
# parallel trial fan-out, healing, mobility, and the gs3bench tables —
# the determinism contract every perf PR must preserve byte-for-byte.
#
# Usage: scripts/goldens.sh generate|diff
set -eu

mode="${1:-diff}"
root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/testdata/goldens"
bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT

cd "$root"
go build -o "$bindir/gs3sim" ./cmd/gs3sim
go build -o "$bindir/gs3bench" ./cmd/gs3bench

case "$mode" in
generate) outdir="$golden"; mkdir -p "$outdir" ;;
diff) outdir="$bindir/out"; mkdir -p "$outdir" ;;
*) echo "usage: $0 generate|diff" >&2; exit 2 ;;
esac

# name command... — stdout is the golden; stderr (timing) is discarded.
run() {
    name="$1"
    shift
    echo "golden: $name" >&2
    "$@" >"$outdir/$name.txt" 2>/dev/null
}

run sweep_seed3 "$bindir/gs3sim" -region 300 -sweeps 30 -seed 3
run heal_seed1 "$bindir/gs3sim" -region 400 -kill-disk 150,80,120 -sweeps 40 -seed 1
run trials_par "$bindir/gs3sim" -region 300 -trials 4 -sweeps 20 -seed 5
run trials_seq "$bindir/gs3sim" -region 300 -trials 4 -sweeps 20 -seed 5 -parallel 1
run chaos_seed7 "$bindir/gs3sim" -region 300 -loss 0.2 -blackout-rate 0.02 \
    -blackout-sweeps 3 -chaos -sweeps 120 -seed 7
run faults_jitter_seed9 "$bindir/gs3sim" -region 300 -loss 0.15 -dup 0.05 \
    -jitter 0.2 -sweeps 40 -seed 9
run mobile_seed2 "$bindir/gs3sim" -region 250 -mobile -sweeps 40 -seed 2
run traffic_settled_seed3 "$bindir/gs3sim" -region 300 -r 50 -sweeps 15 \
    -packets 10000 -traffic-rate 500 -p2p 0.3 -seed 3
run traffic_chaos_seed4 "$bindir/gs3sim" -region 300 -r 50 -sweeps 15 \
    -packets 10000 -traffic-rate 500 -p2p 0.3 -loss 0.1 -blackout-rate 0.01 \
    -blackout-sweeps 3 -churn 20 -seed 4
run bench_quick_par "$bindir/gs3bench" -quick -seed 7 -exp A2,T3
run bench_quick_seq "$bindir/gs3bench" -quick -seed 7 -exp A2,T3 -parallel 1
run disaster_seed6 "$bindir/gs3sim" -region 300 -disaster 150,80,90 \
    -disaster-at 4 -sweeps 30 -seed 6
run obstacle_seed8 "$bindir/gs3sim" -region 300 \
    -obstacle "120,-80,160,-80,160,80,120,80" -sweeps 30 -seed 8

if [ "$mode" = diff ]; then
    status=0
    for f in "$golden"/*.txt; do
        name="$(basename "$f")"
        if ! diff -u "$f" "$outdir/$name" >&2; then
            echo "golden-diff: $name DIFFERS" >&2
            status=1
        fi
    done
    [ "$status" -eq 0 ] && echo "golden-diff: all $(ls "$golden" | wc -l) scenarios byte-identical" >&2
    exit "$status"
fi
echo "goldens: regenerated into $golden" >&2
