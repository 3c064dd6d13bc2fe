#!/usr/bin/env bash
# Counts the fused multiply-add instructions (FMADD, FMSUB, FNMADD,
# FNMSUB) that the arm64 compiler emits in each function of the module,
# in the gs3bench and gs3sim binaries, and compares the counts with the
# checked-in table scripts/fma-arm64.txt.
#
# Usage: scripts/fma.sh [check|generate]    (or: make fma-check)
#
# The Go spec lets a compiler fuse x*y + z into one instruction that
# rounds once where a multiply and an add round twice. The amd64
# compiler never fuses; the arm64 one does, so every fused instruction
# is a place where the two architectures may compute different bits.
# check exits non-zero on any difference from the table: a function that
# gained a fused instruction, or lost one, which generate then writes
# into the table, so the table only ever goes down on purpose.
#
# Both binaries are cross-compiled (GOARCH=arm64), which needs neither
# an arm64 host nor the network, into a temporary directory removed on
# exit. Each table line is: binary function count.
set -euo pipefail

mode="${1:-check}"
root="$(cd "$(dirname "$0")/.." && pwd)"
table="$root/scripts/fma-arm64.txt"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cd "$root"
for bin in gs3bench gs3sim; do
    GOOS=linux GOARCH=arm64 CGO_ENABLED=0 GOFLAGS= GOPROXY=off \
        go build -o "$tmp/$bin" "./cmd/$bin"
    # A TEXT line opens each function; only the module's packages and
    # the binary's own main package count.
    go tool objdump "$tmp/$bin" | awk -v bin="$bin" '
        /^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
        /\t(FMADD|FMSUB|FNMADD|FNMSUB)[DS] / { if (fn ~ /^(gs3[\/.]|main\.)/) n[fn]++ }
        END { for (f in n) print bin, f, n[f] }'
done | LC_ALL=C sort > "$tmp/counts"

case "$mode" in
generate)
    cp "$tmp/counts" "$table"
    awk '{ n += $3 } END { printf "fma: wrote %d fused instructions in %d functions\n", n, NR }' "$table"
    ;;
check)
    awk '
        NR == FNR { want[$1 " " $2] = $3; next }
        { got[$1 " " $2] = $3; n += $3; fns++ }
        END {
            for (k in got)
                if (got[k] > want[k]) {
                    printf "fma: %s: %d fused instructions, the table allows %d\n", k, got[k], want[k]
                    bad = 1
                }
            for (k in want)
                if (want[k] > got[k]) {
                    printf "fma: %s: %d fused instructions, the table has %d: lower it with scripts/fma.sh generate\n", k, got[k], want[k]
                    bad = 1
                }
            if (bad) exit 1
            printf "fma: %d fused instructions in %d functions, as the table has them\n", n, fns
        }' "$table" "$tmp/counts" | LC_ALL=C sort
    ;;
*)
    echo "usage: $0 [check|generate]" >&2
    exit 2
    ;;
esac
