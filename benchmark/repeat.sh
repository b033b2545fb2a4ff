#!/usr/bin/env bash
# Runs the full benchmark twice on one build - untraced for the end-to-end
# metrics, traced for the exact counts - and compares the two sets.
#   ok          gap within the metric's bound
#   FAIL        gap beyond the bound, an exact count differs, or an op failed
#   unresolved  the workload was flagged noisy (calibration drift > 10 %)
# Exits non-zero on any FAIL. SECONDS_PER_RUN (default 12) sets the window.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/segbench"
out="$here/out"
mkdir -p "$out"
secs="${SECONDS_PER_RUN:-12}"

status=0
for i in 1 2; do
    rm -f "$out/repeat-$i.tsv"
    "$bin" --seconds "$secs" --seed 1 --tsv "$out/repeat-$i.tsv" >"$out/repeat-$i.log" || status=1
    "$bin" --trace 1 --seed 1 --tsv "$out/repeat-$i.tsv" >>"$out/repeat-$i.log" || status=1
done

# TSV columns: workload metric value unit better bound ("exact" marks a
# count that must repeat, "-" a metric that is reported only).
awk -F'\t' -v status="$status" '
FNR == NR { first[$1 FS $2] = $3; next }
{
    key = $1 FS $2
    if (!(key in first)) next
    a = first[key]; b = $3
    if ($2 ~ /noisy$/) { if (a + b > 0) noisy[$1] = 1; next }
    rows[++n] = key; va[n] = a; vb[n] = b; unit[n] = $4; bound[n] = $6
}
END {
    printf "%-12s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "run 1", "run 2", "gap", "bound", "verdict"
    for (i = 1; i <= n; i++) {
        split(rows[i], k, FS)
        gap = (va[i] != 0) ? (vb[i] - va[i]) / va[i] : (vb[i] != 0)
        mag = gap < 0 ? -gap : gap
        if (k[2] ~ /failed$/) {
            verdict = (va[i] + vb[i] == 0) ? "ok" : "FAIL"
        } else if (bound[i] == "-") {
            continue
        } else if (bound[i] == "exact") {
            verdict = (va[i] == vb[i]) ? "ok" : "FAIL"
        } else if (mag > bound[i]) {
            verdict = "FAIL"
        } else {
            verdict = "ok"
        }
        if (verdict == "ok" && (k[1] in noisy)) verdict = "unresolved"
        if (verdict == "FAIL") status = 1
        printf "%-12s %-34s %14.6g %14.6g %+8.2f%% %7s  %s\n", k[1], k[2], va[i], vb[i], gap * 100, bound[i], verdict
    }
    exit status
}' "$out/repeat-1.tsv" "$out/repeat-2.tsv"
