#!/usr/bin/env bash
# CI smoke: every workload for 2 s with all correctness checks on (one
# set-up each), then the deliberately broken expectation, which must
# fail. About 30 s after the build; share_cold's preload is a third of it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/segbench"

"$bin" --seconds 2 --setups 1 | grep -E '^(==|attempted)'

if "$bin" --workload bulk_1m --seconds 1 --setups 1 --flip-expected >/dev/null 2>&1; then
    echo "smoke: a flipped expected body did not fail the run" >&2
    exit 1
fi
echo "smoke: ok (and a flipped expectation exits non-zero, as it must)"
