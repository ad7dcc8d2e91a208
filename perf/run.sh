#!/usr/bin/env bash
# The repository benchmark: build the workspace's own vdm-node and this
# package's vdm-perf in release, then hand every argument to vdm-perf
# (see perf/README.md). Without arguments it runs every workload.
#
#   perf/run.sh                                                    = perf/run.sh all
#   perf/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
#   perf/run.sh all [--runs K] [--smoke]                           every workload
#   perf/run.sh compare A.jsonl B.jsonl                            two result files
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds; the driver names its own.
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
# Nothing in the benchmark is parallel; an ambient setting must not change that.
export RAYON_NUM_THREADS=1

# The daemon under test is the one the workspace ships: its manifest, its
# lock file, its profile. Cargo's own output goes to stderr; stdout
# carries only the results.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p vdm-node >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

[ $# -gt 0 ] || set -- all
exec "$CARGO_TARGET_DIR/release/vdm-perf" \
    --node-bin "$CARGO_TARGET_DIR/release/vdm-node" \
    --out-dir "$here/out" \
    "$@"
