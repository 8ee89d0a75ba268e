#!/usr/bin/env bash
# Build and run the end-to-end benchmark from the repository root.
#
#   benchmark/run.sh [--workload W|all] [--seed S] [--seconds N]
#                    [--trace 0|1 | --traced] [--smoke]
#
# The last line of standard output is the result object of the driver
# contract (one line per workload when several run); everything above it
# is the report by metric name, unit and clock. Artifacts land in
# benchmark/out/. Without the repository's crates/ next to benchmark/ the
# build, and so this script, fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Share the root workspace's target directory (same profile, so the
# dependency artifacts are reused) unless the caller chose one.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/spash-e2e" "$@"
