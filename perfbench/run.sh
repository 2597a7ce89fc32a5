#!/usr/bin/env bash
# Builds the traj-serve daemon and the benchmark from source, then runs
# the benchmark against the daemon binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload tiny-cycle --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target).
set -euo pipefail

# One target directory for both builds: on its own the benchmark, a
# workspace of its own, would build into perfbench/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p traj-serve --bin traj-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --daemon "$target/release/traj-serve" "$@"
