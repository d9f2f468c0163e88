#!/usr/bin/env bash
# Builds the release `chop` CLI and perf_ledger from source into one
# target directory (perf_ledger starts the `chop` next to it), then runs
# perf_ledger with the given arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/perf_ledger/run.sh --workload cli_cold --seed 1991
#
# CARGO_TARGET_DIR defaults to the workspace's `target`.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p chop-cli
cargo build --release --quiet --offline --manifest-path crates/bench/src/bin/perf_ledger/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perf_ledger" "$@"
