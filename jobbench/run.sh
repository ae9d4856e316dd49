#!/usr/bin/env bash
# Builds the benchmark and the `ampc-serve` binary it drives, then runs one
# benchmark run. Run from the repository root:
#
#   bash jobbench/run.sh --workload forest-seq --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The service crate's build script watches .git/HEAD, so outside a git
# checkout cargo rebuilds the service and everything above it on every
# call. The builds are skipped instead while the sources hash as they did
# after the last successful build.
sources=$(find Cargo.toml Cargo.lock src crates bench examples tests jobbench \
  -path jobbench/target -prune -o -type f -print | LC_ALL=C sort | xargs -d '\n' sha256sum | sha256sum)
stamp="$target/jobbench.sources"
if [[ ! -x "$target/release/jobbench" || ! -x "$target/release/ampc-serve" \
  || "$(cat "$stamp" 2>/dev/null)" != "$sources" ]]; then
  rm -f "$stamp"
  cargo build --release --offline --quiet --bin ampc-serve >&2
  cargo build --release --offline --quiet --manifest-path jobbench/Cargo.toml >&2
  echo "$sources" >"$stamp"
fi
exec "$target/release/jobbench" --serve-bin "$target/release/ampc-serve" "$@"
