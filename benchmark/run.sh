#!/usr/bin/env bash
# Builds the benchmark offline and runs it; arguments go to the binary:
#   benchmark/run.sh run                      every workload, 3 rounds, result file
#   benchmark/run.sh run --trace 1            the per-layer set
#   benchmark/run.sh run --smoke              seconds instead of minutes; not comparable
#   benchmark/run.sh selfcheck                two sets of this build against the bounds
#   benchmark/run.sh compare A.json B.json
# See README.md beside this script.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "${@:-run}"
