#!/usr/bin/env bash
# Self-tests and a short smoke run of the end-to-end benchmark (perfbench).
#
# The self-tests check that the metric names perfbench prints are exactly
# the ones BENCHMARK.json declares. The smoke runs five seconds of the
# `incident` workload (attack, investigate, rollback, recover) and fails
# unless its JSON result line reports a correct run with no failed
# operations.
#
# Usage: scripts/perfbench_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo test -q --offline --manifest-path perfbench/Cargo.toml

RESULT="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload incident --seed 1 --seconds 5 --trace 0 | tail -n 1)"
echo "    ${RESULT:0:80}..."
grep -q '"correct":true' <<< "${RESULT}"
grep -q '"failed":0,' <<< "${RESULT}"
