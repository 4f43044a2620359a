#!/usr/bin/env bash
# Determinism check for the parallel bench harness (bench::SweepRunner): a
# bench binary run with 4 workers must produce byte-identical stdout and
# byte-identical PLATINUM_JSON_DIR tables to a forced single-thread run.
# Usage: bench_sweep_check.sh <bench-binary> [more binaries...]
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <bench-binary> [more binaries...]" >&2
  exit 2
fi

# CI-size workloads so the check stays fast.
export PLATINUM_GAUSS_N="${PLATINUM_GAUSS_N:-48}"
export PLATINUM_SORT_COUNT="${PLATINUM_SORT_COUNT:-4096}"
export PLATINUM_NEURAL_EPOCHS="${PLATINUM_NEURAL_EPOCHS:-2}"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

for binary in "$@"; do
  name="$(basename "${binary}")"
  mkdir -p "${workdir}/${name}/serial" "${workdir}/${name}/parallel"

  PLATINUM_BENCH_WORKERS=1 PLATINUM_JSON_DIR="${workdir}/${name}/serial" \
    "${binary}" > "${workdir}/${name}/serial.out"
  PLATINUM_BENCH_WORKERS=4 PLATINUM_JSON_DIR="${workdir}/${name}/parallel" \
    "${binary}" > "${workdir}/${name}/parallel.out"

  # Table/series JSON paths appear in stdout and differ by directory; compare
  # everything else byte for byte.
  sed "s#${workdir}/${name}/serial#JSON_DIR#" "${workdir}/${name}/serial.out" \
    > "${workdir}/${name}/serial.norm"
  sed "s#${workdir}/${name}/parallel#JSON_DIR#" "${workdir}/${name}/parallel.out" \
    > "${workdir}/${name}/parallel.norm"
  if ! diff -u "${workdir}/${name}/serial.norm" "${workdir}/${name}/parallel.norm"; then
    echo "FAIL: ${name}: stdout differs between 1 and 4 workers" >&2
    exit 1
  fi
  if ! diff -ru "${workdir}/${name}/serial" "${workdir}/${name}/parallel"; then
    echo "FAIL: ${name}: JSON tables differ between 1 and 4 workers" >&2
    exit 1
  fi
  echo "OK: ${name} is byte-identical with 1 and 4 workers"
done
