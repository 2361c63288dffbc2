#!/usr/bin/env bash
# Flat gprof profile of each benchmark workload.
#
# Builds the benchmark binary (and the cepshed library it compiles from
# ../src) with -pg into .bench_build/perfbench-pg, runs the traced run of
# every workload once, and writes one flat profile per workload to
# .bench_out/gprof/<workload>.txt. Run from the repository root:
#
#   bash perfbench/gprof.sh [SEED]
#
# The traced run is used because it runs all of its passes in one process;
# the end-to-end run gives each pass a forked process of its own, whose
# profile would be lost.
#
# gprof samples with a process-wide profiling timer, so worker-thread time
# is attributed to the functions running on whichever thread took each tick;
# -pg instrumentation adds mcount overhead to every call, so read shares of
# self time, not absolute times.
set -euo pipefail

seed="${1:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build/perfbench-pg"
out="${root}/.bench_out/gprof"

cmake -S "${root}/perfbench" -B "${build}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "${build}" -j3 --target perfbench_e2e >&2
mkdir -p "${out}"
for w in ds1_q1_ingest ds1_q2_kleene ds1_q1_hybrid; do
  rm -f "${out}/gmon.out"
  (cd "${out}" && "${build}/perfbench_e2e" --workload "${w}" --seed "${seed}" \
     --seconds 1 --trace 1 --out-dir "${out}" > "${w}.result.txt")
  gprof -b -p "${build}/perfbench_e2e" "${out}/gmon.out" > "${out}/${w}.txt"
  echo "${out}/${w}.txt"
  head -n 15 "${out}/${w}.txt"
done
