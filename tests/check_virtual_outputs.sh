#!/bin/sh
# Byte-identity check of the simulator's virtual-time outputs.
#
# Runs the Figure 7 and Figure 4 benches at a fixed configuration with
# --trace, and the tiled Cholesky bench (plain, and with --flow for the
# DAG-only lineage run at 16 tiles), and compares the SHA-256 of their
# stdout and Chrome trace files against tests/virtual_outputs.sha256.
# The steal protocols other than the default locked one are pinned too:
# Figure 7 again under SCIOTO_QUEUE=aborting and =lockfree, and the
# chunk ablation with trylock-abort steals (which covers steal-half).
# The metrics plane is pinned as well: Figure 4's latency-percentile JSON,
# the Cholesky DAG's Prometheus dump, and a UTS run under an injected rank
# kill with metrics, lineage and tracing all armed (recovery, lineage,
# retries and the split-queue steal path in one run).
# Trace and metrics file names are fixed because stdout echoes them.
# Host-side changes (SHA-1, fiber switch, allocator, tile kernels, ...)
# must leave every byte of these files unchanged;
# only a deliberate cost-model or scheduling change may re-record them:
#
#   tests/check_virtual_outputs.sh build            # check
#   tests/check_virtual_outputs.sh build --record   # rewrite the digests
#
# The digests were recorded from a Release build (gcc, x86-64 glibc),
# which is what CI checks them against.
set -eu

build=$(cd "${1:-build}" && pwd)
here=$(cd "$(dirname "$0")" && pwd)
digests="$here/virtual_outputs.sha256"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cd "$out"
"$build/bench/bench_fig7_uts_cluster" --scale 9 --max-procs 32 \
  --trace=fig7.trace.json > fig7.stdout
"$build/bench/bench_fig4_termination" --trials 3 --max-procs 64 \
  --trace=fig4.trace.json > fig4.stdout
"$build/bench/bench_cholesky" --procs 8 --tile 16 --max-tiles 8 \
  > cholesky.stdout
"$build/bench/bench_cholesky" --procs 8 --tile 16 --max-tiles 16 --flow \
  > cholesky_flow.stdout
SCIOTO_QUEUE=aborting "$build/bench/bench_fig7_uts_cluster" --scale 9 \
  --max-procs 32 --trace=fig7_aborting.trace.json > fig7_aborting.stdout
SCIOTO_QUEUE=lockfree "$build/bench/bench_fig7_uts_cluster" --scale 9 \
  --max-procs 32 --trace=fig7_lockfree.trace.json > fig7_lockfree.stdout
"$build/bench/bench_ablation_chunk" --aborting --scale 9 \
  > chunk_aborting.stdout
"$build/bench/bench_fig4_termination" --trials 3 --max-procs 64 \
  --metrics-json=fig4.metrics.json > /dev/null
SCIOTO_METRICS=1 SCIOTO_METRICS_PROM=cholesky.prom \
  "$build/bench/bench_cholesky" --procs 8 --tile 16 --max-tiles 8 > /dev/null
SCIOTO_METRICS=1 SCIOTO_METRICS_PROM=uts_ft.prom SCIOTO_LINEAGE=1 \
  SCIOTO_TRACE_OUT=uts_ft.trace.json SCIOTO_FAULT_PLAN="kill:rank=1,at=2ms" \
  "$build/examples/uts_demo" --ranks 8 > uts_ft.stdout 2> /dev/null

if [ "${2:-}" = "--record" ]; then
  sha256sum fig7.stdout fig7.trace.json fig4.stdout fig4.trace.json \
    cholesky.stdout cholesky_flow.stdout fig7_aborting.stdout \
    fig7_aborting.trace.json fig7_lockfree.stdout fig7_lockfree.trace.json \
    chunk_aborting.stdout fig4.metrics.json cholesky.prom uts_ft.stdout \
    uts_ft.prom uts_ft.trace.json > "$digests"
  echo "recorded $digests"
else
  sha256sum -c "$digests"
fi
