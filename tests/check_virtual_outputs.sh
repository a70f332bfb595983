#!/bin/sh
# Byte-identity check of the simulator's virtual-time outputs.
#
# Runs the Figure 7 and Figure 4 benches at a fixed configuration with
# --trace and compares the SHA-256 of their stdout and Chrome trace files
# against tests/virtual_outputs.sha256. Host-side changes (SHA-1, fiber
# switch, allocator, ...) must leave every byte of these files unchanged;
# only a deliberate cost-model or scheduling change may re-record them:
#
#   tests/check_virtual_outputs.sh build            # check
#   tests/check_virtual_outputs.sh build --record   # rewrite the digests
#
# The digests were recorded from a Release build (gcc, x86-64 glibc) with
# the default SCIOTO_* gates, which is what CI checks them against.
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

if [ "${2:-}" = "--record" ]; then
  sha256sum fig7.stdout fig7.trace.json fig4.stdout fig4.trace.json \
    > "$digests"
  echo "recorded $digests"
else
  sha256sum -c "$digests"
fi
