#!/usr/bin/env bash
# Cross-figure sharing never changes output: fig4 and fig9 share their
# ubench GpuOnly cells, so one batch simulates those once. Their joint
# stdout must be byte-identical at --jobs 1 and --jobs 4, and equal to
# each figure run on its own. ext_multi_accel and ext_qos_policies,
# whose cells run extra accelerators and a token-bucket base system,
# must print the same at --jobs 1 and --jobs 4 too. fig4+fig9 through
# a result cache must print the same bytes cold, warm, and from a
# cache filled by two shards, and the last two runs must execute
# nothing. Registered in ctest as hiss_repro_sharing (label repro).
set -euo pipefail

repro="$1"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$repro" fig4 fig9 --reps 1 --jobs 1 > "$out/joint1.txt"
"$repro" fig4 fig9 --reps 1 --jobs 4 > "$out/joint4.txt"
"$repro" fig4 --reps 1 > "$out/apart.txt"
"$repro" fig9 --reps 1 >> "$out/apart.txt"

"$repro" ext_multi_accel ext_qos_policies --jobs 1 > "$out/ext1.txt"
"$repro" ext_multi_accel ext_qos_policies --jobs 4 > "$out/ext4.txt"

cmp "$out/joint1.txt" "$out/joint4.txt"
cmp "$out/joint1.txt" "$out/apart.txt"
cmp "$out/ext1.txt" "$out/ext4.txt"

# Through the cache: cold, warm, then a cache filled by two shards.
cached() {
    "$repro" fig4 fig9 --reps 1 --jobs 4 --cache "$@"
}
cached "$out/cache" > "$out/cold.txt" 2> /dev/null
cached "$out/cache" > "$out/warm.txt" 2> "$out/warm.err"
cached "$out/sharded" --shard 0/2 > "$out/shard0.txt" 2> /dev/null
cached "$out/sharded" --shard 1/2 > "$out/shard1.txt" 2> /dev/null
cached "$out/sharded" > "$out/merged.txt" 2> "$out/merged.err"
cmp "$out/joint1.txt" "$out/cold.txt"
cmp "$out/joint1.txt" "$out/warm.txt"
cmp "$out/joint1.txt" "$out/merged.txt"
test ! -s "$out/shard0.txt"
test ! -s "$out/shard1.txt"
grep -q " 0 executed," "$out/warm.err"
grep -q " 0 executed," "$out/merged.err"
echo "hiss_repro: fig4+fig9 identical across --jobs, apart, and" \
    "through a cold, warm and sharded cache;" \
    "ext_multi_accel+ext_qos_policies identical across --jobs"
