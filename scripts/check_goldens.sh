#!/usr/bin/env bash
# Diff every report and DOT golden in tests/golden against what a hypergames
# command writes, and check that verify on the running example exits with 2.
#
# Usage: scripts/check_goldens.sh CMD...
#   scripts/check_goldens.sh hypergames                              # installed console script
#   PYTHONPATH=src scripts/check_goldens.sh python -m hypergames.cli  # source tree
#
# Runs from the repository root, so relative paths in the environment (such as
# PYTHONPATH=src) are read from there.  Exits non-zero at the first difference.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 CMD..." >&2
  exit 64
fi
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
example=scenarios/running_example.json
golden=tests/golden

"$@" "$example" --mode simulate --trials 200 > "$out/simulate.json"
diff "$golden/running_example_simulate.json" "$out/simulate.json"
"$@" "$example" --mode simulate --trials 200 --cap 5 > "$out/simulate-cap5.json"
diff "$golden/running_example_cap5_simulate.json" "$out/simulate-cap5.json"
corridor=$golden/generated_corridor.json
"$@" "$corridor" --mode simulate --trials 200 > "$out/corridor-simulate.json"
diff "$golden/generated_corridor_simulate.json" "$out/corridor-simulate.json"
"$@" "$corridor" --mode simulate --trials 200 --cap 197 > "$out/corridor-simulate-cap197.json"
diff "$golden/generated_corridor_cap197_simulate.json" "$out/corridor-simulate-cap197.json"
for mode in sure asw perceptual; do
  "$@" "$example" --mode "$mode" > "$out/$mode.json"
  diff "$golden/running_example_$mode.json" "$out/$mode.json"
done
"$@" "$example" --mode perceptual --dot "$out/arena.dot" > /dev/null
diff "$golden/running_example_arena.dot" "$out/arena.dot"
"$@" "$example" --mode asw --dot "$out/stochastic.dot" > /dev/null
diff "$golden/running_example_stochastic.dot" "$out/stochastic.dot"
"$@" "$example" --mode sure --dot "$out/sure.dot" > /dev/null
diff "$golden/running_example_sure.dot" "$out/sure.dot"
status=0
"$@" "$example" --mode verify > "$out/verify.json" || status=$?
if [ "$status" -ne 2 ]; then
  echo "verify exited with $status, expected 2" >&2
  exit 1
fi
diff "$golden/running_example_verify.json" "$out/verify.json"
for ids in int str; do
  for mode in sure asw perceptual; do
    "$@" "$golden/generated_${ids}_ids.json" --mode "$mode" > "$out/generated-$ids-$mode.json"
    diff "$golden/generated_${ids}_ids_$mode.json" "$out/generated-$ids-$mode.json"
  done
done
echo "every golden matches"
