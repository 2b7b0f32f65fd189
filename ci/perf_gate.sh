#!/usr/bin/env bash
# Perf gate: the serving-stack benchmark on the merge base and on HEAD in
# alternating full-length pairs, judged by `benchmark compare`.
#
#   ci/perf_gate.sh BASE_REV
#
# Run it from anywhere inside the repository. It exports the merge base
# of BASE_REV and HEAD, and HEAD itself (committed files only), into two
# checkout roots under target/perf-gate/, builds each side's `benchmark`
# binary into its own target dir, and runs PAIRS full `benchmark run`
# pairs at SEED, alternating which side runs first. Each side runs from
# its own checkout root. Each side's run files are merged in run order
# into one `{"smoke": false, "records": [...]}` file, and
# `benchmark compare` (run from HEAD's root, so HEAD's BENCHMARK.json
# sets the bounds) decides. The script exits non-zero when compare finds
# a regression, or when anything fails to build or run.
#
# Both sides are built at one path, src/, each from its own root so its
# own Cargo configuration applies, and then moved aside. Cargo hashes a
# path dependency's location into its symbol names, so the same sources
# built at two paths give two different binaries, and a change that
# touches nothing the benchmark runs would still compare two layouts.
# Built at one path, one commit gives byte-identical binaries.
#
# Host speed cancels out: no committed absolute baseline is read. When
# benchmark/ or BENCHMARK.json differ between the two commits, the sides
# would not run the same benchmark code, so the gate skips with a note.
set -euo pipefail

# Even, so each side runs first in half of the pairs.
readonly PAIRS=6
readonly SEED=42

base_rev=${1:?usage: ci/perf_gate.sh BASE_REV}
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$base_rev" HEAD)
head=$(git rev-parse HEAD)

if ! git diff --quiet "$base" "$head" -- benchmark BENCHMARK.json; then
    echo "perf gate skipped: benchmark/ or BENCHMARK.json differ between ${base:0:12} and ${head:0:12}," \
        "so the two sides would not run identical benchmark code"
    exit 0
fi

work="$root/target/perf-gate"
rm -rf "$work/src" "$work/base" "$work/head" "$work/runs"
mkdir -p "$work/runs"
for side in base head; do
    mkdir "$work/src"
    git archive "${!side}" | tar -x -C "$work/src"
    (cd "$work/src" && CARGO_TARGET_DIR="$work/target-$side" cargo build --release --locked \
        --quiet --manifest-path benchmark/Cargo.toml --bin benchmark)
    mv "$work/src" "$work/$side"
done
echo "perf gate: base ${base:0:12}, head ${head:0:12}, $PAIRS full pairs at seed $SEED"

run_side() {
    local side=$1 pair=$2
    echo "== pair $pair: $side =="
    rm -rf "$work/$side/target/benchmark"
    (cd "$work/$side" && "$work/target-$side/release/benchmark" run --seed "$SEED")
    mv "$work/$side"/target/benchmark/run-*.json "$work/runs/$side-$pair.json"
}

for pair in $(seq 1 "$PAIRS"); do
    if ((pair % 2)); then
        run_side base "$pair"
        run_side head "$pair"
    else
        run_side head "$pair"
        run_side base "$pair"
    fi
done

for side in base head; do
    files=()
    for pair in $(seq 1 "$PAIRS"); do
        files+=("$work/runs/$side-$pair.json")
    done
    jq -s '{smoke: false, records: [.[].records[]]}' "${files[@]}" >"$work/$side.json"
done

echo "== benchmark compare: base ${base:0:12} vs head ${head:0:12} =="
cd "$work/head"
"$work/target-head/release/benchmark" compare "$work/base.json" "$work/head.json"
