#!/usr/bin/env bash
# Same-window e2ebench A/B of two TriCluster checkouts:
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR [--seeds 1-10] [--seconds 20]
#                 [--workloads mine-deep,mine-wide,serve-open,serve-closed]
#                 [--out DIR] [--dry-run]
#
# For every (seed, workload) it runs
# `bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0` once
# inside each checkout, the parent (side A) first on odd seeds and the
# change (side B) first on even ones, with run documents going to OUT/A and
# OUT/B. Then it prints `e2ebench compare` of those documents, run from
# CHANGE_DIR. `--seeds` takes `N`, `N-M` or a comma list of them. OUT
# defaults to a new directory under ${TMPDIR:-/tmp}. `--dry-run` prints the
# plan and runs nothing.
#
# run.sh builds from the checkout it runs in, so give each side its own
# copy (`git archive REV | tar -x -C DIR`, not `git worktree`), and run
# nothing else meanwhile: ten seeds of all four workloads at 20 s take
# about half an hour.
set -euo pipefail

usage() {
    echo "usage:" >&2
    sed -n '4,6p' "$0" | sed 's/^#//' >&2
    exit 2
}

seeds="1-10"
seconds=20
workloads="mine-deep,mine-wide,serve-open,serve-closed"
out=""
dry=0
dirs=()
while (($#)); do
    case "$1" in
    --seeds | --seconds | --workloads | --out)
        (($# >= 2)) || usage
        case "$1" in
        --seeds) seeds=$2 ;;
        --seconds) seconds=$2 ;;
        --workloads) workloads=$2 ;;
        --out) out=$2 ;;
        esac
        shift 2
        ;;
    --dry-run) dry=1 && shift ;;
    -*) usage ;;
    *) dirs+=("$1") && shift ;;
    esac
done
((${#dirs[@]} == 2)) || usage
for d in "${dirs[@]}"; do
    if [[ ! -f "$d/e2ebench/run.sh" ]]; then
        echo "ab: $d is not a TriCluster checkout (no e2ebench/run.sh)" >&2
        exit 2
    fi
done
A=$(cd "${dirs[0]}" && pwd)
B=$(cd "${dirs[1]}" && pwd)
[[ $seconds =~ ^[0-9]+([.][0-9]+)?$ ]] || usage

seed_list=()
IFS=, read -ra parts <<<"$seeds"
for p in "${parts[@]}"; do
    if [[ $p =~ ^([0-9]+)-([0-9]+)$ ]]; then
        for ((s = BASH_REMATCH[1]; s <= BASH_REMATCH[2]; s++)); do seed_list+=("$s"); done
    elif [[ $p =~ ^[0-9]+$ ]]; then
        seed_list+=("$p")
    else
        usage
    fi
done
IFS=, read -ra wl_list <<<"$workloads"
((${#seed_list[@]} && ${#wl_list[@]})) || usage
[[ -n $out ]] || out="${TMPDIR:-/tmp}/tricluster-ab-$(date +%Y%m%d-%H%M%S)"
# run.sh runs inside each checkout, so it needs an absolute --out.
out=$(realpath -m "$out")

# Each checkout builds into its own .bench_build; a CARGO_TARGET_DIR shared
# by both sides would make each run rebuild over the other's binaries.
unset CARGO_TARGET_DIR

total=$((${#seed_list[@]} * ${#wl_list[@]} * 2))
echo "ab: A (parent) = $A"
echo "ab: B (change) = $B"
echo "ab: $total runs of ${seconds} s into $out"
step=0
docs_a=()
docs_b=()
for seed in "${seed_list[@]}"; do
    order="A B"
    ((seed % 2)) || order="B A"
    for wl in "${wl_list[@]}"; do
        docs_a+=("$out/A/$wl-seed$seed-timed.json")
        docs_b+=("$out/B/$wl-seed$seed-timed.json")
        for side in $order; do
            dir=$A
            [[ $side == B ]] && dir=$B
            step=$((step + 1))
            args=(--workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$side")
            echo "ab: [$step/$total] $side: bash e2ebench/run.sh ${args[*]}"
            if [[ $dry -eq 0 ]]; then
                (cd "$dir" && bash e2ebench/run.sh "${args[@]}")
            fi
        done
    done
done
if [[ $dry -eq 1 ]]; then
    echo "ab: compare: bash e2ebench/run.sh compare ${docs_a[*]} -- ${docs_b[*]}"
else
    echo "ab: compare: the ${#docs_a[@]} run documents of each side"
    cd "$B" && bash e2ebench/run.sh compare "${docs_a[@]}" -- "${docs_b[@]}"
fi
