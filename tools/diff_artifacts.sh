#!/usr/bin/env bash
# Byte-compare every CLI artifact of two checkouts on small worlds.
#
# Usage: tools/diff_artifacts.sh OLD_CHECKOUT NEW_CHECKOUT [SEED [synth flags...]]
#
# With a SEED, compares one world: that seed plus any extra synth flags.
# Without one, compares the four usual worlds in turn: seed 0; seed 3;
# seed 3 with --feature-noise 0.2 --sigma 0.3; seed 1 with --noise 0.4;
# then the three benchmark worlds of bench/run.py at seed 301: train-rank
# (--classes 10 --scenes-per-class 20), explain (--classes 10
# --scenes-per-class 30 --noise 0.4), both with bench's default
# --foils-per-scene 1, and foil (--classes 20 --scenes-per-class 30
# --foils-per-scene 2).
# On each world, with each checkout's src/ on PYTHONPATH, runs synth (6
# classes x 20 scenes, 2 foils per scene, plus the world's synth flags),
# rank training with --pairs-out and --report-out, rank training with
# --pair-sentences 3 and --pairs-out (several positives per scene), rank
# training as the explain benchmark workload sets it up
# (--pairs-per-scene 2 --epochs 20 --lr 0.1) with --report-out (a second
# learning rate on which skipped backward passes must carry the momentum
# bit for bit), binary training (batch 16, hidden 16) with --report-out,
# then rank, rank --error-rate 0, rank --error-rate 1 --candidates 30
# (every mention from the scene, then from the class prior),
# counterfactual, eval, eval --limit 5, foil, foil --split val --tau 0.5 (a
# given threshold on a second split), and foil --split train (tau tuned;
# the split with the most scenes, hence the most per-scene scoring
# batches). synth (every scene) and rank also write --emit-svg directories.
# Every artifact is compared with cmp and each SVG directory with diff -r,
# under a "world: ..." line naming the world; the exit status is non-zero
# if any command fails or any output differs on any world.
# The line counts of both checkouts are printed first: per module of
# src/phrasecritic ("-" where a checkout lacks it), then the total
# (cat src/phrasecritic/*.py | wc -l).
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 OLD_CHECKOUT NEW_CHECKOUT [SEED [synth flags...]]" >&2
    exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
shift 2

work=$(mktemp -d "${TMPDIR:-/tmp}/diff_artifacts.XXXXXX")
trap 'rm -rf "$work"' EXIT

ARTIFACTS="dataset pairs critic train_report pairs_ps3 critic_ps3
critic_lr01 train_report_lr01 foil_critic foil_train_report ranked ranked_err0 ranked_err1
counterfactuals metrics metrics_limit5 foil_report foil_report_val
foil_report_train"

build() {
    local src=$1/src out=$2 seed=$3
    shift 3
    local synth_flags=("$@")
    mkdir -p "$out"
    pc() { env -u PHRASECRITIC_OUTDIR PYTHONPATH="$src" \
               python3 -m phrasecritic.cli "$@" > /dev/null; }
    local ds=$out/dataset.json serve=(--model "$out/critic.json")
    pc synth --out "$ds" --seed "$seed" --classes 6 --scenes-per-class 20 \
        --foils-per-scene 2 --emit-svg "$out/synth_svg" --svg-limit 1000 \
        ${synth_flags[@]+"${synth_flags[@]}"}
    pc train --dataset "$ds" --objective rank --out "$out/critic.json" \
        --seed "$seed" --pairs-out "$out/pairs.json" \
        --report-out "$out/train_report.json"
    pc train --dataset "$ds" --objective rank --out "$out/critic_ps3.json" \
        --seed "$seed" --pair-sentences 3 --pairs-out "$out/pairs_ps3.json"
    pc train --dataset "$ds" --objective rank --out "$out/critic_lr01.json" \
        --seed "$seed" --pairs-per-scene 2 --epochs 20 --lr 0.1 \
        --report-out "$out/train_report_lr01.json"
    pc train --dataset "$ds" --objective binary \
        --out "$out/foil_critic.json" --seed "$seed" --batch-size 16 \
        --hidden-dim 16 --report-out "$out/foil_train_report.json"
    pc rank --dataset "$ds" "${serve[@]}" --seed "$seed" \
        --out "$out/ranked.json" --emit-svg "$out/rank_svg"
    pc rank --dataset "$ds" "${serve[@]}" --seed "$seed" --error-rate 0 \
        --out "$out/ranked_err0.json"
    pc rank --dataset "$ds" "${serve[@]}" --seed "$seed" --error-rate 1 \
        --candidates 30 --out "$out/ranked_err1.json"
    pc counterfactual --dataset "$ds" "${serve[@]}" --seed "$seed" \
        --out "$out/counterfactuals.json"
    pc eval --dataset "$ds" "${serve[@]}" --seed "$seed" \
        --out "$out/metrics.json"
    pc eval --dataset "$ds" "${serve[@]}" --seed "$seed" --limit 5 \
        --out "$out/metrics_limit5.json"
    pc foil --dataset "$ds" --model "$out/foil_critic.json" \
        --out "$out/foil_report.json"
    pc foil --dataset "$ds" --model "$out/foil_critic.json" --split val \
        --tau 0.5 --out "$out/foil_report_val.json"
    pc foil --dataset "$ds" --model "$out/foil_critic.json" --split train \
        --out "$out/foil_report_train.json"
}

src_lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo -; fi; }
modules=$(for f in "$old"/src/phrasecritic/*.py "$new"/src/phrasecritic/*.py
          do basename "$f"; done | sort -u)
printf 'lines   %6s %6s  module  (old %s, new %s)\n' old new "$old" "$new"
for module in $modules; do
    printf 'lines   %6s %6s  %s\n' \
        "$(src_lines "$old/src/phrasecritic/$module")" \
        "$(src_lines "$new/src/phrasecritic/$module")" "$module"
done
printf 'lines   %6s %6s  total\n' "$(cat "$old"/src/phrasecritic/*.py | wc -l)" \
    "$(cat "$new"/src/phrasecritic/*.py | wc -l)"

status=0
# compare SEED [synth flags...]: build one world in both checkouts and
# compare; a difference sets status, a failing command ends the script
compare() {
    local out=$work/world$((++worlds))
    echo "world: seed $*"
    build "$old" "$out/old" "$@"
    build "$new" "$out/new" "$@"
    local name
    for name in $ARTIFACTS; do
        if cmp -s "$out/old/$name.json" "$out/new/$name.json"; then
            echo "same    $name.json"
        else
            echo "DIFFERS $name.json"
            status=1
        fi
    done
    for name in synth_svg rank_svg; do
        if diff -rq "$out/old/$name" "$out/new/$name" > /dev/null; then
            echo "same    $name/"
        else
            echo "DIFFERS $name/"
            status=1
        fi
    done
}

worlds=0
if [ $# -gt 0 ]; then
    compare "$@"
else
    compare 0
    compare 3
    compare 3 --feature-noise 0.2 --sigma 0.3
    compare 1 --noise 0.4
    compare 301 --classes 10 --scenes-per-class 20 --foils-per-scene 1
    compare 301 --classes 10 --scenes-per-class 30 --noise 0.4 \
        --foils-per-scene 1
    compare 301 --classes 20 --scenes-per-class 30 --foils-per-scene 2
fi
exit $status
