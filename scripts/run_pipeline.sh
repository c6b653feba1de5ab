#!/usr/bin/env bash
# Full study on a synthetic task, driven entirely through the CLI:
# generate data, pretrain a shared initialization, run a random-search
# fine-tuning sweep, build every soup/ensemble variant, and emit all
# analysis artifacts (curves, plane, grid study, calibration, report).
#
# Usage: scripts/run_pipeline.sh [output-dir]        (default runs/pipeline)
set -euo pipefail

OUT="${1:-runs/pipeline}"
# Sweeps always run serially and SOUPKIT_THREADS changes nothing in them
# (README, "Determinism and threading"); perfbench/run.py pins the same 0.
export SOUPKIT_THREADS="${SOUPKIT_THREADS:-0}"
mkdir -p "$OUT"

CONFIG="$OUT/config.json"
cat > "$CONFIG" <<'JSON'
{
  "dataset": {
    "input_dim": 10,
    "num_classes": 5,
    "num_train": 320,
    "num_val": 192,
    "num_test": 160,
    "num_shift": 160,
    "class_center_scale": 0.7,
    "within_class_std": 1.0,
    "seed": 7
  },
  "arch": {"layer_widths": [10, 16, 5]},
  "pretrain": {
    "learning_rate": 0.01,
    "weight_decay": 0.0001,
    "epochs": 3,
    "batch_size": 64,
    "seed": 11
  },
  "sweep": {
    "count": 8,
    "master_seed": 500,
    "space": {
      "lr_exponent_range": [1.9, 2.9],
      "wd_exponent_range": [2.0, 4.0],
      "smoothing_max": 0.2,
      "epochs_range": [4, 10],
      "mixup_max": 0.4
    }
  }
}
JSON

run() { echo "+ soupkit $*"; soupkit "$@"; }

DATA="$OUT/data"
SWEEP="$OUT/sweep"
MANIFEST="$SWEEP/manifest.json"

run datagen  --config "$CONFIG" --out "$DATA"
run pretrain --config "$CONFIG" --data "$DATA" --out "$OUT/theta0.ckpt"
run sweep    --config "$CONFIG" --data "$DATA" --base "$OUT/theta0.ckpt" --out "$SWEEP"

run soup uniform --manifest "$MANIFEST" --out "$OUT/soup_uniform.ckpt"
run soup greedy  --manifest "$MANIFEST" --data "$DATA" --out "$OUT/soup_greedy.ckpt"
run soup learned --manifest "$MANIFEST" --data "$DATA" --by-layer --out "$OUT/soup_learned.ckpt"

run ensemble uniform --manifest "$MANIFEST" --data "$DATA" --out "$OUT/ensemble_uniform.json"
run ensemble greedy  --manifest "$MANIFEST" --data "$DATA" --out "$OUT/ensemble_greedy.json"

for ckpt in soup_uniform soup_greedy soup_learned; do
  run eval --ckpt "$OUT/$ckpt.ckpt" --data "$DATA" --split test --out "$OUT/eval_$ckpt.json"
done
run eval --ckpt "$SWEEP/model_000.ckpt" --data "$DATA" --split test --out "$OUT/eval_model_000.json"

run interp --ckpt-a "$SWEEP/model_000.ckpt" --ckpt-b "$SWEEP/model_001.ckpt" \
  --data "$DATA" --splits val,test --out "$OUT/interp_model0_model1.csv"
run plane --ckpt-a "$OUT/theta0.ckpt" --ckpt-b "$SWEEP/model_000.ckpt" \
  --ckpt-c "$SWEEP/model_001.ckpt" --data "$DATA" --split test \
  --x-range=-0.25:1.25:13 --y-range=-0.25:1.25:13 --out "$OUT/plane.csv"
run grid-study --manifest "$MANIFEST" --data "$DATA" --split test --out "$OUT/grid_study.csv"

run calibrate --manifest "$MANIFEST" --data "$DATA" --out "$OUT/calibration_ensemble.csv"
run calibrate --ckpt "$OUT/soup_greedy.ckpt" --data "$DATA" --out "$OUT/calibration_soup.csv"

run report --manifest "$MANIFEST" \
  --soup "$OUT/soup_uniform.ckpt.soup.json" \
  --soup "$OUT/soup_greedy.ckpt.soup.json" \
  --soup "$OUT/soup_learned.ckpt.soup.json" \
  --eval-report "$OUT/eval_soup_greedy.json" \
  --eval-report "$OUT/eval_model_000.json" \
  --out "$OUT/report.json"

echo
echo "artifacts in $OUT:"
ls -1 "$OUT"
