#!/usr/bin/env python3
"""Attention ablation on the moving-bar task: none vs multiply vs add fusion.

Runs `tcja-snn train` on the default config three times, changing only the
arch and `tcja.fusion`, each into a temporary directory, then prints best
test accuracy and parameter counts. Takes a few minutes on one core.

Usage: python3 scripts/attention_ablation.py [epochs]
"""

import csv
import sys
import tempfile
from pathlib import Path

from tcja_snn.cli import main
from tcja_snn.network import PRESETS
from tcja_snn.training import load_checkpoint

epochs = sys.argv[1] if len(sys.argv) > 1 else "14"

variants = [
    ("none", PRESETS["desk"].replace("TCJA-", ""), "multiply"),
    ("multiply", PRESETS["desk"], "multiply"),
    ("add", PRESETS["desk"], "add"),
]

rows = []
for name, arch, fusion in variants:
    print(f"=== {name} ===")
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["train", "--arch", arch, "--tcja.fusion", fusion,
                     "--train.epochs", epochs, "--out_dir", tmp])
        if code != 0:
            raise SystemExit(code)
        with open(Path(tmp) / "metrics.csv", newline="") as fh:
            best = max((float(row["test_acc"]) for row in csv.DictReader(fh)), default=0.0)
        ckpt = load_checkpoint(Path(tmp) / "last.ckpt")
        params = sum(arr.size for key, arr in ckpt.records if key.startswith("param."))
    rows.append((name, params, best))

print("\nvariant    params   best_acc")
for name, params, acc in rows:
    print(f"{name:<9}  {params:>6}   {acc:.4f}")
