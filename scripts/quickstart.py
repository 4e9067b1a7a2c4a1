#!/usr/bin/env python3
"""End-to-end smoke run: train on synthetic moving bars, eval, dump attention.

Every command runs the default config; training takes 8 epochs.

Usage: python3 scripts/quickstart.py [out_dir]
"""

import sys
from pathlib import Path

from tcja_snn.cli import main

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "runs/quickstart")
best = str(out_dir / "best.ckpt")

for argv in (
    ["train", "--out_dir", str(out_dir), "--train.epochs", "8"],
    ["eval", "--checkpoint", best],
    ["inspect-attention", "--checkpoint", best, "--out", str(out_dir / "attention")],
):
    code = main(argv)
    if code != 0:
        raise SystemExit(code)

print(f"\nquickstart artifacts in {out_dir}/")
