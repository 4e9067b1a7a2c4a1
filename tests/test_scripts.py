import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_attention_ablation_prints_three_variants():
    # Zero epochs: the script builds all three networks and prints its table.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "scripts/attention_ablation.py", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("variant    params   best_acc\n", 1)[1].splitlines()
    assert [row.split()[0] for row in table] == ["none", "multiply", "add"]
    assert all(int(row.split()[1]) > 0 for row in table)
