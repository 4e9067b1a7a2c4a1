import importlib
import os
import shutil
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


def test_mutants_lists_candidates_and_mutates_only_a_copy(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    mutants = importlib.import_module("mutants")
    found = mutants.candidates()
    assert {m.path.parent for m in found} == {Path("src/tcja_snn")} and len(found) > 500
    # The class-size floor of `split_train_test`: `< 10` becomes `<= 10`.
    (floor,) = [m for m in found if m.path.name == "data.py" and m.old == "<"
                and "len(members) < 10" in (ROOT / m.path).read_text().splitlines()[m.line - 1]]
    original = (ROOT / floor.path).read_bytes()
    copy = tmp_path / "repo"
    shutil.copytree(ROOT / "src", copy / "src")
    mutants.apply(floor, copy)
    mutated = (copy / floor.path).read_bytes()
    assert (ROOT / floor.path).read_bytes() == original
    assert mutated == original[:floor.start] + b"<=" + original[floor.end:]
    assert b"len(members) <= 10" in mutated
