import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tcja_snn.attention import TcjaConfig
from tcja_snn.cli import RunConfig
from tcja_snn.network import PRESETS, analytic_param_count, parse_arch

ROOT = Path(__file__).resolve().parents[1]


def test_attention_ablation_prints_three_variants():
    # Zero epochs: the script trains all three networks for no epoch and prints its table.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "scripts/attention_ablation.py", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("variant    params   best_acc\n", 1)[1].splitlines()
    assert [row.split()[0] for row in table] == ["none", "multiply", "add"]
    defaults = RunConfig()
    dims = (2, defaults.data.synthetic.height, defaults.data.synthetic.width)
    variants = {"none": ("16C3-LIF-MP2-16C3-LIF-MP2-64FC-LIF-Voting", "multiply"),
                "multiply": (PRESETS["desk"], "multiply"), "add": (PRESETS["desk"], "add")}
    for row in table:
        name, params, _ = row.split()
        arch_text, fusion = variants[name]
        arch = parse_arch(arch_text, input_dims=dims, time_steps=defaults.time_steps)
        want = analytic_param_count(arch, defaults.num_classes, TcjaConfig(fusion=fusion))
        assert int(params) == want


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
