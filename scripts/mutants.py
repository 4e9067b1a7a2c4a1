"""Mutation sampling: draw textual mutants of src/tcja_snn/*.py and run the
tests on each, to find lines whose breakage no test notices.

    python scripts/mutants.py --list                  # candidates per file
    python scripts/mutants.py --sample 120 --seed 7   # test 120 drawn mutants

Each mutant changes one spot of one file: a comparison swapped (< and <=,
> and >=, == and !=), + and -, * and /, // to /, an integer plus 1, a float
times 1.5, or `and` and `or`. Mutants are written into a temporary copy of
the repository, never into `src/`. A mutant is killed when `pytest -x`
fails (or runs past `--timeout`) in that copy, and survives when it passes.
Criterion 8, a long end-to-end training run, is left out for time.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/tcja_snn")
# What the tests do not need in the copy.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work",
                               "runs", "*.egg-info")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_8_end_to_end_desk_run"]

_COMPARE_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
                  ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_BINOP_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
                ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/")}
_BOOL_SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the repository root
    line: int
    start: int  # byte offsets into the file
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.old} -> {self.new}"


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based like ast's line numbers."""
    starts = [0, 0]
    for i, byte in enumerate(source):
        if byte == ord("\n"):
            starts.append(i + 1)
    return starts


def _token_between(source: bytes, lo: int, hi: int, token: str) -> tuple[int, int] | None:
    """Where `token` sits in the gap between two operands: only brackets,
    whitespace and line continuations may surround it."""
    gap = source[lo:hi].decode()
    at = gap.find(token)
    if at < 0 or (gap[:at] + gap[at + len(token):]).strip(" \t\r\n\\()"):
        return None
    return lo + len(gap[:at].encode()), lo + len(gap[:at + len(token)].encode())


def candidates_in(path: Path, root: Path = ROOT) -> list[Mutant]:
    """Every mutant of one file, in source order."""
    source = (root / path).read_bytes()
    starts = _offsets(source)
    tree = ast.parse(source)
    skip = {id(node) for joined in ast.walk(tree) if isinstance(joined, ast.JoinedStr)
            for node in ast.walk(joined)}  # f-string parts carry no reliable offsets

    def begin(node):
        return starts[node.lineno] + node.col_offset

    def finish(node):
        return starts[node.end_lineno] + node.end_col_offset

    found = []

    def between(left, right, op_type, table):
        old, new = table[op_type]
        span = _token_between(source, finish(left), begin(right), old)
        if span is not None:
            found.append(Mutant(path, left.end_lineno, *span, old, new))

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if type(op) in _COMPARE_SWAPS:
                    between(left, right, type(op), _COMPARE_SWAPS)
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOP_SWAPS:
            between(node.left, node.right, type(node.op), _BINOP_SWAPS)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                between(left, right, type(node.op), _BOOL_SWAPS)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            changed = node.value + 1 if type(node.value) is int else node.value * 1.5
            if changed != node.value:  # 0.0 times 1.5 is no mutant
                old = source[begin(node):finish(node)].decode()
                found.append(Mutant(path, node.lineno, begin(node), finish(node), old, repr(changed)))
    return sorted(found, key=lambda m: (m.start, m.end))


def candidates(root: Path = ROOT) -> list[Mutant]:
    return [m for f in sorted((root / PACKAGE).glob("*.py"))
            for m in candidates_in(f.relative_to(root), root)]


def apply(mutant: Mutant, copy: Path, root: Path = ROOT) -> None:
    """Write `mutant` into `copy`, a copy of the repository at `root`."""
    source = (root / mutant.path).read_bytes()
    mutated = source[:mutant.start] + mutant.new.encode() + source[mutant.end:]
    (copy / mutant.path).write_bytes(mutated)


def copy_repo(dest: Path, root: Path = ROOT) -> Path:
    shutil.copytree(root, dest, ignore=_SKIP)
    return dest


def run_tests(copy: Path, timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the tests run in `copy`."""
    try:
        proc = subprocess.run(PYTEST, cwd=copy, capture_output=True, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": str(copy / "src")})
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="count the candidates per file")
    parser.add_argument("--sample", type=int, default=120, help="mutants to draw")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    args = parser.parse_args(argv)
    pool = candidates()
    if args.list:
        for path in sorted({m.path for m in pool}):
            print(f"{sum(m.path == path for m in pool):5d}  {path}")
        print(f"{len(pool):5d}  total")
        return 0
    drawn = random.Random(args.seed).sample(pool, min(args.sample, len(pool)))
    with tempfile.TemporaryDirectory() as tmp:
        copy = copy_repo(Path(tmp) / "repo")
        if run_tests(copy, args.timeout) != "survived":
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 1
        survivors = []
        for i, mutant in enumerate(drawn, 1):
            began = time.perf_counter()
            apply(mutant, copy)
            verdict = run_tests(copy, args.timeout)
            shutil.copyfile(ROOT / mutant.path, copy / mutant.path)  # undo before the next
            print(f"[{i}/{len(drawn)}] {verdict:8s} {time.perf_counter() - began:6.1f}s  {mutant}",
                  flush=True)
            if verdict == "survived":
                survivors.append(mutant)
    killed = len(drawn) - len(survivors)
    print(f"\nkilled {killed} of {len(drawn)} ({len(pool)} candidates, seed {args.seed})")
    for mutant in survivors:
        print(f"survived: {mutant}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
