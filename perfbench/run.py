"""Train/eval benchmark of the tcja-snn engine.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload desk-train --seed 3 --seconds 25 --trace 0

With `--workload all` (the default) each workload runs in its own child
process, first untraced (end-to-end metrics) and then traced (per-layer
metrics and tracing overhead), and the results print as one block per
workload. With a single workload the last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, holding every
end-to-end metric named in BENCHMARK.json when `--trace 0` and every
per-layer metric when `--trace 1`. The line before it, starting
`# detail`, holds the environment, sample counts, failed checks and
notes.

BLAS threads are pinned to one through the environment of this process
and its children only, and glibc malloc's thresholds are fixed in this
process (see `pin_allocator`). See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import ctypes
import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"


def pin_allocator() -> str:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed,
    so whether an activation array comes from fresh zeroed pages or from
    reused heap changes from run to run: a two-sample `scaled-train`
    evaluate call took 3,000 to 17,000 page faults and 8 to 42 ms of
    system time on a 2-vCPU Xeon VM. With fixed thresholds (arrays up to
    32 MiB from the heap, heap kept up to 512 MiB) it takes none.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return "default (no mallopt)"
    if mallopt(-3, 32 << 20) and mallopt(-1, 512 << 20):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        return "mmap_threshold=32MiB trim_threshold=512MiB"
    return "default (mallopt refused)"


ALLOCATOR = pin_allocator()  # before numpy allocates

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-train", "scaled-train", "desk-eval")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": ALLOCATOR,
        "git_commit": commit,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    work = ROOT / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "desk-eval":
            res = workloads.run_eval(ROOT, work, seed, seconds, bool(trace))
        else:
            res = workloads.run_train(workload, ROOT, work, seed, seconds, bool(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = declared_metrics()[trace]
    missing = [name for name in wanted if name not in res.metrics]
    if missing and not res.checks:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"{workload}  seed={seed}  seconds={seconds}  trace={trace}")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':10s} n")
    for name in wanted:
        if name in res.metrics:
            value, unit = res.metrics[name]
            print(f"  {name:34s} {value:14.6g}  {unit:10s} {res.counts.get(name, '')}")
    ratio = res.failed / res.attempted if res.attempted else 1.0
    print(f"  {'failed_ratio':34s} {ratio:14.6g}  {'ratio':10s} {res.attempted}")
    for key, value in res.notes.items():
        print(f"  {key}: {value}")
    for check in res.checks:
        print(f"  FAILED CHECK: {check}")
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "counts": res.counts,
        "failed_ratio": ratio,
        "checks": res.checks,
        "notes": res.notes,
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    correct = not res.checks and not missing and res.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": res.metrics[name][0], "unit": res.metrics[name][1]}
            for name in wanted if name in res.metrics
        },
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exited with code {proc.returncode}")
                status = 1
                continue
            print("\n".join(line for line in lines[:-1] if not line.startswith("# detail")))
            print()
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tcja_snn" / "__init__.py").exists():
        print(f"error: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
