"""The three workloads: two `tcja-snn train` runs and a closed-loop evaluator.

Each `run_*` function generates its inputs from the seed, sets up, measures
for the given number of seconds and returns a `Result`. Untraced runs
yield the end-to-end metrics, as times on a host of fixed speed (see
`hooks.Recorder.scaled`), with the plain wall-clock figures in the notes;
traced runs yield the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import numbers
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import events
from hooks import ATTENTION_OPS, Recorder, perf

BATCH = 16
CLASSES = events.CLASSES
DESK_ARCH = "16C3-LIF-MP2-TCJA-16C3-LIF-MP2-64FC-LIF-Voting"
SCALED_ARCH = "64C3-LIF-MP2-TCJA-64C3-LIF-MP2-0.5DP-256FC-LIF-Voting"
LAYER_KINDS = ("conv", "lif", "pool", "tcja", "dropout", "fc", "voting")
# Set-up is timed many times, spread over the whole run so that its median
# sees the same host load as the step figures.
SETUPS_PER_REP = 10  # set-up only `train` calls before each measured repetition, ~40 ms each
RESTORES_PER_PASS = 6  # checkpoint restores before each pass over the held-out files, ~1 ms each


@dataclass(frozen=True)
class TrainSpec:
    arch: str
    size: int  # square input side
    time_steps: int
    per_class: int  # the 9:1 split leaves a multiple of BATCH for training
    epochs: int  # per repetition of the whole `train` run
    augment: bool

    @property
    def n_train(self) -> int:
        return CLASSES * (self.per_class - self.per_class // 10)


TRAIN_SPECS = {
    "desk-train": TrainSpec(DESK_ARCH, 16, 8, per_class=35, epochs=4, augment=False),
    "scaled-train": TrainSpec(SCALED_ARCH, 32, 14, per_class=13, epochs=1, augment=True),
}

# desk-eval: a checkpoint trained once per engine version with a fixed seed,
# then 16-file requests over a seeded held-out set.
EVAL_PER_CLASS = 16
PREP = {"seed": 2206, "per_class": 60, "epochs": 8, "lr": 0.005}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)  # samples behind a metric
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)  # failed checks, human readable
    notes: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.checks) < 20:  # the first failures explain the rest
            self.checks.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quiet(fn, *args):
    """Call `fn` with the engine's own printing kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


# -- training workloads -----------------------------------------------------------------


def _train_config(spec: TrainSpec, data_dir: Path, seed: int) -> dict:
    return {
        "arch": spec.arch,
        "time_steps": spec.time_steps,
        "num_classes": CLASSES,
        "out_dir": "unused",
        "data": {"dir": str(data_dir)},
        "train": {
            "batch_size": BATCH,
            "epochs": spec.epochs,
            "seed": seed,
            "precision": "f32",
            "optimizer": "adam",
            "augment": spec.augment,
        },
    }


@dataclass
class _Rep:
    t_call: float  # just before `cli.main`
    events: list  # the call's boundary events
    outputs: tuple[bytes, bytes]  # metrics.csv and last.ckpt


@dataclass
class _Timeline:
    setup: float
    steps: list[float]
    epochs: list[float]
    evals: list[tuple[float, int]]  # (seconds, samples)
    snapshots: list[float]  # the best-so-far checkpoints taken inside epochs


def _timings(setups: list[float], steps: list[float], eval_s: float, eval_n: int,
             epochs: list[float]) -> dict[str, tuple[float, str]]:
    """Medians and totals over every set-up, step, evaluate call and epoch of the run."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (BATCH * len(steps) / sum(steps), "samples/s"),
        "eval_samples_per_s": (eval_n / eval_s, "samples/s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "step_ms_p90": (1e3 * statistics.quantiles(steps, n=10, method="inclusive")[8], "ms"),
        "epoch_s": (statistics.median(epochs), "s"),
    }


def _report_timings(res: Result, rec: Recorder, timings) -> None:
    """Host-scaled figures as the metrics, wall-clock ones as a note.

    `timings(dur)` computes the figures with `dur(t0, t1)` as the length
    of an interval.
    """
    res.metrics.update(timings(rec.scaled))
    res.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    res.notes["wall_clock"] = {name: round(value, 6) for name, (value, _) in timings(rec.wall).items()}
    res.notes["host_speed"] = {  # reference work: the median and quartiles of its time, ms
        "reference_ms": round(1e3 * statistics.median(rec.calib_s), 4),
        "quartiles_ms": [round(1e3 * q, 4) for q in statistics.quantiles(rec.calib_s, n=4)],
        "runs": len(rec.calib_s),
    }


def _cli_train(rec: Recorder, config_path: Path, out_dir: Path, extra: list[str]) -> tuple[int, float]:
    from tcja_snn import cli

    rec.events.clear()
    if rec.calibrating:
        rec.calibrate()  # the host's speed just before set-up
    t0 = perf()
    code = _quiet(cli.main, ["train", "--config", str(config_path), "--out_dir", str(out_dir), *extra])
    return code, t0


def _split_timeline(events: list, t_call: float, epochs: int, dur) -> _Timeline:
    """Cut one `train` call's boundary events into set-up, steps, epochs and evals.

    `dur(t0, t1)` gives the length of an interval.
    """
    start = next(t0 for kind, t0, _, _ in events if kind == "train")
    boundary = epoch_start = start
    steps, epoch_walls, evals, snapshots = [], [], [], []
    for kind, t0, t1, info in events:
        if kind == "step":
            steps.append(dur(boundary, t1))
            boundary = t1
        elif kind == "evaluate":
            evals.append((dur(t0, t1), info))
            epoch_walls.append(dur(epoch_start, t1))
            boundary = epoch_start = t1
        elif kind == "snapshot" and info < epochs:
            # The best-so-far snapshot closes the epoch that just evaluated.
            epoch_walls[-1] += dur(epoch_start, t1)
            snapshots.append(dur(t0, t1))
            boundary = epoch_start = t1
    return _Timeline(dur(t_call, start), steps, epoch_walls, evals, snapshots)


def run_train(name: str, root: Path, work: Path, seed: int, seconds: float, trace: bool) -> Result:
    spec = TRAIN_SPECS[name]
    res = Result()
    data_dir = work / "data"
    events.write_dataset(data_dir, spec.per_class, spec.size, spec.size, seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(_train_config(spec, data_dir, seed)))
    steps_per_rep = spec.epochs * spec.n_train // BATCH

    rec = Recorder(suspend_in_evaluate=True, calibrating=not trace)
    rec.install(trace=False)
    try:
        setups: list[_Rep] = []
        setup_s = 0.0  # wall time of the set-up-only calls, kept out of `seconds`
        reps: list[_Rep] = []
        traced_reps: list[_Rep] = []
        outputs = set()
        # A traced run starts with one untimed repetition, so no timed one
        # runs cold, then alternates untraced and traced repetitions, so the
        # tracing overhead compares equal step counts taken under the same load.
        warm_up = trace
        t_begin = perf()
        while True:
            t_setup = perf()
            for _ in range(0 if trace else SETUPS_PER_REP):  # set-up only: zero epochs
                code, t_call = _cli_train(rec, config_path, work / f"setup{len(setups)}",
                                          ["--train.epochs", "0"])
                if code != 0:
                    raise RuntimeError(f"set-up run exited with code {code}")
                setups.append(_Rep(t_call, list(rec.events), (b"", b"")))
            setup_s += perf() - t_setup
            tracing = trace and not warm_up and len(reps) > len(traced_reps)
            if tracing != rec.tracing:
                rec.switch(tracing)
            t_rep = perf()
            res.attempted += steps_per_rep
            rep = _train_rep(rec, config_path, work / f"rep{res.attempted}", spec, res)
            if rep is None:
                res.failed += steps_per_rep
                break  # a repeat of the same seed would fail the same way
            outputs.add(rep.outputs)
            if warm_up:
                warm_up = False
                continue
            (traced_reps if tracing else reps).append(rep)
            enough = len(traced_reps) == len(reps) if trace else len(reps) >= 2
            if enough and perf() - t_begin - setup_s + (perf() - t_rep) / 2 > seconds:
                break
    finally:
        rec.tracing = False
        rec.close()

    if len(outputs) > 1:
        res.fail("repetitions of one seed wrote different metrics.csv or last.ckpt bytes")
        res.failed = res.attempted
    if not reps:
        res.fail("no repetition completed")
        return res
    if trace:
        lines = [_split_timeline(r.events, r.t_call, spec.epochs, rec.wall) for r in reps]
        traced = [_split_timeline(r.events, r.t_call, spec.epochs, rec.wall) for r in traced_reps]
        steps = [s for line in lines for s in line.steps]
        _train_trace_metrics(res, spec, steps, lines + traced, traced, rec)
        return res

    def timings(dur):
        lines = [_split_timeline(r.events, r.t_call, spec.epochs, dur) for r in reps]
        return _timings(
            [_split_timeline(r.events, r.t_call, 0, dur).setup for r in setups]
            + [line.setup for line in lines],
            [s for line in lines for s in line.steps],
            sum(s for line in lines for s, _ in line.evals),
            sum(n for line in lines for _, n in line.evals),
            [e for line in lines for e in line.epochs],
        )

    _report_timings(res, rec, timings)
    lines = [_split_timeline(r.events, r.t_call, spec.epochs, rec.wall) for r in reps]
    n_steps = sum(len(line.steps) for line in lines)
    res.counts.update(setup_s=len(setups) + len(reps), samples_per_s=BATCH * n_steps,
                      step_ms_p50=n_steps, step_ms_p90=n_steps,
                      eval_samples_per_s=sum(n for line in lines for _, n in line.evals),
                      epoch_s=sum(len(line.epochs) for line in lines))
    return res


def _train_rep(rec: Recorder, config_path: Path, out_dir: Path, spec: TrainSpec, res: Result):
    """One full `tcja-snn train` run; None if it failed any check."""
    try:
        code, t_call = _cli_train(rec, config_path, out_dir, [])
    except Exception:  # a crash fails this repetition, not the benchmark
        traceback.print_exc()
        res.fail("train raised an exception")
        return None
    if code != 0:
        res.fail(f"train exited with code {code}")
        return None
    rep = _split_timeline(rec.events, t_call, spec.epochs, rec.wall)
    metrics_csv = (out_dir / "metrics.csv").read_bytes()
    rows = metrics_csv.decode().strip().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    if len(losses) != spec.epochs or not all(math.isfinite(v) for v in losses):
        res.fail(f"metrics.csv holds non-finite or missing losses: {losses}")
        return None
    if len(rep.steps) != spec.epochs * spec.n_train // BATCH or len(rep.epochs) != spec.epochs:
        res.fail(f"saw {len(rep.steps)} steps in {len(rep.epochs)} epochs")
        return None
    outputs = (metrics_csv, (out_dir / "last.ckpt").read_bytes())
    shutil.rmtree(out_dir)
    return _Rep(t_call, list(rec.events), outputs)


# -- evaluation workload --------------------------------------------------------------------


def _engine_digest(root: Path) -> str:
    h = hashlib.sha256(json.dumps(PREP, sort_keys=True).encode())
    for path in sorted((root / "src" / "tcja_snn").glob("*.py")) + [Path(events.__file__)]:
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def desk_checkpoint(root: Path, work: Path) -> Path:
    """The pinned `desk` checkpoint, trained once per engine version and cached."""
    cache = root / "perfbench" / ".work" / "cache"
    path = cache / f"desk-{_engine_digest(root)}.ckpt"
    if path.exists():
        return path
    prep = work / "prep"
    events.write_dataset(prep / "data", PREP["per_class"], 16, 16, PREP["seed"])
    config = _train_config(TrainSpec(DESK_ARCH, 16, 8, PREP["per_class"], PREP["epochs"], False),
                           prep / "data", PREP["seed"])
    config["train"]["lr"] = PREP["lr"]
    config["out_dir"] = str(prep / "out")
    (prep / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tcja_snn.cli", "train", "--config", str(prep / "config.json")],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"checkpoint preparation failed:\n{proc.stderr}")
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f"{path.name}.{os.getpid()}.tmp"
    shutil.copyfile(prep / "out" / "best.ckpt", tmp)
    os.replace(tmp, path)
    return path


def run_eval(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> Result:
    from tcja_snn import data, training

    res = Result()
    ckpt_path = desk_checkpoint(root, work)
    files = events.write_dataset(work / "heldout", EVAL_PER_CLASS, 16, 16, seed)
    rec = Recorder(suspend_in_evaluate=False, calibrating=not trace)
    setups: list[tuple[float, float]] = []  # (start, end) of each restore

    def restore():
        if trace and not rec.tracing:
            rec.switch(trace=True)  # a traced run traces every restore
        for _ in range(RESTORES_PER_PASS):
            if rec.calibrating:
                rec.calibrate()
            t0 = perf()
            net = training.restore_network(training.load_checkpoint(ckpt_path))[0]
            setups.append((t0, perf()))
        return net

    rec.install(trace=False)
    try:
        net = restore()
        t_steps = net.arch.time_steps
        if net.arch.input_dims != (2, 16, 16) or net.num_classes != CLASSES:
            raise RuntimeError(f"checkpoint does not fit the held-out data: {net.arch}")
        first_pass: dict[int, int] = {}  # file index -> predicted class
        requests: list[tuple[float, float, float]] = []  # start, start of evaluate, end
        traced: list[float] = []
        # As in a traced train run: one untimed request, then untraced and
        # traced requests in turn.
        warm_up = trace
        t_begin = perf()
        cursor = 0
        while (perf() - t_begin < seconds or len(requests) < 2
               or (trace and len(traced) < len(requests))):
            if cursor == 0 and res.attempted:
                net = restore()  # each pass over the files runs on a fresh restore
            if trace:
                tracing = not warm_up and len(requests) > len(traced)
                if tracing != rec.tracing:
                    rec.switch(tracing)
            batch = [(cursor + i) % len(files) for i in range(BATCH)]
            cursor = (cursor + BATCH) % len(files)
            res.attempted += 1
            if rec.calibrating:
                rec.calibrate()
            t0 = perf()
            try:
                samples = [
                    data.integrate_frames(
                        data.read_events(files[i][0]), t_steps, label=data.one_hot(CLASSES, files[i][1])
                    )
                    for i in batch
                ]
                t_eval = perf()
                result = training.evaluate(net, samples)
            except Exception:  # a crash fails this request, not the benchmark
                traceback.print_exc()
                res.failed += 1
                res.fail("request raised an exception")
                break  # the next request would fail the same way
            t1 = perf()
            if warm_up:
                warm_up = False
            elif rec.tracing:
                traced.append(t1 - t0)
            else:
                requests.append((t0, t_eval, t1))
            if not _check_predictions(result, batch, files, first_pass, res):
                res.failed += 1
    finally:
        rec.tracing = False
        rec.close()

    res.notes["checkpoint"] = ckpt_path.name
    res.notes["heldout_files"] = len(files)
    if not requests:
        res.fail("no request completed")
        return res
    res.notes["checkpoint_accuracy"] = (
        sum(first_pass[i] == files[i][1] for i in first_pass) / max(len(first_pass), 1))
    if trace:
        _eval_trace_metrics(res, [t1 - t0 for t0, _, t1 in requests], traced, rec, len(setups))
        return res
    per_pass = len(files) // BATCH

    def timings(dur):
        times = [dur(t0, t1) for t0, _, t1 in requests]
        passes = [sum(times[i : i + per_pass]) for i in range(0, len(times) - per_pass + 1, per_pass)]
        return _timings([dur(t0, t1) for t0, t1 in setups], times,
                        sum(dur(t_eval, t1) for _, t_eval, t1 in requests), BATCH * len(requests), passes)

    _report_timings(res, rec, timings)
    res.counts.update(setup_s=len(setups), samples_per_s=BATCH * len(requests),
                      eval_samples_per_s=BATCH * len(requests), step_ms_p50=len(requests),
                      step_ms_p90=len(requests), epoch_s=len(requests) // per_pass)
    return res


def _check_predictions(result, batch, files, first_pass, res: Result) -> bool:
    """Valid class indices, and the same answer every time a file comes round."""
    ok = len(result.predictions) == len(batch)
    if not ok:
        res.fail(f"{len(result.predictions)} predictions for {len(batch)} files")
    for (_, _, pred, _), i in zip(result.predictions, batch):
        if not (isinstance(pred, numbers.Integral) and 0 <= pred < CLASSES):
            res.fail(f"prediction {pred!r} for file {i} is not a class index")
            ok = False
        elif first_pass.setdefault(i, pred) != pred:
            res.fail(f"file {i} predicted {pred}, earlier {first_pass[i]}")
            ok = False
    return ok


# -- per-layer figures from a traced run ------------------------------------------------------


def _layer_metrics(res: Result, rec: Recorder, per: float, backward: bool) -> float:
    """Self times per layer kind, attention sub-ops and autodiff, per `per` samples.

    Returns the seconds those self times cover, for the remainder check.
    """
    s, incl, calls, counts = rec.self_s, rec.incl_s, rec.calls, rec.counts
    covered = 0.0
    for kind in LAYER_KINDS:
        for phase in ("fwd", "bwd"):
            sec = s.get(f"network.{kind}.{phase}", 0.0)
            covered += sec
            res.metrics[f"network.{kind}.{phase}_ms"] = (1e3 * sec / per, "ms")
    for op in ATTENTION_OPS:
        sec = s.get(f"attention.{op}", 0.0)
        covered += sec
        res.metrics[f"attention.{op}_ms"] = (1e3 * sec / per, "ms")
    topo = s.get("tensor.topo_sort", 0.0)
    covered += topo
    res.metrics["tensor.topo_sort_ms"] = (1e3 * topo / per, "ms")
    res.metrics["tensor.backward_ms"] = (1e3 * incl.get("tensor.backward", 0.0) / per, "ms")
    res.metrics["tensor.nodes_per_sample"] = (counts.get("nodes", 0) / per, "count")
    lif_calls = calls.get("network.lif.fwd", 0)
    res.metrics["neuron.lif_nodes_per_call"] = (
        counts.get("nodes.lif", 0) / lif_calls if lif_calls else 0.0, "count")
    flop = counts.get("conv.flop_fwd", 0) + (counts.get("conv.flop_bwd", 0) if backward else 0)
    moved = counts.get("pool.bytes_fwd", 0) + (counts.get("pool.bytes_bwd", 0) if backward else 0)
    res.metrics["network.conv.mflop_per_sample"] = (flop / 1e6 / per, "MFLOP")
    res.metrics["network.pool.mb_moved_per_sample"] = (moved / 1e6 / per, "MB")
    return covered


def _per_call_ms(rec: Recorder, name: str) -> float:
    calls = rec.calls.get(name, 0)
    return 1e3 * rec.incl_s.get(name, 0.0) / calls if calls else 0.0


def _data_metrics(res: Result, rec: Recorder) -> None:
    reads = rec.calls.get("data.read_events", 0)
    res.metrics["data.read_events_ms"] = (_per_call_ms(rec, "data.read_events"), "ms")
    res.metrics["data.integrate_frames_ms"] = (_per_call_ms(rec, "data.integrate_frames"), "ms")
    res.metrics["data.augment_ms"] = (_per_call_ms(rec, "data.augment"), "ms")
    res.metrics["data.events_per_sample"] = (
        rec.counts.get("events", 0) / reads if reads else 0.0, "count")


def _overhead_metrics(res: Result, untraced: list[float], traced: list[float],
                      unit_s: float, covered: float, per: float) -> None:
    plain, with_spans = statistics.median(untraced), statistics.median(traced)
    res.metrics["trace.untraced_step_ms_p50"] = (1e3 * plain, "ms")
    res.metrics["trace.traced_step_ms_p50"] = (1e3 * with_spans, "ms")
    res.metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
    remainder = unit_s - covered
    res.metrics["trace.unattributed_ms"] = (1e3 * remainder / per, "ms")
    # Self times never overlap, so they plus the remainder make the traced
    # total; a negative remainder means some time was counted twice.
    if remainder < -1e-6 * unit_s:
        res.fail(f"per-layer self times exceed the traced total by {-remainder:.6f}s")


def _train_trace_metrics(res, spec: TrainSpec, untraced_steps, timed_reps, traced_reps,
                         rec: Recorder) -> None:
    if not traced_reps:
        res.fail("no traced repetition completed")
        return
    traced_steps = [s for rep in traced_reps for s in rep.steps]
    n_steps = len(traced_steps)
    per = BATCH * n_steps
    incl, s = rec.incl_s, rec.self_s
    covered = _layer_metrics(res, rec, per, backward=True)
    augment = s.get("data.augment", 0.0)
    optimizer = incl.get("training.optimizer", 0.0)
    covered += augment + optimizer
    forward = incl.get("network.forward", 0.0) + incl.get("training.loss", 0.0)
    backward = incl.get("tensor.backward", 0.0)
    step_s = sum(traced_steps)
    res.metrics["tensor.graph_mb_per_step"] = (rec.counts.get("graph_bytes", 0) / 1e6 / n_steps, "MB")
    _data_metrics(res, rec)
    res.metrics["training.phase.data_ms"] = (1e3 * (step_s - forward - backward - optimizer) / n_steps, "ms")
    res.metrics["training.phase.forward_ms"] = (1e3 * forward / n_steps, "ms")
    res.metrics["training.phase.backward_ms"] = (1e3 * backward / n_steps, "ms")
    res.metrics["training.phase.optimizer_ms"] = (1e3 * optimizer / n_steps, "ms")
    res.metrics["training.evaluate_ms"] = (_per_call_ms(rec, "training.evaluate"), "ms")
    snapshots = sum(t for rep in timed_reps for t in rep.snapshots)
    epochs = spec.epochs * len(timed_reps)
    res.metrics["training.checkpoint_ms"] = (1e3 * snapshots / epochs, "ms")
    res.metrics["training.restore_ms"] = (_per_call_ms(rec, "training.restore"), "ms")
    res.metrics["cli.setup.load_samples_s"] = (
        _per_call_ms(rec, "cli.setup.load_samples") / 1e3, "s")
    res.metrics["cli.setup.build_s"] = (_per_call_ms(rec, "cli.setup.build") / 1e3, "s")
    _overhead_metrics(res, untraced_steps, traced_steps, step_s, covered, per)
    res.notes["node_seam"] = rec.node_seam


def _eval_trace_metrics(res, untraced, traced, rec: Recorder, restores: int) -> None:
    if not traced or not untraced:
        res.fail("traced run needs requests both with and without spans")
        return
    per = BATCH * len(traced)
    incl, s = rec.incl_s, rec.self_s
    covered = _layer_metrics(res, rec, per, backward=False)
    covered += s.get("data.read_events", 0.0) + s.get("data.integrate_frames", 0.0)
    forward = incl.get("network.forward", 0.0)
    unit_s = sum(traced)
    res.metrics["tensor.graph_mb_per_step"] = (rec.counts.get("graph_bytes", 0) / 1e6 / len(traced), "MB")
    _data_metrics(res, rec)
    res.metrics["training.phase.data_ms"] = (1e3 * (unit_s - forward) / len(traced), "ms")
    res.metrics["training.phase.forward_ms"] = (1e3 * forward / len(traced), "ms")
    res.metrics["training.phase.backward_ms"] = (0.0, "ms")
    res.metrics["training.phase.optimizer_ms"] = (0.0, "ms")
    res.metrics["training.evaluate_ms"] = (_per_call_ms(rec, "training.evaluate"), "ms")
    res.metrics["training.checkpoint_ms"] = (0.0, "ms")
    res.metrics["training.restore_ms"] = (1e3 * incl.get("training.restore", 0.0) / restores, "ms")
    res.metrics["cli.setup.load_samples_s"] = (0.0, "s")
    res.metrics["cli.setup.build_s"] = (0.0, "s")
    _overhead_metrics(res, untraced, traced, unit_s, covered, per)
    res.notes["node_seam"] = rec.node_seam
