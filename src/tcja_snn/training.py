"""Loss, optimizer, training/evaluation loops, and checkpoint persistence.

The loss is the per-step mean squared error between output spikes and
the target vector, averaged over time steps. Predictions take the class
with the highest mean firing rate, first index winning ties. Training and
evaluation run chunks of `Network.chunk_size` and `.eval_chunk_size`
samples, one (T, B, ...) forward pass per chunk. Training is fully
deterministic under a fixed seed: one RNG stream drives parameter init,
shuffling, dropout, and augmentation in the draw order that `run_epoch`
states.
"""

from __future__ import annotations

import json
import os
import struct
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import data as data_mod
from .data import FrameSample
from .network import LifLayer, Network, build_network, parse_arch, render
from .neuron import LifConfig
from .attention import TcjaConfig
from .tensor import ShapeError, Tensor, no_grad

CHECKPOINT_MAGIC = b"TCJACKPT"
CHECKPOINT_VERSION = 1

_DTYPE_CODES = {"<f4": 0, "<f8": 1, "|u1": 2, "<i8": 3}
_CODE_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_CODES.items()}
# A network's float type by its name in the config and the checkpoint metadata.
PRECISIONS = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


class NumericsError(RuntimeError):
    """Raised when a training loss, or a parameter after an optimizer step,
    goes non-finite; the message names the epoch, the batch and the parameter."""


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 10
    optimizer: str = "adam"
    augment: bool = False

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # NaN fails the range too
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")


def smse_loss(outputs: Tensor, target: np.ndarray) -> Tensor:
    """Mean of (spike - target)^2 over classes and time steps, per sample,
    summed over samples.

    `outputs` is (T, C) against a (C,) target for one sample, or (T, B, C)
    against (B, C) targets for B samples.
    """
    if outputs.ndim < 2:
        raise ShapeError(f"expected (T, ..., C) outputs, got {outputs.shape}")
    target = np.asarray(target, dtype=outputs.dtype)
    if target.shape != outputs.shape[1:]:
        raise ShapeError(f"target shape {target.shape} does not match outputs {outputs.shape}")
    diff = outputs.data - target
    # One sample's element count, a Python int: an np.int64 would promote f32 to f64.
    count = outputs.shape[0] * outputs.shape[-1]

    def backward(g: np.ndarray) -> None:
        # Twice (g/count)·diff, as the sum of two equal products: exact.
        half = (g / count) * diff
        outputs._accumulate(half + half)

    return Tensor._node(np.asarray((diff * diff).sum() / count), (outputs,), backward)


def predict_label(rates: np.ndarray) -> int:
    """The class with the highest of the (C,) mean firing rates; lowest index wins ties."""
    return int(np.argmax(rates))  # the first of equal maxima


# -- optimizers -------------------------------------------------------------------


@dataclass
class OptimizerState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def optimizer_step(
    params: list[tuple[str, Tensor]], state: OptimizerState, cfg: TrainConfig
) -> None:
    """Apply one update in place; every trainable tensor must hold a gradient."""
    for name, p in params:
        if p.grad is None:
            raise ValueError(f"missing gradient for {name!r}: graph is broken")
    state.step += 1
    for name, p in params:
        g = p.grad
        if cfg.optimizer == "sgd":
            p.data -= cfg.lr * g
            continue
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**state.step)
        v_hat = v / (1 - ADAM_BETA2**state.step)
        p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- evaluation -------------------------------------------------------------------


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, float]
    firing_rates: dict[str, float]
    predictions: list[tuple[int, int, int, np.ndarray]]  # (index, true, predicted, rates)


def chunks(samples: list[FrameSample], size: int) -> Iterator[list[FrameSample]]:
    """Consecutive runs of `size` samples; the last may be shorter."""
    for start in range(0, len(samples), size):
        yield samples[start : start + size]


def stack_frames(samples: list[FrameSample], dtype) -> Tensor:
    """The samples' (T, C, H, W) frames as one (T, B, C, H, W) input."""
    return Tensor(np.stack([s.frames for s in samples], axis=1, dtype=dtype))


def evaluate(net: Network, samples: list[FrameSample]) -> EvalResult:
    """Accuracy, per-class accuracy, and mean firing rate per spiking layer.

    Runs the samples in chunks, with the same figures as one at a time."""
    rate_sums: dict[str, float] = {}
    predictions = []

    def observe(layer, x_in: Tensor, out: Tensor) -> None:
        if isinstance(layer, LifLayer):
            # Each sample's own mean, added in sample order.
            axes = tuple(a for a in range(out.ndim) if a != 1)
            for rate in out.data.mean(axis=axes):
                rate_sums[layer.name] = rate_sums.get(layer.name, 0.0) + float(rate)

    for chunk in chunks(samples, net.eval_chunk_size):
        with no_grad():
            out = net.forward(stack_frames(chunk, net.dtype), observe=observe)
        for j, sample in enumerate(chunk):
            rates = out.data[:, j].mean(axis=0)
            predictions.append((len(predictions), sample.class_index, predict_label(rates), rates))
    n = len(samples)
    totals = Counter(true for _, true, _, _ in predictions)
    hits = Counter(true for _, true, pred, _ in predictions if pred == true)
    return EvalResult(
        accuracy=hits.total() / n if n else 0.0,
        per_class={lab: hits[lab] / total for lab, total in sorted(totals.items())},
        firing_rates={name: s / n for name, s in rate_sums.items()} if n else {},
        predictions=predictions,
    )


# -- checkpoints -------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Ordered named arrays plus the arch string; byte-stable round trip."""

    arch: str
    records: list[tuple[str, np.ndarray]]
    version: int = CHECKPOINT_VERSION

    def _pieces(self) -> Iterator[bytes | memoryview]:
        """The encoded file in order: header fields, then each record's
        header and its little-endian array bytes, viewed rather than copied."""
        arch_b = self.arch.encode()
        yield CHECKPOINT_MAGIC + struct.pack("<H", self.version)
        yield struct.pack("<I", len(arch_b)) + arch_b
        yield struct.pack("<I", len(self.records))
        for name, arr in self.records:
            name_b = name.encode()
            dtype_code = _DTYPE_CODES[arr.dtype.newbyteorder("<").str.lstrip("=")]
            yield struct.pack("<H", len(name_b)) + name_b
            yield struct.pack(f"<BB{arr.ndim}I", dtype_code, arr.ndim, *arr.shape)
            yield np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).data

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if blob[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {blob[:8]!r}")
        if len(blob) < 10:
            raise CheckpointError("truncated checkpoint: no version field")
        (version,) = struct.unpack_from("<H", blob, 8)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        off = 10
        records = []
        try:
            (arch_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            arch = blob[off : off + arch_len].decode()
            off += arch_len
            (n_records,) = struct.unpack_from("<I", blob, off)
            off += 4
            for _ in range(n_records):
                (name_len,) = struct.unpack_from("<H", blob, off)
                off += 2
                name = blob[off : off + name_len].decode()
                off += name_len
                code, rank = struct.unpack_from("<BB", blob, off)
                off += 2
                shape = struct.unpack_from(f"<{rank}I", blob, off)
                off += 4 * rank
                dtype = _CODE_DTYPES[code]
                count = int(np.prod(shape)) if rank else 1
                nbytes = count * dtype.itemsize
                arr = np.frombuffer(blob, dtype=dtype, count=count, offset=off).reshape(shape)
                off += nbytes
                records.append((name, arr.copy()))
        except (struct.error, KeyError, ValueError) as err:
            raise CheckpointError(f"truncated or corrupt checkpoint: {err}") from err
        if off != len(blob):
            raise CheckpointError(f"{len(blob) - off} trailing bytes in checkpoint")
        return cls(arch=arch, records=records, version=version)


def _json_blob(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode(), dtype=np.uint8).copy()


def _meta_dict(net: Network) -> dict:
    return {
        "input_dims": list(net.arch.input_dims),
        "time_steps": net.arch.time_steps,
        "num_classes": net.num_classes,
        "precision": {dtype: name for name, dtype in PRECISIONS.items()}[net.dtype],
        "lif": asdict(net.lif_cfg),
        "tcja": asdict(net.tcja_cfg),
    }


def network_from_meta(arch: str, meta: dict, rng: np.random.Generator) -> Network:
    """The network that `arch` and a `_meta_dict`-shaped description give,
    its weights drawn from `rng`; refuses LIF settings that its float type
    cannot hold and an output that is not one score per class."""
    if (precision := meta["precision"]) not in PRECISIONS:
        raise ValueError(f"precision must be {' or '.join(PRECISIONS)}, got {precision!r}")
    # Checkpoints written while LifConfig had `strict_eq2` still store it.
    lif_kw = dict(meta["lif"])
    lif_kw.pop("strict_eq2", None)
    lif_cfg = LifConfig(**lif_kw)
    # Each constant that the neuron and its surrogate cast to the float type
    # must be finite in it, and the factors 1/tau and 1/gamma² non-zero. An
    # overflow gives inf and an underflow 0 (Python's `**` would raise).
    with np.errstate(all="ignore"):
        constants = {
            "v_reset": lif_cfg.v_reset, "v_threshold": lif_cfg.v_threshold,
            "alpha": lif_cfg.alpha, "pi/2 * alpha": np.pi / 2.0 * lif_cfg.alpha,
            "gamma": lif_cfg.gamma, "1/tau": 1.0 / lif_cfg.tau,
            "1/gamma²": 1.0 / np.float64(lif_cfg.gamma) ** 2,
        }
        for name, value in constants.items():
            held = PRECISIONS[precision].type(value)
            if not np.isfinite(held) or held == 0 and name.startswith("1/"):
                raise ValueError(f"LIF settings do not fit {precision}: {name} becomes {held}")
    input_dims = tuple(int(d) for d in meta["input_dims"])
    spec = parse_arch(arch, input_dims=input_dims, time_steps=int(meta["time_steps"]))
    net = build_network(
        spec, num_classes=int(meta["num_classes"]), lif_cfg=lif_cfg,
        tcja_cfg=TcjaConfig(**meta["tcja"]), rng=rng, dtype=PRECISIONS[precision],
    )
    if (out := net.shapes[-1]) != (net.num_classes,):
        raise ValueError(
            f"arch {arch!r} puts out {out} per sample and step,"
            f" not the ({net.num_classes},) that num_classes={net.num_classes} needs"
        )
    return net


def make_checkpoint(
    net: Network,
    opt_state: OptimizerState,
    rng: np.random.Generator,
    epoch: int,
) -> Checkpoint:
    """Snapshot the run; arrays are copied, since training updates them in place.

    `train` stores `epoch` as `meta.epoch`: in `best.ckpt` the best epoch's
    index, in `last.ckpt` the number of epochs run so far."""
    records = [(f"param.{name}", p.data.copy()) for name, p in net.params]
    for key, moments in (("m", opt_state.m), ("v", opt_state.v)):
        records += [(f"adam.{key}.{name}", moments[name].copy()) for name in sorted(moments)]
    records.append(("opt.step", np.asarray([opt_state.step], dtype=np.int64)))
    records.append(("meta.epoch", np.asarray([epoch], dtype=np.int64)))
    records.append(("meta.rng", _json_blob(rng.bit_generator.state)))
    records.append(("meta.config", _json_blob(_meta_dict(net))))
    return Checkpoint(arch=render(net.arch), records=records)


def _replace_file(path: Path, pieces: Iterable[bytes | memoryview]) -> None:
    """Write `pieces` to a temporary file beside `path`, then move it over
    `path`, so that a reader sees the old file or the whole new one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only if the write failed


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    _replace_file(Path(path), ckpt._pieces())


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    return Checkpoint.from_bytes(path.read_bytes())


def restore_network(ckpt: Checkpoint) -> tuple[Network, OptimizerState, dict, int]:
    """Rebuild the network in its stored float type, the optimizer and RNG state and the epoch."""
    named = dict(ckpt.records)
    try:
        meta = json.loads(named["meta.config"].tobytes().decode())
        opt_state = OptimizerState(step=int(named["opt.step"][0]))
        rng_state = json.loads(named["meta.rng"].tobytes().decode())
        epoch = int(named["meta.epoch"][0])
        net = network_from_meta(ckpt.arch, meta, np.random.default_rng(0))
    except KeyError as err:
        raise CheckpointError(f"checkpoint is missing record or key {err}") from err
    except (IndexError, OverflowError, TypeError, ValueError) as err:
        raise CheckpointError(f"checkpoint cannot be rebuilt: {err}") from err
    for name, p in net.params:
        key = f"param.{name}"
        if key not in named:
            raise CheckpointError(f"checkpoint lacks tensor {key!r} for this arch")
        if named[key].shape != p.shape:
            raise CheckpointError(
                f"tensor {key!r} shape {named[key].shape} does not match {p.shape}"
            )
        p.data = named[key].astype(net.dtype)
        for key, moments in (("m", opt_state.m), ("v", opt_state.v)):
            if f"adam.{key}.{name}" in named:
                moments[name] = named[f"adam.{key}.{name}"].astype(net.dtype)
    return net, opt_state, rng_state, epoch


# -- training loop ------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a run, which its log line and its `metrics.csv` and `timing.csv` rows show."""

    epoch: int
    train_loss: float
    test_acc: float
    wall_seconds: float


_LOG_LINE = ("epoch {0.epoch}: train_loss={0.train_loss:.4f}"
             " test_acc={0.test_acc:.4f} ({0.wall_seconds:.1f}s)")
# Each per-epoch file's header and row; with the wall seconds apart, reruns
# of one config and seed write the same `metrics.csv`.
_RUN_TABLES = {
    "metrics.csv": ("epoch,train_loss,test_acc", "{0.epoch},{0.train_loss:.10g},{0.test_acc:.10g}"),
    "timing.csv": ("epoch,wall_seconds", "{0.epoch},{0.wall_seconds:.3f}"),
}


@dataclass
class TrainResult:
    history: list[EpochRecord]

    @property
    def best_accuracy(self) -> float:
        return max((r.test_acc for r in self.history), default=0.0)  # 0.0 after no epoch


def run_epoch(
    net: Network, train_samples: list[FrameSample], cfg: TrainConfig,
    opt_state: OptimizerState, rng: np.random.Generator, epoch: int,
) -> float:
    """Train one epoch in place and return its mean loss per sample. This is
    the one statement of the training draw order: the permutation, then per
    chunk each sample's partner and augment draws in turn, then each dropout
    layer's masks for the chunk."""
    order = rng.permutation(len(train_samples))
    loss_sum = 0.0
    for batch_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = [train_samples[int(i)] for i in order[start : start + cfg.batch_size]]
        net.zero_grads()
        batch_loss = 0.0
        for chunk in chunks(batch, net.chunk_size):
            if cfg.augment:  # per sample: the partner draw, then augment's own
                n = len(train_samples)
                chunk = [data_mod.augment(s, rng, partner=train_samples[int(rng.integers(0, n))])
                         for s in chunk]
            out = net.forward(stack_frames(chunk, net.dtype), rng=rng)
            loss = smse_loss(out, np.stack([sample.label for sample in chunk]))
            value = loss.item()
            if not np.isfinite(value):
                raise NumericsError(f"non-finite loss in epoch {epoch}, batch {batch_idx}")
            batch_loss += value
            loss.backward()
        for _, p in net.params:
            if p.grad is not None:
                p.grad /= len(batch)
        optimizer_step(net.params, opt_state, cfg)
        for name, p in net.params:
            if not np.isfinite(p.data).all():
                raise NumericsError(
                    f"non-finite parameter {name!r} in epoch {epoch}, batch {batch_idx}"
                )
        loss_sum += batch_loss
    return loss_sum / len(order)


def train(
    net: Network, train_samples: list[FrameSample], test_samples: list[FrameSample],
    cfg: TrainConfig, rng: np.random.Generator, out_dir: str | Path | None = None, log=None,
) -> TrainResult:
    """Run the full loop, one `EpochRecord` an epoch, and keep the run in `out_dir`.

    With `out_dir`, each epoch ends by writing `best.ckpt` (`meta.epoch` its
    index) if its test accuracy beats every earlier epoch's, then
    `metrics.csv`, `timing.csv` and `last.ckpt` (`meta.epoch` the epochs run
    so far), each through a temporary file that then replaces it. So a run
    stopped early, by a `NumericsError` or otherwise, keeps its finished
    epochs' files whole. After zero epochs both checkpoints are one snapshot.
    """
    if not train_samples:
        raise ValueError("training set is empty")
    opt_state, result = OptimizerState(), TrainResult(history=[])
    out_dir = Path(out_dir) if out_dir is not None else None

    def save(best: Checkpoint | None, last: Checkpoint) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if best is not None:
            save_checkpoint(out_dir / "best.ckpt", best)
        for name, (header, row) in _RUN_TABLES.items():
            lines = [header, *map(row.format, result.history)]
            _replace_file(out_dir / name, ["".join(f"{line}\n" for line in lines).encode()])
        save_checkpoint(out_dir / "last.ckpt", last)

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        train_loss = run_epoch(net, train_samples, cfg, opt_state, rng, epoch)
        acc = evaluate(net, test_samples).accuracy
        improved = not result.history or acc > result.best_accuracy
        result.history.append(EpochRecord(epoch, train_loss, acc, time.perf_counter() - tic))
        if log is not None:
            log(_LOG_LINE.format(result.history[-1]))
        if out_dir is not None:
            best = make_checkpoint(net, opt_state, rng, epoch) if improved else None
            save(best, make_checkpoint(net, opt_state, rng, epoch + 1))
    if out_dir is not None and not cfg.epochs:
        snapshot = make_checkpoint(net, opt_state, rng, 0)
        save(snapshot, snapshot)
    return result
