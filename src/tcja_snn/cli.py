"""Command-line interface: train, eval, inspect-attention, gen-synthetic.

Runs are configured by a JSON file plus ``--dotted.key value`` overrides,
read into `RunConfig`: a tree of frozen dataclasses, each field a key whose
type and default it states, each section's ranges in its `__post_init__`.
The resolved config is echoed into the output directory to reproduce the run.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric abort,
4 checkpoint mismatch, 5 network has no attention blocks.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import inspect
import json
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .attention import AttentionMaps, TcjaConfig, score_maps
from .network import PRESETS, Network, TcjaLayer
from .neuron import LifConfig
from .tensor import Tensor, no_grad
from .training import (
    PRECISIONS,
    CheckpointError,
    NumericsError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    network_from_meta,
    restore_network,
    stack_frames,
    train,
)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or unreadable config files."""


@dataclass(frozen=True)
class TrainSection(TrainConfig):
    """The config's train section: `TrainConfig` plus the run's seed, which
    reaches training only as its RNG, and the network's float type."""

    seed: int = 0
    precision: str = "f32"

    def __post_init__(self):
        super().__post_init__()
        data_mod.at_least(0, seed=self.seed)
        if self.precision not in PRECISIONS:
            names = " or ".join(PRECISIONS)
            raise ValueError(f"precision must be {names}, got {self.precision!r}")


@dataclass(frozen=True)
class RunConfig:
    """A run's whole config. Its time_steps, num_classes, lif and tcja keys
    and its train section's precision are the network's description."""

    arch: str = PRESETS["desk"]
    time_steps: int = 8
    num_classes: int = 4
    out_dir: str = "runs/default"
    data: data_mod.DataConfig = data_mod.DataConfig()
    train: TrainSection = TrainSection()
    lif: LifConfig = LifConfig()
    tcja: TcjaConfig = TcjaConfig()

    def __post_init__(self):
        data_mod.at_least(1, time_steps=self.time_steps, num_classes=self.num_classes)


@functools.cache
def _field_types(cls: type) -> dict[str, type]:
    """Each field of the config dataclass `cls` by name, with its annotated type."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in fields(cls)}


def _parse_literal(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(config: dict, pairs: list[str]) -> dict:
    if len(pairs) % 2:
        raise ConfigError(f"dangling override flag {pairs[-1]!r} (flags take a value)")
    for flag, raw in zip(pairs[::2], pairs[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected --key, got {flag!r}")
        *sections, leaf = flag[2:].split(".")
        node, cls = config, RunConfig
        for key in sections:
            cls = _field_types(cls).get(key)
            node = node.setdefault(key, {})
            if not (is_dataclass(cls) and isinstance(node, dict)):
                raise ConfigError(f"unknown config key {flag[2:]!r}")
        node[leaf] = _parse_literal(raw)
    return config


def _type_ok(value, kinds: tuple[type, ...]) -> bool:
    """A bool is not an int, and an int stands in for a float."""
    if float in kinds:
        kinds += (int,)
    return isinstance(value, kinds) and isinstance(value, bool) == (bool in kinds)


def _read(cls: type, raw: dict, path: str = ""):
    """The config dataclass `cls` read from the JSON object `raw`, whose
    dotted key prefix is `path`. A missing key takes its field's default."""
    types = _field_types(cls)
    kwargs = {}
    for key, value in raw.items():
        where = path + key
        if key not in types:
            raise ConfigError(f"unknown config key {where!r}")
        want = types[key]
        kinds = typing.get_args(want) or (want,)  # `int | None` gives (int, NoneType)
        if is_dataclass(want):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
            value = _read(want, value, where + ".")
        elif not _type_ok(value, kinds):
            raise ConfigError(f"{where} must be {kinds[0].__name__}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as err:  # the section's own range checks
        raise ConfigError(f"{path}{err}") from None


def load_config(config_path: str | None, overrides: list[str]) -> RunConfig:
    config = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
        if not isinstance(config, dict):
            raise ConfigError(f"config root must be an object, got {type(config).__name__}")
    return _read(RunConfig, _apply_overrides(config, overrides))


def _echo_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _load_samples(
    config: RunConfig, test_only: bool = False
) -> tuple[list[data_mod.FrameSample], list[data_mod.FrameSample]]:
    """Build train/test frame sets from a dataset directory or the generator.

    With `test_only` the training set comes back empty: a dataset directory
    is still read whole, so its split and grid checks still run, but the
    training streams are neither generated nor integrated.
    """
    t_steps, num_classes = config.time_steps, config.num_classes
    if config.data.dir is not None:
        streams = data_mod.load_dataset(config.data)
        labels = [label for _, label in streams]
        if max(labels, default=0) >= num_classes:
            raise data_mod.DataError(
                f"{Path(config.data.dir) / 'manifest.csv'}: label {max(labels)} is out of range"
                f" for num_classes={num_classes}"
            )
        train_streams, test_streams = data_mod.split_train_test(
            streams, labels, seed=config.train.seed
        )
    else:
        syn = config.data.synthetic
        train_streams = [] if test_only else syn.generate(num_classes, t_steps)
        test_streams = syn.generate(num_classes, t_steps, test=True)
    return (
        [] if test_only else data_mod.frames_dataset(train_streams, t_steps, num_classes),
        data_mod.frames_dataset(test_streams, t_steps, num_classes),
    )


def _build_from_config(config: RunConfig, dims: tuple[int, int, int], rng: np.random.Generator):
    meta = {**asdict(config), "input_dims": dims, "precision": config.train.precision}
    return network_from_meta(config.arch, meta, rng)


def cmd_train(args, overrides: list[str]) -> int:
    config = load_config(args.config, overrides)
    out_dir = Path(config.out_dir)
    rng = np.random.default_rng(config.train.seed)
    train_samples, test_samples = _load_samples(config)
    dims = tuple(train_samples[0].frames.shape[1:])
    net = _build_from_config(config, dims, rng)
    _echo_config(asdict(config), out_dir)
    result = train(net, train_samples, test_samples, config.train, rng, out_dir=out_dir, log=print)
    print(f"best test accuracy: {result.best_accuracy:.4f}")
    print(f"artifacts written to {out_dir}")
    return 0


def _matching_test_samples(net: Network, config: RunConfig) -> list[data_mod.FrameSample]:
    """The config's test samples, once T, classes and input dims fit the network."""
    if net.arch.time_steps != config.time_steps:
        raise CheckpointError(
            f"checkpoint trained with T={net.arch.time_steps},"
            f" config asks for T={config.time_steps}"
        )
    if net.num_classes != config.num_classes:
        raise CheckpointError(
            f"checkpoint has {net.num_classes} classes,"
            f" config asks for {config.num_classes}"
        )
    _, test_samples = _load_samples(config, test_only=True)
    expected = list(net.arch.input_dims)
    data_dims = list(test_samples[0].frames.shape[1:]) if test_samples else expected
    if data_dims != expected:
        raise CheckpointError(f"checkpoint expects input dims {expected}, dataset has {data_dims}")
    return test_samples


def cmd_eval(args, overrides: list[str]) -> int:
    config = load_config(args.config, overrides)
    net = restore_network(load_checkpoint(args.checkpoint))[0]
    test_samples = _matching_test_samples(net, config)
    result = evaluate(net, test_samples)
    print(f"accuracy: {result.accuracy:.4f}")
    print("class  accuracy")
    for lab, acc in result.per_class.items():
        print(f"{lab:>5}  {acc:.4f}")
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_path = out_dir / "predictions.csv"
    with open(pred_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "true", "predicted"]
            + [f"rate_{i}" for i in range(net.num_classes)]
        )
        for idx, true, pred, rates in result.predictions:
            writer.writerow([idx, true, pred] + [f"{r:.10g}" for r in rates])
    print(f"predictions written to {pred_path}")
    return 0


def write_pgm(path: Path, matrix: np.ndarray, absolute: bool = False) -> None:
    """8-bit binary PGM; absolute mode maps [0,1] directly to [0,255]."""
    if absolute:
        scaled = np.clip(matrix, 0.0, 1.0)
    else:
        lo, hi = float(matrix.min()), float(matrix.max())
        scaled = (matrix - lo) / (hi - lo) if hi > lo else np.zeros_like(matrix)
    pixels = np.rint(scaled * 255).astype(np.uint8)
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode()
    path.write_bytes(header + pixels.tobytes())


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])


def cmd_inspect_attention(args, overrides: list[str]) -> int:
    config = load_config(args.config, overrides)
    net = restore_network(load_checkpoint(args.checkpoint))[0]
    if not any(isinstance(layer, TcjaLayer) for layer in net.layers):
        print("error: this network has no attention blocks to inspect", file=sys.stderr)
        return 5
    test_samples = _matching_test_samples(net, config)
    if not 0 <= args.sample < len(test_samples):
        raise data_mod.DataError(
            f"sample index {args.sample} out of range [0, {len(test_samples)})"
        )
    sample = test_samples[args.sample]
    blocks: list[AttentionMaps] = []

    def observe(layer, x_in: Tensor, out: Tensor) -> None:
        if isinstance(layer, TcjaLayer):
            blocks.append(score_maps(x_in.data, layer.params))

    with no_grad():
        net.forward(stack_frames([sample], net.dtype), observe=observe)
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, maps in enumerate(blocks):
        for tag, stacked in (("tla", maps.t_map), ("cla", maps.c_map), ("ccf", maps.f_map)):
            matrix = stacked[0]  # the one sample's C x T map
            _write_matrix_csv(out_dir / f"block{i}_{tag}.csv", matrix)
            write_pgm(out_dir / f"block{i}_{tag}.pgm", matrix, absolute=(tag == "ccf"))
    print(f"wrote score maps for {len(blocks)} attention block(s) to {out_dir}")
    return 0


def cmd_gen_synthetic(args, overrides: list[str]) -> int:
    config = load_config(args.config, overrides)
    dataset = config.data.synthetic.generate(config.num_classes, config.time_steps)
    manifest = data_mod.write_dataset(args.out, dataset, fmt=args.format)
    print(f"wrote {len(dataset)} samples, manifest at {manifest}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, such as a missing or malformed flag, as a
    config error (exit 1) rather than exiting 2; `--help` still exits 0."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcja-snn",
        description="Spiking network training engine with temporal-channel joint attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network")
    p_train.add_argument("--config", help="JSON run config")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="JSON run config (data section)")
    p_eval.add_argument("--out", help="directory for predictions.csv")

    p_insp = sub.add_parser("inspect-attention", help="dump attention score maps")
    p_insp.add_argument("--checkpoint", required=True)
    p_insp.add_argument("--config", help="JSON run config (data section)")
    p_insp.add_argument("--sample", type=int, default=0)
    p_insp.add_argument("--out", help="output directory")

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic event dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--config", help="JSON run config (its training streams are written)")
    fmt_default = inspect.signature(data_mod.write_dataset).parameters["fmt"].default
    p_gen.add_argument("--format", default=fmt_default, choices=["bin", "csv"])
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "inspect-attention": cmd_inspect_attention,
    "gen-synthetic": cmd_gen_synthetic,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        # A diverging run's overflows stay silent: its own checks name the
        # non-finite loss or parameter (exit 3).
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args, extras)
    except NumericsError as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return 3
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return 4
    except (data_mod.DataError, OSError) as err:  # OSError: a path it cannot read or write
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # ConfigError, ArchParseError and the value checks
        print(f"config error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """The `tcja-snn` command: `main` with glibc malloc's mmap and trim
    thresholds fixed, as perfbench fixes them. Left dynamic, the mmap
    threshold rises only after a larger block is freed, so until then each
    large activation array is mapped and faulted in afresh on every call.
    In-process callers of `main` keep their own settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB from the heap
        mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD: keep up to 512 MiB of heap
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
