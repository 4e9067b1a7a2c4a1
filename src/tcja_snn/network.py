"""Architecture strings, layer stacks, and the temporal forward pass.

Arch specs are dash-separated tokens: ``128C3`` (conv, 128 outputs,
odd kernel 3, stride 1, keeps H x W), ``MP2``/``AP2`` (max/avg pool),
``LIF`` (spiking neuron), ``0.5DP`` (spiking dropout), ``512FC`` (fully
connected), ``Voting`` (group-average readout), and ``TCJA`` (attention
insertion point). The network runs a batch of samples as one (T, B, C, H, W)
stack, and every layer maps a full (T, B, ...) stack to a full (T, B, ...)
stack: spiking layers run their recurrence over T internally, so attention
blocks that need all time steps at once see them materialized by
construction, and the stateless layers treat T and B alike as batch axes.
Every sample's values are computed as if it ran alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import attention
from .attention import TcjaConfig, TcjaParams
from .neuron import LifConfig, lif_sequence
from .tensor import ShapeError, Tensor, conv2d, fully_connected, pool2d


class ArchParseError(ValueError):
    """Raised for malformed architecture spec strings."""


# Bytes per activation stack of a recorded graph: samples run in chunks, as
# many as fit, so a chunk's samples share the per-op overhead. A training
# chunk's graph saves up to one (T, B, ...) stack per layer: its widest stack
# gets CHUNK_BYTES. A forward without a graph peaks while a conv holds its
# input, output and columns (2.75 widest stacks on desk, whose conv2 columns
# are 2.25): four widest stacks get the same len(layers) * CHUNK_BYTES.
CHUNK_BYTES = 1024 * 1024


# -- layer descriptors ---------------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int


@dataclass(frozen=True)
class LifSpec:
    pass


@dataclass(frozen=True)
class PoolSpec:
    kind: str  # "max" | "avg"
    k: int


@dataclass(frozen=True)
class DropoutSpec:
    p: float


@dataclass(frozen=True)
class FcSpec:
    out_features: int


@dataclass(frozen=True)
class VotingSpec:
    pass


@dataclass(frozen=True)
class TcjaSpec:
    """Insertion marker; kernel sizes and fusion come from the run config."""


LayerSpec = ConvSpec | LifSpec | PoolSpec | DropoutSpec | FcSpec | VotingSpec | TcjaSpec


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple[LayerSpec, ...]
    input_dims: tuple[int, int, int] | None = None  # (C, H, W)
    time_steps: int | None = None


# Sizes are positive integers: a zero-width layer or pool is no layer.
_CONV_RE = re.compile(r"^([1-9]\d*)C([1-9]\d*)$")
_POOL_RE = re.compile(r"^(MP|AP)([1-9]\d*)$")
_DP_RE = re.compile(r"^(\d+(?:\.\d+)?|\.\d+)DP$")
_FC_RE = re.compile(r"^([1-9]\d*)FC$")


def parse_arch(
    spec: str,
    input_dims: tuple[int, int, int] | None = None,
    time_steps: int | None = None,
) -> ArchSpec:
    """Parse a dash-separated token string into layer descriptors."""
    if not spec or not spec.strip():
        raise ArchParseError("empty spec")
    layers: list[LayerSpec] = []
    tokens = spec.strip().split("-")
    for pos, token in enumerate(tokens):
        if m := _CONV_RE.match(token):
            if int(m.group(2)) % 2 == 0:
                raise ArchParseError(f"conv kernel {m.group(2)} at position {pos} is even")
            layers.append(ConvSpec(out_channels=int(m.group(1)), kernel=int(m.group(2))))
        elif token == "LIF":
            layers.append(LifSpec())
        elif m := _POOL_RE.match(token):
            kind = "max" if m.group(1) == "MP" else "avg"
            layers.append(PoolSpec(kind=kind, k=int(m.group(2))))
        elif m := _DP_RE.match(token):
            p = float(m.group(1))
            if not 0.0 <= p < 1.0:
                raise ArchParseError(f"dropout ratio {p} out of [0, 1) at position {pos}")
            layers.append(DropoutSpec(p=p))
        elif m := _FC_RE.match(token):
            layers.append(FcSpec(out_features=int(m.group(1))))
        elif token == "Voting":
            layers.append(VotingSpec())
        elif token == "TCJA":
            layers.append(TcjaSpec())
        else:
            raise ArchParseError(f"unknown token {token!r} at position {pos}")
    _validate_layers(layers, tokens)
    return ArchSpec(layers=tuple(layers), input_dims=input_dims, time_steps=time_steps)


def _validate_layers(layers: list[LayerSpec], tokens: list[str]) -> None:
    """Each layer must see the shape it works on: LIF needs a conv or FC
    just before it, conv, pool and TCJA need the (C, H, W) frames that the
    first FC flattens, and Voting needs the flat width that an FC leaves."""
    after_fc = False
    for i, layer in enumerate(layers):
        if isinstance(layer, LifSpec) and not (i and isinstance(layers[i - 1], (ConvSpec, FcSpec))):
            raise ArchParseError(f"LIF at position {i} must follow a conv or FC layer")
        if isinstance(layer, (ConvSpec, PoolSpec, TcjaSpec)) and after_fc:
            raise ArchParseError(f"{tokens[i]} at position {i} must come before the first FC layer")
        if isinstance(layer, VotingSpec) and not after_fc:
            raise ArchParseError(f"Voting at position {i} must come after an FC layer")
        after_fc = after_fc or isinstance(layer, FcSpec)


def render(spec: ArchSpec) -> str:
    """Inverse of parse_arch on the token grammar."""
    tokens = []
    for layer in spec.layers:
        if isinstance(layer, ConvSpec):
            tokens.append(f"{layer.out_channels}C{layer.kernel}")
        elif isinstance(layer, LifSpec):
            tokens.append("LIF")
        elif isinstance(layer, PoolSpec):
            tokens.append(("MP" if layer.kind == "max" else "AP") + str(layer.k))
        elif isinstance(layer, DropoutSpec):
            tokens.append(f"{layer.p:g}DP")
        elif isinstance(layer, FcSpec):
            tokens.append(f"{layer.out_features}FC")
        elif isinstance(layer, VotingSpec):
            tokens.append("Voting")
        elif isinstance(layer, TcjaSpec):
            tokens.append("TCJA")
        else:  # pragma: no cover
            raise TypeError(f"unknown layer spec {layer!r}")
    return "-".join(tokens)


# Reference architectures for common event/static benchmarks, plus a small
# default sized for laptop-scale runs.
PRESETS: dict[str, str] = {
    "dvs128": (
        "128C3-LIF-MP2-128C3-LIF-MP2-128C3-LIF-MP2-128C3-LIF-MP2-128C3-LIF"
        "-MP2-0.5DP-512FC-LIF-0.5DP-100FC-LIF-Voting"
    ),
    "cifar10dvs": (
        "64C3-LIF-128C3-LIF-AP2-256C3-LIF-256C3-LIF-AP2-512C3-LIF-512C3-LIF"
        "-AP2-512C3-LIF-512C3-LIF-AP2-10FC-LIF"
    ),
    "ncaltech101": (
        "64C3-LIF-MP2-128C3-LIF-MP2-256C3-LIF-MP2-256C3-LIF-MP2-512C3-LIF"
        "-0.8DP-1024FC-LIF-0.5DP-101FC-LIF"
    ),
    "fashion": "128C3-LIF-AP2-128C3-LIF-AP2-0.5DP-512FC-LIF-0.5DP-10FC-LIF",
    "desk": "16C3-LIF-MP2-TCJA-16C3-LIF-MP2-64FC-LIF-Voting",
}


# -- built layers ----------------------------------------------------------------


class _NoParams:
    """Base of the layers that own no parameters."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class ConvLayer:
    """Conv2D over the time-batched stack, stride 1, keeping H x W."""

    def __init__(self, kernel: Tensor):
        self.kernel = kernel

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return conv2d(x, self.kernel)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("kernel", self.kernel)]


class LifLayer(_NoParams):
    def __init__(self, cfg: LifConfig, name: str):
        self.cfg = cfg
        self.name = name

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return lif_sequence(x, self.cfg)


class PoolLayer(_NoParams):
    def __init__(self, kind: str, k: int):
        self.kind = kind
        self.k = k

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return pool2d(x, self.kind, self.k)


class DropoutLayer(_NoParams):
    """Spiking dropout: one Bernoulli mask per sample, shared over all T,
    drawn from `rng` as one (B, ...) draw, the same numbers as B draws of
    one sample's mask in turn; without an rng (evaluation) the layer passes
    its input."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        if rng is None or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (rng.random(x.shape[1:]) < keep).astype(x.dtype) / keep
        return dropout(x, mask)


class FcLayer:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return fully_connected(x, self.weight, self.bias)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


class VotingLayer(_NoParams):
    def __init__(self, num_classes: int):
        self.num_classes = num_classes

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return voting_layer(x, self.num_classes)


class TcjaLayer:
    def __init__(self, params: TcjaParams):
        self.params = params

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return attention.tcja_forward(x, self.params)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("w", self.params.w), ("e", self.params.e)]


def voting_layer(spikes: Tensor, num_classes: int) -> Tensor:
    """Average spike groups into class scores over the last axis:
    (T, L) -> (T, num_classes), or (T, B, L) -> (T, B, num_classes)."""
    if spikes.ndim < 2:
        raise ShapeError(f"voting expects (T, ..., L), got {spikes.shape}")
    *lead, width = spikes.shape
    if width % num_classes:
        raise ShapeError(
            f"neuron count {width} not divisible by {num_classes} classes"
        )
    window = width // num_classes
    scores = spikes.data.reshape(*lead, num_classes, window).mean(axis=-1)

    def backward(g: np.ndarray) -> None:
        spikes._accumulate(np.repeat(g / window, window, axis=-1))

    return Tensor._node(scores, (spikes,), backward)


def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    """Scale every time step of `x` by the same mask: (T, ...) * (...)."""

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._node(x.data * mask, (x,), backward)


@dataclass
class Network:
    """A built layer stack with owned parameters."""

    arch: ArchSpec
    layers: list = field(default_factory=list)
    num_classes: int = 0
    lif_cfg: LifConfig = field(default_factory=LifConfig)
    tcja_cfg: TcjaConfig = field(default_factory=TcjaConfig)
    dtype: np.dtype = np.float64

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, layer in enumerate(self.layers):
            for sub, tensor in layer.parameters():
                named.append((f"layer{i}.{sub}", tensor))
        return named

    def param_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def zero_grads(self) -> None:
        for _, t in self.parameters():
            t.grad = None

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        """Per-sample shape each layer takes, then the output's; see `walk`."""
        return walk(self.arch, self.num_classes)

    @property
    def _stack_bytes(self) -> int:
        """Bytes of one sample's widest activation over its T steps."""
        widest = max(math.prod(shape) for shape in self.shapes)
        return self.arch.time_steps * widest * np.dtype(self.dtype).itemsize

    @property
    def chunk_size(self) -> int:
        """Samples per training chunk; at least one."""
        return max(1, CHUNK_BYTES // self._stack_bytes)

    @property
    def eval_chunk_size(self) -> int:
        """Samples per chunk of a forward without a graph; at least one."""
        return max(1, len(self.layers) * CHUNK_BYTES // (4 * self._stack_bytes))

    def forward(self, x: Tensor, rng: np.random.Generator | None = None, observe=None) -> Tensor:
        """Run the stack on a (T, B, C, H, W) batch of B samples; the output
        is (T, B, ...), each sample's part computed as if it ran alone.

        Dropout layers draw their masks from `rng`, as in training, and pass
        their input through when it is None. If given, `observe(layer, x_in,
        out)` is called after each layer with its (T, B, ...) input and
        output: the one seam for reading firing rates, attention maps and
        the like.
        """
        t_steps, dims = self.arch.time_steps, self.arch.input_dims
        if x.ndim != 5 or x.shape[0] != t_steps or x.shape[2:] != dims or x.shape[1] < 1:
            raise ShapeError(
                f"input shape {x.shape} does not match spec ({t_steps}, B, {', '.join(map(str, dims))})"
            )
        h = x
        for i, layer in enumerate(self.layers):
            try:
                out = layer.apply(h, rng)
            except ShapeError as err:
                raise ShapeError(f"layer {i} ({type(layer).__name__}): {err}") from err
            if observe is not None:
                observe(layer, h, out)
            h = out
        return h


def walk(arch: ArchSpec, num_classes: int) -> list[tuple[int, ...]]:
    """The per-sample shape each layer of `arch` takes, then the output's:
    (C, H, W) until an FC layer flattens it to (F,). Refuses input dims and
    pools that do not fit; the layer order is checked by `parse_arch`."""
    if arch.input_dims is None or arch.time_steps is None:
        raise ValueError("arch spec needs input_dims and time_steps to build")
    if len(arch.input_dims) != 3 or min(*arch.input_dims, arch.time_steps, num_classes) < 1:
        raise ValueError(
            f"input dims {arch.input_dims} must be (C, H, W), and they, T={arch.time_steps}"
            f" and {num_classes} classes must be positive"
        )
    shapes = [tuple(arch.input_dims)]
    for i, layer in enumerate(arch.layers):
        shape = shapes[-1]
        if isinstance(layer, ConvSpec):
            shape = (layer.out_channels, *shape[1:])
        elif isinstance(layer, PoolSpec):
            c, h, w = shape
            if h % layer.k or w % layer.k:
                raise ArchParseError(f"pool at position {i}: {h}x{w} not divisible by {layer.k}")
            shape = (c, h // layer.k, w // layer.k)
        elif isinstance(layer, FcSpec):
            shape = (layer.out_features,)
        elif isinstance(layer, VotingSpec):
            if shape[0] % num_classes:
                raise ArchParseError(
                    f"voting at position {i}: width {shape[0]} not divisible by"
                    f" {num_classes} classes"
                )
            shape = (num_classes,)
        shapes.append(shape)  # LIF, dropout and TCJA keep the shape
    return shapes


def analytic_param_count(arch: ArchSpec, num_classes: int, tcja_cfg: TcjaConfig) -> int:
    """Closed-form parameter total from layer dimensions alone."""
    total = 0
    for layer, shape in zip(arch.layers, walk(arch, num_classes)):
        if isinstance(layer, ConvSpec):
            total += layer.out_channels * shape[0] * layer.kernel**2
        elif isinstance(layer, FcSpec):
            total += (math.prod(shape) + 1) * layer.out_features
        elif isinstance(layer, TcjaSpec):
            c, t = shape[0], arch.time_steps
            tla_n, cla_n, _ = attention.param_count(c, t, *tcja_cfg.kernel_sizes(c, t))
            total += tla_n + cla_n
    return total


def build_network(
    arch: ArchSpec,
    num_classes: int,
    lif_cfg: LifConfig | None = None,
    tcja_cfg: TcjaConfig | None = None,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
) -> Network:
    """Instantiate layers with uniform +-1/sqrt(fan_in) weights."""
    lif_cfg = lif_cfg or LifConfig()
    tcja_cfg = tcja_cfg or TcjaConfig()
    rng = rng or np.random.default_rng(0)
    dtype = np.dtype(dtype)

    def weight(size: tuple[int, ...], fan_in: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=size).astype(dtype), requires_grad=True)

    net = Network(
        arch=arch, num_classes=num_classes, lif_cfg=lif_cfg, tcja_cfg=tcja_cfg, dtype=dtype
    )
    for spec, shape in zip(arch.layers, walk(arch, num_classes)):
        if isinstance(spec, ConvSpec):
            c_in, k = shape[0], spec.kernel
            layer = ConvLayer(weight((spec.out_channels, c_in, k, k), c_in * k * k))
        elif isinstance(spec, LifSpec):
            lifs = sum(isinstance(built, LifLayer) for built in net.layers)
            layer = LifLayer(lif_cfg, name=f"lif{lifs}")
        elif isinstance(spec, PoolSpec):
            layer = PoolLayer(spec.kind, spec.k)
        elif isinstance(spec, DropoutSpec):
            layer = DropoutLayer(spec.p)
        elif isinstance(spec, FcSpec):
            f_in = math.prod(shape)
            bias = Tensor(np.zeros(spec.out_features, dtype), requires_grad=True)
            layer = FcLayer(weight((f_in, spec.out_features), f_in), bias)
        elif isinstance(spec, VotingSpec):
            layer = VotingLayer(num_classes)
        else:
            c, t = shape[0], arch.time_steps
            layer = TcjaLayer(attention.init_tcja_params(c, t, tcja_cfg, rng, dtype=dtype))
        net.layers.append(layer)
    return net
