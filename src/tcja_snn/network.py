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
# gets CHUNK_BYTES. A forward without a graph, whose convs build their
# columns a block at a time, peaks while the first LIF holds its input and
# spike stack (2.25 widest stacks on desk). Four widest stacks, the rule from
# when conv2's whole columns made it 2.75, get the same
# len(layers) * CHUNK_BYTES, so the chunks stay where they were measured.
CHUNK_BYTES = 1024 * 1024


# -- layers --------------------------------------------------------------------
# Each arch token parses to one frozen layer: its first fields are the token's
# sizes, and `build_network` fills in the rest (weights, settings, names).


@dataclass(frozen=True)
class ConvLayer:
    """Conv2D over the time-batched stack, stride 1, keeping H x W."""

    out_channels: int
    size: int
    kernel: Tensor | None = None

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return conv2d(x, self.kernel)


@dataclass(frozen=True)
class LifLayer:
    cfg: LifConfig | None = None
    name: str | None = None

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return lif_sequence(x, self.cfg)


@dataclass(frozen=True)
class PoolLayer:
    kind: str  # "max" | "avg"
    k: int

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return pool2d(x, self.kind, self.k)


@dataclass(frozen=True)
class DropoutLayer:
    """Spiking dropout: one Bernoulli mask per sample, shared over all T,
    drawn from `rng` as one (B, ...) draw, the same numbers as B draws of
    one sample's mask in turn; without an rng (evaluation) the layer passes
    its input."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ArchParseError(f"dropout ratio {self.p} out of [0, 1)")

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        if rng is None or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (rng.random(x.shape[1:]) < keep).astype(x.dtype) / keep
        return dropout(x, mask)


@dataclass(frozen=True)
class FcLayer:
    out_features: int
    weight: Tensor | None = None
    bias: Tensor | None = None

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return fully_connected(x, self.weight, self.bias)


@dataclass(frozen=True)
class VotingLayer:
    num_classes: int = 0

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return voting_layer(x, self.num_classes)


@dataclass(frozen=True)
class TcjaLayer:
    """Insertion point; kernel sizes and fusion come from the run config."""

    params: TcjaParams | None = None

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return attention.tcja_forward(x, self.params)


# Not a class: perfbench traces the `apply` of every class named `*Layer` here.
Layer = ConvLayer | LifLayer | PoolLayer | DropoutLayer | FcLayer | VotingLayer | TcjaLayer


@dataclass(frozen=True)
class ArchSpec:
    layers: tuple[Layer, ...]
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
    """Parse a dash-separated token string into layers, unbuilt."""
    if not spec or not spec.strip():
        raise ArchParseError("empty spec")
    layers: list[Layer] = []
    tokens = spec.strip().split("-")
    for pos, token in enumerate(tokens):
        if m := _CONV_RE.match(token):
            if int(m.group(2)) % 2 == 0:
                raise ArchParseError(f"conv kernel {m.group(2)} at position {pos} is even")
            layers.append(ConvLayer(int(m.group(1)), int(m.group(2))))
        elif token == "LIF":
            layers.append(LifLayer())
        elif m := _POOL_RE.match(token):
            kind = "max" if m.group(1) == "MP" else "avg"
            layers.append(PoolLayer(kind, int(m.group(2))))
        elif m := _DP_RE.match(token):
            layers.append(DropoutLayer(float(m.group(1))))
        elif m := _FC_RE.match(token):
            layers.append(FcLayer(int(m.group(1))))
        elif token == "Voting":
            layers.append(VotingLayer())
        elif token == "TCJA":
            layers.append(TcjaLayer())
        else:
            raise ArchParseError(f"unknown token {token!r} at position {pos}")
    _validate_layers(layers, tokens)
    return ArchSpec(layers=tuple(layers), input_dims=input_dims, time_steps=time_steps)


def _validate_layers(layers: list[Layer], tokens: list[str]) -> None:
    """Each layer must see the shape it works on: LIF needs a conv or FC
    just before it, conv, pool and TCJA need the (C, H, W) frames that the
    first FC flattens, and Voting needs the flat width that an FC leaves."""
    after_fc = False
    for i, layer in enumerate(layers):
        if isinstance(layer, LifLayer) and not (i and isinstance(layers[i - 1], (ConvLayer, FcLayer))):
            raise ArchParseError(f"LIF at position {i} must follow a conv or FC layer")
        if isinstance(layer, (ConvLayer, PoolLayer, TcjaLayer)) and after_fc:
            raise ArchParseError(f"{tokens[i]} at position {i} must come before the first FC layer")
        if isinstance(layer, VotingLayer) and not after_fc:
            raise ArchParseError(f"Voting at position {i} must come after an FC layer")
        after_fc = after_fc or isinstance(layer, FcLayer)


def render(spec: ArchSpec) -> str:
    """Inverse of parse_arch on the token grammar."""
    tokens = []
    for layer in spec.layers:
        if isinstance(layer, ConvLayer):
            tokens.append(f"{layer.out_channels}C{layer.size}")
        elif isinstance(layer, LifLayer):
            tokens.append("LIF")
        elif isinstance(layer, PoolLayer):
            tokens.append(("MP" if layer.kind == "max" else "AP") + str(layer.k))
        elif isinstance(layer, DropoutLayer):
            tokens.append(np.format_float_positional(layer.p, trim="-") + "DP")
        elif isinstance(layer, FcLayer):
            tokens.append(f"{layer.out_features}FC")
        elif isinstance(layer, VotingLayer):
            tokens.append("Voting")
        elif isinstance(layer, TcjaLayer):
            tokens.append("TCJA")
        else:  # pragma: no cover
            raise TypeError(f"unknown layer {layer!r}")
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
    """A built layer stack, its parameters named `layer{i}.{name}` in draw
    order, and the per-sample shape each layer takes, then the output's
    (see `walk`)."""

    arch: ArchSpec
    shapes: list[tuple[int, ...]]
    num_classes: int
    lif_cfg: LifConfig
    tcja_cfg: TcjaConfig
    dtype: np.dtype
    layers: list[Layer] = field(default_factory=list)
    params: list[tuple[str, Tensor]] = field(default_factory=list)

    def param_count(self) -> int:
        return sum(t.size for _, t in self.params)

    def zero_grads(self) -> None:
        for _, t in self.params:
            t.grad = None

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
    layers that do not fit; the layer order is checked by `parse_arch`."""
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
        if isinstance(layer, ConvLayer):
            shape = (layer.out_channels, *shape[1:])
        elif isinstance(layer, PoolLayer):
            c, h, w = shape
            if h % layer.k or w % layer.k:
                raise ArchParseError(f"pool at position {i}: {h}x{w} not divisible by {layer.k}")
            shape = (c, h // layer.k, w // layer.k)
        elif isinstance(layer, FcLayer):
            shape = (layer.out_features,)
        elif isinstance(layer, VotingLayer):
            if shape[0] % num_classes:
                raise ArchParseError(
                    f"voting at position {i}: width {shape[0]} not divisible by"
                    f" {num_classes} classes"
                )
            shape = (num_classes,)
        elif isinstance(layer, TcjaLayer) and min(shape[0], arch.time_steps) < 2:
            raise ArchParseError(
                f"TCJA at position {i} needs C, T >= 2, got C={shape[0]} T={arch.time_steps}"
            )
        shapes.append(shape)  # LIF, dropout and TCJA keep the shape
    return shapes


def analytic_param_count(arch: ArchSpec, num_classes: int, tcja_cfg: TcjaConfig) -> int:
    """Closed-form parameter total from layer dimensions alone."""
    total = 0
    for layer, shape in zip(arch.layers, walk(arch, num_classes)):
        if isinstance(layer, ConvLayer):
            total += layer.out_channels * shape[0] * layer.size**2
        elif isinstance(layer, FcLayer):
            total += (math.prod(shape) + 1) * layer.out_features
        elif isinstance(layer, TcjaLayer):
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
    """Instantiate layers with uniform +-1/sqrt(fan_in) weights and zero FC
    biases; a TCJA kernel's fan_in is its input rows times its kernel size
    (C*k_t, T*k_c)."""
    lif_cfg = lif_cfg or LifConfig()
    tcja_cfg = tcja_cfg or TcjaConfig()
    rng = rng or np.random.default_rng(0)
    dtype = np.dtype(dtype)
    net = Network(
        arch=arch, shapes=walk(arch, num_classes), num_classes=num_classes, lif_cfg=lif_cfg,
        tcja_cfg=tcja_cfg, dtype=dtype,
    )

    def register(name: str, values: np.ndarray) -> Tensor:
        # The layer being built is the next one: layer{len(net.layers)}.
        tensor = Tensor(values.astype(dtype), requires_grad=True)
        net.params.append((f"layer{len(net.layers)}.{name}", tensor))
        return tensor

    def weight(name: str, size: tuple[int, ...], fan_in: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return register(name, rng.uniform(-bound, bound, size=size))

    for layer, shape in zip(arch.layers, net.shapes):
        if isinstance(layer, ConvLayer):
            c_out, c_in, k = layer.out_channels, shape[0], layer.size
            layer = ConvLayer(c_out, k, weight("kernel", (c_out, c_in, k, k), c_in * k * k))
        elif isinstance(layer, LifLayer):
            lifs = sum(isinstance(built, LifLayer) for built in net.layers)
            layer = LifLayer(lif_cfg, name=f"lif{lifs}")
        elif isinstance(layer, FcLayer):
            f_in, f_out = math.prod(shape), layer.out_features
            w = weight("weight", (f_in, f_out), f_in)
            layer = FcLayer(f_out, w, register("bias", np.zeros(f_out)))
        elif isinstance(layer, VotingLayer):
            layer = VotingLayer(num_classes)
        elif isinstance(layer, TcjaLayer):
            c, t = shape[0], arch.time_steps
            k_t, k_c = tcja_cfg.kernel_sizes(c, t)
            w = weight("w", (c, c, k_t), c * k_t)
            layer = TcjaLayer(TcjaParams(w, weight("e", (t, t, k_c), t * k_c), tcja_cfg.fusion))
        net.layers.append(layer)  # pool and dropout layers run as parsed
    return net
