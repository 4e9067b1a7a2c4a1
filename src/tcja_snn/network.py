"""Architecture strings, layer stacks, and the temporal forward pass.

Arch specs are dash-separated tokens: ``128C3`` (conv, 128 outputs,
kernel 3, stride 1), ``MP2``/``AP2`` (max/avg pool), ``LIF`` (spiking
neuron), ``0.5DP`` (spiking dropout), ``512FC`` (fully connected),
``Voting`` (group-average readout), and ``TCJA`` (attention insertion
point). The network runs a batch of samples as one (T, B, C, H, W)
stack, and every layer maps a full (T, B, ...) stack to a full (T, B, ...)
stack: spiking layers run their recurrence over T internally, so attention
blocks that need all time steps at once see them materialized by
construction, and the stateless layers treat T and B alike as batch axes.
Every sample's values are computed as if it ran alone.
"""

from __future__ import annotations

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
# gets CHUNK_BYTES. A forward without a graph holds a layer's input and
# output: its two widest stacks get the same len(layers) * CHUNK_BYTES.
CHUNK_BYTES = 512 * 1024


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
    for pos, token in enumerate(spec.strip().split("-")):
        if m := _CONV_RE.match(token):
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
    _validate_layers(layers)
    return ArchSpec(layers=tuple(layers), input_dims=input_dims, time_steps=time_steps)


def _validate_layers(layers: list[LayerSpec]) -> None:
    for i, layer in enumerate(layers):
        if isinstance(layer, LifSpec):
            if i == 0 or not isinstance(layers[i - 1], (ConvSpec, FcSpec)):
                raise ArchParseError(
                    f"LIF at position {i} must follow a conv or FC layer"
                )


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


class ConvLayer:
    """Conv2D over the time-batched stack, stride 1, same-style padding."""

    def __init__(self, kernel: Tensor, padding: int):
        self.kernel = kernel
        self.padding = padding

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return conv2d(x, self.kernel, padding=self.padding)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("kernel", self.kernel)]


class LifLayer:
    def __init__(self, cfg: LifConfig, name: str):
        self.cfg = cfg
        self.name = name

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return lif_sequence(x, self.cfg)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class PoolLayer:
    def __init__(self, kind: str, k: int):
        self.kind = kind
        self.k = k

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return pool2d(x, self.kind, self.k)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class DropoutLayer:
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

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class FcLayer:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return fully_connected(x, self.weight, self.bias)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


class VotingLayer:
    def __init__(self, num_classes: int):
        self.num_classes = num_classes

    def apply(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return voting_layer(x, self.num_classes)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


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
    def _stack_bytes(self) -> int:
        """Bytes of one sample's widest activation over its T steps."""
        widest = int(np.prod(self.arch.input_dims))
        for kind, info in _walk_dims(self.arch, self.num_classes):
            if kind == "conv":
                _, c_out, _, h, w = info
                widest = max(widest, c_out * h * w)
            elif kind == "fc":
                widest = max(widest, info[1])
        return self.arch.time_steps * widest * np.dtype(self.dtype).itemsize

    @property
    def chunk_size(self) -> int:
        """Samples per training chunk; at least one."""
        return max(1, CHUNK_BYTES // self._stack_bytes)

    @property
    def eval_chunk_size(self) -> int:
        """Samples per chunk of a forward without a graph; at least one."""
        return max(1, len(self.layers) * CHUNK_BYTES // (2 * self._stack_bytes))

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


def analytic_param_count(
    arch: ArchSpec, num_classes: int, tcja_cfg: TcjaConfig
) -> int:
    """Closed-form parameter total from layer dimensions alone."""
    total = 0
    for kind, info in _walk_dims(arch, num_classes):
        if kind == "conv":
            c_in, c_out, k = info[:3]
            total += c_out * c_in * k * k
        elif kind == "fc":
            f_in, f_out = info
            total += f_in * f_out + f_out
        elif kind == "tcja":
            c, t = info
            k_t = min(tcja_cfg.k_t, t - 1)
            k_c = min(tcja_cfg.k_c, c - 1)
            tla_n, cla_n, _ = attention.param_count(c, t, k_t, k_c)
            total += tla_n + cla_n
    return total


def _walk_dims(arch: ArchSpec, num_classes: int):
    """Yield (kind, dims) per parameterized layer while tracking shapes:
    conv (C_in, C_out, k, H_out, W_out), fc (F_in, F_out) and tcja (C, T)."""
    if arch.input_dims is None or arch.time_steps is None:
        raise ValueError("arch spec needs input_dims and time_steps to build")
    if min(*arch.input_dims, arch.time_steps, num_classes) < 1:
        raise ValueError(
            f"input dims {arch.input_dims}, T={arch.time_steps} and"
            f" {num_classes} classes must be positive"
        )
    c, h, w = arch.input_dims
    t = arch.time_steps
    flat: int | None = None
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, ConvSpec):
            if flat is not None:
                raise ArchParseError(f"conv at position {i} after flatten")
            pad = layer.kernel // 2
            h = h + 2 * pad - layer.kernel + 1
            w = w + 2 * pad - layer.kernel + 1
            yield "conv", (c, layer.out_channels, layer.kernel, h, w)
            c = layer.out_channels
        elif isinstance(layer, PoolSpec):
            if h % layer.k or w % layer.k:
                raise ArchParseError(
                    f"pool at position {i}: {h}x{w} not divisible by {layer.k}"
                )
            h //= layer.k
            w //= layer.k
        elif isinstance(layer, FcSpec):
            f_in = flat if flat is not None else c * h * w
            yield "fc", (f_in, layer.out_features)
            flat = layer.out_features
        elif isinstance(layer, TcjaSpec):
            if flat is not None:
                raise ArchParseError(f"TCJA at position {i} after flatten")
            yield "tcja", (c, t)
        elif isinstance(layer, VotingSpec):
            f_in = flat if flat is not None else c * h * w
            if f_in % num_classes:
                raise ArchParseError(
                    f"voting at position {i}: width {f_in} not divisible by"
                    f" {num_classes} classes"
                )
            flat = num_classes
        # LIF and dropout leave dimensions unchanged.


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

    dims = list(_walk_dims(arch, num_classes))  # validates shapes up front
    net = Network(
        arch=arch,
        num_classes=num_classes,
        lif_cfg=lif_cfg,
        tcja_cfg=tcja_cfg,
        dtype=dtype,
    )
    dim_iter = iter(dims)
    lif_index = 0
    for layer in arch.layers:
        if isinstance(layer, ConvSpec):
            c_in, c_out, k = next(dim_iter)[1][:3]
            bound = 1.0 / np.sqrt(c_in * k * k)
            kernel = rng.uniform(-bound, bound, size=(c_out, c_in, k, k))
            net.layers.append(
                ConvLayer(Tensor(kernel.astype(dtype), requires_grad=True), padding=k // 2)
            )
        elif isinstance(layer, LifSpec):
            net.layers.append(LifLayer(lif_cfg, name=f"lif{lif_index}"))
            lif_index += 1
        elif isinstance(layer, PoolSpec):
            net.layers.append(PoolLayer(layer.kind, layer.k))
        elif isinstance(layer, DropoutSpec):
            net.layers.append(DropoutLayer(layer.p))
        elif isinstance(layer, FcSpec):
            f_in, f_out = next(dim_iter)[1]
            bound = 1.0 / np.sqrt(f_in)
            weight = rng.uniform(-bound, bound, size=(f_in, f_out))
            bias = np.zeros(f_out)
            net.layers.append(
                FcLayer(
                    Tensor(weight.astype(dtype), requires_grad=True),
                    Tensor(bias.astype(dtype), requires_grad=True),
                )
            )
        elif isinstance(layer, VotingSpec):
            net.layers.append(VotingLayer(num_classes))
        elif isinstance(layer, TcjaSpec):
            c, t = next(dim_iter)[1]
            params = attention.init_tcja_params(c, t, tcja_cfg, rng, dtype=dtype)
            net.layers.append(TcjaLayer(params))
    return net

