"""Temporal-channel joint attention over spike frame stacks.

A frame stack (T, C, H, W) is squeezed to a C x T average matrix, two
orthogonal multichannel 1-D convolutions score it along the time and
channel axes, the two score maps are fused through a sigmoid, and the
fused map rescales the original frames. Every output position draws on a
cross-shaped region of the average matrix: its kernel-wide time window
across all channels plus its kernel-wide channel window across all time
steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, conv1d_multichannel

_FUSIONS = ("multiply", "add")


@dataclass(frozen=True)
class TcjaConfig:
    """Requested kernel sizes and fusion mode; sizes are capped at build."""

    k_t: int = 4
    k_c: int = 4
    fusion: str = "multiply"

    def __post_init__(self):
        if self.k_t < 1 or self.k_c < 1:
            raise ValueError(f"kernel sizes must be >= 1, got k_t={self.k_t} k_c={self.k_c}")
        if self.fusion not in _FUSIONS:
            raise ValueError(f"fusion must be one of {_FUSIONS}, got {self.fusion!r}")


@dataclass
class TcjaParams:
    """Learnable kernels of one attention block.

    `w` is (C, C, k_t) convolving rows of the average matrix along time;
    `e` is (T, T, k_c) convolving its columns along channels.
    """

    w: Tensor
    e: Tensor
    fusion: str = "multiply"


@dataclass
class AttentionMaps:
    """Score matrices of one forward pass, each C x T."""

    t_map: Tensor
    c_map: Tensor
    f_map: Tensor


def init_tcja_params(
    channels: int,
    time_steps: int,
    cfg: TcjaConfig,
    rng: np.random.Generator,
    dtype=np.float64,
) -> TcjaParams:
    """Uniform +-1/sqrt(fan_in) kernels, fan_in = input rows times kernel size.

    Kernel sizes are capped at dim - 1 so each convolution window stays
    strictly shorter than the axis it slides along.
    """
    if time_steps < 2 or channels < 2:
        raise ValueError(
            f"attention needs C >= 2 and T >= 2, got C={channels} T={time_steps}"
        )
    k_t = min(cfg.k_t, time_steps - 1)
    k_c = min(cfg.k_c, channels - 1)
    bound_w = 1.0 / np.sqrt(channels * k_t)
    bound_e = 1.0 / np.sqrt(time_steps * k_c)
    w = rng.uniform(-bound_w, bound_w, size=(channels, channels, k_t))
    e = rng.uniform(-bound_e, bound_e, size=(time_steps, time_steps, k_c))
    return TcjaParams(
        w=Tensor(w.astype(dtype), requires_grad=True),
        e=Tensor(e.astype(dtype), requires_grad=True),
        fusion=cfg.fusion,
    )


def squeeze(x: Tensor) -> Tensor:
    """Average each (channel, step) frame over space: (T, C, H, W) -> (C, T)."""
    if x.ndim != 4:
        raise ShapeError(f"squeeze expects (T, C, H, W), got {x.shape}")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError(f"empty spatial dimensions in {x.shape}")
    return x.mean(axis=(2, 3)).transpose()


def tla(z: Tensor, w: Tensor) -> Tensor:
    """Time-axis local attention scores: rows of `z` convolved along time."""
    k = w.shape[2]
    if k >= z.shape[1]:
        raise ShapeError(f"time kernel size {k} must be < T = {z.shape[1]}")
    return conv1d_multichannel(z, w)


def cla(z: Tensor, e: Tensor) -> Tensor:
    """Channel-axis local attention scores: columns of `z` convolved along channels."""
    k = e.shape[2]
    if k >= z.shape[0]:
        raise ShapeError(f"channel kernel size {k} must be < C = {z.shape[0]}")
    return conv1d_multichannel(z.transpose(), e).transpose()


def ccf(t_map: Tensor, c_map: Tensor, fusion: str = "multiply") -> Tensor:
    """Fuse the two score maps into sigmoid attention weights in (0, 1)."""
    if t_map.shape != c_map.shape:
        raise ShapeError(f"score map shapes differ: {t_map.shape} vs {c_map.shape}")
    if fusion == "multiply":
        pre = t_map * c_map
    elif fusion == "add":
        pre = t_map + c_map
    else:
        raise ValueError(f"fusion must be one of {_FUSIONS}, got {fusion!r}")
    return pre.sigmoid()


def recalibrate(x: Tensor, f_map: Tensor) -> Tensor:
    """Scale each (channel, step) frame of `x` by its attention weight."""
    if x.ndim != 4 or f_map.ndim != 2:
        raise ShapeError(f"expected (T, C, H, W) and (C, T), got {x.shape} and {f_map.shape}")
    t_steps, channels = x.shape[0], x.shape[1]
    if f_map.shape != (channels, t_steps):
        raise ShapeError(
            f"attention map {f_map.shape} does not match frames {x.shape}"
        )
    factor = f_map.transpose().reshape(t_steps, channels, 1, 1)
    return x * factor


def score_maps(x: Tensor, params: TcjaParams) -> AttentionMaps:
    """Squeeze the frames, score both axes and fuse the scores."""
    z = squeeze(x)
    t_map = tla(z, params.w)
    c_map = cla(z, params.e)
    return AttentionMaps(t_map=t_map, c_map=c_map, f_map=ccf(t_map, c_map, params.fusion))


def tcja_forward(x: Tensor, params: TcjaParams) -> Tensor:
    """Full attention pass: squeeze, score both axes, fuse, rescale frames."""
    return recalibrate(x, score_maps(x, params).f_map)


def param_count(c: int, t: int, k_t: int, k_c: int) -> tuple[int, int, int]:
    """Kernel parameter counts (time-attention, channel-attention) and the
    dense C x T -> C x T baseline they replace.

    The counts are C^2*K_T, T^2*K_C and T^2*C^2, so the kernels cost exactly
    K_T/T^2 + K_C/C^2 of the baseline."""
    if c < 1 or t < 1 or k_t < 1 or k_c < 1:
        raise ValueError("dimensions and kernel sizes must be positive")
    return c * c * k_t, t * t * k_c, t * t * c * c
