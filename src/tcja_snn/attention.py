"""Temporal-channel joint attention over spike frame stacks.

A frame stack (T, C, H, W) is squeezed to a C x T average matrix, two
orthogonal multichannel 1-D convolutions score it along the time and
channel axes, the two score maps are fused through a sigmoid, and the
fused map rescales the original frames. Every output position draws on a
cross-shaped region of the average matrix: its kernel-wide time window
across all channels plus its kernel-wide channel window across all time
steps. The steps work on plain arrays; `tcja_forward` runs them as one
graph node with a closed-form backward.

A batch of stacks, (T, B, C, H, W) or any other axes between T and C, is
B independent stacks: it squeezes to (B, C, T), the 1-D convolutions
broadcast over B and the kernel gradients sum over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

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

    def kernel_sizes(self, channels: int, time_steps: int) -> tuple[int, int]:
        """(k_t, k_c) capped at dim - 1, so each convolution window stays
        strictly shorter than the axis it slides along."""
        return min(self.k_t, time_steps - 1), min(self.k_c, channels - 1)


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
    """The squeezed frames `z` and the score matrices computed from them,
    each a C x T array per stack."""

    z: np.ndarray
    t_map: np.ndarray
    c_map: np.ndarray
    f_map: np.ndarray


def squeeze(x: np.ndarray) -> np.ndarray:
    """Average each (channel, step) frame over space: (T, ..., C, H, W) -> (..., C, T)."""
    if x.ndim < 4:
        raise ShapeError(f"squeeze expects (T, ..., C, H, W), got {x.shape}")
    if x.shape[-2] < 1 or x.shape[-1] < 1:
        raise ShapeError(f"empty spatial dimensions in {x.shape}")
    return np.moveaxis(x.mean(axis=(-2, -1)), 0, -1)


def _conv1d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Multichannel 1-D cross-correlation, zero-filled past the end, no bias.

    `x` is (..., Cin, L), `kernel` is (Cout, Cin, K). Output is
    (..., Cout, L) with out[..., i, j] = sum_n sum_m kernel[i, n, m] *
    x[..., n, j + m], where reads at j + m >= L contribute zero.
    """
    if x.ndim < 2 or kernel.ndim != 3:
        raise ShapeError(
            f"conv1d expects (..., Cin, L) input and 3-D kernel, got {x.shape} and {kernel.shape}"
        )
    if kernel.shape[1] != x.shape[-2]:
        raise ShapeError(f"kernel channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    length, ksize = x.shape[-1], kernel.shape[2]
    out = np.zeros((*x.shape[:-2], kernel.shape[0], length), dtype=x.dtype)
    for m in range(ksize):
        out[..., : length - m] += kernel[:, :, m] @ x[..., m:]
    return out


def _conv1d_vjp(g: np.ndarray, x: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `_conv1d(x, kernel)` for the output gradient `g`: (dx,
    dkernel), dkernel summed over the leading axes."""
    length, ksize = x.shape[-1], kernel.shape[2]
    dx = np.zeros_like(x)
    dkernel = np.zeros_like(kernel)
    for m in range(ksize):
        products = g[..., : length - m] @ x[..., m:].swapaxes(-1, -2)
        dkernel[:, :, m] = products.reshape(-1, *products.shape[-2:]).sum(axis=0)
        dx[..., m:] += kernel[:, :, m].T @ g[..., : length - m]
    return dx, dkernel


def tla(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Time-axis local attention scores: rows of `z` convolved along time."""
    k = w.shape[2]
    if k >= z.shape[-1]:
        raise ShapeError(f"time kernel size {k} must be < T = {z.shape[-1]}")
    return _conv1d(z, w)


def cla(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Channel-axis local attention scores: columns of `z` convolved along channels."""
    k = e.shape[2]
    if k >= z.shape[-2]:
        raise ShapeError(f"channel kernel size {k} must be < C = {z.shape[-2]}")
    return _conv1d(z.swapaxes(-1, -2), e).swapaxes(-1, -2)


def ccf(t_map: np.ndarray, c_map: np.ndarray, fusion: str = "multiply") -> np.ndarray:
    """Fuse the two score maps into sigmoid attention weights in (0, 1)."""
    if t_map.shape != c_map.shape:
        raise ShapeError(f"score map shapes differ: {t_map.shape} vs {c_map.shape}")
    if fusion not in _FUSIONS:
        raise ValueError(f"fusion must be one of {_FUSIONS}, got {fusion!r}")
    pre = t_map * c_map if fusion == "multiply" else t_map + c_map
    # exp(-|p|) is at most 1, so neither branch of the logistic overflows.
    ex = np.exp(-np.abs(pre))
    return np.where(pre >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def recalibrate(x: np.ndarray, f_map: np.ndarray) -> np.ndarray:
    """Scale each (channel, step) frame of `x` by its attention weight:
    (T, ..., C, H, W) by (..., C, T)."""
    if x.ndim < 4 or f_map.ndim != x.ndim - 2:
        raise ShapeError(
            f"expected (T, ..., C, H, W) and (..., C, T), got {x.shape} and {f_map.shape}"
        )
    if f_map.shape != (*x.shape[1:-2], x.shape[0]):
        raise ShapeError(
            f"attention map {f_map.shape} does not match frames {x.shape}"
        )
    return x * _frame_factor(f_map)


def _frame_factor(f_map: np.ndarray) -> np.ndarray:
    """The (..., C, T) map as a (T, ..., C, 1, 1) view against the frames."""
    return np.moveaxis(f_map, -1, 0)[..., None, None]


def score_maps(x: np.ndarray, params: TcjaParams) -> AttentionMaps:
    """Squeeze the frames, score both axes and fuse the scores."""
    z = squeeze(x)
    t_map = tla(z, params.w.data)
    c_map = cla(z, params.e.data)
    return AttentionMaps(z=z, t_map=t_map, c_map=c_map, f_map=ccf(t_map, c_map, params.fusion))


def tcja_forward(x: Tensor, params: TcjaParams) -> Tensor:
    """Full attention pass: squeeze, score both axes, fuse, rescale frames.

    The pass is one graph node. With f the fused map, p its pre-sigmoid
    map (t*c or t+c) and z the squeezed frames, the backward is:
    g_f = sum_hw g_y*x, g_p = g_f*f*(1-f), g_t = g_p*c and g_c = g_p*t
    (both g_p under add fusion), the two 1-D conv VJPs give g_w, g_e and
    g_z, and g_x = g_y*f + spread(g_z)/(H*W).
    """
    maps = score_maps(x.data, params)
    out = recalibrate(x.data, maps.f_map)
    w, e = params.w, params.e
    height, width = x.shape[-2:]

    def backward(g: np.ndarray) -> None:
        # Summed over H, then W, as numpy sums a broadcast product's gradient.
        g_f = np.moveaxis((g * x.data).sum(axis=-2).sum(axis=-1), 0, -1)
        g_p = g_f * maps.f_map * (1.0 - maps.f_map)
        if params.fusion == "multiply":
            g_t, g_c = g_p * maps.c_map, g_p * maps.t_map
        else:
            g_t, g_c = g_p, g_p
        g_zt, g_w = _conv1d_vjp(g_t, maps.z, w.data)
        g_zc, g_e = _conv1d_vjp(g_c.swapaxes(-1, -2), maps.z.swapaxes(-1, -2), e.data)
        if w.requires_grad:
            w._accumulate(g_w)
        if e.requires_grad:
            e._accumulate(g_e)
        if x.requires_grad:
            g_z = g_zt + g_zc.swapaxes(-1, -2)
            x._accumulate(g * _frame_factor(maps.f_map) + _frame_factor(g_z) / (height * width))

    return Tensor._node(out, (x, w, e), backward)


def param_count(c: int, t: int, k_t: int, k_c: int) -> tuple[int, int, int]:
    """Kernel parameter counts (time-attention, channel-attention) and the
    dense C x T -> C x T baseline they replace.

    The counts are C^2*K_T, T^2*K_C and T^2*C^2, so the kernels cost exactly
    K_T/T^2 + K_C/C^2 of the baseline."""
    if c < 1 or t < 1 or k_t < 1 or k_c < 1:
        raise ValueError("dimensions and kernel sizes must be positive")
    return c * c * k_t, t * t * k_c, t * t * c * c
