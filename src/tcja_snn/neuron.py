"""Leaky integrate-and-fire dynamics with surrogate-gradient spiking.

The membrane update per step is

    V_t = H_{t-1} + (1/tau) * (I_{t-1} - (H_{t-1} - v_reset))
    S_t = step(V_t - v_threshold)          (1 at or above threshold)
    H_t = V_t * (1 - S_t)                  (hard reset to zero on spike)

with the input array enumerated as the I_{t-1} sequence for t = 1..T, so
spike k answers input frame k. The forward step function is exact 0/1;
only the backward pass substitutes a smooth derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor, blocks, will_record

_SURROGATES = ("atan", "triangle")


@dataclass(frozen=True)
class LifConfig:
    """Neuron constants shared by every unit of a spiking layer."""

    tau: float = 2.0
    v_reset: float = 0.0
    v_threshold: float = 1.0
    surrogate: str = "atan"
    alpha: float = 2.0
    gamma: float = 1.0
    detach_reset: bool = True

    def __post_init__(self):
        # Every range is finite and stated as `not a < x < b`, which NaN fails too.
        # 1/tau is the share of the gap to the input closed per step: at most all.
        if not 1 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 1, got {self.tau}")
        if not -math.inf < self.v_reset < self.v_threshold < math.inf:
            raise ValueError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset}),"
                " both finite"
            )
        if self.surrogate not in _SURROGATES:
            raise ValueError(f"surrogate must be one of {_SURROGATES}, got {self.surrogate!r}")
        for name in ("alpha", "gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass
class LifTrace:
    """Recorded per-step membrane, spike and post-reset values."""

    v: list[np.ndarray] = field(default_factory=list)
    s: list[np.ndarray] = field(default_factory=list)
    h: list[np.ndarray] = field(default_factory=list)


def surrogate_derivative(
    x: np.ndarray, cfg: LifConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """Closed-form smooth derivative used in place of the step function's:
    alpha / (2 (1 + (pi/2 alpha x)²)) for atan, and
    max(0, gamma - |x - 1|) / gamma² for the triangle.

    Computed op by op into `out`, a new array when None; `out` may be `x`.
    """
    out = np.empty_like(x) if out is None else out
    if cfg.surrogate == "atan":
        np.multiply(np.pi / 2.0 * cfg.alpha, x, out=out)
        np.square(out, out=out)
        np.add(1.0, out, out=out)
        np.multiply(2.0, out, out=out)
        return np.divide(cfg.alpha, out, out=out)
    np.subtract(x, 1.0, out=out)
    np.abs(out, out=out)
    np.subtract(cfg.gamma, out, out=out)
    np.maximum(0.0, out, out=out)
    return np.multiply(1.0 / cfg.gamma**2, out, out=out)


def lif_sequence(
    inputs: Tensor, cfg: LifConfig, trace: LifTrace | None = None
) -> Tensor:
    """Unroll the neuron over the leading time axis with fresh state.

    `inputs` is (T, ...); the output has the same shape and holds the
    spike train. State never carries across separate calls.

    The whole unroll is one graph node. The forward keeps the spike stack,
    and the membrane stack too when the node is recorded; the backward
    runs BPTT in closed form from the last step down: with a = 1/tau and
    s' the surrogate derivative at V - v_th,
    gV = (gS - [not detach_reset] gH V) s' + gH (1 - S), gI = a gV and
    gH_prev = (1 - a) gV.
    """
    if inputs.ndim < 1 or inputs.shape[0] < 1:
        raise ShapeError(f"empty time dimension in input of shape {inputs.shape}")
    t_steps = inputs.shape[0]
    x = inputs.data
    rate = 1.0 / cfg.tau
    v_stack = np.empty_like(x) if will_record((inputs,)) else None
    s_stack = np.empty_like(x)
    h = np.full(x.shape[1:], cfg.v_reset, dtype=x.dtype)
    scratch = np.empty_like(h)
    # H - v_reset is H itself, bit for bit, only at v_reset = +0.0.
    leak_from_zero = math.copysign(1.0, cfg.v_reset) > 0 and cfg.v_reset == 0
    for t in range(t_steps):
        # Op by op with out=, in the order of V, S and H above. Without a
        # membrane stack, V is computed in h's own buffer. V >= v_th is
        # V - v_th >= 0 for every finite v_th.
        v = h if v_stack is None else v_stack[t]
        if leak_from_zero:
            np.subtract(x[t], h, out=scratch)
        else:
            np.subtract(h, cfg.v_reset, out=scratch)
            np.subtract(x[t], scratch, out=scratch)
        np.multiply(scratch, rate, out=scratch)
        np.add(h, scratch, out=v)
        np.greater_equal(v, cfg.v_threshold, out=s_stack[t])
        if trace is not None:
            trace.v.append(v.copy())
            trace.s.append(s_stack[t].copy())
        np.subtract(1.0, s_stack[t], out=scratch)
        np.multiply(v, scratch, out=h)
        if trace is not None:
            trace.h.append(h.copy())

    def backward(g: np.ndarray) -> None:
        # A block of steps at a time, last block first, so that its slope,
        # keep and gradient stay in cache from the first pass to the last.
        spans = blocks(t_steps, x[0].nbytes)
        slope_buf = np.empty((spans[0].stop, *x.shape[1:]), dtype=x.dtype)
        keep_buf = np.empty_like(slope_buf)
        g_v = np.empty_like(g)
        g_h = np.zeros_like(g[0])
        g_s, kept = np.empty_like(g_h), np.empty_like(g_h)
        for block in reversed(spans):
            n = block.stop - block.start
            slope, keep = slope_buf[:n], keep_buf[:n]
            surrogate_derivative(
                np.subtract(v_stack[block], cfg.v_threshold, out=slope), cfg, out=slope
            )
            np.subtract(1.0, s_stack[block], out=keep)
            for i in range(n - 1, -1, -1):
                t = block.start + i
                g_vt = g_v[t]
                if cfg.detach_reset:
                    np.multiply(g[t], slope[i], out=g_vt)
                else:
                    np.multiply(g_h, v_stack[t], out=g_s)
                    np.subtract(g[t], g_s, out=g_s)
                    np.multiply(g_s, slope[i], out=g_vt)
                np.multiply(g_h, keep[i], out=kept)
                np.add(g_vt, kept, out=g_vt)
                np.multiply(g_vt, rate, out=g_h)
                np.subtract(g_vt, g_h, out=g_h)
            np.multiply(g_v[block], rate, out=g_v[block])
        inputs._accumulate(g_v)

    return Tensor._node(s_stack, (inputs,), backward)
