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

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor, will_record

_SURROGATES = ("atan", "triangle")


@dataclass(frozen=True)
class LifConfig:
    """Neuron constants shared by every unit of a spiking layer.

    `strict_eq2` records the timing convention: when true, the input
    sequence is read as the previous-tick currents of the membrane
    recurrence above. The common convention of indexing inputs by the
    same tick as the membrane yields bit-identical trajectories for
    fresh-state sequences (pure relabeling), so this flag exists for
    documentation and config compatibility rather than arithmetic.
    """

    tau: float = 2.0
    v_reset: float = 0.0
    v_threshold: float = 1.0
    surrogate: str = "atan"
    alpha: float = 2.0
    gamma: float = 1.0
    detach_reset: bool = True
    strict_eq2: bool = True

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.v_threshold <= self.v_reset:
            raise ValueError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})"
            )
        if self.surrogate not in _SURROGATES:
            raise ValueError(f"surrogate must be one of {_SURROGATES}, got {self.surrogate!r}")


@dataclass
class LifTrace:
    """Recorded per-step membrane, spike and post-reset values."""

    v: list[np.ndarray] = field(default_factory=list)
    s: list[np.ndarray] = field(default_factory=list)
    h: list[np.ndarray] = field(default_factory=list)


def surrogate_derivative(x: np.ndarray, cfg: LifConfig) -> np.ndarray:
    """Closed-form smooth derivative used in place of the step function's."""
    if cfg.surrogate == "atan":
        return cfg.alpha / (2.0 * (1.0 + (np.pi / 2.0 * cfg.alpha * x) ** 2))
    return (1.0 / cfg.gamma**2) * np.maximum(0.0, cfg.gamma - np.abs(x - 1.0))


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
    for t in range(t_steps):
        v = h + (x[t] - (h - cfg.v_reset)) * rate
        s = (v - cfg.v_threshold >= 0).astype(x.dtype)
        h = v * (1.0 - s)
        if v_stack is not None:
            v_stack[t] = v
        s_stack[t] = s
        if trace is not None:
            trace.v.append(v)
            trace.s.append(s)
            trace.h.append(h)

    def backward(g: np.ndarray) -> None:
        slope = surrogate_derivative(v_stack - cfg.v_threshold, cfg).astype(g.dtype, copy=False)
        keep = 1.0 - s_stack
        g_v = np.empty_like(g)
        g_h = np.zeros_like(g[0])
        for t in range(t_steps - 1, -1, -1):
            g_s = g[t] if cfg.detach_reset else g[t] - g_h * v_stack[t]
            g_v[t] = g_s * slope[t] + g_h * keep[t]
            g_h = g_v[t] - g_v[t] * rate
        g_v *= rate
        inputs._accumulate(g_v)

    return Tensor._node(s_stack, (inputs,), backward)
