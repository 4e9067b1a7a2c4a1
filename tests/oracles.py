"""Brute-force reference implementations and a finite-difference checker.

Everything here is written as plain loops over the defining sums so the
fast vectorized paths in the package are checked against independent
arithmetic, not against themselves. The generic graph ops (add, sub, mul,
total, mean, reshape, detach) live only here: the unfused LIF, TCJA, loss,
voting, dropout and flatten compositions are built from them and kept as
parity oracles for the fused nodes that replaced them, beside the scatter
form of the conv input gradient and the np.pad forms of im2col and of the
TCJA 1-D convs. `per_sample_pass` is the one per-sample
training loop kept: the reference for the chunked (T, B, ...) path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tcja_snn.attention import TcjaParams
from tcja_snn.neuron import LifConfig, LifTrace, surrogate_derivative
from tcja_snn.tensor import ShapeError, Tensor, fully_connected
from tcja_snn.training import smse_loss


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    b, c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((b, c_out, out_h, out_w))
    for bi in range(b):
        for co in range(c_out):
            for oi in range(out_h):
                for oj in range(out_w):
                    acc = 0.0
                    for ci in range(c_in):
                        for di in range(k):
                            for dj in range(k):
                                acc += (
                                    kernel[co, ci, di, dj]
                                    * xp[bi, ci, oi * stride + di, oj * stride + dj]
                                )
                    out[bi, co, oi, oj] = acc
    return out


def conv2d_kernel_grad_loops(
    x: np.ndarray, g: np.ndarray, k: int, padding: int = 0
) -> np.ndarray:
    """Kernel gradient of conv2d, one kernel tap at a time: dK[co, ci, di, dj]
    is the sum over batch and output pixels of g[b, co, i, j] times the input
    pixel that tap saw, xp[b, ci, i + di, j + dj]. Accumulates in float64."""
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    batch, c_in, _, _ = x.shape
    _, c_out, out_h, out_w = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad = np.zeros((c_out, c_in, k, k))
    for co in range(c_out):
        for ci in range(c_in):
            for di in range(k):
                for dj in range(k):
                    seen = xp[:, ci, di : di + out_h, dj : dj + out_w]
                    grad[co, ci, di, dj] = (g[:, co] * seen).sum()
    return grad


def conv2d_taps(x: np.ndarray, kernel: np.ndarray, padding: int = 0) -> np.ndarray:
    """conv2d as a sum over kernel taps of channel-mixed shifted inputs, in
    float64; the loop oracle's arithmetic at shapes too large for it."""
    x, kernel = np.asarray(x, dtype=np.float64), np.asarray(kernel, dtype=np.float64)
    _, _, height, width = x.shape
    k = kernel.shape[-1]
    out_h, out_w = height + 2 * padding - k + 1, width + 2 * padding - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = 0.0
    for di in range(k):
        for dj in range(k):
            shifted = xp[:, :, di : di + out_h, dj : dj + out_w]
            out = out + np.einsum("oi,bihw->bohw", kernel[:, :, di, dj], shifted)
    return out


def im2col_padded(images: np.ndarray, k: int, padding: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*k*k, out_h*out_w) by padding the images with
    np.pad and copying one out_h x out_w slab of the padded copy per tap:
    the reference for the pad-free `tensor._im2col`."""
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    batch, channels, height, width = padded.shape
    out_h, out_w = height - k + 1, width - k + 1
    cols = np.empty((batch, channels, k, k, out_h, out_w), dtype=images.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = padded[:, :, i : i + out_h, j : j + out_w]
    return cols.reshape(batch, channels * k * k, out_h * out_w)


def conv1d_padded(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """`attention._conv1d` on an np.pad copy of x, K-1 zeros past its end:
    every tap's product spans all L outputs."""
    length, ksize = x.shape[-1], kernel.shape[2]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, ksize - 1)])
    out = np.zeros((*x.shape[:-2], kernel.shape[0], length), dtype=x.dtype)
    for m in range(ksize):
        out += kernel[:, :, m] @ padded[..., m : m + length]
    return out


def conv1d_vjp_padded(
    g: np.ndarray, x: np.ndarray, kernel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`attention._conv1d_vjp` through the padded copy of x: (dx, dkernel)."""
    length, ksize = x.shape[-1], kernel.shape[2]
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, ksize - 1)])
    dpadded = np.zeros_like(padded)
    dkernel = np.zeros_like(kernel)
    for m in range(ksize):
        products = g @ padded[..., m : m + length].swapaxes(-1, -2)
        dkernel[:, :, m] = products.reshape(-1, *products.shape[-2:]).sum(axis=0)
        dpadded[..., m : m + length] += kernel[:, :, m].T @ g
    return dpadded[..., :length], dkernel


def conv1d_loops(x: np.ndarray, kernel: np.ndarray, padding_right: int | None = None) -> np.ndarray:
    c_in, length = x.shape
    c_out, _, ksize = kernel.shape
    if padding_right is None:
        padding_right = ksize - 1
    xp = np.pad(x, ((0, 0), (0, padding_right)))
    out = np.zeros((c_out, length))
    for i in range(c_out):
        for j in range(length):
            acc = 0.0
            for n in range(c_in):
                for m in range(ksize):
                    if j + m < xp.shape[1]:
                        acc += kernel[i, n, m] * xp[n, j + m]
            out[i, j] = acc
    return out


def _pool_windows(x: np.ndarray, k: int):
    """Yield (n, i, j, window) over every k x k window of x flattened to (N, H, W)."""
    flat = x.reshape(-1, *x.shape[-2:])
    for n in range(flat.shape[0]):
        for i in range(flat.shape[1] // k):
            for j in range(flat.shape[2] // k):
                yield n, i, j, flat[n, i * k : (i + 1) * k, j * k : (j + 1) * k]


def _first_max(window: np.ndarray) -> tuple[int, int]:
    """Position of the first largest entry in row-major scan order."""
    best = (0, 0)
    for a in range(window.shape[0]):
        for b in range(window.shape[1]):
            if window[a, b] > window[best]:
                best = (a, b)
    return best


def pool2d_loops(x: np.ndarray, kind: str, k: int) -> np.ndarray:
    """Window max, or the row-major running sum over k² (in x's dtype)."""
    *lead, h, w = x.shape
    out = np.zeros((int(np.prod(lead)), h // k, w // k), dtype=x.dtype)
    for n, i, j, window in _pool_windows(x, k):
        if kind == "max":
            out[n, i, j] = window[_first_max(window)]
        else:
            acc = window[0, 0]
            for value in window.reshape(-1)[1:]:
                acc = acc + value
            out[n, i, j] = acc / (k * k)
    return out.reshape(*lead, h // k, w // k)


def pool2d_grad_loops(x: np.ndarray, g: np.ndarray, kind: str, k: int) -> np.ndarray:
    """Input gradient of pool2d: g/k² over each window, or g at its first max."""
    dx = np.zeros(x.shape, dtype=x.dtype)
    flat_dx = dx.reshape(-1, *x.shape[-2:])
    flat_g = g.reshape(-1, *g.shape[-2:])
    for n, i, j, window in _pool_windows(x, k):
        if kind == "max":
            a, b = _first_max(window)
            flat_dx[n, i * k + a, j * k + b] = flat_g[n, i, j]
        else:
            flat_dx[n, i * k : (i + 1) * k, j * k : (j + 1) * k] = flat_g[n, i, j] / (k * k)
    return dx


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape
    _, p = b.shape
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            for kk in range(m):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def squeeze_loops(x: np.ndarray) -> np.ndarray:
    """Spatial mean per (channel, step): (T, C, H, W) -> (C, T)."""
    t_steps, channels, h, w = x.shape
    out = np.zeros((channels, t_steps))
    for c in range(channels):
        for t in range(t_steps):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[t, c, i, j]
            out[c, t] = acc / (h * w)
    return out


def tla_loops(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Direct time-axis attention sum: out[i,j] = sum_n sum_m w[i,n,m] z[n,j+m]."""
    channels, t_steps = z.shape
    k = w.shape[2]
    out = np.zeros((channels, t_steps))
    for i in range(channels):
        for j in range(t_steps):
            acc = 0.0
            for n in range(channels):
                for m in range(k):
                    if j + m < t_steps:
                        acc += w[i, n, m] * z[n, j + m]
            out[i, j] = acc
    return out


def cla_loops(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Direct channel-axis attention sum: out[i,j] = sum_n sum_m e[j,n,m] z[i+m,n]."""
    channels, t_steps = z.shape
    k = e.shape[2]
    out = np.zeros((channels, t_steps))
    for i in range(channels):
        for j in range(t_steps):
            acc = 0.0
            for n in range(t_steps):
                for m in range(k):
                    if i + m < channels:
                        acc += e[j, n, m] * z[i + m, n]
            out[i, j] = acc
    return out


def logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def ccf_loops(t_map: np.ndarray, c_map: np.ndarray, fusion: str = "multiply") -> np.ndarray:
    pre = t_map * c_map if fusion == "multiply" else t_map + c_map
    return logistic(pre)


def recalibrate_loops(x: np.ndarray, f_map: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    t_steps, channels, h, w = x.shape
    for t in range(t_steps):
        for c in range(channels):
            for i in range(h):
                for j in range(w):
                    out[t, c, i, j] = x[t, c, i, j] * f_map[c, t]
    return out


def tcja_forward_loops(
    x: np.ndarray, w: np.ndarray, e: np.ndarray, fusion: str = "multiply"
) -> np.ndarray:
    z = squeeze_loops(x)
    return recalibrate_loops(x, ccf_loops(tla_loops(z, w), cla_loops(z, e), fusion))


def lif_trace_loops(
    inputs: np.ndarray,
    tau: float = 2.0,
    v_reset: float = 0.0,
    v_threshold: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scripted membrane recurrence; returns (V, S, H) trajectories."""
    t_steps = inputs.shape[0]
    v = np.zeros_like(inputs)
    s = np.zeros_like(inputs)
    h = np.zeros_like(inputs)
    h_prev = np.full(inputs.shape[1:], v_reset, dtype=inputs.dtype)
    for t in range(t_steps):
        v[t] = h_prev + (inputs[t] - (h_prev - v_reset)) / tau
        s[t] = (v[t] >= v_threshold).astype(inputs.dtype)
        h[t] = v[t] * (1.0 - s[t])
        h_prev = h[t]
    return v, s, h


def conv2d_input_grad_scatter(
    g: np.ndarray, kernel: np.ndarray, x_shape: tuple[int, ...], stride: int, padding: int
) -> np.ndarray:
    """Input gradient of conv2d by scattering each kernel tap's columns."""
    batch, c_in, height, width = x_shape
    c_out, _, k, _ = kernel.shape
    _, _, out_h, out_w = g.shape
    gmat = g.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, c_out)
    dcols = (gmat @ kernel.reshape(c_out, -1)).reshape(batch, out_h, out_w, c_in, k, k)
    dpadded = np.zeros((batch, c_in, height + 2 * padding, width + 2 * padding), dtype=g.dtype)
    for di in range(k):
        for dj in range(k):
            dpadded[
                :, :, di : di + out_h * stride : stride, dj : dj + out_w * stride : stride
            ] += dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return dpadded[:, :, padding : padding + height, padding : padding + width]


# -- generic graph ops: the arithmetic the unfused compositions are built from --
#
# `Tensor._accumulate` adopts a first contribution as the gradient and adds
# later ones into it in place, so each closure here hands over a copy
# wherever its gradient would be g itself or a view of it (a reshape,
# transpose, slice or broadcast). The copies are `np.array`'s, which keep
# the view's memory order, so a transposed gradient stays F-ordered and the
# GEMMs downstream sum as they did when `_accumulate` made these copies.


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _coerce(x, like: Tensor) -> Tensor:
    """`x` as a Tensor, a plain number taking `like`'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _binary(a, b, fwd, vjp_a, vjp_b) -> Tensor:
    like = a if isinstance(a, Tensor) else b
    a, b = _coerce(a, like), _coerce(b, like)
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"operands not broadcastable: {a.shape} vs {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.array(_unbroadcast(vjp_a(g, a.data, b.data), a.shape)))
        if b.requires_grad:
            b._accumulate(np.array(_unbroadcast(vjp_b(g, a.data, b.data), b.shape)))

    return Tensor._node(data, (a, b), backward)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _spread(
    g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool
) -> np.ndarray:
    """Broadcast a reduced gradient back over the reduced axes."""
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def total(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over `axis` (all axes by default)."""
    axes = _normalize_axes(axis, x.ndim)

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.array(_spread(g, x.shape, axes, keepdims)))

    return Tensor._node(np.asarray(x.data.sum(axis=axis, keepdims=keepdims)), (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over `axis` (all axes by default)."""
    axes = _normalize_axes(axis, x.ndim)
    count = 1
    for ax in axes:
        count *= x.shape[ax]

    def backward(g: np.ndarray) -> None:
        x._accumulate(_spread(g, x.shape, axes, keepdims) / count)

    return Tensor._node(np.asarray(x.data.mean(axis=axis, keepdims=keepdims)), (x,), backward)


def reshape(x: Tensor, *shape) -> Tensor:
    def backward(g: np.ndarray) -> None:
        x._accumulate(np.array(g.reshape(x.shape)))

    return Tensor._node(x.data.reshape(shape), (x,), backward)


def detach(x: Tensor) -> Tensor:
    """A view of the same values cut loose from the graph."""
    return Tensor(x.data)


def probe_sum(out: Tensor, probe: np.ndarray) -> Tensor:
    """The scalar sum(out * probe), whose gradient in `out` is `probe`."""
    return total(mul(out, Tensor(probe)))


# -- unfused LIF: one graph node per elementary op and step ----------------------


def take0(x: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis."""
    data = x.data[index]

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[index] = g
        x._accumulate(full)

    return Tensor._node(data, (x,), backward)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("cannot stack an empty sequence")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != first:
            raise ShapeError(f"stack shape mismatch: {first} vs {t.shape}")
    data = np.stack([t.data for t in tensors])
    parents = tuple(tensors)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(parents):
            if t.requires_grad:
                t._accumulate(np.array(g[i]))

    return Tensor._node(data, parents, backward)


@dataclass
class LifState:
    """Post-reset membrane potential carried between steps of one sequence."""

    h: Tensor


def heaviside_surrogate(x: Tensor, cfg: LifConfig) -> Tensor:
    """Step function forward (1 at x >= 0), surrogate derivative backward."""
    data = (x.data >= 0).astype(x.data.dtype)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * surrogate_derivative(x.data, cfg).astype(g.dtype))

    return Tensor._node(data, (x,), backward)


def lif_init(shape: tuple[int, ...], cfg: LifConfig, dtype=np.float64) -> LifState:
    """Fresh state at the reset potential."""
    return LifState(h=Tensor(np.full(shape, cfg.v_reset, dtype=dtype)))


def _lif_update(
    state: LifState, input_current: Tensor, cfg: LifConfig
) -> tuple[Tensor, Tensor, LifState]:
    if state.h.shape != input_current.shape:
        raise ShapeError(
            f"state shape {state.h.shape} does not match input {input_current.shape}"
        )
    h = state.h
    v = add(h, mul(sub(input_current, sub(h, cfg.v_reset)), 1.0 / cfg.tau))
    spikes = heaviside_surrogate(sub(v, cfg.v_threshold), cfg)
    keep = sub(1.0, detach(spikes) if cfg.detach_reset else spikes)
    return v, spikes, LifState(h=mul(v, keep))


def lif_step(
    state: LifState, input_current: Tensor, cfg: LifConfig
) -> tuple[Tensor, LifState]:
    """One membrane update; returns binary spikes and the post-reset state."""
    _, spikes, new_state = _lif_update(state, input_current, cfg)
    return spikes, new_state


def lif_sequence_unfused(
    inputs: Tensor, cfg: LifConfig, trace: LifTrace | None = None
) -> Tensor:
    """The LIF unroll composed from per-step graph ops (about 8 nodes a step)."""
    state = lif_init(inputs.shape[1:], cfg, dtype=inputs.dtype)
    outputs = []
    for t in range(inputs.shape[0]):
        v, spikes, state = _lif_update(state, take0(inputs, t), cfg)
        if trace is not None:
            trace.v.append(v.data.copy())
            trace.s.append(spikes.data.copy())
            trace.h.append(state.h.data.copy())
        outputs.append(spikes)
    return stack(outputs)


def lif_forward_8op(x: np.ndarray, cfg: LifConfig) -> tuple[np.ndarray, list, list]:
    """The LIF forward in eight ops a step, H - v_reset formed and V - v_th
    compared with 0 at every step: the reference for `lif_sequence`'s
    shorter step. Returns the spike stack and each step's V and H."""
    rate = 1.0 / cfg.tau
    h = np.full(x.shape[1:], cfg.v_reset, dtype=x.dtype)
    spikes, v_steps, h_steps = np.empty_like(x), [], []
    for t in range(len(x)):
        v = np.add(h, np.multiply(np.subtract(x[t], np.subtract(h, cfg.v_reset)), rate))
        np.greater_equal(np.subtract(v, cfg.v_threshold), 0, out=spikes[t])
        h = np.multiply(v, np.subtract(1.0, spikes[t]))
        v_steps.append(v)
        h_steps.append(h)
    return spikes, v_steps, h_steps


# -- unfused TCJA: the attention block as 11 generic graph nodes ---------------


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, split by sign so neither branch overflows."""
    d = x.data
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    s[~pos] = ex / (1.0 + ex)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * s * (1.0 - s))

    return Tensor._node(s, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    """Reverse the order of all axes."""

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.array(g.T))

    return Tensor._node(x.data.T, (x,), backward)


def conv1d_multichannel(x: Tensor, kernel: Tensor) -> Tensor:
    """Multichannel 1-D cross-correlation, zero-filled past the end, no bias.

    `x` is (Cin, L), `kernel` is (Cout, Cin, K); the output is (Cout, L).
    """
    if x.ndim != 2 or kernel.ndim != 3:
        raise ShapeError(
            f"conv1d expects 2-D input and 3-D kernel, got {x.shape} and {kernel.shape}"
        )
    c_in, length = x.shape
    c_out, kc_in, ksize = kernel.shape
    if kc_in != c_in:
        raise ShapeError(
            f"kernel channel mismatch: input {x.shape} vs kernel {kernel.shape}"
        )

    padded = np.pad(x.data, ((0, 0), (0, ksize - 1)))
    out = np.zeros((c_out, length), dtype=x.data.dtype)
    for m in range(ksize):
        out += kernel.data[:, :, m] @ padded[:, m : m + length]

    def backward(g: np.ndarray) -> None:
        dpadded = np.zeros_like(padded) if x.requires_grad else None
        dkernel = np.zeros_like(kernel.data) if kernel.requires_grad else None
        for m in range(ksize):
            if dkernel is not None:
                dkernel[:, :, m] = g @ padded[:, m : m + length].T
            if dpadded is not None:
                dpadded[:, m : m + length] += kernel.data[:, :, m].T @ g
        if dkernel is not None:
            kernel._accumulate(dkernel)
        if dpadded is not None:
            x._accumulate(dpadded[:, :length])

    return Tensor._node(out, (x, kernel), backward)


def tcja_forward_unfused(x: Tensor, params: TcjaParams) -> Tensor:
    """The attention block as a chain of generic graph ops: spatial mean,
    two 1-D convs, fusion, sigmoid and a broadcast rescale."""
    t_steps, channels = x.shape[0], x.shape[1]
    z = transpose(mean(x, axis=(2, 3)))
    t_map = conv1d_multichannel(z, params.w)
    c_map = transpose(conv1d_multichannel(transpose(z), params.e))
    pre = mul(t_map, c_map) if params.fusion == "multiply" else add(t_map, c_map)
    factor = reshape(transpose(sigmoid(pre)), t_steps, channels, 1, 1)
    return mul(x, factor)


# -- the generic compositions the loss, voting, dropout and FC nodes replaced ----


def smse_loss_unfused(outputs: Tensor, target: np.ndarray) -> Tensor:
    """Per-step MSE as three generic nodes: sub, mul and mean."""
    diff = sub(outputs, Tensor(np.asarray(target, dtype=outputs.dtype)[None, :]))
    return mean(mul(diff, diff))


def voting_unfused(spikes: Tensor, num_classes: int) -> Tensor:
    """Group-average voting as a reshape and a mean."""
    t_steps, width = spikes.shape
    return mean(reshape(spikes, t_steps, num_classes, width // num_classes), axis=2)


def dropout_unfused(x: Tensor, mask: np.ndarray) -> Tensor:
    """The mask multiply as a broadcast mul."""
    return mul(x, Tensor(mask[None]))


def fully_connected_unfused(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """A flattening reshape before the (T, B, F) affine map."""
    return fully_connected(reshape(x, *x.shape[:2], -1), weight, bias)


# -- the per-sample loop the chunked train and evaluate replaced ------------------


def per_sample_pass(net, samples, rng=None) -> tuple[np.ndarray, float, dict[str, np.ndarray]]:
    """Forward, loss and backward one sample at a time, each as a batch of
    one, with the gradients summed across samples as the parameters collect
    them. Returns the (T, N, K) outputs, the summed loss and each
    parameter's gradient; leaves the parameters' grads cleared."""
    outputs, loss_sum = [], 0.0
    net.zero_grads()
    for sample in samples:
        out = net.forward(Tensor(sample.frames[:, None].astype(net.dtype)), rng=rng)
        loss = smse_loss(out, sample.label[None])
        loss_sum += loss.item()
        loss.backward()
        outputs.append(out.data[:, 0])
    grads = {name: p.grad.copy() for name, p in net.params}
    net.zero_grads()
    return np.stack(outputs, axis=1), loss_sum, grads


def smse_loops(outputs: np.ndarray, target: np.ndarray) -> float:
    t_steps, n_classes = outputs.shape
    total = 0.0
    for t in range(t_steps):
        step = 0.0
        for i in range(n_classes):
            step += (outputs[t, i] - target[i]) ** 2
        total += step / n_classes
    return total / t_steps


def integrate_frames_loops(
    t: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray, width: int, height: int,
    t_steps: int,
) -> np.ndarray:
    """Event i of N lands in slice min(i // floor(N/T), T - 1)."""
    base = len(t) // t_steps
    frames = np.zeros((t_steps, 2, height, width))
    for i in range(len(t)):
        frames[min(i // base, t_steps - 1), p[i], y[i], x[i]] += 1
    return frames


def finite_difference_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function of a dense array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        f_plus = f(x)
        xf[i] = orig - step
        f_minus = f(x)
        xf[i] = orig
        flat[i] = (f_plus - f_minus) / (2 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom
