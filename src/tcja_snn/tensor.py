"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy arrays; the computation graph is a web of parent
links and backward closures built as ops execute, and walked in reverse
topological order by ``Tensor.backward()``. Gradients accumulate
additively across fan-out. Each forward pass builds a fresh graph, which
backward frees as it goes, so there is no tape to reset between iterations.
Inside a ``no_grad()`` block no graph is recorded at all. The large
parameter gradients, which no later op of the walk reads, may run on one
worker thread while the walk goes on; ``backward()`` waits for them.

Every op is one layer-sized node with a closed-form backward, built with
``Tensor._node``: conv, pooling and the flattening affine map here, and
the LIF, attention, dropout, voting and loss nodes beside their layers.
``Tensor`` has no generic arithmetic; the elementwise, reduction and
reshape ops that the unfused reference compositions are built from live
only in ``tests/oracles.py``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: ops return plain values.

    For forward passes whose result is never differentiated, such as
    evaluation; nothing is kept alive for a backward that never runs.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def will_record(parents: Sequence["Tensor"]) -> bool:
    """Whether an op on `parents` records a graph node: one of them needs a
    gradient and no `no_grad` block is active."""
    return _recording and any(p.requires_grad for p in parents)


# Bytes a blocked backward (LIF, max pooling, conv's input gradient) covers
# per block: small enough that a block's data and temporaries stay in cache
# between the passes over it, large enough that a small stack is one block.
# A recorded conv keeps its columns for the kernel gradient only while one
# image's columns fit it; above that, the backward rebuilds them. That
# rebuild, and an FC's weight gradient when the weight is over it, run on
# the worker (`_param_grad`).
BLOCK_BYTES = 256 * 1024
# Bytes of columns a conv builds per block when it keeps none: its forward,
# and the rebuild in its kernel gradient. The GEMM right after reads them
# once, so a block may fill more of the cache than a backward's, and
# desk-size images, whose GEMMs are small, gain from fewer blocks
# (BENCH_eval_columns.json).
COLUMN_BYTES = 1024 * 1024


# The futures of the large parameter gradients that the running backward()
# has handed to the worker; it waits for them all before it returns.
_pending: list = []


@functools.cache
def _worker_helps() -> bool:
    """Whether large parameter gradients run on a worker thread, checked once
    per process: only if the process may use more than one core and numpy's
    BLAS runs one thread. On one core, or beside a threaded BLAS, the worker
    competes for the cores the main thread uses, and training read slower
    (BENCH_leaf_grad_worker.json)."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x, whose BLAS builds were not measured
        return False
    # Only the BLAS of numpy's 2.x wheels, scipy-openblas built for 64-bit
    # ints, was measured. An OpenBLAS of another build may be serial without
    # locking, and so unsafe to call from two threads at once: no worker.
    library = ctypes.CDLL(_multiarray_umath.__file__)  # finds the bundled OpenBLAS too
    threads = getattr(library, "scipy_openblas_get_num_threads64_", None)
    if threads is None:
        return False
    threads.argtypes, threads.restype = (), ctypes.c_int
    return threads() == 1


@functools.cache
def _worker():
    # Imported here: concurrent.futures brings in logging, about 0.9 MB of
    # RSS that a process which never starts the worker need not hold.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tcja-grad")


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _param_grad(work: Callable[[], None], params: Sequence["Tensor"], large: bool) -> None:
    """Run `work`, which adds a node's contributions to the gradients of
    `params`: at once, or, when it is `large` and `params` are leaves, on the
    one worker while backward() walks on. The worker runs its work in the
    order handed over, so each leaf's contributions still sum in the order
    of the walk. The work runs under the caller's numpy error state and is
    dropped as it starts, so nothing of it is left once backward() has
    waited for it."""
    if not (large and _worker_helps()) or any(p._parents for p in params):
        work()
        return
    held, errors = [work], np.geterr()

    def run() -> None:
        with np.errstate(**errors):
            held.pop()()

    _pending.append(_worker().submit(run))


def blocks(length: int, unit_bytes: int, budget: int | None = None) -> list[slice]:
    """Split range(length) into consecutive runs of units, each covering at
    most `budget` (BLOCK_BYTES if None) at `unit_bytes` a unit, but at least
    one unit."""
    step = max(1, (budget or BLOCK_BYTES) // unit_bytes)
    return [slice(start, min(start + step, length)) for start in range(0, length, step)]


class Tensor:
    """A dense real tensor that records how it was produced.

    `data` is a row-major numpy array. `grad` stays None until a
    backward pass deposits into it. Ops attach a `_backward` closure and
    parent references; leaves have neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _node(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build a graph node; records the closure only if `will_record(parents)`."""
        out = cls(data)
        if will_record(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, contribution: np.ndarray) -> None:
        """Add a backward closure's gradient contribution to `grad`.

        The closure hands over a fresh, writeable array that it no longer
        uses: the first contribution becomes `grad` itself (cast only if its
        dtype differs), and later ones are added into it in place.
        """
        if self.grad is None:
            self.grad = np.asarray(contribution, dtype=self.data.dtype)
        else:
            self.grad += contribution

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph control ---------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; fills grads of every reachable leaf.

        Once its closure has run, a node drops the closure, its parents and,
        unless it is this root, its grad, so the graph is freed as it is used.
        Large parameter gradients may run on a worker meanwhile
        (`_param_grad`); backward waits for them all before it returns and
        re-raises the first error among them.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        try:
            for node in reversed(order):
                if node._backward is None:
                    continue
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents = None, ()
                if node is not self:
                    node.grad = None
        finally:
            futures, _pending[:] = _pending[:], []
            for future in futures:
                future.exception()  # waits for it, failed or not
        for future in futures:
            future.result()  # re-raises the first error

    def _topo_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """2-D cross-correlation at stride 1 of every (Cin, H, W) image of `x`,
    zero-padded by k//2 so that the output keeps the H x W grid.

    `x` is (..., Cin, H, W) with at least one leading axis and `kernel` is
    (Cout, Cin, k, k) with k odd. The leading axes are kept and folded into
    one GEMM batch with a reshape view.
    """
    if x.ndim < 4 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects (..., C, H, W) input with a leading axis and a 4-D kernel,"
            f" got {x.shape} and {kernel.shape}"
        )
    c_in, height, width = x.shape[-3:]
    c_out, kc_in, k_h, k_w = kernel.shape
    if kc_in != c_in:
        raise ShapeError(
            f"kernel channel mismatch: input {x.shape} vs kernel {kernel.shape}"
        )
    if k_h != k_w or k_h % 2 == 0:
        raise ShapeError(f"square kernels of odd size only, got {kernel.shape}")
    k = k_h

    images = x.data.reshape(-1, c_in, height, width)
    weights = kernel.data.reshape(c_out, -1)
    image_bytes = c_in * k * k * height * width * images.itemsize
    xt, kt = x, kernel
    # Build the columns a block of images at a time into one buffer, and write
    # each block's rows while they are in cache. A recorded conv whose image
    # columns fit BLOCK_BYTES takes all images as one block and keeps the
    # buffer for its kernel gradient; a larger one rebuilds it block by block.
    # `out` comes first: with the buffer first, glibc's heap peaked higher.
    out = np.empty((len(images), c_out, height * width), dtype=np.result_type(weights, images))
    keep = will_record((xt, kt)) and image_bytes <= BLOCK_BYTES
    spans = [slice(0, len(images))] if keep else blocks(len(images), image_bytes, COLUMN_BYTES)
    buffer = np.empty((spans[0].stop if spans else 0, c_in * k * k, height * width), dtype=images.dtype)
    for block in spans:
        np.matmul(weights, _im2col(images[block], k, out=buffer), out=out[block])
    out = out.reshape(*x.shape[:-3], c_out, height, width)

    def backward(g: np.ndarray) -> None:
        def kernel_grad() -> None:
            g3 = g.reshape(-1, c_out, height * width)
            prod = np.empty((len(g3), c_in * k * k, c_out), dtype=np.result_type(images, g))
            for block in spans:
                cols = buffer if keep else _im2col(images[block], k, out=buffer)
                np.matmul(cols, g3[block].transpose(0, 2, 1), out=prod[block])
            kt._accumulate(prod.sum(axis=0).T.reshape(kt.shape))

        if kt.requires_grad:
            _param_grad(kernel_grad, (kt,), large=not keep)
        if xt.requires_grad:
            # dx is the correlation of the output gradient, zero-padded by
            # k-1-k//2 = k//2, with the flipped, channel-swapped kernel, taken
            # a block of images at a time so each block's columns stay in cache.
            flipped = kt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
            g4 = g.reshape(-1, c_out, height, width)
            dx = np.empty((len(g4), c_in, height * width), dtype=np.result_type(flipped, g))
            for block in blocks(len(g4), c_out * k * k * height * width * g.itemsize):
                np.matmul(flipped, _im2col(g4[block], k), out=dx[block])
            xt._accumulate(dx.reshape(xt.shape))

    return Tensor._node(out, (xt, kt), backward)


def _im2col(images: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) -> (B, C*k*k, H*W) columns of the images zero-padded by
    p = k//2 on every side (k odd), with no padded copy made. With `out`, a
    C-contiguous (B' >= B, C*k*k, H*W) buffer, they go into its first B rows.

    Tap (i, j) reads each H*W plane shifted by d = (i-p)*W + (j-p): one
    contiguous copy per plane, then zeros over the |d| entries the shift
    leaves and the |j-p| columns that wrapped round a row edge.
    """
    batch, channels, height, width = images.shape
    padding, size = k // 2, height * width
    planes = images.reshape(batch, channels, size)
    if out is None:
        out = np.empty((batch, channels * k * k, size), dtype=images.dtype)
    cols = out[:batch].reshape(batch, channels, k, k, size)
    grid = cols.reshape(batch, channels, k, k, height, width)
    for i in range(k):
        for j in range(k):
            tap, shift = cols[:, :, i, j], j - padding
            d = (i - padding) * width + shift
            if abs(d) >= size:
                tap.fill(0)
                continue
            if d >= 0:
                tap[..., : size - d] = planes[..., d:]
                tap[..., size - d :] = 0
            else:
                tap[..., -d:] = planes[..., : size + d]
                tap[..., :-d] = 0
            if shift > 0:
                grid[:, :, i, j, :, max(0, width - shift) :] = 0
            elif shift < 0:
                grid[:, :, i, j, :, :-shift] = 0
    return cols.reshape(batch, channels * k * k, size)


def pool2d(x: Tensor, kind: str, k: int) -> Tensor:
    """Non-overlapping pooling over the two trailing axes.

    Works on the k² strided taps x[..., i::k, j::k], one per window
    position. Max pooling routes its gradient to the first tap in
    row-major scan order that holds the window max.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"unknown pooling kind {kind!r}")
    if x.ndim < 2:
        raise ShapeError(f"pool2d needs at least 2 dims, got {x.shape}")
    height, width = x.shape[-2:]
    if height % k or width % k:
        raise ShapeError(
            f"spatial dims {height}x{width} not divisible by pooling size {k}"
        )
    taps = [(..., slice(i, None, k), slice(j, None, k)) for i in range(k) for j in range(k)]
    combine = np.maximum if kind == "max" else np.add
    out = x.data[taps[0]].copy()
    for tap in taps[1:]:
        combine(out, x.data[tap], out=out)
    if kind == "avg":
        out /= k * k

    def backward(g: np.ndarray) -> None:
        # The taps tile x, so every element of dx is written.
        dx = np.empty(x.shape, dtype=g.dtype)
        if kind == "avg":
            share = g / (k * k)
            for tap in taps:
                dx[tap] = share
        else:
            _max_pool_backward(x.data, out, g, dx, k)
        x._accumulate(dx)

    return Tensor._node(out, (x,), backward)


def _max_pool_backward(
    x: np.ndarray, out: np.ndarray, g: np.ndarray, dx: np.ndarray, k: int
) -> None:
    """Write g into the first tap of each window that holds its max, +0.0
    into the others.

    Works on rows of windows, x as (R, k, W) against out and g as (R, W/k),
    a block of rows at a time so that each block's taps, masks and dx stay
    in cache. g's bits, read as unsigned integers, are multiplied by the
    hit (0 or 1), not g itself, so a negative g leaves +0.0, not -0.0, off
    the max. After the AND every hit is free, so XOR takes it out of free.
    """
    width = x.shape[-1]
    uint = np.dtype(f"u{g.itemsize}")
    rows = x.reshape(-1, k, width)
    out_rows = out.reshape(-1, width // k)
    bits = g.view(uint).reshape(out_rows.shape)
    dx_bits = dx.view(uint).reshape(rows.shape)
    spans = blocks(len(rows), k * width * x.itemsize)
    size = (spans[0].stop, width // k)
    free, hit = (np.empty(size, dtype=bool) for _ in range(2))
    for block in spans:
        n = block.stop - block.start
        free_b, hit_b = free[:n], hit[:n]
        free_b.fill(True)
        for i in range(k):
            for j in range(k):
                np.equal(rows[block, i, j::k], out_rows[block], out=hit_b)
                np.logical_and(hit_b, free_b, out=hit_b)
                np.multiply(bits[block], hit_b, out=dx_bits[block, i, j::k])
                np.logical_xor(free_b, hit_b, out=free_b)


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of each (step, sample) row, its trailing axes flattened:
    (T, B, ...) -> (T, B, F) @ (F, G) + (G,).

    The forward runs one (T, F) @ (F, G) product per sample, so a sample's
    output does not depend on the others in its batch, bit for bit.
    """
    if x.ndim < 3 or weight.ndim != 2:
        raise ShapeError(
            f"fully_connected expects (T, B, ...) input and 2-D weight, got {x.shape} and {weight.shape}"
        )
    t_steps, batch = x.shape[:2]
    flat = x.data.reshape(t_steps, batch, -1)
    if flat.shape[2] != weight.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: input {x.shape} vs weight {weight.shape}"
        )
    if bias.shape != (weight.shape[1],):
        raise ShapeError(
            f"bias shape {bias.shape} does not match output width {weight.shape[1]}"
        )
    data = np.empty((t_steps, batch, weight.shape[1]), dtype=np.result_type(flat, weight.data, bias.data))
    np.matmul(flat.transpose(1, 0, 2), weight.data, out=data.transpose(1, 0, 2))
    data += bias.data
    xt, wt, bt = x, weight, bias
    rows = flat.reshape(t_steps * batch, -1)

    def backward(g: np.ndarray) -> None:
        g_rows = g.reshape(t_steps * batch, -1)

        def param_grads() -> None:
            if wt.requires_grad:
                wt._accumulate(rows.T @ g_rows)
            if bt.requires_grad:
                bt._accumulate(g_rows.sum(axis=0))

        _param_grad(param_grads, (wt, bt), large=wt.data.nbytes > BLOCK_BYTES)
        if xt.requires_grad:
            xt._accumulate((g_rows @ wt.data.T).reshape(xt.shape))

    return Tensor._node(data, (xt, wt, bt), backward)
