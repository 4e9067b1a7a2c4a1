"""Boundary timestamps and per-layer spans, recorded around engine entry points.

Nothing here edits the engine: `Recorder.install` swaps module and class
attributes for thin wrappers and `Recorder.close` puts the originals back.

Every run records *boundaries*: entry into `train`, the end of each
optimizer step, each `evaluate` call and each checkpoint snapshot. These
are a handful of clock reads per 16-sample step, so the end-to-end
figures come from runs with only these in place.

A traced run adds *spans* around every layer's `apply`, the attention
sub-ops, the autodiff walk, the optimizer, the data functions and the
CLI set-up helpers. A span's self time is its duration minus the time
its child spans cover. Graph nodes built while a layer's `apply` is the
innermost active layer have their backward closures timed and charged
to that layer; this goes through `Tensor._node`, and if that seam is
gone the backward time stays in `tensor.backward` and the remainder.

An untraced run also gauges the host's speed. A shared host can run the
same code up to 1.7x slower for stretches of seconds to minutes (seen on
a 2-vCPU Xeon VM shared with other tenants), so every untraced run interleaves a fixed piece of reference work (`reference_work`,
about 9 ms) with the engine's: before each sample's forward pass once
`CALIBRATE_EVERY_S` has passed since the last one, and wherever the
benchmark calls `Recorder.calibrate`. `Recorder.wall` gives an interval's
time less the reference runs inside it; `Recorder.scaled` rescales that to
a host on which the reference work takes `REFERENCE_S`, using the reference
runs in and next to the interval.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left
from collections import defaultdict

import numpy as np

perf = time.perf_counter

REFERENCE_S = 0.0075  # the reference work's time on the host the scaled figures describe
CALIBRATE_EVERY_S = 0.1
_SMALL = np.full((32, 32), 0.01, dtype=np.float32)
_GEMM_A = np.full((64, 576), 0.01, dtype=np.float32)  # a 64-channel 3x3 conv over 32x32
_GEMM_B = np.full((576, 1024), 0.5, dtype=np.float32)


def reference_work() -> None:
    """A fixed mix of interpreter, small-array and GEMM work, like the engine's own.

    The interpreter and small-array part tracks the host's speed for the
    `desk` workloads, the GEMM part for `scaled-train`. Scaled by the two
    together, the figures of ten runs of one workload on the 2-vCPU VM
    above spread at most 9% (first to third quartile, over the median)
    where wall-clock ones spread up to 32%.
    """
    acc = 0
    for i in range(20000):
        acc += i * i
    a = _SMALL
    for _ in range(200):
        a = np.maximum(a @ _SMALL, 0.0) + 0.001
    for _ in range(3):
        _GEMM_A @ _GEMM_B

ATTENTION_OPS = ("squeeze", "tla", "cla", "ccf", "recalibrate")


def _nbytes(t) -> int:
    return getattr(t, "data", t).nbytes


class Recorder:
    """Collects boundary events always, and spans and counts when tracing."""

    def __init__(self, suspend_in_evaluate: bool, calibrating: bool):
        # Boundary events: (kind, t_start, t_end, info).
        self.events: list[tuple[str, float, float, object]] = []
        # Spans: self and inclusive seconds and call counts per span name.
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.tracing = False  # spans record only while this is set
        self.suspend_in_evaluate = suspend_in_evaluate
        self.node_seam = False
        # Reference runs, in time order: start and duration.
        self.calibrating = calibrating
        self.calib_t0: list[float] = []
        self.calib_s: list[float] = []
        self._stack: list[list] = []  # open spans: [name, t0, child seconds]
        self._kinds: list[str] = []  # layer kinds whose apply is active
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def close(self) -> None:
        """Put every patched attribute back."""
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def switch(self, trace: bool) -> None:
        """Reinstall with or without spans; counters carry over."""
        self.close()
        self.install(trace)
        self.tracing = trace

    def install(self, trace: bool) -> None:
        from tcja_snn import attention, cli, data, network, tensor, training

        self._set(cli, "train", self._boundary_train(cli.train))
        self._set(training, "optimizer_step", self._boundary_step(training.optimizer_step))
        self._set(training, "evaluate", self._boundary_evaluate(training.evaluate))
        self._set(training, "make_checkpoint", self._boundary_snapshot(training.make_checkpoint))
        if self.calibrating:
            self._set(network.Network, "forward", self._calibrating(network.Network.forward))
        if not trace:
            return
        self._set(network.Network, "forward", self._span("network.forward", network.Network.forward))
        for cls in vars(network).values():
            if isinstance(cls, type) and cls.__name__.endswith("Layer") and "apply" in vars(cls):
                kind = cls.__name__[: -len("Layer")].lower()
                self._set(cls, "apply", self._layer(kind, cls.apply))
        for op in ATTENTION_OPS:
            if hasattr(attention, op):
                self._set(attention, op, self._span(f"attention.{op}", getattr(attention, op)))
        self._set(training, "smse_loss", self._span("training.loss", training.smse_loss))
        self._set(tensor.Tensor, "backward", self._span("tensor.backward", tensor.Tensor.backward))
        if "_topo_order" in vars(tensor.Tensor):
            self._set(tensor.Tensor, "_topo_order",
                      self._span("tensor.topo_sort", tensor.Tensor._topo_order))
        if isinstance(vars(tensor.Tensor).get("_node"), classmethod):
            self.node_seam = True
            self._set(tensor.Tensor, "_node",
                      classmethod(self._node(vars(tensor.Tensor)["_node"].__func__)))
        self._set(data, "read_events", self._read_events(data.read_events))
        for name in ("integrate_frames", "augment"):
            self._set(data, name, self._span(f"data.{name}", getattr(data, name)))
        for name, span in (("_load_samples", "cli.setup.load_samples"),
                           ("_build_from_config", "cli.setup.build")):
            if hasattr(cli, name):
                self._set(cli, name, self._span(span, getattr(cli, name)))
        for name in ("load_checkpoint", "restore_network"):
            self._set(training, name, self._span("training.restore", getattr(training, name)))

    # -- host speed -------------------------------------------------------------

    def calibrate(self) -> None:
        t0 = perf()
        reference_work()
        self.calib_t0.append(t0)
        self.calib_s.append(perf() - t0)

    def _calibrating(self, fn):
        def forward(*args, **kwargs):
            if not self.calib_t0 or perf() - self.calib_t0[-1] >= CALIBRATE_EVERY_S:
                self.calibrate()
            return fn(*args, **kwargs)
        return forward

    def wall(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the reference runs inside."""
        i, j = bisect_left(self.calib_t0, t0), bisect_left(self.calib_t0, t1)
        return t1 - t0 - sum(self.calib_s[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """`wall(t0, t1)` on a host where the reference work takes REFERENCE_S.

        The host's speed is the median of the reference runs inside the
        interval and the one on each side of it.
        """
        i, j = bisect_left(self.calib_t0, t0), bisect_left(self.calib_t0, t1)
        near = self.calib_s[max(i - 1, 0) : j + 1]
        if not near:
            raise RuntimeError("no reference run to scale by")
        return self.wall(t0, t1) * REFERENCE_S / statistics.median(near)

    # -- boundaries -----------------------------------------------------------

    def _boundary_train(self, fn):
        def train(*args, **kwargs):
            t0 = perf()
            self.events.append(("train", t0, t0, None))
            return fn(*args, **kwargs)
        return train

    def _boundary_step(self, fn):
        span = self._span("training.optimizer", fn)

        def optimizer_step(*args, **kwargs):
            out = span(*args, **kwargs)
            t1 = perf()
            self.events.append(("step", t1, t1, None))
            return out
        return optimizer_step

    def _boundary_evaluate(self, fn):
        span = self._span("training.evaluate", fn)

        def evaluate(net, samples, *args, **kwargs):
            t0 = perf()
            was = self.tracing
            if self.suspend_in_evaluate and was:
                # Test-set passes inside a training epoch are timed whole;
                # their layer spans would blur the per-step figures.
                self.tracing = False
                try:
                    out = fn(net, samples, *args, **kwargs)
                finally:
                    self.tracing = was
                t1 = perf()
                self._add("training.evaluate", t1 - t0, t1 - t0)
            else:
                out = span(net, samples, *args, **kwargs)
                t1 = perf()
            self.events.append(("evaluate", t0, t1, len(samples)))
            return out
        return evaluate

    def _boundary_snapshot(self, fn):
        def make_checkpoint(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            self.events.append(("snapshot", t0, perf(), args[-1]))  # args[-1]: the epoch
            return out
        return make_checkpoint

    # -- spans ------------------------------------------------------------------

    def _add(self, name: str, self_seconds: float, incl_seconds: float) -> None:
        self.self_s[name] += self_seconds
        self.incl_s[name] += incl_seconds
        self.calls[name] += 1

    def _open(self, name: str) -> list:
        frame = [name, perf(), 0.0]
        self._stack.append(frame)
        return frame

    def _shut(self, frame: list) -> None:
        dur = perf() - frame[1]
        self._stack.pop()
        self._add(frame[0], dur - frame[2], dur)
        if self._stack:
            self._stack[-1][2] += dur

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.tracing:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._shut(frame)
        return wrapper

    def _layer(self, kind: str, fn):
        name = f"network.{kind}.fwd"
        counts = self.counts

        def apply(layer, x, *args, **kwargs):
            if not self.tracing:
                return fn(layer, x, *args, **kwargs)
            self._kinds.append(kind)
            frame = self._open(name)
            try:
                out = fn(layer, x, *args, **kwargs)
            finally:
                self._shut(frame)
                self._kinds.pop()
            if kind == "conv" and hasattr(layer, "kernel"):
                k = layer.kernel.shape
                flop = 2.0 * out.size * (layer.kernel.size // k[0])  # one multiply-add per tap
                counts["conv.flop_fwd"] += flop
                # Backward: the kernel gradient always, the input gradient when needed.
                counts["conv.flop_bwd"] += flop * (2 if getattr(x, "requires_grad", False) else 1)
            elif kind == "pool":
                moved = _nbytes(x) + _nbytes(out)  # read the input, write the output
                counts["pool.bytes_fwd"] += moved
                counts["pool.bytes_bwd"] += moved  # read the output grad, write the input grad
            return out
        return apply

    def _node(self, orig):
        counts = self.counts
        kinds = self._kinds

        def node(cls, data, parents, backward):
            if not self.tracing:
                return orig(cls, data, parents, backward)
            kind = kinds[-1] if kinds else None
            key = f"network.{kind}.bwd" if kind else "training.loss.bwd"
            counts["nodes"] += 1
            counts[f"nodes.{kind}"] += 1
            counts["graph_bytes"] += data.nbytes
            return orig(cls, data, parents, self._timed(backward, key))
        return node

    def _timed(self, backward, key: str):
        stack = self._stack

        def run(g):
            t0 = perf()
            backward(g)
            dt = perf() - t0
            self._add(key, dt, dt)
            if stack:
                stack[-1][2] += dt
        return run

    def _read_events(self, fn):
        span = self._span("data.read_events", fn)

        def read_events(*args, **kwargs):
            stream = span(*args, **kwargs)
            if self.tracing:
                self.counts["events"] += len(stream)
            return stream
        return read_events
