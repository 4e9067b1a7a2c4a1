import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcja_snn import tensor
from tcja_snn.neuron import LifConfig, LifTrace, lif_sequence, surrogate_derivative
from tcja_snn.tensor import ShapeError, Tensor, no_grad

import oracles
from oracles import heaviside_surrogate, lif_init, lif_step


class TestConfig:
    def test_defaults(self):
        cfg = LifConfig()
        assert cfg.tau == 2.0 and cfg.v_reset == 0.0 and cfg.v_threshold == 1.0
        assert cfg.detach_reset is True

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="tau"):
            LifConfig(tau=0.0)

    def test_infinite_tau(self):
        with pytest.raises(ValueError, match="tau"):
            LifConfig(tau=math.inf)

    def test_threshold_above_reset(self):
        with pytest.raises(ValueError, match="v_threshold"):
            LifConfig(v_reset=1.0, v_threshold=0.5)


class TestStep:
    def test_hand_iterated_two_steps(self):
        cfg = LifConfig()
        state = lif_init((1,), cfg)
        s1, state = lif_step(state, Tensor(np.array([1.5])), cfg)
        assert state.h.data == pytest.approx([0.75])
        assert s1.data == pytest.approx([0.0])
        s2, state = lif_step(state, Tensor(np.array([1.5])), cfg)
        assert s2.data == pytest.approx([1.0])  # V hit 1.125
        assert state.h.data == pytest.approx([0.0])

    def test_zero_input_never_spikes(self):
        cfg = LifConfig()
        state = lif_init((3,), cfg)
        for _ in range(10):
            s, state = lif_step(state, Tensor(np.zeros(3)), cfg)
            np.testing.assert_array_equal(s.data, np.zeros(3))
            np.testing.assert_array_equal(state.h.data, np.zeros(3))

    def test_strong_input_spikes_from_rest(self):
        cfg = LifConfig()  # tau=2, so I=4 gives V = 4/2 = 2 >= 1
        s, state = lif_step(lif_init((1,), cfg), Tensor(np.array([4.0])), cfg)
        assert s.data == pytest.approx([1.0])
        assert state.h.data == pytest.approx([0.0])

    def test_shape_mismatch(self):
        cfg = LifConfig()
        with pytest.raises(ShapeError):
            lif_step(lif_init((2,), cfg), Tensor(np.zeros(3)), cfg)


class TestSurrogates:
    def test_atan_at_origin(self):
        cfg = LifConfig(surrogate="atan", alpha=2.0)
        assert surrogate_derivative(np.array(0.0), cfg) == pytest.approx(1.0)

    def test_triangle_peak(self):
        cfg = LifConfig(surrogate="triangle", gamma=1.0)
        assert surrogate_derivative(np.array(1.0), cfg) == pytest.approx(1.0)

    def test_triangle_clamps_outside_support(self):
        cfg = LifConfig(surrogate="triangle", gamma=1.0)
        assert surrogate_derivative(np.array(1.0 + cfg.gamma), cfg) == 0.0
        assert surrogate_derivative(np.array(1.0 - cfg.gamma), cfg) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
    def test_atan_matches_closed_form(self, alpha):
        cfg = LifConfig(surrogate="atan", alpha=alpha)
        xs = np.random.default_rng(2).uniform(-3, 3, size=10)
        expected = alpha / (2 * (1 + (np.pi / 2 * alpha * xs) ** 2))
        np.testing.assert_allclose(surrogate_derivative(xs, cfg), expected, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_triangle_matches_closed_form(self, gamma):
        cfg = LifConfig(surrogate="triangle", gamma=gamma)
        xs = np.random.default_rng(3).uniform(-3, 3, size=10)
        expected = (1 / gamma**2) * np.maximum(0, gamma - np.abs(xs - 1))
        np.testing.assert_allclose(surrogate_derivative(xs, cfg), expected, atol=1e-12)

    def test_forward_is_step_function(self):
        cfg = LifConfig()
        out = heaviside_surrogate(Tensor(np.array([-0.5, 0.0, 0.5])), cfg)
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])  # step(0) = 1

    def test_backward_scales_by_derivative(self):
        cfg = LifConfig(surrogate="atan", alpha=2.0)
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        oracles.total(heaviside_surrogate(x, cfg)).backward()
        np.testing.assert_allclose(x.grad, surrogate_derivative(x.data, cfg), atol=1e-15)


class TestSequence:
    def test_all_zero_input(self):
        out = lif_sequence(Tensor(np.zeros((4, 2, 2))), LifConfig())
        np.testing.assert_array_equal(out.data, np.zeros((4, 2, 2)))

    def test_constant_drive_alternates(self):
        out = lif_sequence(Tensor(np.full((4, 1), 1.5)), LifConfig())
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 1.0, 0.0, 1.0])

    def test_trace_matches_scripted_recurrence(self):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 3, size=(12, 1))
        trace = LifTrace()
        out = lif_sequence(Tensor(inputs), LifConfig(), trace=trace)
        v, s, h = oracles.lif_trace_loops(inputs)
        np.testing.assert_allclose(np.stack(trace.v), v, atol=0)
        np.testing.assert_allclose(np.stack(trace.s), s, atol=0)
        np.testing.assert_allclose(np.stack(trace.h), h, atol=0)
        np.testing.assert_array_equal(out.data, s)

    def test_empty_time_dimension_rejected(self):
        with pytest.raises(ShapeError, match="empty time"):
            lif_sequence(Tensor(np.zeros((0, 3))), LifConfig())

    def test_state_not_carried_between_sequences(self):
        cfg = LifConfig()
        x = Tensor(np.full((3, 1), 0.9))
        first = lif_sequence(x, cfg).data
        second = lif_sequence(x, cfg).data
        np.testing.assert_array_equal(first, second)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_spikes_always_binary(self, t_steps, seed):
        inputs = np.random.default_rng(seed).uniform(-2, 4, size=(t_steps, 3))
        out = lif_sequence(Tensor(inputs), LifConfig()).data
        assert np.all((out == 0.0) | (out == 1.0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_hard_reset_zeroes_h_on_spike(self, seed):
        inputs = np.random.default_rng(seed).uniform(-2, 4, size=(6, 4))
        trace = LifTrace()
        lif_sequence(Tensor(inputs), LifConfig(), trace=trace)
        s = np.stack(trace.s)
        h = np.stack(trace.h)
        assert np.all(h[s == 1.0] == 0.0)

    def test_detach_reset_leaves_forward_identical(self):
        inputs = np.random.default_rng(4).uniform(-1, 3, size=(8, 5))
        a = lif_sequence(Tensor(inputs), LifConfig(detach_reset=True)).data
        b = lif_sequence(Tensor(inputs), LifConfig(detach_reset=False)).data
        np.testing.assert_array_equal(a, b)

    def test_detach_reset_changes_gradients(self):
        inputs = np.random.default_rng(4).uniform(-1, 3, size=(8, 5))
        grads = []
        for detach in (True, False):
            x = Tensor(inputs.copy(), requires_grad=True)
            oracles.total(lif_sequence(x, LifConfig(detach_reset=detach))).backward()
            grads.append(x.grad.copy())
        assert not np.allclose(grads[0], grads[1])

    def test_subthreshold_membrane_follows_affine_recurrence(self):
        # Between spikes: V_{t+1} = (1 - 1/tau) V_t + I / tau.
        cfg = LifConfig()
        current = 0.4  # stays below threshold forever
        trace = LifTrace()
        lif_sequence(Tensor(np.full((10, 1), current)), cfg, trace=trace)
        v = np.stack(trace.v).ravel()
        assert np.all(np.stack(trace.s) == 0.0)
        decay = 1 - 1 / cfg.tau
        # Closed form from rest: V_t = (I/tau) * (1 - decay^t) / (1 - decay)
        expected = [
            current / cfg.tau * (1 - decay ** (t + 1)) / (1 - decay) for t in range(10)
        ]
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_surrogate_gradient_flows_through_time(self):
        x = Tensor(np.full((4, 1), 0.9), requires_grad=True)
        oracles.total(lif_sequence(x, LifConfig())).backward()
        assert np.any(x.grad != 0.0)


class TestFusedParity:
    """The fused one-node unroll against the per-step composition it replaced."""

    @pytest.mark.parametrize("surrogate", ["atan", "triangle"])
    @pytest.mark.parametrize("detach_reset", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_unfused_oracle(self, surrogate, detach_reset, dtype):
        cfg = LifConfig(surrogate=surrogate, detach_reset=detach_reset)
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1, 3, size=(9, 3, 4)).astype(dtype)
        probe = rng.standard_normal(inputs.shape).astype(dtype)
        results = []
        for run in (lif_sequence, oracles.lif_sequence_unfused):
            x = Tensor(inputs.copy(), requires_grad=True)
            trace = LifTrace()
            out = run(x, cfg, trace=trace)
            oracles.probe_sum(out, probe).backward()
            results.append((out.data, x.grad, trace))
        (fused, g_fused, tr_fused), (unfused, g_unfused, tr_unfused) = results
        assert fused.dtype == dtype and g_fused.dtype == dtype
        assert 0.0 < fused.mean() < 1.0  # both spiking and silent steps occur
        np.testing.assert_array_equal(fused, unfused)
        for field in ("v", "s", "h"):
            np.testing.assert_array_equal(getattr(tr_fused, field), getattr(tr_unfused, field))
        if dtype == np.float64:
            np.testing.assert_allclose(g_fused, g_unfused, rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(g_fused, g_unfused, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("surrogate", ["atan", "triangle"])
    @pytest.mark.parametrize("detach_reset", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_backward_matches_one_block(
        self, monkeypatch, surrogate, detach_reset, dtype
    ):
        # Blocks of 1, 2 and 4 steps (T = 9 is a multiple of neither 2 nor
        # 4) against a budget past the whole stack: the same bytes.
        cfg = LifConfig(surrogate=surrogate, detach_reset=detach_reset)
        rng = np.random.default_rng(12)
        inputs = rng.uniform(-1, 3, size=(9, 3, 4)).astype(dtype)
        probe = rng.standard_normal(inputs.shape).astype(dtype)
        step = inputs[0].nbytes
        results = []
        for budget in (step, 2 * step, 4 * step, 100 * step):
            monkeypatch.setattr(tensor, "BLOCK_BYTES", budget)
            x = Tensor(inputs.copy(), requires_grad=True)
            out = lif_sequence(x, cfg)
            oracles.probe_sum(out, probe).backward()
            results.append((out.data, x.grad))
        (whole_out, whole_grad), blocked = results[-1], results[:-1]
        assert 0.0 < whole_out.mean() < 1.0 and whole_grad.dtype == dtype
        for out, grad in blocked:
            assert out.tobytes() == whole_out.tobytes()
            assert grad.dtype == dtype and grad.tobytes() == whole_grad.tobytes()

    def test_builds_one_node(self):
        x = Tensor(np.full((6, 2), 0.9), requires_grad=True)
        out = lif_sequence(x, LifConfig())
        assert out._parents == (x,)
        assert len(out._topo_order()) == 2


class TestInPlaceForward:
    """The forward writes each step into the stacks with out=; every way of
    running it gives the same spikes, and a trace keeps its own arrays."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["contiguous", "strided", "transposed"])
    def test_spikes_agree_across_runs(self, view, dtype):
        rng = np.random.default_rng(21)
        base = rng.uniform(-1, 3, size=(7, 6, 4, 5)).astype(dtype)
        views = {
            "contiguous": base,
            "strided": base[:, ::2, :, 1:],
            "transposed": base.transpose(0, 3, 2, 1),
        }
        x = views[view]
        cfg = LifConfig(v_reset=-0.25, tau=3.0)
        recorded = lif_sequence(Tensor(x, requires_grad=True), cfg)
        assert recorded.requires_grad
        with no_grad():
            plain = lif_sequence(Tensor(x, requires_grad=True), cfg)
        traced = lif_sequence(Tensor(x), cfg, trace=LifTrace())
        want = oracles.lif_sequence_unfused(Tensor(x), cfg).data
        assert want.dtype == dtype and 0.0 < want.mean() < 1.0
        for got in (recorded.data, plain.data, traced.data):
            assert got.dtype == dtype and got.shape == x.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("v_threshold", [1.0, 0.3])
    @pytest.mark.parametrize("v_reset", [0.0, -0.0, -0.25])
    @pytest.mark.parametrize("graph", [True, False])
    def test_matches_the_eight_op_step(self, graph, v_reset, v_threshold, dtype):
        # A -0.0 input gives V = -0.0 at v_reset = -0.0 and +0.0 at +0.0, so
        # dropping H - v_reset at -0.0 would show; an input of 2*v_th puts
        # step 0's V exactly on the threshold when v_reset is zero.
        x = np.random.default_rng(23).uniform(-1, 3, size=(7, 5, 6)).astype(dtype)
        x[:, 0], x[:, 1], x[0, 2] = 0.0, -0.0, 2 * dtype(v_threshold)
        cfg = LifConfig(v_reset=v_reset, v_threshold=v_threshold)
        trace = LifTrace()
        with contextlib.nullcontext() if graph else no_grad():
            out = lif_sequence(Tensor(x, requires_grad=True), cfg, trace=trace)
        spikes, v_steps, h_steps = oracles.lif_forward_8op(x, cfg)
        assert out.requires_grad == graph and 0.0 < spikes.mean() < 1.0
        assert out.data.tobytes() == spikes.tobytes()
        for got, want in ((trace.s, spikes), (trace.v, v_steps), (trace.h, h_steps)):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        if v_reset == 0.0:
            assert spikes[0, 2].all()
            assert np.signbit(v_steps[0][1]).all() == (math.copysign(1.0, v_reset) < 0)

    def test_trace_holds_distinct_arrays_of_each_step(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-1, 3, size=(6, 3, 4))
        cfg = LifConfig()
        for switch in (no_grad, contextlib.nullcontext):
            trace, want = LifTrace(), LifTrace()
            with switch():
                out = lif_sequence(Tensor(x, requires_grad=True), cfg, trace=trace)
            oracles.lif_sequence_unfused(Tensor(x), cfg, trace=want)
            arrays = [out.data]
            for field in ("v", "s", "h"):
                got = getattr(trace, field)
                assert len(got) == len(x)
                for step, expected in zip(got, getattr(want, field)):
                    # Read after the run: a buffer reused by a later step
                    # would hold that step's values.
                    assert step.shape == x.shape[1:] and step.tobytes() == expected.tobytes()
                arrays += got
            for i, a in enumerate(arrays):
                for b in arrays[i + 1 :]:
                    assert not np.shares_memory(a, b)


class TestNoGrad:
    def test_keeps_no_membrane_stack(self):
        # Only the backward reads the membrane stack, so without a graph the
        # peak is the spike stack plus a few per-step arrays.
        x = np.random.default_rng(0).random((14, 64, 32, 32), dtype=np.float32) * 2
        inputs = Tensor(x, requires_grad=True)
        tracemalloc.start()
        try:
            with no_grad():
                lif_sequence(inputs, LifConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input"

    def test_same_spikes_and_trace_as_with_a_graph(self):
        x = np.random.default_rng(1).random((6, 3, 4, 4)) * 2
        runs = []
        for switch in (no_grad, contextlib.nullcontext):
            trace = LifTrace()
            with switch():
                out = lif_sequence(Tensor(x, requires_grad=True), LifConfig(), trace=trace)
            runs.append((out, trace))
        (plain, plain_trace), (recorded, recorded_trace) = runs
        assert not plain.requires_grad and recorded.requires_grad
        np.testing.assert_array_equal(plain.data, recorded.data)
        for field in ("v", "s", "h"):
            np.testing.assert_array_equal(getattr(plain_trace, field), getattr(recorded_trace, field))
