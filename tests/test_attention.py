import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcja_snn.attention import (
    TcjaConfig,
    TcjaParams,
    _conv1d,
    _conv1d_vjp,
    ccf,
    cla,
    param_count,
    recalibrate,
    score_maps,
    squeeze,
    tcja_forward,
    tla,
)
from tcja_snn.network import ArchParseError, TcjaLayer, build_network, parse_arch
from tcja_snn.tensor import ShapeError, Tensor

import oracles


def make_params(c, t, k_t, k_c, rng, fusion="multiply"):
    w = rng.standard_normal((c, c, k_t))
    e = rng.standard_normal((t, t, k_c))
    return TcjaParams(
        w=Tensor(w, requires_grad=True),
        e=Tensor(e, requires_grad=True),
        fusion=fusion,
    )


class TestSqueeze:
    def test_zero_frames(self):
        out = squeeze(np.zeros((3, 2, 4, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_constant_frames(self):
        out = squeeze(np.full((2, 3, 5, 5), 2.5))
        np.testing.assert_array_equal(out, np.full((3, 2), 2.5))

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(0).standard_normal((3, 2, 4, 4))
        out = squeeze(x)
        np.testing.assert_allclose(out, oracles.squeeze_loops(x), atol=1e-12)

    def test_gradient_spreads_uniformly(self):
        # Under a frame-constant output gradient the block's input gradient,
        # g_y*f + spread(g_z)/(H*W), is constant over each frame.
        rng = np.random.default_rng(21)
        x_data = rng.standard_normal((3, 4, 4, 4))
        params = make_params(4, 3, 2, 2, rng)
        grads = []
        for forward in (tcja_forward, oracles.tcja_forward_unfused):
            x = Tensor(x_data, requires_grad=True)
            oracles.total(forward(x, params)).backward()
            grads.append(x.grad)
        per_frame = np.broadcast_to(grads[0][:, :, :1, :1], x_data.shape)
        np.testing.assert_array_equal(grads[0], per_frame)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_empty_spatial_rejected(self):
        with pytest.raises(ShapeError):
            squeeze(np.zeros((2, 3, 0, 4)))


class TestTla:
    def test_zero_kernel(self):
        z = np.random.default_rng(1).standard_normal((4, 5))
        out = tla(z, np.zeros((4, 4, 2)))
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_channel_identity_is_passthrough(self):
        z = np.random.default_rng(2).standard_normal((4, 5))
        w = np.eye(4)[:, :, None]  # K_T = 1, W[(n,i)] = 1 iff n == i
        out = tla(z, w)
        np.testing.assert_allclose(out, z, atol=0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, 5, 2))
        out = tla(z, w)
        np.testing.assert_allclose(out, oracles.tla_loops(z, w), atol=0)

    def test_kernel_size_violation(self):
        with pytest.raises(ShapeError, match="kernel size"):
            tla(np.ones((3, 4)), np.ones((3, 3, 4)))


class TestCla:
    def test_zero_kernel(self):
        z = np.random.default_rng(4).standard_normal((6, 5))
        out = cla(z, np.zeros((5, 5, 3)))
        np.testing.assert_array_equal(out, np.zeros((6, 5)))

    def test_time_identity_is_passthrough(self):
        z = np.random.default_rng(5).standard_normal((6, 5))
        e = np.eye(5)[:, :, None]  # K_C = 1
        out = cla(z, e)
        np.testing.assert_allclose(out, z, atol=0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((6, 5))
        e = rng.standard_normal((5, 5, 3))
        out = cla(z, e)
        np.testing.assert_allclose(out, oracles.cla_loops(z, e), atol=0)

    def test_kernel_size_violation(self):
        with pytest.raises(ShapeError, match="kernel size"):
            cla(np.ones((3, 4)), np.ones((4, 4, 3)))


class TestCcf:
    def test_zero_maps_give_half(self):
        z = np.zeros((3, 4))
        out = ccf(z, z)
        np.testing.assert_allclose(out, np.full((3, 4), 0.5), atol=0)

    def test_multiply_fusion_value(self):
        out = ccf(np.full((2, 2), 2.0), np.full((2, 2), 3.0), "multiply")
        np.testing.assert_allclose(out, np.full((2, 2), 1 / (1 + np.exp(-6.0))), atol=1e-12)
        assert out[0, 0] == pytest.approx(0.997527, abs=1e-6)

    def test_add_fusion_value(self):
        out = ccf(np.full((2, 2), 2.0), np.full((2, 2), 3.0), "add")
        np.testing.assert_allclose(out, np.full((2, 2), 1 / (1 + np.exp(-5.0))), atol=1e-12)
        assert out[0, 0] == pytest.approx(0.993307, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ccf(np.ones((2, 3)), np.ones((3, 2)))

    def test_constant_second_map_degenerates_to_scaled_sigmoid(self):
        rng = np.random.default_rng(7)
        # Two rows of extremes below the random ones: saturating, signed-zero,
        # infinite and tiny pre-activations.
        extremes = [[800.0, -800.0, 0.0, -0.0, np.inf], [-np.inf, 1e-30, -1e-30, 40.0, -40.0]]
        t_map = np.vstack([rng.standard_normal((4, 5)), extremes])
        k = 1.7
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = ccf(t_map, np.full(t_map.shape, k), "multiply")
        with np.errstate(over="ignore"):
            expected = oracles.logistic(k * t_map)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        assert np.all((out >= 0.0) & (out <= 1.0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_output_strictly_inside_unit_interval(self, seed):
        # Strict at unit scale; float64 sigmoid saturates only past |x| ~ 37.
        rng = np.random.default_rng(seed)
        out = ccf(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestRecalibrate:
    def test_half_map_halves_input(self):
        x = np.random.default_rng(8).standard_normal((3, 2, 4, 4))
        out = recalibrate(x, np.full((2, 3), 0.5))
        np.testing.assert_allclose(out, x / 2, atol=0)

    def test_near_one_map_preserves_pattern(self):
        x = np.random.default_rng(9).standard_normal((2, 2, 3, 3))
        f = np.full((2, 2), 1.0 - 1e-9)
        out = recalibrate(x, f)
        np.testing.assert_allclose(out, x, rtol=1e-8)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 2, 2))
        f = rng.uniform(0, 1, size=(4, 3))
        out = recalibrate(x, f)
        np.testing.assert_allclose(out, oracles.recalibrate_loops(x, f), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            recalibrate(np.ones((3, 2, 4, 4)), np.ones((3, 2)))


class TestForward:
    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(11)
        params = make_params(4, 3, 2, 2, rng)
        out = tcja_forward(Tensor(np.zeros((3, 4, 5, 5))), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 5, 5)))

    def test_matches_composed_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c, t = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            k_t, k_c = int(rng.integers(1, t)), int(rng.integers(1, c))
            x = rng.standard_normal((t, c, 3, 3))
            params = make_params(c, t, k_t, k_c, rng)
            out = tcja_forward(Tensor(x), params)
            expected = oracles.tcja_forward_loops(x, params.w.data, params.e.data)
            np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_add_fusion_matches_oracles(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 5, 2, 2))
        params = make_params(5, 4, 2, 3, rng, fusion="add")
        out = tcja_forward(Tensor(x), params)
        expected = oracles.tcja_forward_loops(x, params.w.data, params.e.data, fusion="add")
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_shape_equals_input_shape(self):
        rng = np.random.default_rng(14)
        x = np.zeros((4, 6, 3, 5))
        params = make_params(6, 4, 2, 2, rng)
        assert tcja_forward(Tensor(x), params).shape == x.shape


def cross_gradient(z_data, w_data, e_data, i, j):
    """Input gradient of the block's output at (step j, channel i), as (C, T).

    The input is H = W = 1 frames holding `z_data`, so the squeeze is the
    identity and the gradient is x[j, i] * d f_map[i, j] / d z plus f_map[i, j]
    at (i, j) itself.
    """
    x = Tensor(z_data.T[:, :, None, None].copy(), requires_grad=True)
    params = TcjaParams(w=Tensor(w_data), e=Tensor(e_data))
    probe = np.zeros(x.shape)
    probe[j, i] = 1.0
    oracles.probe_sum(tcja_forward(x, params), probe).backward()
    return x.grad[:, :, 0, 0].T


class TestCrossReceptiveField:
    def test_demo_cross_region(self):
        # For a 6x5 average matrix, the fused score at (channel 3, step 2)
        # depends exactly on rows 3..3+K_C-1 across all steps plus columns
        # 2..2+K_T-1 across all channels (0-based anchors, window forward).
        rng = np.random.default_rng(15)
        c_dim, t_dim, k_t, k_c = 6, 5, 2, 2
        i, j = 3, 2
        grad = cross_gradient(
            rng.standard_normal((c_dim, t_dim)),
            rng.standard_normal((c_dim, c_dim, k_t)),
            rng.standard_normal((t_dim, t_dim, k_c)),
            i,
            j,
        )
        for c in range(c_dim):
            for t in range(t_dim):
                on_channel_arm = i <= c <= i + k_c - 1
                on_time_arm = j <= t <= j + k_t - 1
                if not (on_channel_arm or on_time_arm):
                    assert grad[c, t] == 0.0, (c, t)
        assert np.any(np.abs(np.delete(grad[i, :], j)) > 1e-9)
        assert np.any(np.abs(np.delete(grad[:, j], i)) > 1e-9)

    def test_random_parameterizations(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            c_dim = int(rng.integers(4, 9))
            t_dim = int(rng.integers(4, 7))
            k_t = int(rng.integers(1, min(4, t_dim)))
            k_c = int(rng.integers(1, min(4, c_dim)))
            i = int(rng.integers(0, c_dim - k_c + 1))
            j = int(rng.integers(0, t_dim - k_t + 1))
            grad = cross_gradient(
                rng.standard_normal((c_dim, t_dim)),
                rng.standard_normal((c_dim, c_dim, k_t)),
                rng.standard_normal((t_dim, t_dim, k_c)),
                i,
                j,
            )
            outside = np.ones((c_dim, t_dim), dtype=bool)
            outside[i : i + k_c, :] = False
            outside[:, j : j + k_t] = False
            assert np.all(grad[outside] == 0.0)
            time_arm_only = np.zeros_like(outside)
            time_arm_only[:, j : j + k_t] = True
            time_arm_only[i : i + k_c, :] = False
            channel_arm_only = np.zeros_like(outside)
            channel_arm_only[i : i + k_c, :] = True
            channel_arm_only[:, j : j + k_t] = False
            assert np.any(np.abs(grad[time_arm_only]) > 1e-9)
            assert np.any(np.abs(grad[channel_arm_only]) > 1e-9)


class TestGradients:
    def test_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 4, 2, 2))
        params = make_params(4, 3, 2, 2, rng)
        probe = rng.standard_normal(x.shape)

        def run(x_arr, w_arr, e_arr):
            p = TcjaParams(
                w=Tensor(w_arr.copy(), requires_grad=True),
                e=Tensor(e_arr.copy(), requires_grad=True),
            )
            xt = Tensor(x_arr.copy(), requires_grad=True)
            out = oracles.probe_sum(tcja_forward(xt, p), probe)
            return out, xt, p

        loss, xt, p = run(x, params.w.data, params.e.data)
        loss.backward()
        for label, tensor, arr, pick in (
            ("x", xt, x, lambda a: run(a, params.w.data, params.e.data)[0]),
            ("w", p.w, params.w.data, lambda a: run(x, a, params.e.data)[0]),
            ("e", p.e, params.e.data, lambda a: run(x, params.w.data, a)[0]),
        ):
            fd = oracles.finite_difference_grad(lambda a: pick(a).item(), arr.copy())
            err = oracles.relative_error(tensor.grad, fd)
            assert err < 1e-4, f"{label}: {err}"


class TestFusedParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fusion", ["multiply", "add"])
    @pytest.mark.parametrize(
        "shape", [(8, 16, 8, 8), (14, 64, 16, 16), (3, 4, 2, 2), (5, 7, 1, 3), (4, 5, 3, 1)]
    )
    def test_matches_unfused_composition_exactly(self, dtype, fusion, shape):
        rng = np.random.default_rng(22)
        t, c = shape[:2]
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((c, c, min(4, t - 1))).astype(dtype)
        e = rng.standard_normal((t, t, min(4, c - 1))).astype(dtype)
        probe = rng.standard_normal(shape).astype(dtype)
        results = []
        for forward in (tcja_forward, oracles.tcja_forward_unfused):
            xt = Tensor(x, requires_grad=True)
            params = TcjaParams(
                w=Tensor(w, requires_grad=True), e=Tensor(e, requires_grad=True), fusion=fusion
            )
            out = forward(xt, params)
            oracles.probe_sum(out, probe).backward()
            results.append((out.data, xt.grad, params.w.grad, params.e.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestSlicedConv1d:
    """The sliced 1-D conv and its VJP against the same sums over an np.pad
    copy: equal bytes for every kernel size below L."""

    LENGTH = 8

    @staticmethod
    def _inputs(lead, layout, ksize, dtype):
        rng = np.random.default_rng(ksize)
        c_in, c_out, length = 5, 4, TestSlicedConv1d.LENGTH
        # Zeros among the inputs, as in squeezed spike frames, so signed
        # zeros show up among the products.
        x = rng.standard_normal((*lead, c_in, length)) * (rng.random((*lead, c_in, length)) < 0.6)
        g = rng.standard_normal((*lead, c_out, length))
        if layout == "swapped":  # as cla passes them: views of (..., L, C)
            x = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
            g = np.ascontiguousarray(g.swapaxes(-1, -2)).swapaxes(-1, -2)
        kernel = rng.standard_normal((c_out, c_in, ksize))
        return x.astype(dtype), g.astype(dtype), kernel.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "swapped"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
    @pytest.mark.parametrize("ksize", range(1, LENGTH))
    def test_matches_padded_oracle(self, ksize, lead, layout, dtype):
        x, g, kernel = self._inputs(lead, layout, ksize, dtype)
        out = _conv1d(x, kernel)
        want = oracles.conv1d_padded(x, kernel)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        dx, dkernel = _conv1d_vjp(g, x, kernel)
        want_dx, want_dkernel = oracles.conv1d_vjp_padded(g, x, kernel)
        assert dx.dtype == dkernel.dtype == dtype
        assert dx.shape == x.shape and dkernel.shape == kernel.shape
        assert np.ascontiguousarray(dx).tobytes() == np.ascontiguousarray(want_dx).tobytes()
        assert dkernel.tobytes() == want_dkernel.tobytes()


class TestBatchedStacks:
    """A (T, B, C, H, W) batch is B independent stacks: the same score maps
    and outputs, bit for bit, and the kernel gradients summed over B."""

    @pytest.mark.parametrize("fusion", ["multiply", "add"])
    def test_batch_equals_each_stack_alone(self, fusion):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((6, 3, 5, 4, 4))
        probe = rng.standard_normal(x.shape)
        params = make_params(5, 6, 3, 2, rng, fusion)
        batched_maps = score_maps(x, params)
        xt = Tensor(x, requires_grad=True)
        out = tcja_forward(xt, params)
        oracles.probe_sum(out, probe).backward()
        w_grad, e_grad = params.w.grad, params.e.grad
        w_sum, e_sum = np.zeros_like(w_grad), np.zeros_like(e_grad)
        for b in range(3):
            maps = score_maps(x[:, b], params)
            for got, want in zip(
                (batched_maps.t_map, batched_maps.c_map, batched_maps.f_map),
                (maps.t_map, maps.c_map, maps.f_map),
            ):
                assert got[b].tobytes() == want.tobytes()
            params.w.grad = params.e.grad = None
            one = Tensor(x[:, b], requires_grad=True)
            alone = tcja_forward(one, params)
            assert out.data[:, b].tobytes() == alone.data.tobytes()
            oracles.probe_sum(alone, probe[:, b]).backward()
            np.testing.assert_allclose(xt.grad[:, b], one.grad, rtol=0, atol=1e-12)
            w_sum += params.w.grad
            e_sum += params.e.grad
        np.testing.assert_allclose(w_grad, w_sum, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(e_grad, e_sum, rtol=1e-12, atol=1e-12)

    def test_recalibrate_checks_the_batch_axes(self):
        with pytest.raises(ShapeError, match="does not match"):
            recalibrate(np.ones((3, 2, 4, 5, 5)), np.ones((3, 4, 3)))


class TestParamCount:
    def test_reference_values(self):
        assert param_count(64, 20, 4, 4) == (16384, 1600, 1638400)

    def test_unit_case(self):
        assert param_count(1, 1, 1, 1) == (1, 1, 1)

    def test_ratio_shrinks_with_t(self):
        # The joint-attention count grows additively while the dense baseline
        # grows multiplicatively, so the ratio falls as T grows.
        ratios = []
        for t in (8, 10, 14, 20):
            tla_n, cla_n, fc_n = param_count(64, t, 4, 4)
            ratios.append((tla_n + cla_n) / fc_n)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.05

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            param_count(0, 1, 1, 1)


def built_tcja_params(channels, time_steps, cfg, seed):
    """The kernels `build_network` draws for a TCJA block at C and T."""
    arch = parse_arch(f"{channels}C3-LIF-TCJA", input_dims=(1, 4, 4), time_steps=time_steps)
    net = build_network(arch, num_classes=1, tcja_cfg=cfg, rng=np.random.default_rng(seed))
    (layer,) = [layer for layer in net.layers if isinstance(layer, TcjaLayer)]
    return layer.params


class TestInit:
    def test_kernel_sizes_capped_below_dims(self):
        params = built_tcja_params(3, 2, TcjaConfig(k_t=4, k_c=4), seed=18)
        assert params.w.shape == (3, 3, 1)  # k_t capped at T - 1
        assert params.e.shape == (2, 2, 2)  # k_c capped at C - 1

    def test_init_bounds(self):
        params = built_tcja_params(8, 6, TcjaConfig(k_t=3, k_c=3), seed=19)
        assert np.all(np.abs(params.w.data) <= 1 / np.sqrt(8 * 3))
        assert np.all(np.abs(params.e.data) <= 1 / np.sqrt(6 * 3))

    def test_tiny_dims_rejected(self):
        for channels, time_steps in [(1, 8), (8, 1)]:
            with pytest.raises(ArchParseError, match="TCJA at position 2 needs C, T >= 2"):
                built_tcja_params(channels, time_steps, TcjaConfig(), seed=0)


class TestComplexityTrend:
    def test_tla_wall_clock_grows_with_work(self):
        # O(T C^2 K): quadrupling C (16x work) and separately quadrupling K
        # must not get cheaper; assert a generous monotone margin.
        rng = np.random.default_rng(20)
        t_dim = 32

        def best_time(c_dim, k):
            z = rng.standard_normal((c_dim, t_dim))
            w = rng.standard_normal((c_dim, c_dim, k))
            tla(z, w)  # warm up
            best = np.inf
            for _ in range(5):
                tic = time.perf_counter()
                tla(z, w)
                best = min(best, time.perf_counter() - tic)
            return best

        assert best_time(512, 4) > 1.5 * best_time(128, 4)
        assert best_time(384, 8) > 1.2 * best_time(384, 1)
