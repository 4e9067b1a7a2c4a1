"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Criterion 8 trains two small networks end to end and dominates
the runtime (a few minutes on one core).
"""

import contextlib
import time
from fractions import Fraction

import numpy as np
import pytest

from tcja_snn.attention import TcjaConfig, TcjaParams, ccf, cla, param_count, squeeze, tcja_forward, tla
from tcja_snn.data import SyntheticConfig, frames_dataset, integrate_frames, slice_bounds
from tcja_snn.network import (
    PRESETS,
    analytic_param_count,
    build_network,
    dropout,
    parse_arch,
    render,
    voting_layer,
)
from tcja_snn.neuron import LifConfig, LifTrace, lif_sequence, surrogate_derivative
from tcja_snn.tensor import Tensor, conv2d, fully_connected, pool2d
from tcja_snn.training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    restore_network,
    save_checkpoint,
    smse_loss,
    train,
)

import oracles


@contextlib.contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_attention_math_oracles():
    with report("criterion 1: attention ops match brute-force sums (<= 1e-12, < 10 s)"):
        rng = np.random.default_rng(101)
        tic = time.monotonic()
        for _ in range(100):
            c = int(rng.integers(2, 9))
            t = int(rng.integers(2, 7))
            k_t = int(rng.integers(1, min(3, t - 1) + 1))
            k_c = int(rng.integers(1, min(3, c - 1) + 1))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((t, c, h, w))
            wk = rng.standard_normal((c, c, k_t))
            ek = rng.standard_normal((t, t, k_c))

            z = squeeze(x)
            assert np.abs(z - oracles.squeeze_loops(x)).max() <= 1e-12
            t_map = tla(z, wk)
            assert np.abs(t_map - oracles.tla_loops(z, wk)).max() <= 1e-12
            c_map = cla(z, ek)
            assert np.abs(c_map - oracles.cla_loops(z, ek)).max() <= 1e-12
            for fusion in ("multiply", "add"):
                fused = ccf(t_map, c_map, fusion)
                want = oracles.ccf_loops(t_map, c_map, fusion)
                assert np.abs(fused - want).max() <= 1e-12
                params = TcjaParams(w=Tensor(wk), e=Tensor(ek), fusion=fusion)
                full = tcja_forward(Tensor(x), params)
                want_full = oracles.tcja_forward_loops(x, wk, ek, fusion)
                assert np.abs(full.data - want_full).max() <= 1e-12
        elapsed = time.monotonic() - tic
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def _grad_case(forward, arrays, rng, tol=1e-4, step=1e-5):
    """Reverse-mode grads of sum(forward(xs) * R) vs central differences."""
    probe = {}

    def run(arrs):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrs]
        out = forward(*ts)
        if "r" not in probe:
            probe["r"] = rng.standard_normal(out.shape)
        return oracles.probe_sum(out, probe["r"]), ts

    loss, tensors = run(arrays)
    loss.backward()
    for idx, tensor in enumerate(tensors):
        def f(x, idx=idx):
            trial = [a.copy() for a in arrays]
            trial[idx] = x
            return run(trial)[0].item()

        fd = oracles.finite_difference_grad(f, arrays[idx].copy(), step=step)
        err = oracles.relative_error(tensor.grad, fd)
        assert err < tol, f"input {idx}: relative error {err:.3g}"


def test_criterion_2_gradient_suite():
    with report("criterion 2: reverse-mode grads match central differences (< 1e-4, < 60 s)"):
        tic = time.monotonic()
        rng = np.random.default_rng(202)
        n_cases = 20
        # A p = 0.5 dropout mask: dropped units 0, kept ones scaled by 1/keep.
        dropout_mask = np.array([[2.0, 0.0, 2.0, 2.0], [0.0, 2.0, 0.0, 2.0]])
        op_table = {
            "add": (oracles.add, lambda: [rng.standard_normal((4, 4)), rng.standard_normal((4, 4))]),
            "sub": (oracles.sub, lambda: [rng.standard_normal((4, 4)), rng.standard_normal((4, 4))]),
            "mul": (oracles.mul, lambda: [rng.standard_normal((4, 4)), rng.standard_normal((4, 4))]),
            "broadcast_mul": (oracles.mul, lambda: [rng.standard_normal((3, 2, 1, 1)), rng.standard_normal((3, 2, 3, 3))]),
            "scale": (lambda a: oracles.mul(a, 1.7), lambda: [rng.standard_normal((4, 4))]),
            "sigmoid": (oracles.sigmoid, lambda: [rng.standard_normal((4, 4))]),
            "sum": (lambda a: oracles.total(a, axis=1), lambda: [rng.standard_normal((4, 4))]),
            "mean": (lambda a: oracles.mean(a, axis=(1, 2)), lambda: [rng.standard_normal((2, 3, 4))]),
            "reshape": (lambda a: oracles.reshape(a, 8, 2), lambda: [rng.standard_normal((4, 4))]),
            "transpose": (oracles.transpose, lambda: [rng.standard_normal((3, 5))]),
            "fully_connected": (fully_connected, lambda: [rng.standard_normal((3, 1, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)]),
            "conv2d": (conv2d, lambda: [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((2, 2, 3, 3))]),
            "conv2d_k5_pad2": (conv2d, lambda: [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((2, 2, 5, 5))]),
            "conv1d": (oracles.conv1d_multichannel, lambda: [rng.standard_normal((3, 5)), rng.standard_normal((3, 3, 2))]),
            "avg_pool": (lambda x: pool2d(x, "avg", 2), lambda: [rng.standard_normal((2, 4, 4))]),
            "max_pool": (lambda x: pool2d(x, "max", 2), lambda: [rng.standard_normal((2, 4, 4))]),
            "smse": (
                lambda s: oracles.reshape(smse_loss(s, np.array([1.0, 0.0, 0.0])), 1),
                lambda: [rng.standard_normal((4, 3))],
            ),
            "fully_connected_4d": (fully_connected, lambda: [rng.standard_normal((3, 1, 2, 2, 2)), rng.standard_normal((8, 2)), rng.standard_normal(2)]),
            "voting": (lambda s: voting_layer(s, 3), lambda: [rng.standard_normal((4, 6))]),
            "dropout": (lambda x: dropout(x, dropout_mask), lambda: [rng.standard_normal((3, 2, 4))]),
        }
        for name, (forward, gen) in op_table.items():
            for _ in range(n_cases):
                _grad_case(forward, gen(), rng)

        def tcja_block(x, wk, ek):
            params = TcjaParams(w=wk, e=ek)
            return tcja_forward(x, params)

        for _ in range(n_cases):
            arrays = [
                rng.standard_normal((3, 4, 2, 2)),
                rng.standard_normal((4, 4, 2)),
                rng.standard_normal((3, 3, 2)),
            ]
            _grad_case(tcja_block, arrays, rng)
        elapsed = time.monotonic() - tic
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_3_surrogate_formulas():
    with report("criterion 3: surrogate derivatives match closed forms (<= 1e-12)"):
        rng = np.random.default_rng(303)
        xs = rng.uniform(-4, 4, size=50)
        alpha, gamma = 2.0, 1.0
        atan_cfg = LifConfig(surrogate="atan", alpha=alpha)
        tri_cfg = LifConfig(surrogate="triangle", gamma=gamma)
        atan_want = alpha / (2 * (1 + (np.pi / 2 * alpha * xs) ** 2))
        tri_want = (1 / gamma**2) * np.maximum(0, gamma - np.abs(xs - 1))
        assert np.abs(surrogate_derivative(xs, atan_cfg) - atan_want).max() <= 1e-12
        assert np.abs(surrogate_derivative(xs, tri_cfg) - tri_want).max() <= 1e-12


def test_criterion_4_lif_trace():
    with report("criterion 4: membrane trace 0.75/1.125 with spikes 0,1,0,1"):
        trace = LifTrace()
        out = lif_sequence(Tensor(np.full((4, 1), 1.5)), LifConfig(), trace=trace)
        v = np.stack(trace.v).ravel()
        np.testing.assert_array_equal(v, [0.75, 1.125, 0.75, 1.125])
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 1.0, 0.0, 1.0])


def test_criterion_5_cross_receptive_field():
    with report("criterion 5: fused-score gradients vanish exactly off the cross"):
        rng = np.random.default_rng(505)
        for _ in range(20):
            c_dim = int(rng.integers(4, 9))
            t_dim = int(rng.integers(4, 7))
            k_t = int(rng.integers(1, min(4, t_dim)))
            k_c = int(rng.integers(1, min(4, c_dim)))
            i = int(rng.integers(0, c_dim - k_c + 1))
            j = int(rng.integers(0, t_dim - k_t + 1))
            # H = W = 1 frames holding z, probed at (step j, channel i): the
            # input gradient is x[j, i] * d f_map[i, j] / d z off (i, j).
            z = rng.standard_normal((c_dim, t_dim))
            x = Tensor(z.T[:, :, None, None].copy(), requires_grad=True)
            params = TcjaParams(
                w=Tensor(rng.standard_normal((c_dim, c_dim, k_t))),
                e=Tensor(rng.standard_normal((t_dim, t_dim, k_c))),
            )
            probe = np.zeros(x.shape)
            probe[j, i] = 1.0
            oracles.probe_sum(tcja_forward(x, params), probe).backward()
            grad = x.grad[:, :, 0, 0].T
            outside = np.ones((c_dim, t_dim), dtype=bool)
            outside[i : i + k_c, :] = False
            outside[:, j : j + k_t] = False
            assert np.all(grad[outside] == 0.0)
            time_arm = np.zeros_like(outside)
            time_arm[:, j : j + k_t] = True
            time_arm[i : i + k_c, :] = False
            channel_arm = np.zeros_like(outside)
            channel_arm[i : i + k_c, :] = True
            channel_arm[:, j : j + k_t] = False
            assert np.any(np.abs(grad[time_arm]) > 1e-9)
            assert np.any(np.abs(grad[channel_arm]) > 1e-9)


def test_criterion_6_parameter_accounting():
    # The attention kernels cost C^2*K_T + T^2*K_C weights against the dense
    # T^2*C^2 baseline, a ratio of exactly K_T/T^2 + K_C/C^2. At C=64, K=4 that
    # is under 5% from T=10 up; at T=8 it is 16640/262144 (about 6.35%), so
    # there the exact value is checked instead of the bound.
    with report(
        "criterion 6: attention params match C^2*K_T + T^2*K_C; < 5% of dense "
        "baseline for T in {10,14,20}, 16640/262144 (6.35%) at T=8"
    ):
        c, k, bound = 64, 4, Fraction("0.05")
        for t in (8, 10, 14, 20):
            tla_n, cla_n, fc_n = param_count(c, t, k, k)
            arch = parse_arch(
                "TCJA-64FC-LIF", input_dims=(c, 1, 1), time_steps=t
            )
            cfg = TcjaConfig(k_t=k, k_c=k)
            net = build_network(arch, num_classes=64, tcja_cfg=cfg)
            attn_params = sum(
                p.size for name, p in net.params if name.endswith((".w", ".e"))
            )
            assert attn_params == tla_n + cla_n == c * c * k + t * t * k
            assert net.param_count() == analytic_param_count(arch, 64, cfg)
            ratio = Fraction(tla_n + cla_n, fc_n)
            assert ratio == Fraction(k, t * t) + Fraction(k, c * c)
            if t == 8:
                assert ratio == Fraction(16640, 262144), f"T=8 ratio {float(ratio):.4f}"
            else:
                assert ratio < bound, (
                    f"ratio {float(ratio):.4f} >= 5% at T={t} (C={c}, K={k})"
                )


def test_criterion_7_frame_integration():
    with report("criterion 7: slice bounds follow the floor formula, counts conserved"):
        rng = np.random.default_rng(707)
        for _ in range(50):
            t_steps = int(rng.integers(1, 12))
            n = int(rng.integers(t_steps, 400))
            bounds = slice_bounds(n, t_steps)
            base = n // t_steps
            for j, (lo, hi) in enumerate(bounds):
                assert lo == base * j
                if j < t_steps - 1:
                    assert hi == base * (j + 1)
                else:
                    assert hi == n
            width, height = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            grid = SyntheticConfig(
                height=height, width=width, n_train=1, seed=int(rng.integers(0, 1 << 31))
            )
            stream_set = grid.generate(classes=4, t_steps=max(2, t_steps))
            stream = stream_set[0][0]
            if len(stream) < t_steps:
                continue
            sample = integrate_frames(stream, t_steps)
            assert sample.frames.sum() == len(stream)


def _acceptance_dataset():
    # The default config's synthetic sets: 400 streams at seed 7, 100 at seed 8.
    grid = SyntheticConfig(height=16, width=16, n_train=400, n_test=100, seed=7)
    train_streams = grid.generate(classes=4, t_steps=8)
    test_streams = grid.generate(classes=4, t_steps=8, test=True)
    return (
        frames_dataset(train_streams, 8, 4),
        frames_dataset(test_streams, 8, 4),
    )


def _train_arch(arch_text, train_samples, test_samples, epochs=14):
    arch = parse_arch(arch_text, input_dims=(2, 16, 16), time_steps=8)
    cfg = TrainConfig(epochs=epochs, batch_size=16, lr=1e-3)
    rng = np.random.default_rng(0)
    net = build_network(arch, 4, rng=rng)
    return train(net, train_samples, test_samples, cfg, rng)


def test_criterion_8_end_to_end_desk_run():
    with report("criterion 8: moving-bar run >= 90% in <= 50 epochs and >= plain baseline"):
        tic = time.monotonic()
        train_samples, test_samples = _acceptance_dataset()
        attn = _train_arch(PRESETS["desk"], train_samples, test_samples)
        plain = _train_arch(
            "16C3-LIF-MP2-16C3-LIF-MP2-64FC-LIF-Voting", train_samples, test_samples
        )
        elapsed = time.monotonic() - tic
        assert len(attn.history) <= 50
        assert attn.best_accuracy >= 0.90, f"attention net reached {attn.best_accuracy}"
        assert attn.best_accuracy >= plain.best_accuracy, (
            f"attention {attn.best_accuracy} vs baseline {plain.best_accuracy}"
        )
        assert elapsed < 600.0, f"desk run took {elapsed:.0f}s"


def test_criterion_9_determinism_and_persistence(tmp_path):
    with report("criterion 9: identical runs byte-identical; checkpoint round-trips"):
        def run(out):
            grid = SyntheticConfig(height=8, width=8, n_train=24, n_test=8, seed=5)
            train_streams = grid.generate(classes=4, t_steps=4)
            test_streams = grid.generate(classes=4, t_steps=4, test=True)
            train_samples = frames_dataset(train_streams, 4, 4)
            test_samples = frames_dataset(test_streams, 4, 4)
            arch = parse_arch(
                "4C3-LIF-MP2-TCJA-16FC-LIF-Voting", input_dims=(2, 8, 8), time_steps=4
            )
            cfg = TrainConfig(epochs=2, batch_size=8)
            rng = np.random.default_rng(3)
            net = build_network(arch, 4, rng=rng)
            result = train(net, train_samples, test_samples, cfg, rng, out_dir=out)
            return result, net, test_samples

        result_a, net_a, test_samples = run(tmp_path / "a")
        result_b, _, _ = run(tmp_path / "b")
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        final_acc = evaluate(net_a, test_samples).accuracy
        restored, _, _, _ = restore_network(load_checkpoint(tmp_path / "a" / "last.ckpt"))
        assert evaluate(restored, test_samples).accuracy == final_acc

        reloaded = load_checkpoint(tmp_path / "a" / "last.ckpt")
        save_checkpoint(tmp_path / "resaved.ckpt", reloaded)
        assert (
            (tmp_path / "resaved.ckpt").read_bytes()
            == (tmp_path / "a" / "last.ckpt").read_bytes()
        )


def test_criterion_10_arch_parser():
    with report("criterion 10: reference architectures parse, round-trip, and count"):
        expected_counts = {"dvs128": 22, "cifar10dvs": 22, "ncaltech101": 20, "fashion": 12}
        for name, count in expected_counts.items():
            text = PRESETS[name]
            spec = parse_arch(text)
            assert len(spec.layers) == count, f"{name}: {len(spec.layers)} layers"
            assert render(spec) == text
            assert parse_arch(render(spec)) == spec
