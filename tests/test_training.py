import contextlib
import dataclasses
import hashlib
import json
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcja_snn import network, training
from tcja_snn.attention import TcjaConfig
from tcja_snn.data import FrameSample, frames_dataset, gen_synthetic, one_hot
from tcja_snn.network import PRESETS, build_network, parse_arch, render
from tcja_snn.tensor import Tensor
from tcja_snn.training import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointError,
    NumericsError,
    OptimizerState,
    TrainConfig,
    chunks,
    evaluate,
    load_checkpoint,
    make_checkpoint,
    optimizer_step,
    predict_label,
    restore_network,
    run_epoch,
    save_checkpoint,
    smse_loss,
    stack_frames,
    train,
)

import oracles


def tiny_dataset(n_train=24, n_test=8, seed=0):
    streams_train = gen_synthetic(classes=4, height=8, width=8, t_steps=4, n=n_train, seed=seed)
    streams_test = gen_synthetic(classes=4, height=8, width=8, t_steps=4, n=n_test, seed=seed + 1)
    return (
        frames_dataset(streams_train, t_steps=4, num_classes=4),
        frames_dataset(streams_test, t_steps=4, num_classes=4),
    )


def tiny_net(seed=0, arch_text="4C3-LIF-MP2-16FC-LIF-Voting", dtype=np.float32):
    arch = parse_arch(arch_text, input_dims=(2, 8, 8), time_steps=4)
    return build_network(arch, num_classes=4, rng=np.random.default_rng(seed), dtype=dtype)


class TestLoss:
    def test_zero_when_outputs_equal_target(self):
        g = one_hot(4, 2)
        outputs = Tensor(np.tile(g, (5, 1)))
        assert smse_loss(outputs, g).item() == 0.0

    @pytest.mark.parametrize("t_steps", [1, 3, 8])
    def test_silent_outputs_against_one_hot(self, t_steps):
        n_classes = 5
        loss = smse_loss(Tensor(np.zeros((t_steps, n_classes))), one_hot(n_classes, 1))
        assert loss.item() == pytest.approx(1 / n_classes)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        outputs = rng.random((6, 4))
        target = rng.random(4)
        loss = smse_loss(Tensor(outputs), target)
        assert loss.item() == pytest.approx(oracles.smse_loops(outputs, target), rel=1e-12)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            loss = smse_loss(Tensor(rng.standard_normal((3, 4))), rng.standard_normal(4))
            assert loss.item() >= 0.0

    def test_differentiable(self):
        outputs = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]), requires_grad=True)
        smse_loss(outputs, one_hot(2, 0)).backward()
        # d/ds mean((s - g)^2) = 2 (s - g) / (T * C)
        expected = 2 * (outputs.data - np.array([1.0, 0.0])) / 4
        np.testing.assert_allclose(outputs.grad, expected, atol=1e-15)

    def test_dim_mismatch(self):
        from tcja_snn.tensor import ShapeError

        with pytest.raises(ShapeError):
            smse_loss(Tensor(np.zeros((3, 4))), np.zeros(5))
        with pytest.raises(ShapeError):
            smse_loss(Tensor(np.zeros((3, 2, 4))), np.zeros(4))

    def test_batch_sums_the_per_sample_losses(self):
        rng = np.random.default_rng(2)
        outputs, targets = rng.random((6, 3, 4)), rng.random((3, 4))
        batched = Tensor(outputs, requires_grad=True)
        loss = smse_loss(batched, targets)
        loss.backward()
        alone = []
        for b in range(3):
            one = Tensor(outputs[:, b], requires_grad=True)
            alone.append(smse_loss(one, targets[b]))
            alone[-1].backward()
            # The gradient of a sum of per-sample losses is each sample's own.
            assert one.grad.tobytes() == batched.grad[:, b].tobytes()
        assert loss.item() == pytest.approx(sum(a.item() for a in alone), rel=1e-14)


class TestPredict:
    def test_single_class_fires(self):
        outputs = np.zeros((6, 4))
        outputs[:, 2] = 1.0
        assert predict_label(outputs.mean(axis=0)) == 2

    def test_all_zero_breaks_tie_to_class_zero(self):
        assert predict_label(np.zeros((4, 3)).mean(axis=0)) == 0

    def test_tie_breaks_to_lowest_index(self):
        rates = np.array([0.2, 0.7, 0.7])
        assert predict_label(rates) == 1


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # A negative batch size ran zero batches and left every parameter as drawn.
            ({"batch_size": -1}, "batch_size must be >= 1, got -1"),
            ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
            ({"epochs": -1}, "epochs must be >= 0, got -1"),
        ],
        ids=["negative-batch", "zero-batch", "negative-epochs"],
    )
    def test_out_of_range_setting_is_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**kwargs)

    def test_smallest_settings_are_accepted(self):
        cfg = TrainConfig(batch_size=1, epochs=0)
        assert (cfg.batch_size, cfg.epochs) == (1, 0)


class TestOptimizer:
    def scalar_param(self, value=1.0):
        return [("p", Tensor(np.array([value], dtype=np.float64), requires_grad=True))]

    def test_zero_gradient_keeps_parameters(self):
        params = self.scalar_param()
        params[0][1].grad = np.zeros(1)
        optimizer_step(params, OptimizerState(), TrainConfig(lr=0.1))
        assert params[0][1].data == pytest.approx([1.0])

    def test_first_step_magnitude_close_to_lr(self):
        params = self.scalar_param()
        params[0][1].grad = np.ones(1)
        cfg = TrainConfig(lr=1e-3)
        optimizer_step(params, OptimizerState(), cfg)
        # Bias-corrected first step is lr / (1 + eps-adjustment) ~ lr.
        assert params[0][1].data[0] == pytest.approx(1.0 - cfg.lr, abs=1e-6)

    def test_constant_gradient_step_approaches_lr(self):
        params = self.scalar_param(10.0)
        cfg = TrainConfig(lr=0.01)
        state = OptimizerState()
        prev = params[0][1].data[0]
        for _ in range(50):
            params[0][1].grad = np.ones(1)
            optimizer_step(params, state, cfg)
        step = prev - params[0][1].data[0]
        assert step / 50 == pytest.approx(cfg.lr, rel=1e-3)

    def test_adam_matches_hand_iterated_recurrence(self):
        rng = np.random.default_rng(2)
        grads = rng.standard_normal(5)
        params = self.scalar_param(0.0)
        cfg = TrainConfig(lr=0.05)
        state = OptimizerState()
        m = v = 0.0
        x = 0.0
        for t, g in enumerate(grads, start=1):
            params[0][1].grad = np.array([g])
            optimizer_step(params, state, cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= cfg.lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert params[0][1].data[0] == pytest.approx(x, rel=1e-12)

    def test_sgd_step(self):
        params = self.scalar_param()
        params[0][1].grad = np.array([2.0])
        optimizer_step(params, OptimizerState(), TrainConfig(lr=0.1, optimizer="sgd"))
        assert params[0][1].data == pytest.approx([0.8])

    def test_missing_gradient_signals_broken_graph(self):
        with pytest.raises(ValueError, match="missing gradient"):
            optimizer_step(self.scalar_param(), OptimizerState(), TrainConfig())


class TestDescent:
    def test_single_step_decreases_loss_on_smooth_head(self):
        # A net ending in FC (no spiking head) has a smooth loss surface, so
        # a small enough step must strictly reduce a single sample's loss.
        arch = parse_arch("4C3-LIF-MP2-4FC", input_dims=(2, 8, 8), time_steps=4)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(1), dtype=np.float64)
        sample = tiny_dataset(n_train=1, n_test=1)[0][0]
        x = Tensor(sample.frames[:, None])
        target = sample.label[None]
        cfg = TrainConfig(lr=1e-5, optimizer="sgd")

        def loss_value():
            return smse_loss(net.forward(x), target).item()

        before = loss_value()
        out = net.forward(x)
        loss = smse_loss(out, target)
        loss.backward()
        optimizer_step(net.params, OptimizerState(), cfg)
        assert loss_value() < before


class TestEvaluate:
    def test_twice_gives_identical_accuracy(self):
        net = tiny_net()
        _, test_samples = tiny_dataset()
        a = evaluate(net, test_samples)
        b = evaluate(net, test_samples)
        assert a.accuracy == b.accuracy
        assert a.per_class == b.per_class

    def test_single_correct_sample_is_full_accuracy(self):
        net = tiny_net()
        _, test_samples = tiny_dataset()
        sample = test_samples[0]
        out = net.forward(Tensor(sample.frames[:, None].astype(net.dtype)))
        label = one_hot(4, predict_label(out.data[:, 0].mean(axis=0)))
        sample_fixed = FrameSample(frames=sample.frames, label=label)
        assert evaluate(net, [sample_fixed]).accuracy == 1.0

    def test_accuracy_matches_manual_recount(self):
        net = tiny_net(seed=3)
        _, test_samples = tiny_dataset()
        result = evaluate(net, test_samples)
        manual = 0
        for sample in test_samples:
            out = net.forward(Tensor(sample.frames[:, None].astype(net.dtype)))
            manual += int(predict_label(out.data[:, 0].mean(axis=0)) == sample.class_index)
        assert result.accuracy == pytest.approx(manual / len(test_samples))

    def test_rates_are_each_class_output_averaged_over_time(self):
        # T = 3 differs from the 4 classes, so averaging the wrong axis shows.
        arch = parse_arch("4C3-LIF-MP2-16FC-LIF-Voting", input_dims=(2, 8, 8), time_steps=3)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(2))
        streams = gen_synthetic(classes=4, height=8, width=8, t_steps=3, n=4, seed=6)
        samples = frames_dataset(streams, t_steps=3, num_classes=4)
        out = net.forward(stack_frames(samples, net.dtype)).data
        for j, (_, _, _, rates) in enumerate(evaluate(net, samples).predictions):
            np.testing.assert_array_equal(rates, out[:, j].mean(axis=0))

    def test_firing_rates_reported_per_spiking_layer(self):
        net = tiny_net()
        _, test_samples = tiny_dataset()
        result = evaluate(net, test_samples)
        assert set(result.firing_rates) == {"lif0", "lif1"}
        for rate in result.firing_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_detach_reset_toggle_leaves_evaluation_identical(self):
        from tcja_snn.neuron import LifConfig

        _, test_samples = tiny_dataset()
        accs = []
        for detach in (True, False):
            arch = parse_arch("4C3-LIF-MP2-16FC-LIF-Voting", input_dims=(2, 8, 8), time_steps=4)
            net = build_network(
                arch,
                num_classes=4,
                lif_cfg=LifConfig(detach_reset=detach),
                rng=np.random.default_rng(0),
            )
            accs.append(evaluate(net, test_samples).accuracy)
        assert accs[0] == accs[1]


class TestEvaluateRecordsNoGraph:
    ARCH = "4C3-LIF-MP2-TCJA-0.5DP-16FC-LIF-Voting"

    def test_forward_output_has_no_graph(self, monkeypatch):
        net = tiny_net(arch_text=self.ARCH)
        _, test_samples = tiny_dataset()
        outputs = []
        forward = net.forward

        def keep(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(net, "forward", keep)
        evaluate(net, test_samples)
        assert sum(out.shape[1] for out in outputs) == len(test_samples)
        for out in outputs:
            assert out._backward is None and out._parents == () and not out.requires_grad

    def test_results_equal_with_graph_recorded(self, monkeypatch):
        from tcja_snn import training

        net = tiny_net(seed=3, arch_text=self.ARCH)
        _, test_samples = tiny_dataset()
        free = evaluate(net, test_samples)
        monkeypatch.setattr(training, "no_grad", contextlib.nullcontext)
        recorded = evaluate(net, test_samples)
        assert (free.accuracy, free.per_class, free.firing_rates) == (
            recorded.accuracy, recorded.per_class, recorded.firing_rates
        )
        for a, b in zip(free.predictions, recorded.predictions):
            assert a[:3] == b[:3] and a[3].tobytes() == b[3].tobytes()


def desk_batch(n=10, weight_scale=4.0, fusion="multiply", dtype=np.float64):
    """The desk preset with its weights scaled up so that every layer fires,
    and n random (8, 2, 16, 16) samples with one-hot labels."""
    arch = parse_arch(PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8)
    net = build_network(
        arch, 4, tcja_cfg=TcjaConfig(fusion=fusion), rng=np.random.default_rng(4), dtype=dtype
    )
    for _, p in net.params:
        p.data *= weight_scale
    rng = np.random.default_rng(0)
    samples = [
        FrameSample(frames=rng.poisson(1.0, (8, 2, 16, 16)).astype(float), label=one_hot(4, i % 4))
        for i in range(n)
    ]
    return net, samples


# The desk preset's widest per-sample activation: a (T, 16, 16, 16) conv output.
DESK_WIDEST = 8 * 16 * 16 * 16


class TestChunkSize:
    def test_derived_from_the_widest_activation_and_the_float_type(self):
        net = desk_batch(n=0, dtype=np.float32)[0]
        assert net.chunk_size == network.CHUNK_BYTES // (DESK_WIDEST * 4) == 8
        assert desk_batch(n=0, dtype=np.float64)[0].chunk_size == 4

    def test_a_stack_over_the_budget_runs_alone(self):
        arch = parse_arch(
            "64C3-LIF-MP2-TCJA-64C3-LIF-MP2-0.5DP-256FC-LIF-Voting",
            input_dims=(2, 32, 32), time_steps=14,
        )
        for dtype in (np.float32, np.float64):
            net = build_network(arch, 4, dtype=dtype)
            assert net.chunk_size == net.eval_chunk_size == 1

    def test_a_wide_fc_counts(self, monkeypatch):
        arch = parse_arch("2C3-LIF-4096FC-LIF", input_dims=(1, 4, 4), time_steps=2)
        monkeypatch.setattr(network, "CHUNK_BYTES", 2 * 4096 * 8 * 3)
        assert build_network(arch, 4, dtype=np.float64).chunk_size == 3

    # A different training chunk regroups the kernel-gradient sums and so
    # changes trained bytes. Each arch with its (C, H, W), T, classes and its
    # f32 and f64 chunks; the last two are the benchmark's train archs.
    TRAINING_CHUNKS = [
        (PRESETS["dvs128"], (2, 128, 128), 20, 10, 1, 1),
        (PRESETS["cifar10dvs"], (2, 48, 48), 10, 10, 1, 1),
        (PRESETS["ncaltech101"], (2, 48, 48), 14, 101, 1, 1),
        (PRESETS["fashion"], (1, 28, 28), 8, 10, 1, 1),
        (PRESETS["desk"], (2, 16, 16), 8, 4, 8, 4),
        ("16C3-LIF-MP2-TCJA-16C3-LIF-MP2-64FC-LIF-Voting", (2, 16, 16), 8, 4, 8, 4),
        ("64C3-LIF-MP2-TCJA-64C3-LIF-MP2-0.5DP-256FC-LIF-Voting", (2, 32, 32), 14, 4, 1, 1),
    ]

    @pytest.mark.parametrize("text, dims, t_steps, classes, f32, f64", TRAINING_CHUNKS)
    def test_training_chunk_pinned(self, text, dims, t_steps, classes, f32, f64):
        arch = parse_arch(text, input_dims=dims, time_steps=t_steps)
        assert build_network(arch, classes, dtype=np.float32).chunk_size == f32
        assert build_network(arch, classes, dtype=np.float64).chunk_size == f64

    def test_evaluation_chunk_fits_four_stacks_into_the_graph_budget(self):
        # A conv's input, output and columns: desk's conv2 columns alone are
        # 2.25 widest stacks.
        net = desk_batch(n=0, dtype=np.float32)[0]
        budget = len(net.layers) * network.CHUNK_BYTES
        assert net.eval_chunk_size == budget // (4 * DESK_WIDEST * 4) == 20  # >= a 16-file request
        assert desk_batch(n=0, dtype=np.float64)[0].eval_chunk_size == 10


class TestBatchedParity:
    """Chunked training and evaluation against the per-sample reference loop."""

    @pytest.mark.parametrize("fusion", ["multiply", "add"])
    @pytest.mark.parametrize("chunk", [1, 3, 4, 8])
    def test_outputs_loss_and_gradients_match_per_sample(self, monkeypatch, fusion, chunk):
        net, samples = desk_batch(fusion=fusion)
        want_out, want_loss, want_grads = oracles.per_sample_pass(net, samples)
        assert 0.0 < want_out.mean() < 1.0
        monkeypatch.setattr(network, "CHUNK_BYTES", chunk * DESK_WIDEST * 8)
        assert net.chunk_size == chunk
        got_out = np.concatenate(
            [net.forward(stack_frames(c, net.dtype)).data for c in chunks(samples, chunk)], axis=1
        )
        assert np.abs(got_out - want_out).max() <= 1e-10
        # One optimizer batch of all ten samples: the last chunk is ragged
        # for chunks of 3, 4 and 8. The step leaves the batch's mean gradient
        # in each grad.
        cfg = TrainConfig(lr=1e-3, batch_size=len(samples), epochs=1, optimizer="sgd")
        result = train(net, samples, [], cfg, np.random.default_rng(0))
        assert abs(result.history[0].train_loss * len(samples) - want_loss) <= 1e-10
        for name, p in net.params:
            assert np.abs(p.grad * len(samples) - want_grads[name]).max() <= 1e-10, name

    def test_evaluate_equals_evaluate_of_each_sample(self, monkeypatch):
        net, samples = desk_batch(dtype=np.float32)
        monkeypatch.setattr(network.Network, "eval_chunk_size", 4)
        assert_evaluate_equals_each_sample_alone(net, samples, [4, 4, 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_evaluate_at_the_evaluation_chunk_equals_each_sample(self, dtype):
        chunk = desk_batch(n=0, dtype=dtype)[0].eval_chunk_size
        assert chunk > 2
        net, samples = desk_batch(n=chunk + 2, dtype=dtype)
        assert_evaluate_equals_each_sample_alone(net, samples, [chunk, 2])


def assert_evaluate_equals_each_sample_alone(net, samples, want_chunks):
    """`evaluate` runs `samples` as `want_chunks` forward passes, and its
    rates, predictions, per-class accuracy and firing rates are byte-equal
    to those of `evaluate` on each sample alone."""
    sizes = []
    forward = net.forward

    def spy(x, *args, **kwargs):
        sizes.append(x.shape[1])
        return forward(x, *args, **kwargs)

    net.forward = spy
    whole = evaluate(net, samples)
    del net.forward
    assert sizes == want_chunks
    alone = [evaluate(net, [sample]) for sample in samples]
    for i, (got, single) in enumerate(zip(whole.predictions, alone)):
        want = single.predictions[0]
        assert got[:3] == (i, *want[1:3]) and got[3].tobytes() == want[3].tobytes()
    hits = [single.accuracy for single in alone]
    assert whole.accuracy == sum(hits) / len(samples)
    labels = [sample.class_index for sample in samples]
    assert whole.per_class == {
        lab: sum(h for h, l in zip(hits, labels) if l == lab) / labels.count(lab)
        for lab in sorted(set(labels))
    }
    for name, rate in whole.firing_rates.items():
        assert 0.0 < rate < 1.0
        assert rate == sum(single.firing_rates[name] for single in alone) / len(samples)


class TestCheckpoint:
    # sha256 of the desk preset's freshly built, untrained checkpoint, as
    # the one-join encoder wrote it before writes were streamed, with
    # meta.config as it stands since `lif.strict_eq2` was removed.
    DESK_UNTRAINED_SHA256 = "e057a43852006f590dc90c61bf5204e71f5dccc0416f30458f7060269a8d500d"

    def test_file_bytes_pinned(self, tmp_path):
        arch = parse_arch(PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(0))
        ckpt = make_checkpoint(net, OptimizerState(), np.random.default_rng(0), 0)
        save_checkpoint(tmp_path / "desk.ckpt", ckpt)
        blob = (tmp_path / "desk.ckpt").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.DESK_UNTRAINED_SHA256
        assert b"".join(ckpt._pieces()) == blob

    # A v1 file written by a trained run (4C3-LIF-MP2-16FC-LIF-Voting, 8x8, T=2,
    # 4 epochs of 16 samples), kept so that later versions go on reading it.
    V1_FIXTURE = Path(__file__).parent / "fixtures" / "v1_trained.ckpt"
    V1_PARAMS_SHA256 = "60dd3617dea69776fb438094b07699a20fa2582e92c882c105d495feb3f1cadc"

    def test_v1_fixture_restores_as_pinned(self):
        ckpt = load_checkpoint(self.V1_FIXTURE)
        named = dict(ckpt.records)
        assert (ckpt.version, ckpt.arch) == (1, "4C3-LIF-MP2-16FC-LIF-Voting")
        assert json.loads(named["meta.config"].tobytes()) == {
            "input_dims": [2, 8, 8], "time_steps": 2, "num_classes": 4, "precision": "f32",
            "lif": {"tau": 2.0, "v_reset": 0.0, "v_threshold": 1.0, "surrogate": "atan",
                    "alpha": 2.0, "gamma": 1.0, "detach_reset": True},
            "tcja": {"k_t": 4, "k_c": 4, "fusion": "multiply"},
        }
        params = [(name, arr) for name, arr in ckpt.records if name.startswith("param.")]
        assert [(name, arr.dtype.str, arr.shape) for name, arr in params] == [
            ("param.layer0.kernel", "<f4", (4, 2, 3, 3)),
            ("param.layer3.weight", "<f4", (64, 16)),
            ("param.layer3.bias", "<f4", (16,)),
        ]
        digest = hashlib.sha256(b"".join(arr.tobytes() for _, arr in params)).hexdigest()
        assert digest == self.V1_PARAMS_SHA256
        net, opt_state, _, epoch = restore_network(ckpt)
        assert (epoch, opt_state.step, render(net.arch)) == (4, 8, ckpt.arch)
        for (name, p), (_, stored) in zip(net.params, params):
            np.testing.assert_array_equal(p.data, stored, err_msg=name)
        assert sorted(opt_state.m) == sorted(opt_state.v) == sorted(name for name, _ in net.params)
        streams = gen_synthetic(classes=4, height=8, width=8, t_steps=2, n=8, seed=32)
        assert evaluate(net, frames_dataset(streams, 2, 4)).accuracy == 0.625

    def test_failed_save_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt = make_checkpoint(tiny_net(), OptimizerState(), np.random.default_rng(0), 0)
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        # A record of a dtype the format has no code for fails partway through the write.
        records = [("a", np.zeros(3, np.float32)), ("b", np.zeros(3, np.int16))]
        bad = Checkpoint(arch="x", records=records)
        with pytest.raises(KeyError):
            save_checkpoint(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_non_contiguous_and_big_endian_records_written_as_encoded(self, tmp_path):
        records = [
            ("a", np.arange(12, dtype=">f8").reshape(3, 4)[:, ::2]),
            ("b", np.zeros((2, 0, 3), dtype=np.float32)),
            ("c", np.arange(6, dtype=np.int64).reshape(2, 3).T),
            ("d", np.asarray(2.5)),  # rank 0: one value and no dims
        ]
        ckpt = Checkpoint(arch="x", records=records)
        save_checkpoint(tmp_path / "x.ckpt", ckpt)
        blob = (tmp_path / "x.ckpt").read_bytes()
        assert blob == b"".join(ckpt._pieces())
        for (name, want), (got_name, got) in zip(records, Checkpoint.from_bytes(blob).records):
            assert got_name == name
            np.testing.assert_array_equal(got, want)

    def test_roundtrip_is_byte_identical(self, tmp_path):
        net = tiny_net()
        ckpt = make_checkpoint(net, OptimizerState(), np.random.default_rng(0), epoch=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_restore_reproduces_evaluation(self, tmp_path):
        train_samples, test_samples = tiny_dataset()
        net = tiny_net(seed=5)
        cfg = TrainConfig(epochs=1, batch_size=8)
        rng = np.random.default_rng(0)
        train(net, train_samples, test_samples, cfg, rng)
        before = evaluate(net, test_samples).accuracy
        ckpt = make_checkpoint(net, OptimizerState(), rng, epoch=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        restored, _, _, _ = restore_network(load_checkpoint(path))
        after = evaluate(restored, test_samples).accuracy
        assert before == after

    def test_records_survive_later_in_place_updates(self):
        net = tiny_net()
        cfg = TrainConfig(lr=0.1)
        state = OptimizerState()

        def step():
            for _, p in net.params:
                p.grad = np.ones_like(p.data)
            optimizer_step(net.params, state, cfg)

        step()  # so the Adam moments exist and are nonzero
        ckpt = make_checkpoint(net, state, np.random.default_rng(0), epoch=0)
        kept = [(name, arr.copy()) for name, arr in ckpt.records]
        for _, p in net.params:
            p.data += 1.0
        step()
        for (name, arr), (_, before) in zip(ckpt.records, kept):
            np.testing.assert_array_equal(arr, before, err_msg=name)

    def test_best_checkpoint_scores_the_best_epoch(self, tmp_path):
        train_samples, test_samples = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=8, lr=0.05)
        result = train(tiny_net(seed=3), train_samples, test_samples, cfg,
                       np.random.default_rng(3), out_dir=tmp_path)
        accs = [row.test_acc for row in result.history]
        best_epoch = accs.index(result.best_accuracy)
        assert accs[-1] < result.best_accuracy  # the best epoch precedes the last
        restored, _, _, epoch = restore_network(load_checkpoint(tmp_path / "best.ckpt"))
        assert epoch == best_epoch
        assert evaluate(restored, test_samples).accuracy == result.best_accuracy

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_arch_mismatch_rejected(self, tmp_path):
        net = tiny_net()
        ckpt = make_checkpoint(net, OptimizerState(), np.random.default_rng(0), 0)
        # Claim a different architecture than the stored tensors.
        broken = Checkpoint(arch="8C3-LIF-MP2-16FC-LIF-Voting", records=ckpt.records)
        with pytest.raises(CheckpointError):
            restore_network(broken)

    @pytest.mark.parametrize("dropped", ["opt.step", "meta.rng", "meta.epoch", "meta.config"])
    def test_missing_record_rejected(self, dropped):
        ckpt = make_checkpoint(tiny_net(), OptimizerState(), np.random.default_rng(0), 0)
        records = [(name, arr) for name, arr in ckpt.records if name != dropped]
        with pytest.raises(CheckpointError, match=dropped):
            restore_network(Checkpoint(arch=ckpt.arch, records=records))

    @pytest.mark.parametrize(
        "config",
        [b"{not json", b"\xff\xfe", b'{"precision": "f32"}', b"[]"],
    )
    def test_corrupt_config_record_rejected(self, config):
        ckpt = make_checkpoint(tiny_net(), OptimizerState(), np.random.default_rng(0), 0)
        records = [
            (name, np.frombuffer(config, dtype=np.uint8) if name == "meta.config" else arr)
            for name, arr in ckpt.records
        ]
        with pytest.raises(CheckpointError):
            restore_network(Checkpoint(arch=ckpt.arch, records=records))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_classes", 0),
            ("num_classes", None),
            ("time_steps", 0),
            ("input_dims", [0, 8, 8]),
            ("input_dims", ["a", 8, 8]),
            ("time_steps", float("inf")),  # int() overflows
        ],
    )
    def test_bad_stored_size_rejected(self, key, value):
        ckpt = make_checkpoint(tiny_net(), OptimizerState(), np.random.default_rng(0), 0)
        records = []
        for name, arr in ckpt.records:
            if name == "meta.config":
                meta = {**json.loads(arr.tobytes()), key: value}
                arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            records.append((name, arr))
        with pytest.raises(CheckpointError):
            restore_network(Checkpoint(arch=ckpt.arch, records=records))

    @pytest.mark.parametrize("stored", [True, False])
    def test_stored_strict_eq2_is_dropped_on_restore(self, stored):
        # Checkpoints written while LifConfig had `strict_eq2` store it
        # under meta.config's "lif"; the flag changed no arithmetic.
        net = tiny_net()
        ckpt = make_checkpoint(net, OptimizerState(), np.random.default_rng(0), 0)
        records = []
        for name, arr in ckpt.records:
            if name == "meta.config":
                meta = json.loads(arr.tobytes())
                meta["lif"]["strict_eq2"] = stored
                arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            records.append((name, arr))
        restored = restore_network(Checkpoint(arch=ckpt.arch, records=records))[0]
        assert restored.lif_cfg == net.lif_cfg
        for (name, got), (_, want) in zip(restored.params, net.params):
            assert got.data.tobytes() == want.data.tobytes(), name

    def test_rng_state_roundtrips(self, tmp_path):
        net = tiny_net()
        rng = np.random.default_rng(9)
        rng.random(13)  # advance
        ckpt = make_checkpoint(net, OptimizerState(), rng, epoch=2)
        _, _, rng_state, epoch = restore_network(ckpt)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = rng_state
        np.testing.assert_array_equal(fresh.random(5), rng.random(5))
        assert epoch == 2


def _restore_or_checkpoint_error(blob: bytes) -> None:
    try:
        restore_network(Checkpoint.from_bytes(blob))
    except CheckpointError:
        pass


_FUZZ_BLOB = b"".join(
    make_checkpoint(
        build_network(
            parse_arch("2C3-LIF-TCJA-4FC-LIF-Voting", input_dims=(2, 4, 4), time_steps=3),
            num_classes=4,
            rng=np.random.default_rng(0),
        ),
        OptimizerState(),
        np.random.default_rng(0),
        epoch=0,
    )._pieces()
)


class TestCheckpointFuzz:
    """Any blob either restores or raises CheckpointError, never another error."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200), st.booleans())
    def test_arbitrary_bytes(self, tail, with_header):
        _restore_or_checkpoint_error(CHECKPOINT_MAGIC + b"\x01\x00" + tail if with_header else tail)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(_FUZZ_BLOB) - 1))
    def test_truncated_blob(self, cut):
        with pytest.raises(CheckpointError):
            restore_network(Checkpoint.from_bytes(_FUZZ_BLOB[:cut]))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 8 * len(_FUZZ_BLOB) - 1), min_size=1, max_size=3))
    def test_bit_flipped_blob(self, bits):
        blob = bytearray(_FUZZ_BLOB)
        for bit in bits:
            blob[bit // 8] ^= 1 << (bit % 8)
        _restore_or_checkpoint_error(bytes(blob))


class TestTrainLoop:
    def test_zero_epochs_gives_empty_history_and_checkpoint(self, tmp_path):
        train_samples, test_samples = tiny_dataset()
        net = tiny_net()
        cfg = TrainConfig(epochs=0)
        result = train(net, train_samples, test_samples, cfg, np.random.default_rng(0),
                       out_dir=tmp_path)
        assert result.history == []
        assert (tmp_path / "metrics.csv").read_text() == "epoch,train_loss,test_acc\n"
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()

    def test_stopped_run_keeps_its_finished_epochs(self, monkeypatch, tmp_path):
        train_samples, test_samples = tiny_dataset()
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.05)
        two = dataclasses.replace(cfg, epochs=2)
        full = train(tiny_net(seed=3), train_samples, test_samples, two, np.random.default_rng(3),
                     out_dir=tmp_path / "full")
        calls = []

        def evaluate_until_epoch_2(net, samples):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt  # stops the run in its third epoch
            return evaluate(net, samples)

        monkeypatch.setattr(training, "evaluate", evaluate_until_epoch_2)
        with pytest.raises(KeyboardInterrupt):
            train(tiny_net(seed=3), train_samples, test_samples, cfg, np.random.default_rng(3),
                  out_dir=tmp_path / "stopped")
        stopped = tmp_path / "stopped"
        assert sorted(p.name for p in stopped.iterdir()) == [
            "best.ckpt", "last.ckpt", "metrics.csv", "timing.csv",
        ]
        # The two finished epochs, byte for byte as a run of two epochs leaves them.
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert (stopped / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        assert len((stopped / "metrics.csv").read_text().splitlines()) == 1 + 2
        assert len((stopped / "timing.csv").read_text().splitlines()) == 1 + 2
        assert restore_network(load_checkpoint(stopped / "last.ckpt"))[3] == 2
        best_epoch = [r.test_acc for r in full.history].index(full.best_accuracy)
        assert restore_network(load_checkpoint(stopped / "best.ckpt"))[3] == best_epoch

    def test_log_line_and_timing_row_show_one_record(self, monkeypatch, tmp_path):
        clock = iter([100.0, 102.5, 300.0, 301.5])
        fake_time = types.SimpleNamespace(perf_counter=lambda: next(clock))
        monkeypatch.setattr(training, "time", fake_time)
        train_samples, test_samples = tiny_dataset()
        lines = []
        result = train(tiny_net(), train_samples, test_samples, TrainConfig(epochs=2, batch_size=8),
                       np.random.default_rng(0), out_dir=tmp_path, log=lines.append)
        assert [r.wall_seconds for r in result.history] == [2.5, 1.5]
        assert [line.rsplit(" ", 1)[1] for line in lines] == ["(2.5s)", "(1.5s)"]
        assert (tmp_path / "timing.csv").read_text() == "epoch,wall_seconds\n0,2.500\n1,1.500\n"

    def test_initial_loss_in_unit_range(self):
        train_samples, test_samples = tiny_dataset()
        net = tiny_net(seed=11)
        cfg = TrainConfig(epochs=1, batch_size=8)
        result = train(net, train_samples, test_samples, cfg, np.random.default_rng(0))
        assert 0.0 < result.history[0].train_loss < 1.0

    def test_metrics_and_checkpoints_reproducible(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            train_samples, test_samples = tiny_dataset()
            net = tiny_net(seed=2)
            cfg = TrainConfig(epochs=2, batch_size=8)
            train(net, train_samples, test_samples, cfg, np.random.default_rng(3),
                  out_dir=tmp_path / run)
            outs.append(tmp_path / run)
        a, b = outs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
        assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()

    def test_nan_aborts_with_batch_index(self):
        # A spiking head squashes NaN to silence, so poison a smooth head.
        train_samples, test_samples = tiny_dataset()
        net = tiny_net(arch_text="4C3-LIF-MP2-4FC")
        net.layers[-1].weight.data[...] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(NumericsError, match="batch 0"):
            train(net, train_samples, test_samples, cfg, np.random.default_rng(0))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_net(), [], [], TrainConfig(), np.random.default_rng(0))

    def test_network_dtype_sets_frames_checkpoint_and_restore(self, tmp_path):
        # The network is the one source of the float type: a default TrainConfig
        # trains an f64 network on f64 frames and records it as f64.
        train_samples, test_samples = tiny_dataset()
        net = tiny_net(dtype=np.float64)
        seen = []
        forward = net.forward

        def spy(x, *args, **kwargs):
            seen.append(x.dtype)
            return forward(x, *args, **kwargs)

        net.forward = spy
        train(net, train_samples, test_samples, TrainConfig(epochs=1, batch_size=8),
              np.random.default_rng(0), out_dir=tmp_path)
        assert set(seen) == {np.dtype(np.float64)}
        ckpt = load_checkpoint(tmp_path / "last.ckpt")
        assert json.loads(dict(ckpt.records)["meta.config"].tobytes())["precision"] == "f64"
        restored = restore_network(ckpt)[0]
        assert restored.dtype == np.float64
        assert all(p.data.dtype == np.float64 for _, p in restored.params)

    def test_augmented_training_runs_and_is_deterministic(self):
        losses = []
        for augment in (True, True, False):
            train_samples, test_samples = tiny_dataset()
            net = tiny_net(seed=4)
            cfg = TrainConfig(epochs=2, batch_size=8, augment=augment)
            result = train(net, train_samples, test_samples, cfg, np.random.default_rng(0))
            losses.append([row.train_loss for row in result.history])
        assert losses[0] == losses[1]
        assert all(np.isfinite(v) for v in losses[0])
        # The config flag alone switches augmentation on.
        assert losses[0] != losses[2]

    def test_nonfinite_parameter_aborts_naming_it(self):
        # The LIF head keeps the loss finite, so only the parameter check can fire.
        train_samples, test_samples = tiny_dataset()
        net = tiny_net()
        net.layers[0].kernel.data[...] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8)
        message = "non-finite parameter 'layer0.kernel' in epoch 0, batch 0"
        with pytest.raises(NumericsError, match=message):
            train(net, train_samples, test_samples, cfg, np.random.default_rng(0))

    def test_module_seams_are_looked_up_at_call_time(self, monkeypatch, tmp_path):
        # perfbench times training by replacing these module attributes.
        calls = {}
        for name in ("optimizer_step", "smse_loss", "evaluate", "make_checkpoint"):
            def counted(*args, _fn=getattr(training, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        monkeypatch.setattr(network.Network, "chunk_size", 3)
        train_samples, test_samples = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=8)
        result = train(tiny_net(seed=2), train_samples, test_samples, cfg,
                       np.random.default_rng(3), out_dir=tmp_path)
        accs = [row.test_acc for row in result.history]
        best_snapshots = sum(acc > max(accs[:i], default=-1.0) for i, acc in enumerate(accs))
        batches, chunks_per_batch = 3, 3  # 24 samples by 8, each batch as 3 + 3 + 2
        # One snapshot an epoch for last.ckpt, and one per improvement for best.ckpt.
        assert calls == {
            "optimizer_step": batches * cfg.epochs,
            "smse_loss": chunks_per_batch * batches * cfg.epochs,
            "evaluate": cfg.epochs,
            "make_checkpoint": cfg.epochs + best_snapshots,
        }
        # Without an out_dir there is nothing to write, so no snapshot is taken.
        calls.clear()
        train(tiny_net(seed=2), train_samples, test_samples, cfg, np.random.default_rng(3))
        assert "make_checkpoint" not in calls

    def test_train_is_run_epoch_in_a_loop(self, tmp_path):
        train_samples, test_samples = tiny_dataset()
        arch = "4C3-LIF-MP2-0.5DP-16FC-LIF-Voting"
        cfg = TrainConfig(epochs=2, batch_size=8, augment=True)
        result = train(tiny_net(seed=4, arch_text=arch), train_samples, test_samples, cfg,
                       np.random.default_rng(5), out_dir=tmp_path)
        net = tiny_net(seed=4, arch_text=arch)
        opt_state, rng, history = OptimizerState(), np.random.default_rng(5), []
        for epoch in range(cfg.epochs):
            loss = run_epoch(net, train_samples, cfg, opt_state, rng, epoch)
            acc = evaluate(net, test_samples).accuracy
            history.append((epoch, loss, acc))
        assert [(r.epoch, r.train_loss, r.test_acc) for r in result.history] == history
        # The last checkpoint holds the parameters, Adam moments, step and RNG state.
        looped = b"".join(make_checkpoint(net, opt_state, rng, cfg.epochs)._pieces())
        assert (tmp_path / "last.ckpt").read_bytes() == looped
