import math
import re
from pathlib import Path

import numpy as np
import pytest

from tcja_snn.attention import TcjaConfig
from tcja_snn.network import (
    ArchParseError,
    ConvSpec,
    DropoutLayer,
    DropoutSpec,
    FcSpec,
    LifSpec,
    PoolSpec,
    PRESETS,
    TcjaSpec,
    VotingSpec,
    analytic_param_count,
    build_network,
    dropout,
    parse_arch,
    render,
    voting_layer,
)
from tcja_snn.tensor import ShapeError, Tensor, fully_connected, no_grad
from tcja_snn.training import smse_loss

import oracles

REFERENCE_LAYER_COUNTS = {
    "dvs128": 22,
    "cifar10dvs": 22,
    "ncaltech101": 20,
    "fashion": 12,
}


class TestParse:
    def test_conv_lif_pool_prefix(self):
        spec = parse_arch("128C3-LIF-MP2")
        assert spec.layers == (ConvSpec(128, 3), LifSpec(), PoolSpec("max", 2))

    def test_dropout_fc_lif(self):
        spec = parse_arch("0.5DP-512FC-LIF")
        assert spec.layers == (DropoutSpec(0.5), FcSpec(512), LifSpec())

    def test_empty_spec_rejected(self):
        with pytest.raises(ArchParseError, match="empty"):
            parse_arch("")

    def test_unknown_token_reports_position(self):
        with pytest.raises(ArchParseError, match=r"'QQ7' at position 1"):
            parse_arch("128C3-QQ7-LIF")

    def test_malformed_numeric_prefix(self):
        with pytest.raises(ArchParseError):
            parse_arch("xC3-LIF")

    @pytest.mark.parametrize("spec", ["16C2-LIF", "8C3-LIF-MP2-4C4-LIF"])
    def test_even_conv_kernel_rejected(self, spec):
        # A conv keeps H x W, which takes an odd kernel padded by k//2.
        with pytest.raises(ArchParseError, match="even"):
            parse_arch(spec)

    def test_lif_must_follow_parameterized_layer(self):
        with pytest.raises(ArchParseError, match="must follow"):
            parse_arch("MP2-LIF")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("2C3-LIF-8FC-LIF-MP2", "MP2 at position 4 must come before the first FC"),
            ("8FC-LIF-4C3-LIF", "4C3 at position 2 must come before the first FC"),
            ("4C3-LIF-8FC-LIF-TCJA", "TCJA at position 4 must come before the first FC"),
            ("16C3-LIF-Voting", "Voting at position 2 must come after an FC"),
            ("0.5DP-Voting-8FC", "Voting at position 1 must come after an FC"),
        ],
        ids=["pool", "conv", "tcja", "voting", "voting-first"],
    )
    def test_layer_order_rules(self, spec, message):
        # Conv, pool and TCJA work on (C, H, W) frames, which the first FC
        # flattens; Voting splits the flat width an FC leaves.
        with pytest.raises(ArchParseError, match=message):
            parse_arch(spec)

    def test_flat_layers_may_follow_voting(self):
        spec = parse_arch("4C3-LIF-0.5DP-8FC-LIF-Voting-0.5DP-4FC-LIF-Voting")
        assert spec.layers[5:7] == (VotingSpec(), DropoutSpec(0.5))

    def test_voting_and_tcja_and_ap(self):
        spec = parse_arch("16C3-LIF-TCJA-AP2-16FC-LIF-Voting")
        assert spec.layers[2] == TcjaSpec()
        assert spec.layers[3] == PoolSpec("avg", 2)
        assert spec.layers[-1] == VotingSpec()

    @pytest.mark.parametrize("name", sorted(REFERENCE_LAYER_COUNTS))
    def test_reference_architectures_parse_and_roundtrip(self, name):
        text = PRESETS[name]
        spec = parse_arch(text)
        assert len(spec.layers) == REFERENCE_LAYER_COUNTS[name]
        assert render(spec) == text
        assert parse_arch(render(spec)) == spec

    def test_roundtrip_is_stable(self):
        for text in PRESETS.values():
            spec = parse_arch(text)
            assert parse_arch(render(parse_arch(render(spec)))) == spec


class TestVoting:
    def test_uniform_rate_maps_to_class_scores(self):
        rate = 0.3
        out = voting_layer(Tensor(np.full((4, 110), rate)), 11)
        assert out.shape == (4, 11)
        np.testing.assert_allclose(out.data, np.full((4, 11), rate), atol=1e-15)

    def test_one_hot_group(self):
        spikes = np.zeros((2, 12))
        spikes[:, 4:8] = 1.0  # group of class 1 with 3 classes
        out = voting_layer(Tensor(spikes), 3)
        np.testing.assert_array_equal(out.data, np.tile([0.0, 1.0, 0.0], (2, 1)))

    def test_matches_window_mean_oracle(self):
        rng = np.random.default_rng(0)
        spikes = (rng.random((5, 12)) < 0.4).astype(float)
        out = voting_layer(Tensor(spikes), 4)
        expected = spikes.reshape(5, 4, 3).mean(axis=2)
        np.testing.assert_allclose(out.data, expected, atol=0)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            voting_layer(Tensor(np.ones((2, 10))), 3)

    def test_batch_axis_votes_each_sample(self):
        spikes = (np.random.default_rng(1).random((5, 3, 12)) < 0.4).astype(float)
        out = voting_layer(Tensor(spikes), 4)
        for b in range(3):
            _same_bits(out.data[:, b], voting_layer(Tensor(spikes[:, b]), 4).data)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 4)))
        assert DropoutLayer(0.0).apply(x, np.random.default_rng(0)) is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 4)))
        assert DropoutLayer(0.5).apply(x, None) is x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)

    def test_mask_shared_across_time_steps(self):
        arch = parse_arch("4FC-LIF-0.5DP", input_dims=(1, 2, 2), time_steps=6)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(0))
        net.layers[0].weight.data[...] = 1.0  # a current of 4: every neuron fires every step
        rng = np.random.default_rng(42)
        out = net.forward(Tensor(np.ones((6, 3, 1, 2, 2), dtype=np.float32)), rng=rng)
        zero_pattern = out.data == 0.0
        assert 0 < zero_pattern[0].sum() < zero_pattern[0].size
        for t in range(1, 6):
            np.testing.assert_array_equal(zero_pattern[t], zero_pattern[0])
        # One mask per sample: the three samples' patterns are not all alike.
        assert len({zero_pattern[0, b].tobytes() for b in range(3)}) > 1

    def test_same_seed_same_masks(self):
        arch = parse_arch("4FC-LIF-0.5DP", input_dims=(1, 2, 2), time_steps=3)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(0))
        x = Tensor(np.ones((3, 2, 1, 2, 2), dtype=np.float32))
        a = net.forward(x, rng=np.random.default_rng(7)).data
        b = net.forward(x, rng=np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)


    def test_chunk_masks_are_consecutive_per_sample_draws(self):
        # A chunk's (B, ...) mask draw hands out the same doubles, in stream
        # order, as B one-sample draws from the same generator.
        layer = DropoutLayer(0.5)
        got = layer.apply(Tensor(np.ones((3, 4, 5, 2))), np.random.default_rng(9)).data
        rng = np.random.default_rng(9)
        alone = [layer.apply(Tensor(np.ones((3, 1, 5, 2))), rng).data for _ in range(4)]
        np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))
        assert len({got[0, b].tobytes() for b in range(4)}) > 1  # one mask per sample

    def test_chunk_forward_equals_per_sample_forwards_with_augment_off(self):
        arch = parse_arch("8FC-LIF-0.5DP-8FC-LIF", input_dims=(2, 3, 3), time_steps=5)
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(0))
        for _, p in net.parameters():
            p.data *= 4.0
        x = (np.random.default_rng(1).random((5, 3, 2, 3, 3)) * 2).astype(np.float32)
        got = net.forward(Tensor(x), rng=np.random.default_rng(8)).data
        rng = np.random.default_rng(8)
        alone = [net.forward(Tensor(x[:, b : b + 1]), rng=rng).data for b in range(3)]
        assert 0.0 < got.mean() < 1.0
        np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestNodeParity:
    """Each one-node op against the generic composition it replaced: the
    same output and gradient bytes."""

    def _run(self, node, unfused, arrays, probe_rng, dtype):
        """Output and input gradients of node and of unfused under one probe."""
        results = []
        probe = None
        for op in (node, unfused):
            ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            out = op(*ts)
            if probe is None:
                probe = probe_rng.standard_normal(out.shape).astype(dtype)
            oracles.probe_sum(out, probe).backward()
            results.append((out.data, [t.grad for t in ts]))
        (out, grads), (want_out, want_grads) = results
        _same_bits(out, want_out)
        for got, want in zip(grads, want_grads):
            _same_bits(got, want)

    def test_smse_loss_with_mixup_targets(self, dtype):
        rng = np.random.default_rng(71)
        for _ in range(50):
            t_steps, classes = int(rng.integers(1, 15)), int(rng.integers(2, 12))
            a, b = rng.integers(0, classes, size=2)
            lam = rng.beta(0.2, 0.2)
            target = lam * np.eye(classes)[a] + (1 - lam) * np.eye(classes)[b]
            outputs = rng.random((t_steps, classes))
            # Backward from the loss itself, as training runs it ...
            got, want = (Tensor(outputs.astype(dtype), requires_grad=True) for _ in range(2))
            loss, want_loss = smse_loss(got, target), oracles.smse_loss_unfused(want, target)
            loss.backward()
            want_loss.backward()
            _same_bits(loss.data, want_loss.data)
            _same_bits(got.grad, want.grad)
            # ... and under a probe that scales its gradient.
            self._run(
                lambda o: oracles.reshape(smse_loss(o, target), 1),
                lambda o: oracles.reshape(oracles.smse_loss_unfused(o, target), 1),
                [outputs], rng, dtype,
            )

    def test_voting(self, dtype):
        rng = np.random.default_rng(72)
        for _ in range(50):
            t_steps, classes, window = (int(v) for v in rng.integers(1, 12, size=3))
            spikes = rng.random((t_steps, classes * window))
            self._run(
                lambda s: voting_layer(s, classes),
                lambda s: oracles.voting_unfused(s, classes),
                [spikes], rng, dtype,
            )

    def test_dropout_mask(self, dtype):
        rng = np.random.default_rng(73)
        for p in (0.2, 0.5, 0.8):
            x = (rng.random((6, 3, 4, 4)) < 0.3).astype(np.float64)
            keep = 1.0 - p
            mask = (rng.random(x.shape[1:]) < keep).astype(dtype) / keep
            assert 0 < np.count_nonzero(mask) < mask.size
            self._run(
                lambda t: dropout(t, mask),
                lambda t: oracles.dropout_unfused(t, mask),
                [x], rng, dtype,
            )

    def test_fully_connected_flattens_4d_input(self, dtype):
        rng = np.random.default_rng(74)
        for shape in ((8, 2, 16, 4, 4), (3, 2, 5, 1), (4, 1, 7)):
            x = rng.random(shape)
            features = int(np.prod(shape[2:]))
            w, b = rng.standard_normal((features, 5)), rng.standard_normal(5)
            self._run(fully_connected, oracles.fully_connected_unfused, [x, w, b], rng, dtype)


class TestBuild:
    def test_parameter_count_matches_closed_form(self):
        arch = parse_arch(PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8)
        cfg = TcjaConfig(k_t=4, k_c=4)
        net = build_network(arch, num_classes=4, tcja_cfg=cfg)
        assert net.param_count() == analytic_param_count(arch, 4, cfg)
        # conv1 16*2*9 + tcja (16^2*4 + 7... capped k_t = min(4, 8-1) = 4) ...
        expected = (
            16 * 2 * 9  # conv1
            + 16 * 16 * 4 + 8 * 8 * 4  # attention kernels at C=16, T=8
            + 16 * 16 * 9  # conv2
            + 16 * 4 * 4 * 64 + 64  # fc on 16 channels of 4x4, with bias
        )
        assert net.param_count() == expected

    def test_tcja_insertion_increase_is_closed_form(self):
        base = parse_arch(
            "8C3-LIF-MP2-8C3-LIF-MP2-16FC-LIF", input_dims=(2, 16, 16), time_steps=6
        )
        with_attn = parse_arch(
            "8C3-LIF-TCJA-MP2-8C3-LIF-TCJA-MP2-16FC-LIF",
            input_dims=(2, 16, 16),
            time_steps=6,
        )
        cfg = TcjaConfig(k_t=3, k_c=3)
        n_base = build_network(base, 4, tcja_cfg=cfg).param_count()
        n_attn = build_network(with_attn, 4, tcja_cfg=cfg).param_count()
        # Both insertion points see C=8; T=6; K_T=3, K_C=3.
        per_block = 8 * 8 * 3 + 6 * 6 * 3
        assert n_attn - n_base == 2 * per_block

    def test_percentage_accounting_at_benchmark_scale(self):
        # Inserting attention before the last two pooling layers of the
        # 48x48/T=10 reference net: the time-branch kernels dominate the
        # increase while the channel branch stays below 0.01% of the base.
        # Small residuals vs the published figures come down to bias
        # conventions, so the band is 0.05 percentage points.
        base = parse_arch(PRESETS["cifar10dvs"], input_dims=(2, 48, 48), time_steps=10)
        with_attn = parse_arch(
            "64C3-LIF-128C3-LIF-AP2-256C3-LIF-256C3-LIF-AP2-512C3-LIF-512C3-LIF"
            "-TCJA-AP2-512C3-LIF-512C3-LIF-TCJA-AP2-10FC-LIF",
            input_dims=(2, 48, 48),
            time_steps=10,
        )
        cfg = TcjaConfig(k_t=4, k_c=4)
        n_base = analytic_param_count(base, 10, cfg)
        n_full = analytic_param_count(with_attn, 10, cfg)
        tla_pct = 100 * (2 * 512 * 512 * 4) / n_base
        cla_pct = 100 * (2 * 10 * 10 * 4) / n_base
        tcja_pct = 100 * (n_full - n_base) / n_base
        assert abs(tla_pct - 22.648) < 0.05
        assert abs(cla_pct - 0.009) < 0.05 and cla_pct < 0.01
        assert abs(tcja_pct - 22.669) < 0.05

    def test_pool_divisibility_checked_at_build(self):
        arch = parse_arch("4C3-LIF-MP2", input_dims=(1, 5, 5), time_steps=2)
        with pytest.raises(ArchParseError, match="divisible"):
            build_network(arch, num_classes=2)

    def test_build_is_deterministic_under_seed(self):
        arch = parse_arch(PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8)
        a = build_network(arch, 4, rng=np.random.default_rng(5))
        b = build_network(arch, 4, rng=np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


def _scaled_arch() -> str:
    """The arch string of perfbench's scaled-train workload."""
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    return re.search(r'^SCALED_ARCH = "(.+)"$', source, re.M).group(1)


# Arch, the smallest square input side its pools divide, and its classes.
WALK_CASES = {
    "dvs128": (PRESETS["dvs128"], 32, 10),
    "cifar10dvs": (PRESETS["cifar10dvs"], 16, 10),
    "ncaltech101": (PRESETS["ncaltech101"], 16, 101),
    "fashion": (PRESETS["fashion"], 4, 10),
    "desk": (PRESETS["desk"], 4, 4),
    "scaled": (_scaled_arch(), 4, 4),
}


class TestWalk:
    """The shapes that build, count and size the network are the ones its
    forward produces."""

    @pytest.mark.parametrize("name", sorted(WALK_CASES))
    def test_walk_is_the_forward(self, name):
        text, side, classes = WALK_CASES[name]
        t_steps, batch = 3, 2
        arch = parse_arch(text, input_dims=(2, side, side), time_steps=t_steps)
        cfg = TcjaConfig()
        net = build_network(arch, classes, tcja_cfg=cfg, rng=np.random.default_rng(0))
        seen = [(2, side, side)]

        def observe(layer, x_in, out):
            assert x_in.shape[:2] == out.shape[:2] == (t_steps, batch)
            assert x_in.shape[2:] == seen[-1]
            seen.append(out.shape[2:])

        frames = np.random.default_rng(1).random((t_steps, batch, 2, side, side)) * 2
        with no_grad():
            net.forward(Tensor(frames.astype(np.float32)), observe=observe)
        assert len(seen) == len(arch.layers) + 1
        assert net.shapes == seen
        assert seen[-1] == (classes,)
        assert net._stack_bytes == t_steps * max(math.prod(s) for s in seen) * 4
        assert analytic_param_count(arch, classes, cfg) == net.param_count()

    @pytest.mark.parametrize("dims", [(2, 8), (2, 8, 8, 1), (0, 8, 8)])
    def test_input_dims_must_be_three_positive_sizes(self, dims):
        arch = parse_arch("4C3-LIF", input_dims=dims, time_steps=2)
        with pytest.raises(ValueError, match=r"must be \(C, H, W\)"):
            build_network(arch, num_classes=2)


class TestForward:
    def _desk_net(self, seed=0, arch_text=None, dtype=np.float64):
        arch = parse_arch(
            arch_text or PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8
        )
        return build_network(
            arch, num_classes=4, rng=np.random.default_rng(seed), dtype=dtype
        )

    def test_zero_weights_give_zero_spikes(self):
        net = self._desk_net()
        for _, p in net.parameters():
            p.data[...] = 0.0
        x = Tensor(np.random.default_rng(1).random((8, 3, 2, 16, 16)))
        out = net.forward(x)
        assert out.shape == (8, 3, 4)
        np.testing.assert_array_equal(out.data, np.zeros(out.shape))

    def test_single_conv_lif_reproduces_neuron_recurrence(self):
        arch = parse_arch("1C3-LIF", input_dims=(1, 4, 4), time_steps=6)
        net = build_network(arch, num_classes=1, rng=np.random.default_rng(2), dtype=np.float64)
        x = np.full((6, 2, 1, 4, 4), 0.7)
        out = net.forward(Tensor(x))
        # The conv output is constant per step; each neuron must follow the
        # scripted recurrence driven by its own constant current.
        from tcja_snn.tensor import conv2d

        current = conv2d(Tensor(x), net.layers[0].kernel).data
        _, s_expected, _ = oracles.lif_trace_loops(current)
        np.testing.assert_array_equal(out.data, s_expected)

    def test_forced_half_attention_halves_prepool_activations(self):
        # Zeroed attention kernels make every fused score sigmoid(0) = 0.5.
        arch_text = "2C3-LIF-TCJA-MP2-4FC-LIF"
        net = self._desk_net(arch_text="2C3-LIF-MP2-4FC-LIF")
        net_attn = self._desk_net(arch_text=arch_text)
        # Copy shared weights so the only difference is the attention block.
        net_attn.layers[0].kernel.data = net.layers[0].kernel.data.copy()
        net_attn.layers[4].weight.data = net.layers[3].weight.data.copy()
        net_attn.layers[4].bias.data = net.layers[3].bias.data.copy()
        for name, p in net_attn.parameters():
            if name.endswith((".w", ".e")):
                p.data[...] = 0.0
        x = Tensor(np.random.default_rng(3).random((8, 2, 16, 16)))
        spikes_plain = net.layers[1].apply(net.layers[0].apply(x, None), None)
        half = net_attn.layers[2].apply(spikes_plain, None)
        np.testing.assert_allclose(half.data, spikes_plain.data * 0.5, atol=1e-12)

    def test_desk_training_sample_builds_11_graph_nodes(self):
        # One node per layer: conv, LIF, pool, TCJA, conv, LIF, pool, FC
        # (which flattens its input itself), LIF and voting; then the loss.
        # The count is per chunk: one sample or four build the same graph.
        net = self._desk_net(dtype=np.float32)
        for batch in (1, 4):
            frames = np.random.default_rng(6).random((8, batch, 2, 16, 16))
            out = net.forward(Tensor(frames.astype(np.float32)), rng=np.random.default_rng(1))
            loss = smse_loss(out, np.eye(4)[:batch])
            assert sum(1 for node in loss._topo_order() if node._parents) == 11

    def test_backward_frees_the_sample_graph(self):
        net = self._desk_net(dtype=np.float32)
        x = Tensor(np.random.default_rng(6).random((8, 2, 2, 16, 16)).astype(np.float32))
        loss = smse_loss(net.forward(x, rng=np.random.default_rng(1)), np.eye(4)[:2])
        interior = [node for node in loss._topo_order() if node._parents and node is not loss]
        loss.backward()
        assert interior
        for node in interior:
            assert node._backward is None and node._parents == () and node.grad is None
        assert all(p.grad is not None for _, p in net.parameters())

    def test_output_spikes_binary_when_final_layer_is_lif(self):
        net = self._desk_net(arch_text="8C3-LIF-MP2-16FC-LIF")
        x = Tensor(np.random.default_rng(4).random((8, 2, 2, 16, 16)) * 3)
        out = net.forward(x)
        assert np.all((out.data == 0.0) | (out.data == 1.0))

    def test_forward_deterministic_under_seed(self):
        net = self._desk_net(seed=9)
        x = Tensor(np.random.default_rng(5).random((8, 2, 2, 16, 16)))
        a = net.forward(x, rng=np.random.default_rng(1)).data
        b = net.forward(x, rng=np.random.default_rng(1)).data
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_reports_layer_index(self):
        net = self._desk_net()
        # A wrong channel count, and one sample without its batch axis.
        for bad in (np.zeros((8, 1, 3, 16, 16)), np.zeros((8, 2, 16, 16))):
            with pytest.raises(ShapeError, match="input shape"):
                net.forward(Tensor(bad))

    def test_mid_stack_error_carries_layer_index(self):
        arch = parse_arch("2C3-LIF-MP2", input_dims=(2, 16, 16), time_steps=2)
        net = build_network(arch, num_classes=2)
        net.layers[2].k = 3  # sabotage: 16x16 not divisible by 3
        with pytest.raises(ShapeError, match=r"layer 2 \(PoolLayer\)"):
            net.forward(Tensor(np.zeros((2, 1, 2, 16, 16), dtype=np.float32)))


class TestGradientHandOver:
    """`Tensor._accumulate` adopts a first contribution as the gradient
    itself, so every closure must hand over a fresh array it no longer uses."""

    def test_every_contribution_is_fresh(self, monkeypatch):
        arch = parse_arch(
            "8C3-LIF-MP2-TCJA-8C3-LIF-AP2-0.5DP-32FC-LIF-Voting",
            input_dims=(2, 16, 16), time_steps=8,
        )
        net = build_network(arch, num_classes=4, rng=np.random.default_rng(3))
        handed: list[tuple[Tensor, np.ndarray]] = []
        accumulate = Tensor._accumulate

        def recording(self, contribution):
            handed.append((self, contribution))
            accumulate(self, contribution)

        monkeypatch.setattr(Tensor, "_accumulate", recording)
        x = Tensor((np.random.default_rng(4).random((8, 2, 2, 16, 16)) * 3).astype(np.float32))
        out = net.forward(x, rng=np.random.default_rng(5))
        smse_loss(out, np.eye(4, dtype=np.float32)[[1, 2]]).backward()
        # One each from the loss, voting, the last LIF, dropout, average
        # pooling, the second LIF, max pooling and the first LIF; FC's input,
        # weight and bias; the second conv's input and kernel; TCJA's input,
        # w and e; the first conv's kernel (the frames need no gradient).
        assert len(handed) == 17
        params = [p for _, p in net.parameters()]
        assert {id(p) for p in params} <= {id(t) for t, _ in handed}
        for i, (target, contribution) in enumerate(handed):
            assert contribution.flags.writeable
            assert contribution.dtype == target.dtype
            for _, other in handed[i + 1 :]:
                assert not np.shares_memory(contribution, other)
            for p in params:
                assert not np.shares_memory(contribution, p.data)
