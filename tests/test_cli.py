import argparse
import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from tcja_snn.cli import DEFAULT_CONFIG, build_parser, load_config, main, write_pgm
from tcja_snn.data import gen_synthetic, write_dataset

import oracles


def quick_config(tmp_path, **train_overrides):
    tmp_path = Path(tmp_path)
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = {
        "arch": "4C3-LIF-MP2-TCJA-16FC-LIF-Voting",
        "time_steps": 4,
        "num_classes": 4,
        "out_dir": str(tmp_path / "run"),
        "data": {
            "synthetic": {
                "height": 8,
                "width": 8,
                "n_train": 24,
                "n_test": 8,
                "seed": 5,
            }
        },
        "train": {"epochs": 1, "batch_size": 8, "seed": 1, **train_overrides},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, Path(config["out_dir"])


class TestConfig:
    def test_defaults_load(self):
        config = load_config(None, [])
        assert config == DEFAULT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_key": 1}))
        assert main(["train", "--config", str(path)]) == 1

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"momentum": 0.9}}))
        assert main(["train", "--config", str(path)]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 1

    def test_flag_overrides_file_value(self, tmp_path):
        path, out_dir = quick_config(tmp_path)
        code = main(["train", "--config", str(path), "--train.epochs", "0"])
        assert code == 0
        echoed = json.loads((out_dir / "config.json").read_text())
        assert echoed["train"]["epochs"] == 0

    def test_unknown_flag_rejected(self, tmp_path):
        path, _ = quick_config(tmp_path)
        assert main(["train", "--config", str(path), "--train.warmup", "3"]) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--train.lr", "abc"),  # str for a float
            ("--lif.tau", "abc"),
            ("--train.epochs", "abc"),  # str for an int
            ("--train.epochs", "1.5"),  # float for an int
            ("--train.epochs", "true"),  # bool is not an int
            ("--train.augment", "1"),  # int is not a bool
            ("--data", "5"),  # a section must stay an object
            ("--data.synthetic", '{"kind": "moving-bar"}'),  # section of one unknown key
            ("--data.dir", "5"),  # null default takes a str
            ("--data.width", '"8"'),  # null default takes an int
            ("--data.width", "0"),
            ("--data.height", "-3"),
            ("--time_steps", "0"),
            ("--num_classes", "0"),
            ("--train.batch_size", "0"),
            ("--data.synthetic.n_train", "0"),
            ("--data.synthetic.height", "0"),
            ("--data.synthetic.width", "0"),
            ("--train.epochs", "-1"),
            ("--train.seed", "-1"),
            ("--data.synthetic.n_test", "-1"),
            ("--data.synthetic.seed", "-1"),
            ("--data.synthetic.noise_per_tick", "-1"),
        ],
    )
    def test_bad_value_type_or_range_exits_1(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "run"
        code = main(["train", "--train.epochs", "0", "--out_dir", str(out_dir), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--lif.strict_eq2", "true"), ("--data.synthetic.kind", '"moving-bar"'),
         ("--data.synthetic.classes", "4")],
    )
    def test_removed_key_exits_1(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "run"
        code = main(["train", "--train.epochs", "0", "--out_dir", str(out_dir), flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"config error: unknown config key {flag[2:]!r}\n"
        assert not out_dir.exists()

    def test_config_path_naming_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: config file not found: {tmp_path}\n"

    def test_even_conv_kernel_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--arch", "16C2-LIF-MP2-64FC-LIF-Voting", "--train.epochs", "0",
                     "--out_dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: conv kernel 2 at position 0 is even")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "arch, message",
        [
            ("2C3-LIF-8FC-LIF-MP2", "MP2 at position 4 must come before the first FC layer"),
            ("16C3-LIF-Voting", "Voting at position 2 must come after an FC layer"),
            ("16C3-LIF-MP2-64FC-LIF", "arch '16C3-LIF-MP2-64FC-LIF' puts out (64,) per sample"),
        ],
        ids=["pool-after-fc", "voting-without-fc", "64-wide-output"],
    )
    def test_layer_order_or_output_width_exits_1(self, tmp_path, capsys, arch, message):
        out_dir = tmp_path / "run"
        code = main(["train", "--arch", arch, "--train.epochs", "0", "--out_dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out_dir.exists()

    def test_unknown_precision_exits_1(self, tmp_path, capsys):
        path, out_dir = quick_config(tmp_path, precision="f16")
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: precision must be f32 or f64, got 'f16'\n"
        assert not out_dir.exists()

    def test_int_accepted_for_float(self):
        assert load_config(None, ["--train.lr", "1"])["train"]["lr"] == 1


class TestTrainCommand:
    def test_zero_epochs_writes_artifacts(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        assert (out_dir / "metrics.csv").read_text() == "epoch,train_loss,test_acc\n"
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "config.json").exists()

    def test_missing_dataset_dir_exits_2(self, tmp_path):
        config = {"data": {"dir": str(tmp_path / "nowhere"), "width": 8, "height": 8}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_manifest_exits_2(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "manifest.csv").write_text("")
        args = ["--data.dir", str(data_dir), "--out_dir", str(tmp_path / "run")]
        if command == "eval":
            path, out_dir = quick_config(tmp_path / "trained", epochs=0)
            assert main(["train", "--config", str(path)]) == 0
            capsys.readouterr()
            args += ["--checkpoint", str(out_dir / "best.ckpt"), "--config", str(path)]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data_dir / 'manifest.csv'}: manifest lists no samples\n"

    def test_unsupported_synthetic_class_count_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        args = ["train", "--num_classes", "3", "--train.epochs", "0", "--out_dir", str(out_dir)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "config error: num_classes must be one of (2, 4, 8) for synthetic data, got 3\n"
        assert not (out_dir / "best.ckpt").exists()

    @pytest.mark.parametrize("where", ["manifest line", "manifest"])
    def test_dataset_path_naming_a_directory_exits_2(self, tmp_path, capsys, where):
        data_dir = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(data_dir), "--n", "8", "--height", "8",
                     "--width", "8", "--t-steps", "4"]) == 0
        manifest = data_dir / "manifest.csv"
        if where == "manifest line":
            (data_dir / "sub").mkdir()
            manifest.write_text(manifest.read_text() + "sub,0\n")
            missing = data_dir / "sub"
        else:
            manifest.unlink()
            manifest.mkdir()
            missing = manifest
        capsys.readouterr()
        assert main(["train", "--data.dir", str(data_dir), "--out_dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.endswith(f"not found: {missing}\n")

    def test_quickstart_trains_and_is_reproducible(self, tmp_path):
        path_a, out_a = quick_config(tmp_path / "a", epochs=2)
        path_b, out_b = quick_config(tmp_path / "b", epochs=2)
        assert main(["train", "--config", str(path_a)]) == 0
        assert main(["train", "--config", str(path_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "best.ckpt").read_bytes() == (out_b / "best.ckpt").read_bytes()

    def test_echoed_config_reruns_identically(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        first_metrics = (out_dir / "metrics.csv").read_bytes()
        echoed = out_dir / "config.json"
        rerun_dir = tmp_path / "rerun"
        assert main(["train", "--config", str(echoed), "--out_dir", str(rerun_dir)]) == 0
        assert (rerun_dir / "metrics.csv").read_bytes() == first_metrics


class TestEmptyHeldOutSplit:
    def test_train_and_eval_with_no_test_samples(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=2)
        flags = ["--data.synthetic.n_test", "0"]
        assert main(["train", "--config", str(path), *flags]) == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["0", "0"]
        ckpt = str(out_dir / "last.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--config", str(path), *flags]) == 0
        assert (out_dir / "predictions.csv").read_text().splitlines() == [
            "sample_id,true,predicted,rate_0,rate_1,rate_2,rate_3"
        ]


class TestEvalCommand:
    def test_eval_reproduces_final_test_accuracy(self, tmp_path, capsys):
        path, out_dir = quick_config(tmp_path, epochs=2)
        assert main(["train", "--config", str(path)]) == 0
        rows = (out_dir / "metrics.csv").read_text().strip().splitlines()
        final_acc = float(rows[-1].split(",")[2])
        capsys.readouterr()
        code = main(
            ["eval", "--checkpoint", str(out_dir / "last.ckpt"), "--config", str(path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert f"accuracy: {final_acc:.4f}" in printed

    def test_predictions_csv_row_count(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(path)]) == 0
        assert (
            main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--config", str(path)])
            == 0
        )
        with open(out_dir / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["sample_id", "true", "predicted"]
        assert len(rows) - 1 == 8  # n_test

    def test_corrupted_magic_exits_4(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        ckpt = out_dir / "best.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[:8] = b"BADMAGIC"
        ckpt.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(path)]) == 4

    def test_checkpoint_path_naming_a_directory_exits_4(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path)]) == 4
        assert capsys.readouterr().err == f"checkpoint error: checkpoint not found: {tmp_path}\n"

    @pytest.mark.parametrize(
        "blob",
        [
            b"TCJACKPT",  # header cut before the version field
            b"TCJACKPT\x01\x00\x02\x00\x00\x00\xff\xfe",  # non-UTF-8 arch string
        ],
    )
    def test_truncated_or_undecodable_header_exits_4(self, tmp_path, blob):
        path, out_dir = quick_config(tmp_path, epochs=0)
        ckpt = tmp_path / "broken.ckpt"
        ckpt.write_bytes(blob)
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(path)]) == 4

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_input_dims_mismatch_exits_4(self, tmp_path, command):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        code = main(
            [
                command,
                "--checkpoint",
                str(out_dir / "best.ckpt"),
                "--config",
                str(path),
                "--data.synthetic.height",
                "12",
                "--data.synthetic.width",
                "12",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_time_step_mismatch_exits_4(self, tmp_path, command):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        ckpt_args = [command, "--checkpoint", str(out_dir / "best.ckpt"), "--config", str(path)]
        assert main(ckpt_args + ["--time_steps", "6"]) == 4
        # A class-count mismatch is refused the same way.
        assert main(ckpt_args + ["--num_classes", "2"]) == 4

    @pytest.mark.parametrize(
        "arch",
        [
            "4C3-LIFXMP2-TCJA-16FC-LIF-Voting",  # unparseable token
            "4C3-LIF-MP2-TCJA-15FC-LIF-Voting",  # 15 voters cannot split into 4 classes
            "4C3-LIF-MP0-TCJA-16FC-LIF-Voting",  # zero-width pool
            "4C2-LIF-MP2-TCJA-16FC-LIF-Voting",  # even conv kernel
            "4C3-LIF-16FC-LIF-MP2-TCJA-Voting",  # pool and TCJA after the flatten
        ],
    )
    def test_corrupt_or_ill_fitting_arch_exits_4(self, tmp_path, arch):
        from tcja_snn.training import Checkpoint, load_checkpoint, save_checkpoint

        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        ckpt = load_checkpoint(out_dir / "best.ckpt")
        save_checkpoint(out_dir / "bad.ckpt", Checkpoint(arch=arch, records=ckpt.records))
        assert main(["eval", "--checkpoint", str(out_dir / "bad.ckpt"), "--config", str(path)]) == 4

    @pytest.mark.parametrize("command", ["eval", "inspect-attention"])
    def test_output_not_one_score_per_class_exits_4(self, tmp_path, capsys, command):
        # Voting owns no parameters: without it the trained tensors still fit,
        # but the 16 FC outputs are no 4 class scores.
        from tcja_snn.training import Checkpoint, load_checkpoint, save_checkpoint

        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        ckpt = load_checkpoint(out_dir / "best.ckpt")
        bad = out_dir / "bad.ckpt"
        save_checkpoint(bad, Checkpoint(arch="4C3-LIF-MP2-TCJA-16FC-LIF", records=ckpt.records))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(bad), "--config", str(path)]) == 4
        assert capsys.readouterr().err.startswith(
            "checkpoint error: checkpoint arch puts out (16,) per sample and step"
        )
        assert not (out_dir / "predictions.csv").exists()


class TestInspectAttention:
    def test_zero_kernel_checkpoint_gives_uniform_gray(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        # Zero the attention kernels inside the checkpoint.
        from tcja_snn.training import Checkpoint, load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(out_dir / "best.ckpt")
        records = [
            (name, np.zeros_like(arr) if name.endswith((".w", ".e")) else arr)
            for name, arr in ckpt.records
        ]
        save_checkpoint(out_dir / "zero.ckpt", Checkpoint(arch=ckpt.arch, records=records))
        insp = tmp_path / "inspect"
        code = main(
            [
                "inspect-attention",
                "--checkpoint",
                str(out_dir / "zero.ckpt"),
                "--config",
                str(path),
                "--sample",
                "0",
                "--out",
                str(insp),
            ]
        )
        assert code == 0
        pgm = (insp / "block0_ccf.pgm").read_bytes()
        header, pixels = pgm.split(b"255\n", 1)
        assert header.startswith(b"P5\n")
        assert set(pixels) == {128}  # sigmoid(0) = 0.5 everywhere

    def test_map_dims_and_values_match_oracle_recompute(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(path)]) == 0
        insp = tmp_path / "inspect"
        code = main(
            [
                "inspect-attention",
                "--checkpoint",
                str(out_dir / "best.ckpt"),
                "--config",
                str(path),
                "--sample",
                "2",
                "--out",
                str(insp),
            ]
        )
        assert code == 0
        f_map = np.loadtxt(insp / "block0_ccf.csv", delimiter=",")
        assert f_map.shape == (4, 4)  # C=4 after first conv, T=4
        assert np.all((f_map > 0.0) & (f_map < 1.0))

        # Recompute through the loop oracles from the stored checkpoint.
        from tcja_snn.cli import _load_samples, load_config
        from tcja_snn.training import load_checkpoint, restore_network
        from tcja_snn.tensor import Tensor

        config = load_config(str(path), [])
        net, _, _, _ = restore_network(load_checkpoint(out_dir / "best.ckpt"))
        _, test_samples = _load_samples(config)
        sample = test_samples[2]
        pre_attn = None  # recompute the attention input by replaying the prefix
        h = Tensor(sample.frames.astype(net.dtype))
        for layer in net.layers:
            from tcja_snn.network import TcjaLayer

            if isinstance(layer, TcjaLayer):
                pre_attn = h.data.astype(np.float64)
                z = oracles.squeeze_loops(pre_attn)
                expected = oracles.ccf_loops(
                    oracles.tla_loops(z, layer.params.w.data.astype(np.float64)),
                    oracles.cla_loops(z, layer.params.e.data.astype(np.float64)),
                )
                break
            h = layer.apply(h, None)
        assert pre_attn is not None
        np.testing.assert_allclose(f_map, expected, atol=1e-6)

    def test_two_attention_blocks_dump_two_sets(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=0)
        config = json.loads(path.read_text())
        config["arch"] = "4C3-LIF-TCJA-MP2-4C3-LIF-TCJA-MP2-16FC-LIF-Voting"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 0
        insp = tmp_path / "inspect"
        code = main(
            [
                "inspect-attention",
                "--checkpoint",
                str(out_dir / "best.ckpt"),
                "--config",
                str(path),
                "--out",
                str(insp),
            ]
        )
        assert code == 0
        names = {p.name for p in insp.iterdir()}
        for block in (0, 1):
            for tag in ("tla", "cla", "ccf"):
                assert f"block{block}_{tag}.csv" in names
                assert f"block{block}_{tag}.pgm" in names
        # Second block sits after a pool: 4 channels, quarter resolution.
        f1 = np.loadtxt(insp / "block1_ccf.csv", delimiter=",")
        assert f1.shape == (4, 4)

    def test_network_without_attention_exits_5(self, tmp_path):
        path, out_dir = quick_config(tmp_path, epochs=0)
        config = json.loads(path.read_text())
        config["arch"] = "4C3-LIF-MP2-16FC-LIF-Voting"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 0
        code = main(
            [
                "inspect-attention",
                "--checkpoint",
                str(out_dir / "best.ckpt"),
                "--config",
                str(path),
            ]
        )
        assert code == 5


class TestHeldOutSplitOnly:
    """`eval` and `inspect-attention` build the test split and nothing else."""

    @pytest.mark.parametrize("source", ["synthetic", "dir"])
    def test_outputs_unchanged_and_no_training_sample_integrated(
        self, tmp_path, monkeypatch, source
    ):
        from tcja_snn import cli, data

        path, out_dir = quick_config(tmp_path, epochs=1)
        flags = []
        if source == "dir":
            assert main(["gen-synthetic", "--out", str(tmp_path / "data"), "--n", "40",
                         "--height", "8", "--width", "8", "--t-steps", "4"]) == 0
            flags = ["--data.dir", str(tmp_path / "data")]
        assert main(["train", "--config", str(path), *flags]) == 0
        n_test = len(cli._load_samples(load_config(str(path), flags))[1])
        ckpt = str(out_dir / "last.ckpt")

        def run(tag: str) -> dict[str, bytes]:
            out = tmp_path / tag
            for command in ("eval", "inspect-attention"):
                assert main([command, "--checkpoint", ckpt, "--config", str(path),
                             "--out", str(out), *flags]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        load_both = cli._load_samples
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_load_samples", lambda config, test_only=False: load_both(config))
            reference = run("both_splits")
        integrated = []
        real_integrate = data.integrate_frames

        def integrate(*args, **kwargs):
            integrated.append(len(args[0]))  # events in the stream
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(data, "integrate_frames", integrate)
        assert run("test_split") == reference
        assert "predictions.csv" in reference and "block0_ccf.pgm" in reference
        assert len(integrated) == 2 * n_test  # one test split for each command


class TestNoGradOutputs:
    def test_eval_and_inspect_files_equal_with_graph_recorded(self, tmp_path, monkeypatch):
        import contextlib

        from tcja_snn import cli, training

        path, out_dir = quick_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(path)]) == 0
        ckpt = str(out_dir / "last.ckpt")

        def run(tag: str) -> dict[str, bytes]:
            out = tmp_path / tag
            for command in ("eval", "inspect-attention"):
                assert main([command, "--checkpoint", ckpt, "--config", str(path),
                             "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        free = run("no_grad")
        monkeypatch.setattr(cli, "no_grad", contextlib.nullcontext)
        monkeypatch.setattr(training, "no_grad", contextlib.nullcontext)
        assert run("recorded") == free
        assert "predictions.csv" in free and "block0_ccf.pgm" in free


class TestBench:
    """The parameter figures the retired bench CSV reported, read from their source."""

    def test_doubling_c_quadruples_tla_params(self):
        from tcja_snn.attention import param_count

        by_c = {c: param_count(c, 6, 2, 2)[0] for c in (8, 16)}
        assert by_c[16] == 4 * by_c[8]


class TestGenSynthetic:
    def test_writes_manifest_and_samples(self, tmp_path):
        out = tmp_path / "data"
        code = main(
            [
                "gen-synthetic",
                "--out",
                str(out),
                "--classes",
                "4",
                "--n",
                "8",
                "--height",
                "8",
                "--width",
                "8",
            ]
        )
        assert code == 0
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        assert len(manifest) == 8
        name, label = manifest[0].split(",")
        assert (out / name).exists() and label == "0"

    def test_defaults_are_gen_synthetic_and_write_dataset_defaults(self, tmp_path):
        out, want = tmp_path / "cli", tmp_path / "api"
        assert main(["gen-synthetic", "--out", str(out)]) == 0
        write_dataset(want, gen_synthetic())
        names = sorted(f.name for f in want.iterdir())
        assert sorted(f.name for f in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_config_synthetic_defaults_are_gen_synthetic_defaults(self):
        # The dataset sizes and seed differ on purpose, and the class count
        # is num_classes; the rest is shared.
        params = inspect.signature(gen_synthetic).parameters
        synthetic = DEFAULT_CONFIG["data"]["synthetic"]
        assert sorted(synthetic) == ["height", "n_test", "n_train", "noise_per_tick", "seed", "width"]
        for key in ("height", "width", "noise_per_tick"):
            assert synthetic[key] == params[key].default, key
        assert (synthetic["n_train"], synthetic["n_test"], synthetic["seed"]) == (400, 100, 7)

    def test_unknown_flag_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--n", "4", "--bogus", "1"]) == 1
        assert "--bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_class_count_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--classes", "3"]) == 1
        assert capsys.readouterr().err == "config error: --classes must be one of (2, 4, 8), got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--height", "0", 1),
            ("--width", "-3", 1),
            ("--t-steps", "0", 1),
            ("--n", "-1", 1),
            ("--seed", "-1", 0),
            ("--noise", "-1", 0),
        ],
    )
    def test_flag_below_config_minimum_exits_1(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--n", "4", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} must be >= {least}")
        assert not out.exists()

    def _train_on(self, tmp_path, data_dir, *flags):
        return main(["train", "--arch", "4C3-LIF-MP2-16FC-LIF-Voting", "--train.epochs", "0",
                     "--out_dir", str(tmp_path / "run"), "--data.dir", str(data_dir), *flags])

    def test_csv_dir_needs_sensor_size(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--n", "48", "--format", "csv"]) == 0
        assert self._train_on(tmp_path, out) == 2
        assert "data.width and data.height" in capsys.readouterr().err
        assert self._train_on(tmp_path, out, "--data.width", "16", "--data.height", "16") == 0

    def test_bin_dir_rejects_contradicting_size(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--n", "40"]) == 0
        assert self._train_on(tmp_path, out, "--data.width", "8") == 2
        assert "header width 16 differs from data.width=8" in capsys.readouterr().err

    def test_mixed_grid_dir_names_the_file(self, tmp_path, capsys):
        out = tmp_path / "data"
        dataset = gen_synthetic(n=40) + gen_synthetic(height=12, width=12, n=1)
        write_dataset(out, dataset)
        assert self._train_on(tmp_path, out) == 2
        assert "sample_00040.bin: sensor grid 12x12 differs" in capsys.readouterr().err

    def test_generated_dir_trains(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--n", "40", "--classes", "4",
                     "--height", "8", "--width", "8", "--t-steps", "4"]) == 0
        config = {
            "arch": "4C3-LIF-MP2-16FC-LIF-Voting",
            "time_steps": 4,
            "num_classes": 4,
            "out_dir": str(tmp_path / "run"),
            "data": {"dir": str(out)},
            "train": {"epochs": 1, "batch_size": 8},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 0


class TestManifestLabels:
    """Bad manifest labels are data errors in every command that reads a dataset."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("labels")
        path, out_dir = quick_config(root, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        return out_dir / "best.ckpt"

    def _relabel(self, data_dir, old, new, count):
        manifest = data_dir / "manifest.csv"
        with open(manifest, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in [row for row in rows if row[1] == old][:count]:
            row[1] = new
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("command", ["train", "eval", "inspect-attention"])
    @pytest.mark.parametrize(
        "new, count, message",
        [
            ("4", 10, "label 4 is out of range for num_classes=4"),
            ("4", 9, "label 4 is out of range for num_classes=4"),
            ("-1", 10, "label '-1' is not a non-negative integer"),
            ("abc", 1, "label 'abc' is not a non-negative integer"),
        ],
        ids=["ten-too-big", "nine-too-big", "negative", "not-an-integer"],
    )
    def test_bad_label_exits_2(self, tmp_path, capsys, checkpoint, command, new, count, message):
        data_dir = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(data_dir), "--n", "40", "--height", "8",
                     "--width", "8", "--t-steps", "4"]) == 0
        self._relabel(data_dir, "3", new, count)
        capsys.readouterr()
        if command == "train":
            path, _ = quick_config(tmp_path)
            args = ["train", "--config", str(path)]
        else:
            args = [command, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")]
        code = main(args + ["--time_steps", "4", "--data.dir", str(data_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and message in err
        if new != "4":
            assert "manifest.csv: line " in err


class TestReadme:
    def test_cli_block_lists_exactly_the_parser_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        documented = {line.split()[1] for line in block.splitlines() if line.startswith("tcja-snn ")}
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert documented == set(subparsers.choices)


class TestPgm:
    def test_absolute_scaling(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]), absolute=True)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 128, 255, 64]
