import argparse
import csv
import dataclasses
import inspect
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcja_snn import cli
from tcja_snn.cli import DEFAULT_CONFIG, build_parser, load_config, main, write_pgm
from tcja_snn.data import frames_dataset, gen_synthetic, load_dataset, write_dataset
from tcja_snn.neuron import LifConfig
from tcja_snn.training import TrainConfig, load_checkpoint

import oracles


# The 8x8 synthetic grid, as config overrides.
_GRID_8 = ["--data.synthetic.height", "8", "--data.synthetic.width", "8"]


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

    def test_default_run_settings(self):
        # The default-config runs quoted as baselines train with these.
        assert DEFAULT_CONFIG["time_steps"] == 8
        assert dataclasses.asdict(TrainConfig()) == {
            "lr": 1e-3, "batch_size": 16, "epochs": 10, "optimizer": "adam", "augment": False,
        }

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
            ("--train.lr", "0"),
            ("--lif.alpha", "0"),
            ("--lif.alpha", "NaN"),
            ("--lif.gamma", "0"),  # the triangle surrogate divides by gamma²
            ("--lif.gamma", "-1"),
            # Every float must be finite; NaN fails each range.
            ("--lif.tau", "NaN"),
            ("--train.lr", "NaN"),
            ("--lif.v_threshold", "NaN"),
            ("--lif.v_reset", "NaN"),
            ("--train.lr", "Infinity"),
            ("--lif.alpha", "Infinity"),
            ("--lif.tau", "Infinity"),
            ("--lif.gamma", "Infinity"),
            ("--lif.v_threshold", "Infinity"),
            ("--lif.v_reset", "-Infinity"),
            ("--lif.tau", "0.5"),  # the leak factor 1 - 1/tau would be negative
            # Each LIF constant must be finite in the network's float type, f32
            # here, and the factors 1/tau and 1/gamma² non-zero.
            ("--lif.v_threshold", "1e300"),
            ("--lif.v_reset", "-1e300"),
            ("--lif.tau", "1e300"),
            ("--lif.alpha", "1e300"),
            ("--lif.alpha", "3e38"),  # pi/2 * alpha overflows f32
            ("--lif.gamma", "1e200"),
            # A TCJA block needs C >= 2 and T >= 2 where it sits.
            ("--arch", "1C3-LIF-TCJA-4FC-LIF"),
            ("--time_steps", "1"),
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
         ("--data.synthetic.classes", "4"),
         # Moved to the lif section, which is `asdict(LifConfig())`.
         ("--train.surrogate", "atan"), ("--train.detach_reset", "false")],
    )
    def test_removed_key_exits_1(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "run"
        code = main(["train", "--train.epochs", "0", "--out_dir", str(out_dir), flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"config error: unknown config key {flag[2:]!r}\n"
        assert not out_dir.exists()

    def test_one_cell_data_grid_is_accepted(self):
        config = load_config(None, ["--data.width", "1", "--data.height", "1"])
        assert (config["data"]["width"], config["data"]["height"]) == (1, 1)

    def test_tau_of_one_trains(self, tmp_path):
        # The smallest tau: the membrane keeps nothing of its last step.
        path, out_dir = quick_config(tmp_path)
        assert main(["train", "--config", str(path), "--lif.tau", "1"]) == 0
        assert json.loads((out_dir / "config.json").read_text())["lif"]["tau"] == 1
        assert (out_dir / "metrics.csv").read_text().splitlines()[1].startswith("0,")

    def test_echoed_lif_section_is_the_checkpoints(self, tmp_path):
        assert DEFAULT_CONFIG["lif"] == dataclasses.asdict(LifConfig())
        path, out_dir = quick_config(tmp_path)
        code = main(["train", "--config", str(path), "--lif.surrogate", "triangle",
                     "--lif.detach_reset", "false"])
        assert code == 0
        echoed = json.loads((out_dir / "config.json").read_text())["lif"]
        meta = dict(load_checkpoint(out_dir / "last.ckpt").records)["meta.config"]
        assert echoed == json.loads(meta.tobytes())["lif"]
        assert echoed == {**DEFAULT_CONFIG["lif"], "surrogate": "triangle", "detach_reset": False}

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-synthetic", "--out", "x", "--format", "xyz"],
             "argument --format: invalid choice: 'xyz' (choose from 'bin', 'csv')"),
            (["eval"], "the following arguments are required: --checkpoint"),
            (["inspect-attention", "--checkpoint", "c", "--sample", "abc"],
             "argument --sample: invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-choice", "missing-flag", "bad-int", "no-command"],
    )
    def test_usage_error_exits_1(self, tmp_path, monkeypatch, capsys, argv, message):
        # argparse's own exit would be 2, the data-error code, with a usage line.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["gen-synthetic", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tcja-snn")


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
        assert err == "config error: classes must be one of (2, 4, 8), got 3\n"
        assert not (out_dir / "best.ckpt").exists()

    def test_overflowing_learning_rate_exits_3(self, tmp_path, capsys):
        # The spiking head keeps the loss finite; the parameter check names the
        # overflow, and numpy's overflow warnings stay silent.
        path, out_dir = quick_config(tmp_path, lr=1e300)
        assert main(["train", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric abort: non-finite parameter 'layer0.kernel' in epoch 0, batch 0\n"
        assert not (out_dir / "last.ckpt").exists()

    def test_numeric_abort_keeps_the_finished_epochs(self, tmp_path, monkeypatch, capsys):
        from tcja_snn import training

        steps = []
        step = training.optimizer_step

        def poisoned_in_epoch_2(params, *args):
            step(params, *args)
            steps.append(None)
            if len(steps) == 7:  # three batches an epoch: epoch 2's first step
                params[0][1].data[...] = np.nan

        monkeypatch.setattr(training, "optimizer_step", poisoned_in_epoch_2)
        path, out_dir = quick_config(tmp_path, epochs=4)
        assert main(["train", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric abort: non-finite parameter 'layer0.kernel' in epoch 2, batch 0\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "best.ckpt", "config.json", "last.ckpt", "metrics.csv", "timing.csv",
        ]
        for name in ("metrics.csv", "timing.csv"):
            rows = (out_dir / name).read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == ["0", "1"]
        assert training.restore_network(load_checkpoint(out_dir / "last.ckpt"))[3] == 2
        assert training.restore_network(load_checkpoint(out_dir / "best.ckpt"))[3] in (0, 1)

    @pytest.mark.parametrize("where", ["manifest line", "manifest"])
    def test_dataset_path_naming_a_directory_exits_2(self, tmp_path, capsys, where):
        data_dir = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(data_dir), "--data.synthetic.n_train", "8",
                     *_GRID_8, "--time_steps", "4"]) == 0
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

    def test_one_held_out_sample_evaluates(self, tmp_path):
        # The input-dims check reads the first held-out sample, the only one here.
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        flags = ["--config", str(path), "--data.synthetic.n_test", "1"]
        assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"), *flags]) == 0
        assert len((out_dir / "predictions.csv").read_text().splitlines()) == 2

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
            "checkpoint error: checkpoint cannot be rebuilt:"
            " arch '4C3-LIF-MP2-TCJA-16FC-LIF' puts out (16,) per sample and step"
        )
        assert not (out_dir / "predictions.csv").exists()

    def test_rendered_dropout_ratio_restores(self, tmp_path):
        # The checkpoint stores the arch as `render` writes it back.
        from tcja_snn.training import load_checkpoint

        arch = "4C3-LIF-MP2-0.00001DP-16FC-LIF-Voting"
        path, out_dir = quick_config(tmp_path)
        assert main(["train", "--config", str(path), "--arch", arch]) == 0
        assert load_checkpoint(out_dir / "last.ckpt").arch == arch
        assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"), "--config", str(path)]) == 0

    def test_lif_setting_that_the_float_type_cannot_hold_exits_4(self, tmp_path, capsys):
        # A threshold of 1e300 fits f64, which trains with it; stored as f32, it cannot be rebuilt.
        from tcja_snn.training import Checkpoint, load_checkpoint, save_checkpoint

        path, out_dir = quick_config(tmp_path, precision="f64")
        assert main(["train", "--config", str(path), "--lif.v_threshold", "1e300"]) == 0
        ckpt = load_checkpoint(out_dir / "last.ckpt")
        records = []
        for name, arr in ckpt.records:
            if name == "meta.config":
                meta = {**json.loads(arr.tobytes()), "precision": "f32"}
                arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            records.append((name, arr))
        bad = out_dir / "bad.ckpt"
        save_checkpoint(bad, Checkpoint(arch=ckpt.arch, records=records))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--config", str(path)]) == 4
        assert capsys.readouterr().err == (
            "checkpoint error: checkpoint cannot be rebuilt:"
            " LIF settings do not fit f32: v_threshold becomes inf\n"
        )


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

    def test_sample_index_past_the_test_set_exits_2(self, tmp_path, capsys):
        path, out_dir = quick_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        capsys.readouterr()
        args = ["inspect-attention", "--checkpoint", str(out_dir / "best.ckpt"),
                "--config", str(path), "--out", str(tmp_path / "inspect")]
        assert main([*args, "--sample", "8"]) == 2  # quick_config holds out 8 samples
        assert capsys.readouterr().err == "data error: sample index 8 out of range [0, 8)\n"

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
            assert main(["gen-synthetic", "--out", str(tmp_path / "data"),
                         "--data.synthetic.n_train", "40", *_GRID_8, "--time_steps", "4"]) == 0
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
        code = main(["gen-synthetic", "--out", str(out), "--num_classes", "4",
                     "--data.synthetic.n_train", "8", *_GRID_8])
        assert code == 0
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        assert len(manifest) == 8
        name, label = manifest[0].split(",")
        assert (out / name).exists() and label == "0"

    @pytest.mark.parametrize("source", ["default", "non-default"])
    def test_writes_the_training_set_that_train_generates(self, tmp_path, source):
        path, overrides, flags = None, [], []
        if source == "non-default":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({
                "num_classes": 8, "time_steps": 5,
                "data": {"synthetic": {"height": 6, "width": 11, "n_train": 24, "seed": 3}},
            }))
            overrides = ["--data.synthetic.noise_per_tick", "2"]
            flags = ["--config", str(path)]
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), *flags, *overrides]) == 0
        config = load_config(path and str(path), overrides)
        want = cli._load_samples(config)[0]
        got = frames_dataset(load_dataset(out), config["time_steps"], config["num_classes"])
        assert len(got) == len(want) == config["data"]["synthetic"]["n_train"]
        for mine, theirs in zip(got, want):
            assert mine.frames.shape == theirs.frames.shape
            assert mine.frames.tobytes() == theirs.frames.tobytes()
            assert mine.label.tobytes() == theirs.label.tobytes()

    def test_held_out_set_is_drawn_at_the_next_seed(self):
        config = load_config(None, ["--data.synthetic.seed", "3", "--data.synthetic.n_test", "6"])
        streams = gen_synthetic(classes=4, height=16, width=16, t_steps=8, n=6, seed=4)
        want = frames_dataset(streams, 8, 4)
        got = cli._load_samples(config, test_only=True)[1]
        assert [s.frames.tobytes() for s in got] == [s.frames.tobytes() for s in want]

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
        # The generator's own parameter names are not config keys.
        out = tmp_path / "data"
        for flag in ("--bogus", "--classes", "--t-steps", "--n", "--seed", "--height",
                     "--width", "--noise"):
            assert main(["gen-synthetic", "--out", str(out), flag, "1"]) == 1
            assert capsys.readouterr().err == f"config error: unknown config key {flag[2:]!r}\n"
            assert not out.exists()

    def test_unsupported_class_count_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--num_classes", "3"]) == 1
        assert capsys.readouterr().err == "config error: classes must be one of (2, 4, 8), got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--data.synthetic.height", "0", 1),
            ("--data.synthetic.width", "-3", 1),
            ("--time_steps", "0", 1),
            ("--num_classes", "0", 1),
            ("--data.synthetic.n_train", "-1", 1),
            ("--data.synthetic.n_test", "-1", 0),
            ("--data.synthetic.seed", "-1", 0),
            ("--data.synthetic.noise_per_tick", "-1", 0),
        ],
    )
    def test_flag_below_config_minimum_exits_1(self, tmp_path, capsys, flag, value, least):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {flag[2:]} must be >= {least}, got {value}\n"
        assert not out.exists()

    def _train_on(self, tmp_path, data_dir, *flags):
        return main(["train", "--arch", "4C3-LIF-MP2-16FC-LIF-Voting", "--train.epochs", "0",
                     "--out_dir", str(tmp_path / "run"), "--data.dir", str(data_dir), *flags])

    def test_csv_dir_needs_sensor_size(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--data.synthetic.n_train", "48",
                     "--format", "csv"]) == 0
        assert self._train_on(tmp_path, out) == 2
        assert "data.width and data.height" in capsys.readouterr().err
        assert self._train_on(tmp_path, out, "--data.width", "16", "--data.height", "16") == 0

    def test_bin_dir_rejects_contradicting_size(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--out", str(out), "--data.synthetic.n_train", "40"]) == 0
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
        assert main(["gen-synthetic", "--out", str(out), "--data.synthetic.n_train", "40",
                     "--num_classes", "4", *_GRID_8, "--time_steps", "4"]) == 0
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
        assert main(["gen-synthetic", "--out", str(data_dir), "--data.synthetic.n_train", "40",
                     *_GRID_8, "--time_steps", "4"]) == 0
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


class TestUnwritableOutput:
    """An output path that cannot be created is a data error naming it."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        path, out_dir = quick_config(tmp_path_factory.mktemp("unwritable"), epochs=0)
        assert main(["train", "--config", str(path)]) == 0
        return path, out_dir / "best.ckpt"

    @pytest.mark.parametrize(
        "command, under",
        [("train", False), ("train", True), ("eval", False), ("inspect-attention", False),
         ("gen-synthetic", False)],
        ids=["train", "train-under-a-file", "eval", "inspect-attention", "gen-synthetic"],
    )
    def test_path_naming_a_file_exits_2(self, tmp_path, capsys, trained, command, under):
        afile = tmp_path / "afile"
        afile.write_text("")
        target = afile / "sub" if under else afile
        config, checkpoint = trained
        capsys.readouterr()
        if command == "train":
            args = ["--config", str(config), "--out_dir", str(target)]
        elif command == "gen-synthetic":
            args = ["--out", str(target), "--data.synthetic.n_train", "8", *_GRID_8]
        else:
            args = ["--checkpoint", str(checkpoint), "--config", str(config), "--out", str(target)]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(target) in err and "Traceback" not in err


class _FakeLibc:
    """Stands in for `ctypes.CDLL(None)`, recording each `mallopt` call."""

    def __init__(self, calls: list):
        def mallopt(param: int, value: int) -> int:
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestEntrypoint:
    """The `tcja-snn` command fixes glibc malloc's thresholds; `main` does not."""

    def test_pins_malloc_then_runs_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _FakeLibc(calls))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        assert exit_info.value.code == 0
        assert calls == [(-3, 32 << 20), (-1, 512 << 20), "main"]

    @pytest.mark.parametrize("error", [AttributeError, OSError])
    def test_silent_without_mallopt(self, monkeypatch, capsys, error):
        def cdll(name):
            raise error("no mallopt")

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli, "main", lambda: 0)
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
        assert exit_info.value.code == 0
        assert capsys.readouterr() == ("", "")

    def test_main_leaves_the_allocator_alone(self, monkeypatch, tmp_path):
        # In-process callers (perfbench, these tests) keep their own settings.
        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _FakeLibc(calls))
        config, _ = quick_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        assert calls == []


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

    def test_relative_scaling_spans_the_map_range(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[1.0, 2.0], [3.0, 5.0]]))
        assert list(path.read_bytes()[-4:]) == [0, 64, 128, 255]
        write_pgm(path, np.full((2, 2), 0.7))
        assert list(path.read_bytes()[-4:]) == [0, 0, 0, 0]


# Arch strings from the grammar's tokens: uniform draws, which mostly fail
# to parse, and conv blocks before an FC head, which mostly train.
# Dropout ratios include ones that `render` must write back digit for digit.
_DROPOUTS = ["0.5DP", "0.00001DP", "0.1234567DP"]
_TOKENS = ["1C3", "2C1", "4C3", "LIF", "MP2", "AP2", *_DROPOUTS, "TCJA", "4FC", "6FC", "8FC",
           "Voting"]
_BLOCK = st.tuples(
    st.sampled_from(["1C3", "2C1", "4C3"]), st.just("LIF"),
    st.sampled_from([(), ("MP2",), ("AP2",)]), st.sampled_from([(), ("TCJA",)]),
).map(lambda parts: [*parts[:2], *parts[2], *parts[3]])
_HEAD = st.sampled_from([["4FC", "LIF"], ["8FC", "LIF", "Voting"], ["12FC", "LIF", "Voting"],
                         ["6FC", "LIF", "Voting"]])
_UNIFORM = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=6)
_STRUCTURED = st.tuples(
    st.lists(_BLOCK, min_size=1, max_size=2), st.sampled_from([[], *([dp] for dp in _DROPOUTS)]),
    _HEAD,
).map(lambda parts: [token for block in parts[0] for token in block] + parts[1] + parts[2])
_ARCHS = st.integers(0, 3).flatmap(lambda i: _UNIFORM if i == 0 else _STRUCTURED).map("-".join)
# Config values at the edges of their ranges, and keys of both kinds.
_EDGES = [0, -1, math.nan, math.inf, -math.inf, 1e300, -1e300]
_KEYS = [("train", "lr"), ("train", "epochs"), ("train", "batch_size"), ("lif", "tau"),
         ("lif", "v_reset"), ("lif", "v_threshold"), ("lif", "alpha"), ("lif", "gamma"),
         ("tcja", "k_t"), ("tcja", "k_c")]
_PRECISIONS = ["f32", "f64"]
_SURROGATES = ["atan", "triangle"]


def _fuzz_run(tmp: Path, arch, time_steps, side, precision, surrogate, edits=()):
    """Exit codes of `train`, `eval` and `inspect-attention` on the fuzz's
    config for these draws, written into `tmp`."""
    config = {
        "arch": arch, "time_steps": time_steps, "out_dir": str(tmp / "run"),
        "data": {"synthetic": {"height": side, "width": side, "n_train": 4, "n_test": 2}},
        "train": {"epochs": 1, "batch_size": 4, "precision": precision},
        "lif": {"surrogate": surrogate}, "tcja": {},
    }
    for (section, key), value in edits:
        config[section][key] = value
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    ckpt = ["--checkpoint", str(tmp / "run" / "last.ckpt"), "--config", str(path),
            "--out", str(tmp / "out")]
    trained = main(["train", "--config", str(path)])
    evaluated = main(["eval", *ckpt])
    inspected = main(["inspect-attention", *ckpt])
    return trained, evaluated, inspected


class TestFuzz:
    """No arch string or config value gets a traceback out of `train`,
    `eval` or `inspect-attention`: each returns a documented exit code."""

    @settings(max_examples=100, deadline=None)
    @given(
        arch=_ARCHS,
        time_steps=st.integers(1, 3),
        side=st.integers(4, 8),
        precision=st.sampled_from(_PRECISIONS),
        surrogate=st.sampled_from(_SURROGATES),
        edits=st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from(_EDGES)), max_size=1),
    )
    def test_every_command_returns_a_documented_exit_code(
        self, arch, time_steps, side, precision, surrogate, edits
    ):
        with tempfile.TemporaryDirectory() as tmp:
            trained, evaluated, inspected = _fuzz_run(
                Path(tmp), arch, time_steps, side, precision, surrogate, edits
            )
        assert {trained, evaluated, inspected} <= set(range(6))
        if trained == 0:
            assert evaluated == 0 and inspected in (0, 5)

    # The fuzz accepts exit 1, so a base config that every command refuses
    # (a key the CLI no longer knows, say) would pass it without one run.
    @pytest.mark.parametrize("precision", _PRECISIONS)
    @pytest.mark.parametrize("surrogate", _SURROGATES)
    def test_base_config_runs_every_command(self, tmp_path, precision, surrogate):
        trained, evaluated, inspected = _fuzz_run(
            tmp_path, "4C3-LIF-MP2-TCJA-8FC-LIF-Voting", 2, 8, precision, surrogate
        )
        assert (trained, evaluated) == (0, 0) and inspected in (0, 5)

    def test_edited_keys_are_config_keys(self):
        assert all(key in DEFAULT_CONFIG[section] for section, key in _KEYS)
