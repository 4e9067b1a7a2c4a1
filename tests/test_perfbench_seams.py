"""perfbench times the engine by patching its attributes; a renamed seam
would silently drop a metric, so the traced install must find every one."""

import typing
from pathlib import Path

from tcja_snn import network

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# Owner and attribute of every engine seam a traced run wraps.
TRACED_SEAMS = {
    "cli.train", "training.optimizer_step", "training.evaluate", "training.make_checkpoint",
    "Network.forward",
    *(f"{kind}Layer.apply" for kind in ("Conv", "Lif", "Pool", "Dropout", "Fc", "Voting", "Tcja")),
    *(f"attention.{op}" for op in ("squeeze", "tla", "cla", "ccf", "recalibrate")),
    "training.smse_loss", "Tensor.backward", "Tensor._topo_order", "Tensor._node",
    "data.read_events", "data.integrate_frames", "data.augment",
    "cli._load_samples", "cli._build_from_config",
    "training.load_checkpoint", "training.restore_network",
}


def test_traced_install_patches_every_seam(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import hooks

    rec = hooks.Recorder(suspend_in_evaluate=True, calibrating=False)
    rec.install(trace=True)
    try:
        patched = [f"{owner.__name__.removeprefix('tcja_snn.')}.{name}"
                   for owner, name, _ in rec._saved]
        assert rec.node_seam
    finally:
        rec.close()
    assert len(patched) == len(TRACED_SEAMS) == 28
    assert set(patched) == TRACED_SEAMS


def test_every_layer_kind_is_traced():
    # A layer kind without its own traced `apply` would run outside every span.
    kinds = {f"{cls.__name__}.apply" for cls in typing.get_args(network.Layer)}
    assert kinds == {seam for seam in TRACED_SEAMS if seam.endswith("Layer.apply")}
    assert len(kinds) == 7
