"""Spiking neural network training engine with temporal-channel joint attention."""

from .tensor import ShapeError, Tensor
from .neuron import LifConfig, lif_sequence
from .attention import (
    AttentionMaps,
    TcjaConfig,
    TcjaParams,
    ccf,
    cla,
    param_count,
    recalibrate,
    score_maps,
    squeeze,
    tcja_forward,
    tla,
)
from .network import ArchSpec, Network, build_network, parse_arch, render
from .training import TrainConfig, evaluate, predict_label, smse_loss, train

__version__ = "0.1.0"

__all__ = [
    "ShapeError",
    "Tensor",
    "LifConfig",
    "lif_sequence",
    "AttentionMaps",
    "TcjaConfig",
    "TcjaParams",
    "ccf",
    "cla",
    "param_count",
    "recalibrate",
    "score_maps",
    "squeeze",
    "tcja_forward",
    "tla",
    "ArchSpec",
    "Network",
    "build_network",
    "parse_arch",
    "render",
    "TrainConfig",
    "evaluate",
    "predict_label",
    "smse_loss",
    "train",
    "__version__",
]
