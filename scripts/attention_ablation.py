#!/usr/bin/env python3
"""Attention ablation on the moving-bar task: none vs multiply vs add fusion.

Trains three networks under the same seed and data, then prints best test
accuracy and parameter counts. Takes a few minutes on one core.

Usage: python3 scripts/attention_ablation.py [epochs]
"""

import sys

import numpy as np

from tcja_snn.attention import TcjaConfig
from tcja_snn.data import frames_dataset, gen_synthetic
from tcja_snn.network import PRESETS, build_network, parse_arch
from tcja_snn.training import TrainConfig, train

epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 14

train_streams = gen_synthetic(classes=4, height=16, width=16, t_steps=8, n=400, seed=7)
test_streams = gen_synthetic(classes=4, height=16, width=16, t_steps=8, n=100, seed=8)
train_samples = frames_dataset(train_streams, 8, 4)
test_samples = frames_dataset(test_streams, 8, 4)

variants = [
    ("none", "16C3-LIF-MP2-16C3-LIF-MP2-64FC-LIF-Voting", "multiply"),
    ("multiply", PRESETS["desk"], "multiply"),
    ("add", PRESETS["desk"], "add"),
]

rows = []
for name, arch_text, fusion in variants:
    arch = parse_arch(arch_text, input_dims=(2, 16, 16), time_steps=8)
    cfg = TrainConfig(epochs=epochs, batch_size=16, lr=1e-3)
    rng = np.random.default_rng(0)
    net = build_network(arch, 4, tcja_cfg=TcjaConfig(fusion=fusion), rng=rng)
    print(f"=== {name} ({net.param_count()} params) ===")
    result = train(net, train_samples, test_samples, cfg, rng, log=print)
    rows.append((name, net.param_count(), result.best_accuracy))

print("\nvariant    params   best_acc")
for name, params, acc in rows:
    print(f"{name:<9}  {params:>6}   {acc:.4f}")
