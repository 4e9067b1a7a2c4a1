"""Seeded moving-bar event datasets, written with the engine's own writer.

The benchmark owns its generator: a change to the engine's synthetic
data must not change what the benchmark measures. The file format is the
engine's: `tcja_snn.data.write_dataset` writes the event files and the
manifest. Each sample is a bar sweeping across the sensor in one of four
directions (the class); cells under the bar emit ON bursts, cells it just
left emit OFF bursts, and a few uniform noise events land on every tick.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from tcja_snn import data

# (dx, dy) per class: east, west, south, north.
_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))
CLASSES = len(_DIRECTIONS)


def moving_bar(
    label: int,
    height: int,
    width: int,
    rng: np.random.Generator,
    events_per_cell: int = 3,
    noise_per_tick: int = 2,
) -> data.EventStream:
    """One time-ordered event stream of a bar moving in direction `label`."""
    dx, dy = _DIRECTIONS[label]
    extent = width if dx else height  # positions along the motion
    across = height if dx else width  # bar length axis
    bar_len = int(rng.integers(across // 2, across + 1))
    start = int(rng.integers(0, across - bar_len + 1))
    cells_across = np.arange(start, start + bar_len)
    ts, xs, ys, ps = [], [], [], []
    prev = np.zeros(0, dtype=np.int64)
    for tick in range(extent):
        pos = tick if (dx + dy) > 0 else extent - 1 - tick
        on = np.repeat(cells_across, events_per_cell)
        off = np.repeat(prev, events_per_cell) if tick else np.zeros(0, dtype=np.int64)
        noise_x = rng.integers(0, width, noise_per_tick)
        noise_y = rng.integers(0, height, noise_per_tick)
        noise_p = rng.integers(0, 2, noise_per_tick)
        along = np.concatenate([np.full(len(on), pos), np.full(len(off), pos - dx - dy)])
        if dx:
            xs.append(np.concatenate([along, noise_x]))
            ys.append(np.concatenate([on, off, noise_y]))
        else:
            xs.append(np.concatenate([on, off, noise_x]))
            ys.append(np.concatenate([along, noise_y]))
        ps.append(np.concatenate([np.ones(len(on), np.int64), np.zeros(len(off), np.int64), noise_p]))
        ts.append(tick * 1000 + np.arange(len(xs[-1])))
        prev = cells_across
    return data.EventStream(
        t=np.concatenate(ts),
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        p=np.concatenate(ps),
        width=width,
        height=height,
    )


def write_dataset(
    out_dir: Path, per_class: int, height: int, width: int, seed: int
) -> list[tuple[Path, int]]:
    """`per_class` samples of every class, interleaved; the files and labels in manifest order."""
    rng = np.random.default_rng(seed)
    dataset = [
        (moving_bar(i % CLASSES, height, width, rng), i % CLASSES)
        for i in range(per_class * CLASSES)
    ]
    manifest = data.write_dataset(out_dir, dataset)
    with open(manifest, newline="") as fh:
        return [(out_dir / name, int(label)) for name, label in csv.reader(fh)]
