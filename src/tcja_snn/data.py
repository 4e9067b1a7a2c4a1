"""Event streams, frame integration, augmentation, and synthetic data.

Streams hold (t, x, y, p) records with microsecond timestamps and 0/1
polarity. Integration slices a stream of N events into T groups of
floor(N/T) events (the last group absorbs the remainder) and counts
events per (polarity, x, y) cell, yielding a (T, 2, H, W) stack of
non-negative counts. Geometric augmentations move counts by forward
nearest-neighbor scatter with zero fill, so total event mass never
increases; pixels pushed past the border are dropped.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVENT_MAGIC = b"TCJAEVT0"
_HEADER = struct.Struct("<HHI")  # width, height, count (after the 8-byte magic)
_RECORD = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])  # packed, 9 bytes


class DataError(ValueError):
    """Raised for unreadable, malformed, or out-of-contract data."""


@dataclass
class EventStream:
    """Time-ordered events plus the sensor resolution they live on."""

    t: np.ndarray  # microseconds, non-decreasing
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray  # polarity in {0, 1}
    width: int
    height: int

    def __len__(self) -> int:
        return len(self.t)

    def validate(self) -> None:
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise DataError("event field lengths differ")
        for name in "txyp":
            if (dtype := getattr(self, name).dtype).kind not in "biu":
                raise DataError(f"event field {name} must hold integers, got dtype {dtype}")
        if np.count_nonzero(self.t[1:] < self.t[:-1]):
            raise DataError("timestamps must be non-decreasing")
        for name, arr, bound in (("x", self.x, self.width), ("y", self.y, self.height)):
            bad = _outside(arr, bound)
            if np.count_nonzero(bad):
                at = np.flatnonzero(bad)[0]
                raise DataError(f"{name}={arr[at]} out of range [0, {bound}) at record {at}")
        bad = _outside(self.p, 2)
        if np.count_nonzero(bad):
            at = np.flatnonzero(bad)[0]
            raise DataError(f"polarity {self.p[at]} not in {{0,1}} at record {at}")


def _outside(arr: np.ndarray, bound: int) -> np.ndarray:
    """Mask of the integer entries outside [0, bound), in one comparison:
    read as unsigned, a negative one is larger than any bound."""
    return arr.view(f"u{arr.itemsize}") >= bound


@dataclass
class FrameSample:
    """Integrated frames (T, C, H, W) and a probability-vector label."""

    frames: np.ndarray
    label: np.ndarray | None = None

    @property
    def class_index(self) -> int:
        if self.label is None:
            raise DataError("sample has no label")
        return int(np.argmax(self.label))


def one_hot(num_classes: int, index: int) -> np.ndarray:
    vec = np.zeros(num_classes)
    vec[index] = 1.0
    return vec


# -- readers and writers -------------------------------------------------------


def read_events(
    path: str | Path, width: int | None = None, height: int | None = None
) -> EventStream:
    """Load a CSV ("t,x,y,p" lines) file if the suffix is .csv, else a binary one.

    A binary file is `EVENT_MAGIC`, one `_HEADER` (width, height, count) and
    `count` packed `_RECORD`s. CSV lines carry no sensor size, so `width`
    and `height` are required for them; a binary header must agree with
    whichever of the two are given.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"event file not found: {path}")
    if path.suffix == ".csv":
        if width is None or height is None:
            raise DataError(f"{path}: CSV events need the sensor size; set data.width and data.height")
        stream = _read_csv(path, width, height)
    else:
        stream = _read_bin(path)
        for key, want, got in (("width", width, stream.width), ("height", height, stream.height)):
            if want is not None and want != got:
                raise DataError(f"{path}: header {key} {got} differs from data.{key}={want}")
    stream.validate()
    return stream


def _read_csv(path: Path, width: int, height: int) -> EventStream:
    rows = []
    try:
        with open(path, newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise DataError(f"{path}: malformed line {lineno}: {line!r}")
                try:
                    rows.append(tuple(int(v) for v in parts))
                except ValueError:
                    raise DataError(f"{path}: malformed line {lineno}: {line!r}") from None
        arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    except (UnicodeDecodeError, OverflowError) as err:  # not text, or a value past int64
        raise DataError(f"{path}: {err}") from None
    return EventStream(*arr.T, width=width, height=height)


def _read_bin(path: Path) -> EventStream:
    blob = path.read_bytes()
    if len(blob) < 8 + _HEADER.size:
        raise DataError(f"{path}: truncated header at byte {len(blob)}")
    if blob[:8] != EVENT_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:8]!r} at byte 0")
    width, height, count = _HEADER.unpack_from(blob, 8)
    offset = 8 + _HEADER.size
    expected = offset + count * _RECORD.itemsize
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {count} records, got {len(blob)}"
            f" (payload starts at byte {offset})"
        )
    rec = np.frombuffer(blob, dtype=_RECORD, count=count, offset=offset)
    return EventStream(*(rec[f].astype(np.int64) for f in _RECORD.names), width=width, height=height)


def write_events(path: str | Path, stream: EventStream) -> None:
    """Write CSV if the suffix is .csv, else the binary format."""
    path = Path(path)
    stream.validate()
    if path.suffix == ".csv":
        with open(path, "w", newline="") as fh:
            columns = np.column_stack((stream.t, stream.x, stream.y, stream.p))
            np.savetxt(fh, columns, fmt="%d", delimiter=",")
        return
    for key in ("width", "height"):
        if not 0 <= getattr(stream, key) < 2**16:
            raise DataError(f"{path}: {key} {getattr(stream, key)} does not fit the u16 header")
    # Timestamps are non-decreasing, so the ends bound them; numpy would wrap.
    if len(stream) and not (0 <= stream.t[0] and stream.t[-1] < 2**32):
        raise DataError(
            f"{path}: timestamps must lie in [0, 2**32), got {stream.t[0]}..{stream.t[-1]}"
        )
    rec = np.empty(len(stream), dtype=_RECORD)
    for name in _RECORD.names:
        rec[name] = getattr(stream, name)
    header = _HEADER.pack(stream.width, stream.height, len(stream))
    path.write_bytes(EVENT_MAGIC + header + rec.tobytes())


# -- frame integration -----------------------------------------------------------


def slice_bounds(n_events: int, t_steps: int) -> list[tuple[int, int]]:
    """Index ranges of the T event groups: floor(N/T) each, remainder in the last."""
    if t_steps < 1:
        raise DataError(f"need at least one time step, got {t_steps}")
    if n_events < t_steps:
        raise DataError(f"{n_events} events cannot fill {t_steps} time steps")
    base = n_events // t_steps
    bounds = []
    for j in range(t_steps):
        lo = base * j
        hi = base * (j + 1) if j < t_steps - 1 else n_events
        bounds.append((lo, hi))
    return bounds


def integrate_frames(
    stream: EventStream, t_steps: int, label: np.ndarray | None = None
) -> FrameSample:
    """Count events per (polarity, x, y) cell within each time slice."""
    sizes = [hi - lo for lo, hi in slice_bounds(len(stream), t_steps)]
    step = np.repeat(np.arange(t_steps), sizes)
    shape = (t_steps, 2, stream.height, stream.width)
    cells = np.ravel_multi_index((step, stream.p, stream.y, stream.x), shape)
    counts = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
    return FrameSample(frames=counts.astype(np.float64), label=label)


# -- augmentation -----------------------------------------------------------------

# The fixed policy `augment` applies.
FLIP_PROB = 0.5
MIXUP_ALPHA = 0.5
ROLL_MAX = 5
ROTATE_DEG = 15.0
CUTOUT_MAX = 8
SHEAR_DEG = 8.0


def _scatter_transform(frames: np.ndarray, map_xy) -> np.ndarray:
    """Move each pixel's count to its transformed location (nearest, zero fill)."""
    _, _, height, width = frames.shape
    ys, xs = np.mgrid[0:height, 0:width]
    nx, ny = map_xy(xs.astype(np.float64), ys.astype(np.float64))
    nx = np.rint(nx).astype(np.int64)
    ny = np.rint(ny).astype(np.int64)
    keep = (nx >= 0) & (nx < width) & (ny >= 0) & (ny < height)
    out = np.zeros_like(frames)
    src_y, src_x = ys[keep], xs[keep]
    np.add.at(out, (slice(None), slice(None), ny[keep], nx[keep]), frames[:, :, src_y, src_x])
    return out


def hflip(frames: np.ndarray) -> np.ndarray:
    return frames[..., ::-1].copy()


def roll(frames: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift with zero fill (no wraparound)."""
    return _scatter_transform(frames, lambda x, y: (x + dx, y + dy))


def rotate(frames: np.ndarray, degrees: float) -> np.ndarray:
    rad = math.radians(degrees)
    c, s = math.cos(rad), math.sin(rad)
    cy = (frames.shape[2] - 1) / 2.0
    cx = (frames.shape[3] - 1) / 2.0

    def map_xy(x, y):
        xr, yr = x - cx, y - cy
        return (c * xr - s * yr + cx, s * xr + c * yr + cy)

    return _scatter_transform(frames, map_xy)


def shear(frames: np.ndarray, degrees: float) -> np.ndarray:
    k = math.tan(math.radians(degrees))
    cy = (frames.shape[2] - 1) / 2.0
    return _scatter_transform(frames, lambda x, y: (x + k * (y - cy), y))


def cutout(frames: np.ndarray, side: int, cy: int, cx: int) -> np.ndarray:
    out = frames.copy()
    h, w = frames.shape[2], frames.shape[3]
    y0, y1 = max(0, cy - side // 2), min(h, cy - side // 2 + side)
    x0, x1 = max(0, cx - side // 2), min(w, cx - side // 2 + side)
    out[:, :, y0:y1, x0:x1] = 0
    return out


def mixup(sample: FrameSample, partner: FrameSample, lam: float) -> FrameSample:
    frames = lam * sample.frames + (1.0 - lam) * partner.frames
    if sample.label is None or partner.label is None:
        raise DataError("mixup needs labeled samples")
    label = lam * sample.label + (1.0 - lam) * partner.label
    return FrameSample(frames=frames, label=label)


def augment(
    sample: FrameSample, rng: np.random.Generator, partner: FrameSample | None = None
) -> FrameSample:
    """Training-time pipeline: maybe flip, mix up with `partner` if one is given,
    then one geometry op."""
    out = FrameSample(frames=sample.frames, label=sample.label)
    if rng.random() < FLIP_PROB:
        out = FrameSample(frames=hflip(out.frames), label=out.label)
    if partner is not None:
        lam = float(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA))
        out = mixup(out, partner, lam)
    choice = rng.integers(0, 4)
    if choice == 0:
        dy = int(rng.integers(-ROLL_MAX, ROLL_MAX + 1))
        dx = int(rng.integers(-ROLL_MAX, ROLL_MAX + 1))
        frames = roll(out.frames, dy, dx)
    elif choice == 1:
        frames = rotate(out.frames, float(rng.uniform(-ROTATE_DEG, ROTATE_DEG)))
    elif choice == 2:
        side = int(rng.integers(1, CUTOUT_MAX + 1))
        cy = int(rng.integers(0, out.frames.shape[2]))
        cx = int(rng.integers(0, out.frames.shape[3]))
        frames = cutout(out.frames, side, cy, cx)
    else:
        frames = shear(out.frames, float(rng.uniform(-SHEAR_DEG, SHEAR_DEG)))
    return FrameSample(frames=frames, label=out.label)


# -- splitting --------------------------------------------------------------------


def split_train_test(samples: list, labels: list[int], seed: int) -> tuple[list, list]:
    """Deterministic stratified 9:1 split; every class needs >= 10 samples."""
    if len(samples) != len(labels):
        raise DataError("samples and labels differ in length")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(int(lab), []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for lab in sorted(by_class):
        members = by_class[lab]
        if len(members) < 10:
            raise DataError(f"class {lab} has only {len(members)} samples (< 10)")
        order = rng.permutation(len(members))
        n_test = len(members) // 10
        for rank, pos in enumerate(order):
            (test_idx if rank < n_test else train_idx).append(members[pos])
    train_idx.sort()
    test_idx.sort()
    return [samples[i] for i in train_idx], [samples[i] for i in test_idx]


# -- synthetic moving-bar dataset ---------------------------------------------------


_EVENTS_PER_CELL = 3
# The class counts the generator supports: the bar sweeps along the first
# 2, 4 or 8 of its directions.
SYNTHETIC_CLASSES = (2, 4, 8)

_DIRECTIONS = (
    (1, 0),  # east
    (-1, 0),  # west
    (0, 1),  # south
    (0, -1),  # north
    (1, 1),  # southeast
    (-1, -1),  # northwest
    (1, -1),  # northeast
    (-1, 1),  # southwest
)


def gen_synthetic(
    classes: int = 4,
    height: int = 16,
    width: int = 16,
    t_steps: int = 8,
    n: int = 100,
    seed: int = 0,
    noise_per_tick: int = 1,
) -> list[tuple[EventStream, int]]:
    """Labeled event streams of a bright bar sweeping in one of `classes` directions.

    Each bar cell emits three events per tick, mimicking the burst a sensor
    produces per brightness change; this keeps integrated count frames
    strong enough to drive spiking layers.
    """
    if classes not in SYNTHETIC_CLASSES:
        raise ValueError(f"classes must be one of {SYNTHETIC_CLASSES}, got {classes}")
    for name, value, low in (("height", height, 1), ("width", width, 1), ("t_steps", t_steps, 1),
                             ("n", n, 0), ("noise_per_tick", noise_per_tick, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    rng = np.random.default_rng(seed)
    ticks = t_steps * max(1, round(max(height, width) / t_steps))
    dataset = []
    for i in range(n):
        label = i % classes
        dataset.append(
            (_moving_bar_stream(label, height, width, ticks, rng, noise_per_tick), label)
        )
    return dataset


def _moving_bar_stream(
    direction: int, height: int, width: int, ticks: int, rng: np.random.Generator,
    noise_per_tick: int,
) -> EventStream:
    dx, dy = _DIRECTIONS[direction]
    span = max(height, width) - 1
    bar_len = int(rng.integers(round(0.7 * span), span + 1))
    jitter = int(rng.integers(-1, 2))
    # Bar lies perpendicular to the motion; offsets sweep along its length.
    ox, oy = (-dy, dx) if (dx and dy) else ((0, 1) if dx else (1, 0))
    cx0 = (width - 1) / 2.0 - dx * span / 2.0
    cy0 = (height - 1) / 2.0 - dy * span / 2.0
    events: list[tuple[int, int, int, int]] = []  # (t, x, y, p)
    prev_cells: set[tuple[int, int]] = set()
    for tick in range(ticks):
        prog = tick / (ticks - 1) if ticks > 1 else 0.0
        cx = cx0 + dx * span * prog + jitter
        cy = cy0 + dy * span * prog + jitter
        cells = set()
        for s in range(-(bar_len // 2), bar_len - bar_len // 2):
            px = int(round(cx + ox * s))
            py = int(round(cy + oy * s))
            if 0 <= px < width and 0 <= py < height:
                cells.add((px, py))
        # ON where the bar is now, then OFF where it just left, then noise;
        # the tick's n-th event comes n microseconds after its start.
        tick_events = [(px, py, polarity)
                       for area, polarity in ((cells, 1), (prev_cells - cells, 0))
                       for px, py in sorted(area) for _ in range(_EVENTS_PER_CELL)]
        for _ in range(noise_per_tick):
            tick_events.append((int(rng.integers(0, width)), int(rng.integers(0, height)),
                                int(rng.integers(0, 2))))
        events += [(tick * 1000 + seq, *xyp) for seq, xyp in enumerate(tick_events)]
        prev_cells = cells
    columns = np.asarray(events, dtype=np.int64).reshape(-1, 4).T
    stream = EventStream(*columns, width=width, height=height)
    stream.validate()
    return stream


# -- dataset directories -------------------------------------------------------------


def write_dataset(
    out_dir: str | Path, dataset: list[tuple[EventStream, int]], fmt: str = "bin"
) -> Path:
    """One event file per sample plus a "path,label" manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "bin"
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, (stream, label) in enumerate(dataset):
            name = f"sample_{i:05d}.{ext}"
            write_events(out_dir / name, stream)
            writer.writerow([name, label])
    return manifest


def load_dataset(
    root: str | Path,
    width: int | None = None,
    height: int | None = None,
) -> list[tuple[EventStream, int]]:
    """Read a manifest directory back into labeled streams on one sensor grid."""
    root = Path(root)
    manifest = root / "manifest.csv"
    if not manifest.is_file():
        raise DataError(f"manifest not found: {manifest}")
    try:
        with open(manifest, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as err:  # not text, or a field past csv's limit
        raise DataError(f"{manifest}: {err}") from None
    dataset = []
    grid = None
    for lineno, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{manifest}: malformed line {lineno}: {row!r}")
        path, label = row
        if not label.strip().isdecimal():
            raise DataError(
                f"{manifest}: line {lineno}: label {label!r} is not a non-negative integer"
            )
        stream = read_events(root / path, width=width, height=height)
        grid = grid or (stream.width, stream.height)
        if (stream.width, stream.height) != grid:
            raise DataError(
                f"{root / path}: sensor grid {stream.width}x{stream.height} differs from"
                f" the first file's {grid[0]}x{grid[1]}"
            )
        dataset.append((stream, int(label)))
    if not dataset:
        raise DataError(f"{manifest}: manifest lists no samples")
    return dataset


def frames_dataset(
    dataset: list[tuple[EventStream, int]], t_steps: int, num_classes: int
) -> list[FrameSample]:
    """Integrate every stream and attach one-hot labels."""
    return [
        integrate_frames(stream, t_steps, label=one_hot(num_classes, label))
        for stream, label in dataset
    ]
