import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcja_snn.data import (
    DataConfig,
    DataError,
    EventStream,
    FrameSample,
    SyntheticConfig,
    augment,
    cutout,
    frames_dataset,
    hflip,
    integrate_frames,
    load_dataset,
    mixup,
    one_hot,
    read_events,
    roll,
    rotate,
    shear,
    slice_bounds,
    split_train_test,
    write_dataset,
    write_events,
)

import oracles


def toy_stream(n=12, width=8, height=6, seed=0):
    rng = np.random.default_rng(seed)
    return EventStream(
        t=np.sort(rng.integers(0, 10_000, size=n)).astype(np.int64),
        x=rng.integers(0, width, size=n).astype(np.int64),
        y=rng.integers(0, height, size=n).astype(np.int64),
        p=rng.integers(0, 2, size=n).astype(np.int64),
        width=width,
        height=height,
    )


class TestEventIo:
    def test_empty_binary_roundtrip(self, tmp_path):
        empty = EventStream(
            t=np.zeros(0, dtype=np.int64),
            x=np.zeros(0, dtype=np.int64),
            y=np.zeros(0, dtype=np.int64),
            p=np.zeros(0, dtype=np.int64),
            width=4,
            height=4,
        )
        path = tmp_path / "empty.bin"
        write_events(path, empty)
        back = read_events(path)
        assert len(back) == 0 and back.width == 4 and back.height == 4

    def test_zero_by_zero_grid_binary_roundtrip(self, tmp_path):
        # 0 is the u16 header's lowest value: an empty stream on no grid still fits.
        empty = np.zeros(0, dtype=np.int64)
        write_events(tmp_path / "none.bin", EventStream(empty, empty, empty, empty, 0, 0))
        back = read_events(tmp_path / "none.bin")
        assert (len(back), back.width, back.height) == (0, 0, 0)

    def test_csv_roundtrips_through_binary_bit_exactly(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("100,1,2,1\n200,3,0,0\n300,0,4,1\n")
        stream = read_events(csv_path, width=8, height=6)
        bin_path = tmp_path / "events.bin"
        write_events(bin_path, stream)
        back = read_events(bin_path)
        for field in ("t", "x", "y", "p"):
            np.testing.assert_array_equal(getattr(back, field), getattr(stream, field))
        assert (back.width, back.height) == (stream.width, stream.height)
        # Writing again must produce identical bytes.
        bin2 = tmp_path / "events2.bin"
        write_events(bin2, back)
        assert bin2.read_bytes() == bin_path.read_bytes()

    def test_out_of_range_coordinate_names_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("100,1,2,1\n200,9,0,0\n")
        with pytest.raises(DataError, match="record 1"):
            read_events(path, width=8, height=6)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("100,1,2,1\nnot-a-line\n")
        with pytest.raises(DataError, match="line 2"):
            read_events(path, width=8, height=6)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + bytes(8))
        with pytest.raises(DataError, match="byte 0"):
            read_events(path)

    def test_truncated_payload_reports_bytes(self, tmp_path):
        stream = toy_stream(n=3)
        path = tmp_path / "cut.bin"
        write_events(path, stream)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="expected"):
            read_events(path)

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            read_events("/nonexistent/events.bin")

    def test_binary_layout_golden_bytes(self, tmp_path):
        stream = EventStream(
            t=np.array([7, 4_000_000_000]), x=np.array([1, 300]), y=np.array([2, 0]),
            p=np.array([1, 0]), width=320, height=240,
        )
        path = tmp_path / "two.bin"
        write_events(path, stream)
        assert path.read_bytes() == (
            b"TCJAEVT0"
            + struct.pack("<HHI", 320, 240, 2)
            + struct.pack("<IHHB", 7, 1, 2, 1)
            + struct.pack("<IHHB", 4_000_000_000, 300, 0, 0)
        )
        back = read_events(path)
        np.testing.assert_array_equal(back.t, stream.t)
        np.testing.assert_array_equal(back.x, stream.x)

    @pytest.mark.parametrize("t", [[-1, 5], [0, 2**32]])
    def test_timestamp_outside_u32_rejected(self, tmp_path, t):
        zeros = np.zeros(2, dtype=np.int64)
        stream = EventStream(t=np.array(t), x=zeros, y=zeros, p=zeros, width=1, height=1)
        with pytest.raises(DataError, match="timestamps"):
            write_events(tmp_path / "t.bin", stream)

    @pytest.mark.parametrize("sizes", [{"width": 70000, "height": 1}, {"width": 1, "height": 65536}])
    def test_sensor_size_outside_u16_rejected(self, tmp_path, sizes):
        empty = np.zeros(0, dtype=np.int64)
        stream = EventStream(t=empty, x=empty, y=empty, p=empty, **sizes)
        key = "width" if sizes["width"] > 1 else "height"
        with pytest.raises(DataError, match=rf"big\.bin: {key} {sizes[key]} does not fit"):
            write_events(tmp_path / "big.bin", stream)
        assert not (tmp_path / "big.bin").exists()

    def test_csv_needs_both_sizes(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("100,1,2,1\n")
        for sizes in ({}, {"width": 8}, {"height": 6}):
            with pytest.raises(DataError, match="data.width and data.height"):
                read_events(path, **sizes)

    def test_binary_header_must_match_given_size(self, tmp_path):
        path = tmp_path / "events.bin"
        write_events(path, toy_stream(width=8, height=6))
        assert read_events(path, width=8, height=6).width == 8
        with pytest.raises(DataError, match="header width 8 differs from data.width=9"):
            read_events(path, width=9)
        with pytest.raises(DataError, match="header height 6 differs from data.height=5"):
            read_events(path, height=5)


class TestValidate:
    """Each of validate's messages, for the first bad record of its check."""

    def _stream(self, **fields):
        base = {name: np.zeros(4, dtype=np.int64) for name in "txyp"}
        base["t"] = np.arange(4, dtype=np.int64)
        return EventStream(**{**base, **fields}, width=8, height=6)

    def test_valid_streams_pass(self):
        toy_stream().validate()
        self._stream().validate()
        EventStream(*(np.zeros(0, dtype=np.int64),) * 4, width=1, height=1).validate()
        small = {name: np.array([0, 1, 1, 0], dtype=np.uint8) for name in "xyp"}
        self._stream(**small).validate()
        self._stream(p=np.array([False, True, True, False])).validate()

    def test_equal_timestamps_pass(self):
        # Non-decreasing, not increasing: sensors repeat timestamps.
        self._stream(t=np.array([3, 3, 3, 7])).validate()

    def test_field_lengths_differ(self):
        with pytest.raises(DataError, match="^event field lengths differ$"):
            self._stream(y=np.zeros(3, dtype=np.int64)).validate()

    def test_timestamps_decrease(self):
        with pytest.raises(DataError, match="^timestamps must be non-decreasing$"):
            self._stream(t=np.array([0, 5, 5, 4])).validate()

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0, 3, -1, 9], r"^x=-1 out of range \[0, 8\) at record 2$"),
            ([0, 8, -1, 9], r"^x=8 out of range \[0, 8\) at record 1$"),
            ([0, 7, 9, -1], r"^x=9 out of range \[0, 8\) at record 2$"),
            ([0, 2**40, 1, 1], r"^x=1099511627776 out of range \[0, 8\) at record 1$"),
        ],
    )
    def test_x_out_of_range(self, values, message):
        with pytest.raises(DataError, match=message):
            self._stream(x=np.array(values)).validate()

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint16])
    def test_y_out_of_range(self, dtype):
        with pytest.raises(DataError, match=r"^y=6 out of range \[0, 6\) at record 3$"):
            self._stream(y=np.array([0, 5, 1, 6], dtype=dtype)).validate()

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0, 1, 2, 0], r"^polarity 2 not in \{0,1\} at record 2$"),
            ([1, -1, 0, 3], r"^polarity -1 not in \{0,1\} at record 1$"),
        ],
    )
    def test_polarity_outside_zero_one(self, values, message):
        with pytest.raises(DataError, match=message):
            self._stream(p=np.array(values)).validate()

    @pytest.mark.parametrize(
        "name, values, dtype",
        [
            ("x", [0.0, 7.5, 8.0, -1], "float64"),
            ("p", [0.0, 1.0, 1.0, 0.5], "float64"),
            ("p", [np.nan, 1.0, 1.0, 0.0], "float64"),
            ("p", [0.0, 1.0, -0.0, 1.0], "float64"),
            ("t", [0.0, 1.0, 2.0, 3.0], "float32"),
            ("y", [0, 1, 1, 0], "complex128"),
        ],
        ids=["x-fraction", "p-half", "p-nan", "p-whole-floats", "t-float32", "y-complex"],
    )
    def test_a_field_that_is_not_integer_is_refused(self, name, values, dtype):
        # The readers and generators make int64; frames and writers index with integers.
        message = rf"^event field {name} must hold integers, got dtype {dtype}$"
        with pytest.raises(DataError, match=message):
            self._stream(**{name: np.array(values, dtype=dtype)}).validate()

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_write_events_refuses_a_float_field_and_writes_nothing(self, tmp_path, suffix):
        path = tmp_path / f"events{suffix}"
        with pytest.raises(DataError, match="^event field x must hold integers"):
            write_events(path, self._stream(x=np.array([0.0, 1.0, 7.5, 2.0])))
        assert not path.exists()

    def test_a_strided_field_is_checked_as_its_values(self):
        wide = np.array([[0, 9], [3, 9], [-2, 9], [1, 9]], dtype=np.int64)
        with pytest.raises(DataError, match=r"^x=-2 out of range \[0, 8\) at record 2$"):
            self._stream(x=wide[:, 0]).validate()


def _read_or_data_error(path, blob: bytes, **grid) -> None:
    path.write_bytes(blob)
    try:
        read_events(path, **grid)
    except DataError:
        pass


class TestEventFuzz:
    """Any event file or manifest either reads or raises DataError."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200), st.booleans())
    def test_arbitrary_bytes(self, tmp_path_factory, tail, with_header):
        blob = b"TCJAEVT0" + tail if with_header else tail
        _read_or_data_error(tmp_path_factory.getbasetemp() / "fuzz_events.bin", blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncated_or_bit_flipped_file(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_events.bin"
        write_events(path, toy_stream(n=6))
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans()):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)):
                blob[bit // 8] ^= 1 << (bit % 8)
        _read_or_data_error(path, bytes(blob))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200) | st.text("0123456789,-\n", max_size=80).map(str.encode))
    @example(b"99999999999999999999,1,1,1\n")  # past int64
    @example(b"0,1,1,\xff\n")  # not UTF-8
    def test_arbitrary_csv_bytes(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz_events.csv"
        _read_or_data_error(path, blob, width=8, height=6)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    @example(b"a.bin,\xff\n")  # not UTF-8
    @example(b"a.bin," + b"0" * 200_000 + b"\n")  # a field past csv's limit
    def test_arbitrary_manifest_bytes(self, tmp_path_factory, blob):
        root = tmp_path_factory.getbasetemp() / "fuzz_manifest"
        root.mkdir(exist_ok=True)
        write_events(root / "a.bin", toy_stream())
        (root / "manifest.csv").write_bytes(blob)
        try:
            load_dataset(DataConfig(str(root)))
        except DataError:
            pass


class TestIntegration:
    def test_reference_slices(self):
        assert slice_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]

    def test_one_event_per_slice(self):
        n = 7
        bounds = slice_bounds(n, n)
        assert bounds == [(i, i + 1) for i in range(n)]

    def test_too_few_events_rejected(self):
        with pytest.raises(DataError):
            slice_bounds(3, 4)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_slice_widths_follow_floor_formula(self, n, t):
        if n < t:
            with pytest.raises(DataError):
                slice_bounds(n, t)
            return
        bounds = slice_bounds(n, t)
        base = n // t
        assert all(hi - lo == base for lo, hi in bounds[:-1])
        assert bounds[-1][1] - bounds[-1][0] == base + n % t
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_event_count_conserved(self, n, t, seed):
        if n < t:
            return
        stream = toy_stream(n=n, seed=seed)
        sample = integrate_frames(stream, t)
        assert sample.frames.shape == (t, 2, stream.height, stream.width)
        assert sample.frames.sum() == n
        assert np.all(sample.frames >= 0)

    @pytest.mark.parametrize(
        "n, t_steps, silent",
        [(23, 4, None), (5, 5, None), (40, 3, 0), (17, 6, 1)],  # N % T != 0, N == T, one polarity
    )
    def test_matches_per_event_loop(self, n, t_steps, silent):
        stream = toy_stream(n=n, seed=n)
        if silent is not None:
            stream.p[:] = 1 - silent
        expected = oracles.integrate_frames_loops(
            stream.t, stream.x, stream.y, stream.p, stream.width, stream.height, t_steps
        )
        np.testing.assert_array_equal(integrate_frames(stream, t_steps).frames, expected)

    def test_counts_land_in_correct_cells(self):
        stream = EventStream(
            t=np.array([0, 1, 2]),
            x=np.array([1, 1, 0]),
            y=np.array([2, 2, 0]),
            p=np.array([1, 1, 0]),
            width=3,
            height=3,
        )
        sample = integrate_frames(stream, 1)
        assert sample.frames[0, 1, 2, 1] == 2
        assert sample.frames[0, 0, 0, 0] == 1


class TestAugment:
    def frames(self, seed=0, t=3, c=2, h=10, w=10):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 4, size=(t, c, h, w)).astype(np.float64)

    def test_double_flip_is_identity(self):
        f = self.frames()
        np.testing.assert_array_equal(hflip(hflip(f)), f)

    def test_roll_and_inverse_roll(self):
        f = self.frames()
        rolled = roll(roll(f, 0, 2), 0, -2)
        # Interior recovered; the two columns rolled off the edge are zero.
        np.testing.assert_array_equal(rolled[..., :8], f[..., :8])
        np.testing.assert_array_equal(rolled[..., 8:], np.zeros_like(f[..., 8:]))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-15, max_value=15),
    )
    def test_rotate_never_creates_mass(self, seed, deg):
        f = self.frames(seed=seed)
        assert rotate(f, deg).sum() <= f.sum()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-8, max_value=8),
    )
    def test_shear_never_creates_mass(self, seed, deg):
        f = self.frames(seed=seed)
        assert shear(f, deg).sum() <= f.sum()

    def test_zero_rotation_is_identity(self):
        f = self.frames()
        np.testing.assert_array_equal(rotate(f, 0.0), f)

    def test_cutout_only_removes(self):
        f = self.frames()
        out = cutout(f, side=4, cy=5, cx=5)
        assert out.sum() <= f.sum()
        assert np.all(out[:, :, 3:7, 3:7] == 0)

    def test_mixup_lambda_one_keeps_first_sample(self):
        a = FrameSample(self.frames(1), one_hot(4, 2))
        b = FrameSample(self.frames(2), one_hot(4, 0))
        out = mixup(a, b, 1.0)
        np.testing.assert_array_equal(out.frames, a.frames)
        np.testing.assert_array_equal(out.label, a.label)

    def test_mixup_label_sums_to_one_with_two_nonzeros(self):
        a = FrameSample(self.frames(1), one_hot(4, 2))
        b = FrameSample(self.frames(2), one_hot(4, 0))
        out = mixup(a, b, 0.3)
        assert out.label.sum() == pytest.approx(1.0)
        assert np.count_nonzero(out.label) <= 2

    def test_pipeline_keeps_frames_non_negative(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            a = FrameSample(self.frames(seed), one_hot(4, seed % 4))
            b = FrameSample(self.frames(seed + 100), one_hot(4, (seed + 1) % 4))
            out = augment(a, rng, partner=b)
            assert np.all(out.frames >= 0)
            assert out.label.sum() == pytest.approx(1.0)

    def test_pipeline_matches_recorded_digest(self, monkeypatch):
        # A non-square frame with a partner, over enough draws to take every
        # flip, mixup weight and geometry branch several times.
        from tcja_snn import data

        taken = []
        for name in ("roll", "rotate", "cutout", "shear"):
            op = getattr(data, name)
            monkeypatch.setattr(data, name, lambda *args, op=op: taken.append(op) or op(*args))
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for i in range(48):
            a = FrameSample(self.frames(i, h=9, w=14), one_hot(4, i % 4))
            b = FrameSample(self.frames(i + 100, h=9, w=14), one_hot(4, (i + 1) % 4))
            out = augment(a, rng, partner=b)
            digest.update(out.frames.tobytes() + out.label.tobytes())
        assert {op.__name__ for op in taken} == {"roll", "rotate", "cutout", "shear"}
        assert digest.hexdigest() == (
            "b4835780dec3d77b6a2ba8c0ec33fc26f65840bd3e468d9e53b77dc03a8bceb6"
        )

    def test_pipeline_deterministic_under_seed(self):
        a = FrameSample(self.frames(1), one_hot(4, 1))
        b = FrameSample(self.frames(2), one_hot(4, 3))
        out1 = augment(a, np.random.default_rng(5), partner=b)
        out2 = augment(a, np.random.default_rng(5), partner=b)
        np.testing.assert_array_equal(out1.frames, out2.frames)
        np.testing.assert_array_equal(out1.label, out2.label)


class TestSplit:
    def labeled(self, per_class=10, classes=10):
        samples = [f"s{i}" for i in range(per_class * classes)]
        labels = [i % classes for i in range(per_class * classes)]
        return samples, labels

    def test_exact_nine_to_one(self):
        samples, labels = self.labeled()
        train, test = split_train_test(samples, labels, seed=0)
        assert len(train) == 90 and len(test) == 10
        label_of = dict(zip(samples, labels))
        for cls in range(10):
            assert sum(1 for s in test if label_of[s] == cls) == 1

    def test_disjoint_and_complete(self):
        samples, labels = self.labeled(per_class=13, classes=4)
        train, test = split_train_test(samples, labels, seed=3)
        assert set(train) | set(test) == set(samples)
        assert not set(train) & set(test)

    def test_same_seed_identical(self):
        samples, labels = self.labeled()
        assert split_train_test(samples, labels, 7) == split_train_test(samples, labels, 7)

    def test_different_seeds_differ(self):
        samples, labels = self.labeled(per_class=30)
        a = split_train_test(samples, labels, 1)
        b = split_train_test(samples, labels, 2)
        assert a != b

    def test_fifteen_members_give_one_test_sample(self):
        samples, labels = self.labeled(per_class=15, classes=3)
        train, test = split_train_test(samples, labels, seed=4)
        assert len(train) == 42 and len(test) == 3
        label_of = dict(zip(samples, labels))
        assert sorted(label_of[s] for s in test) == [0, 1, 2]

    def test_small_class_rejected(self):
        with pytest.raises(DataError, match="class 1"):
            split_train_test(list(range(15)), [0] * 10 + [1] * 5, seed=0)


class TestSynthetic:
    def test_two_classes_have_disjoint_late_footprints(self):
        grid = SyntheticConfig(height=12, width=12, n_train=2, seed=0, noise_per_tick=0)
        dataset = grid.generate(classes=2, t_steps=6)
        frames = {label: integrate_frames(s, 6).frames for s, label in dataset}
        # Last slice: ON events of an east-moving bar sit in the right half,
        # a west-moving bar in the left half.
        east = frames[0][-1, 1]
        west = frames[1][-1, 1]
        overlap = np.logical_and(east > 0, west > 0)
        assert not overlap.any()
        assert east[:, 6:].sum() > 0 and east[:, :6].sum() == 0
        assert west[:, :6].sum() > 0 and west[:, 6:].sum() == 0

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        kwargs = dict(height=16, width=16, n_train=8, seed=42)
        write_dataset(tmp_path / "a", SyntheticConfig(**kwargs).generate(classes=4, t_steps=8))
        write_dataset(tmp_path / "b", SyntheticConfig(**kwargs).generate(classes=4, t_steps=8))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_written_bytes_match_recorded_digest(self, tmp_path):
        # Guards both on-disk event formats: the digest was taken when the
        # binary writer still packed one struct per record.
        digest = hashlib.sha256()
        for fmt in ("bin", "csv"):
            out = tmp_path / fmt
            dataset = SyntheticConfig(n_train=8, seed=0).generate(classes=4, t_steps=8)
            write_dataset(out, dataset, fmt=fmt)
            for f in sorted(out.iterdir()):
                digest.update(f"{fmt}/{f.name}\n".encode())
                digest.update(f.read_bytes())
        assert digest.hexdigest() == (
            "fbf3ae9a750538b136af5a41e73d85e12082ac76395203979dbb1e2cc54a3cce"
        )

    def test_generated_streams_conserve_count_through_integration(self):
        grid = SyntheticConfig(height=10, width=10, n_train=8, seed=1)
        for stream, _ in grid.generate(classes=8, t_steps=5):
            sample = integrate_frames(stream, 5)
            assert sample.frames.sum() == len(stream)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_test": -1}, "n_test must be >= 0, got -1"),
        ({"noise_per_tick": -2}, "noise_per_tick must be >= 0, got -2"),
        ({"height": 0}, "height must be >= 1, got 0"),
        ({"width": -3}, "width must be >= 1, got -3"),
        ({"t_steps": 0}, "t_steps must be >= 1, got 0"),
        ({"n_train": 0}, "n_train must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_argument_named(self, kwargs, message):
        # The six SyntheticConfig fields, and the generator's own t_steps.
        fields = {key: value for key, value in kwargs.items() if key != "t_steps"}
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            SyntheticConfig(**fields).generate(classes=4, t_steps=kwargs.get("t_steps", 8))
        assert not isinstance(err.value, DataError)

    def test_each_floor_itself_is_accepted(self):
        grid = SyntheticConfig(height=1, width=1, n_train=1, n_test=0, seed=0, noise_per_tick=0)
        assert len(grid.generate(classes=2, t_steps=1)) == 1
        assert grid.generate(classes=2, t_steps=1, test=True) == []

    def test_test_set_is_drawn_at_the_next_seed(self):
        grid = SyntheticConfig(height=8, width=8, n_train=3, n_test=2, seed=4)
        test = grid.generate(classes=4, t_steps=4, test=True)
        train = SyntheticConfig(height=8, width=8, n_train=2, seed=5).generate(4, t_steps=4)
        assert [len(stream) for stream, _ in test] == [len(stream) for stream, _ in train]
        for (mine, _), (theirs, _) in zip(test, train):
            assert all(np.array_equal(getattr(mine, f), getattr(theirs, f)) for f in "txyp")

    def test_unsupported_class_count(self):
        # A setting, not the data, is wrong: the CLI reports it as a config error.
        with pytest.raises(ValueError, match="classes must be one of") as err:
            SyntheticConfig().generate(classes=3, t_steps=8)
        assert not isinstance(err.value, DataError)

    def test_eight_classes_on_a_non_square_grid_match_recorded_digest(self, tmp_path):
        # Every direction, the diagonal ones included, and enough streams for
        # the bar length to reach both ends of its range.
        grid = SyntheticConfig(height=9, width=14, n_train=48, seed=11, noise_per_tick=2)
        write_dataset(tmp_path, grid.generate(classes=8, t_steps=6))
        digest = hashlib.sha256()
        for f in sorted(tmp_path.iterdir()):
            digest.update(f"{f.name}\n".encode() + f.read_bytes())
        assert digest.hexdigest() == (
            "893203b769550c98e0a5797dbbc7a26f466bc551f3c20cb299147cfd2e417ef9"
        )

    def test_one_cell_one_tick(self):
        # One tick leaves no progress to divide by; a one-cell grid has no bar.
        dataset = SyntheticConfig(height=1, width=1, n_train=4, seed=0).generate(2, t_steps=1)
        for stream, _ in dataset:
            assert len(stream) == 1 and stream.x[0] == stream.y[0] == 0
            assert integrate_frames(stream, 1).frames.sum() == 1

    def test_labels_cycle_through_classes(self):
        dataset = SyntheticConfig(n_train=8, seed=0).generate(classes=4, t_steps=8)
        assert [label for _, label in dataset] == [0, 1, 2, 3, 0, 1, 2, 3]


class TestDatasetDir:
    def test_write_then_load_roundtrip(self, tmp_path):
        dataset = SyntheticConfig(height=8, width=8, n_train=8, seed=3).generate(4, t_steps=4)
        write_dataset(tmp_path, dataset, fmt="bin")
        back = load_dataset(DataConfig(str(tmp_path)))
        assert len(back) == 8
        for (s1, l1), (s2, l2) in zip(dataset, back):
            assert l1 == l2
            np.testing.assert_array_equal(s1.t, s2.t)
            np.testing.assert_array_equal(s1.x, s2.x)

    def test_csv_dataset_roundtrip(self, tmp_path):
        dataset = SyntheticConfig(height=8, width=8, n_train=4, seed=3).generate(2, t_steps=4)
        write_dataset(tmp_path, dataset, fmt="csv")
        back = load_dataset(DataConfig(str(tmp_path), width=8, height=8))
        for (s1, _), (s2, _) in zip(dataset, back):
            np.testing.assert_array_equal(s1.t, s2.t)

    def test_mixed_grid_dataset_names_the_file(self, tmp_path):
        small = SyntheticConfig(height=6, width=6, n_train=1, seed=0).generate(2, t_steps=4)
        large = SyntheticConfig(height=8, width=8, n_train=2, seed=0).generate(2, t_steps=4)
        write_dataset(tmp_path, large + small)
        with pytest.raises(DataError, match="sample_00002.bin: sensor grid 6x6 differs"):
            load_dataset(DataConfig(str(tmp_path)))

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("key", ["width", "height"])
    def test_sensor_size_below_one_is_a_setting_error(self, tmp_path, fmt, key):
        # Not a data fault: before the floor, a CSV dataset read width=0 as an
        # event out of range and a binary one as a header that differs.
        dataset = SyntheticConfig(height=8, width=8, n_train=2, seed=0).generate(2, t_steps=4)
        write_dataset(tmp_path, dataset, fmt=fmt)
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$") as err:
            load_dataset(DataConfig(str(tmp_path), **{"width": 8, "height": 8, key: 0}))
        assert not isinstance(err.value, DataError)
        assert len(load_dataset(DataConfig(str(tmp_path), width=8, height=8))) == 2

    def test_unset_or_one_cell_sensor_size_is_accepted(self):
        assert DataConfig(width=1, height=1).width == 1
        assert DataConfig(width=None, height=None).height is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(DataConfig(str(tmp_path)))

    def test_frames_dataset_attaches_one_hot(self):
        dataset = SyntheticConfig(height=8, width=8, n_train=4, seed=5).generate(4, t_steps=4)
        samples = frames_dataset(dataset, t_steps=4, num_classes=4)
        for sample, (_, label) in zip(samples, dataset):
            assert sample.label.shape == (4,)
            assert sample.class_index == label
