import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from tcja_snn import tensor
from tcja_snn.network import PRESETS, build_network, parse_arch
from tcja_snn.tensor import ShapeError, Tensor, conv2d, fully_connected, no_grad, pool2d

import oracles


def grad_check(build_inputs, forward, n_cases=5, seed=0, tol=1e-4):
    """Compare reverse-mode grads of sum(forward(*xs) * R) against central FD."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        arrays = build_inputs(rng)
        probe = None

        def scalar_of(arrs):
            nonlocal probe
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrs]
            out = forward(*ts)
            if probe is None:
                probe = rng.standard_normal(out.shape)
            return oracles.probe_sum(out, probe), ts

        loss, tensors = scalar_of(arrays)
        loss.backward()
        for idx, t in enumerate(tensors):
            def f(x, idx=idx):
                trial = [a.copy() for a in arrays]
                trial[idx] = x
                return scalar_of(trial)[0].item()

            fd = oracles.finite_difference_grad(f, arrays[idx].copy())
            err = oracles.relative_error(t.grad, fd)
            assert err < tol, f"input {idx}: relative error {err}"


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bytes, so -0.0 and +0.0 differ."""
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def conv2d_at_padding(x: np.ndarray, kernel: np.ndarray, padding: int, g: np.ndarray):
    """conv2d's output, input gradient and kernel gradient at any zero
    padding of an odd kernel, under the output gradient `g`, for the oracles
    that take any padding. At p = k//2 this is conv2d itself.

    Padding p > k//2 is conv2d of the input zero-padded by p - k//2 more, the
    extra rows and columns dropped from the input gradient. Padding p < k//2
    is conv2d's output cropped by k//2 - p, its gradient zero on the crop.
    """
    half = kernel.shape[-1] // 2
    grow, crop = max(padding - half, 0), max(half - padding, 0)
    xt = Tensor(np.pad(x, [(0, 0)] * (x.ndim - 2) + [(grow, grow)] * 2), requires_grad=True)
    kt = Tensor(kernel, requires_grad=True)
    out = conv2d(xt, kt)
    inner = (..., slice(crop, out.shape[-2] - crop), slice(crop, out.shape[-1] - crop))
    g_full = np.zeros(out.shape, dtype=g.dtype)
    g_full[inner] = g
    oracles.probe_sum(out, g_full).backward()
    rows, cols = slice(grow, xt.shape[-2] - grow), slice(grow, xt.shape[-1] - grow)
    return out.data[inner], xt.grad[..., rows, cols], kt.grad


def im2col_at_padding(images: np.ndarray, k: int, padding: int) -> np.ndarray:
    """tensor._im2col's columns at any zero padding of an odd k, laid out as
    oracles.im2col_padded lays them out. At p = k//2 this is _im2col itself.

    Padding p > k//2 is _im2col of the images zero-padded by p - k//2 more;
    padding p < k//2 keeps the columns of the output positions cropped by
    k//2 - p on every side.
    """
    half = k // 2
    grow, crop = max(padding - half, 0), max(half - padding, 0)
    padded = np.pad(images, ((0, 0), (0, 0), (grow, grow), (grow, grow)))
    batch, rows = len(padded), images.shape[1] * k * k
    height, width = padded.shape[-2:]
    grid = tensor._im2col(padded, k).reshape(batch, rows, height, width)
    return grid[..., crop : height - crop, crop : width - crop].reshape(batch, rows, -1)

class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert oracles.sigmoid(Tensor(np.zeros(3))).data == pytest.approx([0.5, 0.5, 0.5])

    def test_multiply_by_ones_is_identity(self):
        x = np.array([[1.5, -2.0], [0.25, 3.0]])
        out = oracles.mul(Tensor(x), Tensor(np.ones_like(x)))
        np.testing.assert_array_equal(out.data, x)

    def test_add(self):
        out = oracles.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_broadcast_add(self):
        out = oracles.add(Tensor(np.ones((2, 3))), Tensor(np.array([10.0, 20.0, 30.0])))
        np.testing.assert_array_equal(out.data, [[11, 21, 31], [11, 21, 31]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            oracles.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_scalar_ops_preserve_dtype(self):
        x = Tensor(np.ones(4, dtype=np.float32))
        assert oracles.mul(x, 2.0).dtype == np.float32
        assert oracles.sub(1.0, x).dtype == np.float32

    def test_broadcast_conservation(self):
        # A (C, T) map spread over HxW then summed equals H*W times its sum.
        rng = np.random.default_rng(3)
        fmap = rng.standard_normal((5, 4))
        h = w = 6
        spread = oracles.mul(Tensor(fmap.T.reshape(4, 5, 1, 1)), Tensor(np.ones((4, 5, h, w))))
        assert oracles.total(spread).item() == pytest.approx(h * w * fmap.sum(), rel=1e-12)


class TestConv2d:
    def test_all_ones_sums_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        # Each output sums the window's taps that fall inside the image.
        np.testing.assert_array_equal(out.data, [[[[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]]])

    def test_dirac_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, oracles.conv2d_loops(x, k, 1, 1), atol=1e-12)

    # conv2d pads an odd k by k//2 at stride 1; other paddings run through
    # conv2d_at_padding. The oracles take any stride and padding.
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2)])
    def test_stride_padding_match_oracle(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 6, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        g = np.ones((1, 3, 6 + 2 * padding - 2, 6 + 2 * padding - 2))
        out, _, _ = conv2d_at_padding(x, k, padding, g)
        np.testing.assert_allclose(
            out, oracles.conv2d_loops(x, k, stride, padding), atol=1e-12
        )

    @pytest.mark.parametrize(
        "ksize,padding,stride", [(k, p, 1) for k in (3, 1, 5) for p in (0, 1, 2) if p < k]
    )
    def test_input_grad_matches_scatter(self, ksize, padding, stride):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.standard_normal((2, 3, 7, 6))
        k = rng.standard_normal((4, 3, ksize, ksize))
        grown = 2 * padding - ksize + 1
        g = rng.standard_normal((2, 4, 7 + grown, 6 + grown))
        _, dx, _ = conv2d_at_padding(x, k, padding, g)
        want = oracles.conv2d_input_grad_scatter(g, k, x.shape, stride, padding)
        np.testing.assert_allclose(dx, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out", [(2, 5), (5, 2)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("ksize,padding", [(k, p) for k in (1, 3, 5) for p in range(k)])
    def test_all_three_match_loop_oracles(self, ksize, padding, batch, c_in, c_out):
        rng = np.random.default_rng(100 * ksize + 10 * padding + batch)
        x = rng.standard_normal((batch, c_in, 7, 6))
        k = rng.standard_normal((c_out, c_in, ksize, ksize))
        grown = 2 * padding - ksize + 1
        g = rng.standard_normal((batch, c_out, 7 + grown, 6 + grown))
        out, dx, dk = conv2d_at_padding(x, k, padding, g)
        tol = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, oracles.conv2d_loops(x, k, 1, padding), **tol)
        np.testing.assert_allclose(
            dk, oracles.conv2d_kernel_grad_loops(x, g, ksize, padding), **tol
        )
        np.testing.assert_allclose(
            dx, oracles.conv2d_input_grad_scatter(g, k, x.shape, 1, padding), **tol
        )

    def test_taps_oracle_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 5))
        k = rng.standard_normal((4, 3, 3, 3))
        np.testing.assert_allclose(
            oracles.conv2d_taps(x, k, 1), oracles.conv2d_loops(x, k, 1, 1), rtol=0, atol=1e-12
        )

    def test_f32_scaled_train_layer_matches_f64_oracles(self):
        # The 64 -> 64 conv of the scaled-train preset: 20%-dense spikes in,
        # T = 14 as the batch. Every figure is held to 1e-5 of the largest
        # magnitude of its f64 reference (each output sums 576 products).
        rng = np.random.default_rng(64)
        x64 = (rng.random((14, 64, 16, 16)) < 0.2).astype(np.float64)
        k64 = rng.standard_normal((64, 64, 3, 3)) * 0.1
        g64 = rng.standard_normal((14, 64, 16, 16))
        x = Tensor(x64.astype(np.float32), requires_grad=True)
        k = Tensor(k64.astype(np.float32), requires_grad=True)
        out = conv2d(x, k)
        oracles.probe_sum(out, g64.astype(np.float32)).backward()
        for got, want in (
            (out.data, oracles.conv2d_taps(x64, k64, 1)),
            (k.grad, oracles.conv2d_kernel_grad_loops(x64, g64, 3, 1)),
            (x.grad, oracles.conv2d_input_grad_scatter(g64, k64, x64.shape, 1, 1)),
        ):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 1, 4, 4), (1, 1, 3, 5)])
    def test_even_or_non_square_kernel_rejected(self, shape):
        with pytest.raises(ShapeError, match="odd size"):
            conv2d(Tensor(np.ones((1, 1, 6, 6))), Tensor(np.ones(shape)))

    def test_kernel_wider_than_the_image_keeps_the_grid(self):
        # k = 5 on 2x3 images: every tap but the centre row's reaches padding.
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 3, 2, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3, 5, 5)), requires_grad=True)
        out = conv2d(x, k)
        g = rng.standard_normal(out.shape)
        oracles.probe_sum(out, g).backward()
        tol = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, oracles.conv2d_loops(x.data, k.data, 1, 2), **tol)
        np.testing.assert_allclose(k.grad, oracles.conv2d_kernel_grad_loops(x.data, g, 5, 2), **tol)
        np.testing.assert_allclose(
            x.grad, oracles.conv2d_input_grad_scatter(g, k.data, x.shape, 1, 2), **tol
        )

    def test_gradients(self):
        grad_check(
            lambda rng: [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((2, 2, 3, 3))],
            conv2d,
            n_cases=3,
        )

    def test_leading_axes_fold_into_the_batch(self):
        # (T, B, C, H, W) runs as the (T*B, C, H, W) batch: same bits.
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 2, 2, 5, 5))
        kernel, probe = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((3, 2, 4, 5, 5))
        results = []
        for shape in (x.shape, (6, 2, 5, 5)):
            xt, kt = Tensor(x.reshape(shape), requires_grad=True), Tensor(kernel, requires_grad=True)
            out = conv2d(xt, kt)
            oracles.probe_sum(out, probe.reshape(out.shape)).backward()
            results.append((out.data.reshape(probe.shape), xt.grad.reshape(x.shape), kt.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_input_without_a_batch_axis_rejected(self):
        with pytest.raises(ShapeError, match="leading axis"):
            conv2d(Tensor(np.ones((1, 6, 6))), Tensor(np.ones((1, 1, 3, 3))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "height,width,ksize,padding",
        [
            (h, w, k, p)
            for h, w in ((4, 4), (1, 6))
            for k in (1, 3, 5)
            for p in range(k)
            if k <= h + 2 * p
        ],
    )
    def test_blocked_input_grad_does_not_depend_on_the_block(
        self, monkeypatch, height, width, ksize, padding, dtype
    ):
        # 7 images run as blocks of 1, 2 and 3 images, each with a short last
        # block, against one block of all 7. At k = 5 on one-row images,
        # kernel rows 0, 1, 3 and 4 see only padding.
        rng = np.random.default_rng(10 * ksize + padding)
        x = rng.standard_normal((7, 3, height, width)).astype(dtype)
        kernel = rng.standard_normal((2, 3, ksize, ksize)).astype(dtype)
        out_shape = (7, 2, height + 2 * padding - ksize + 1, width + 2 * padding - ksize + 1)
        g = rng.standard_normal(out_shape).astype(dtype)
        # conv2d's own images: grown by the padding beyond k//2.
        grow = max(padding - ksize // 2, 0)
        image_bytes = (
            2 * ksize * ksize * (height + 2 * grow) * (width + 2 * grow) * np.dtype(dtype).itemsize
        )
        results = {}
        for per_block in (7, 1, 2, 3):
            monkeypatch.setattr(tensor, "BLOCK_BYTES", per_block * image_bytes)
            results[per_block] = conv2d_at_padding(x, kernel, padding, g)[1:]
        for per_block in (1, 2, 3):
            for got, want in zip(results[per_block], results[7]):
                assert_same_bits(got, want)
        dx, dk = results[7]
        tol = dict(rtol=0, atol=1e-12 if dtype == np.float64 else 1e-5)
        np.testing.assert_allclose(
            dx, oracles.conv2d_input_grad_scatter(g, kernel, x.shape, 1, padding), **tol
        )
        np.testing.assert_allclose(
            dk, oracles.conv2d_kernel_grad_loops(x, g, ksize, padding), **tol
        )

    # The presets' convs at their chunk batch: desk 2 -> 16 at 16x16 and
    # 16 -> 16 at 8x8 over 8 samples (f32) or 4 (f64) of T = 8, scaled-train
    # 2 -> 64 at 32x32 and 64 -> 64 at 16x16 over one sample of T = 14. Each
    # image's kernel product runs with C*k*k as the GEMM rows and is held here
    # to the bytes of the (Cout, C*k*k) product.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "batch,c_in,c_out,size",
        [(64, 2, 16, 16), (64, 16, 16, 8), (32, 2, 16, 16), (32, 16, 16, 8),
         (14, 2, 64, 32), (14, 64, 64, 16)],
    )
    def test_kernel_grad_matches_the_cout_rows_formula(self, batch, c_in, c_out, size, dtype):
        rng = np.random.default_rng(c_in + c_out + size)
        x = (rng.random((batch, c_in, size, size)) < 0.2).astype(dtype)
        g = rng.standard_normal((batch, c_out, size, size)).astype(dtype)
        kt = Tensor((rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(dtype), requires_grad=True)
        oracles.probe_sum(conv2d(Tensor(x), kt), g).backward()
        cols = oracles.im2col_padded(x, 3, 1)
        g3 = g.reshape(batch, c_out, size * size)
        want = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kt.shape)
        assert_same_bits(kt.grad, want)

    # The presets' convs at their evaluation chunk: desk over 20 samples of
    # T = 8 (f32), scaled-train over one sample of T = 14, and each at one
    # image fewer, so that blocks of 2 and of 3 images both end short.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fewer", [0, 1])
    @pytest.mark.parametrize(
        "batch,c_in,c_out,size", [(160, 2, 16, 16), (160, 16, 16, 8), (14, 2, 64, 32), (14, 64, 64, 16)]
    )
    def test_blocked_forward_matches_the_recorded_one(
        self, monkeypatch, batch, c_in, c_out, size, fewer, dtype
    ):
        # Without a graph the columns are built a block at a time: blocks of
        # 1, 2 and 3 images and the default budget give the recorded forward's
        # bytes, whether no_grad or no parent needing a gradient skips the graph.
        rng = np.random.default_rng(c_in + c_out + size)
        x = (rng.random((batch - fewer, c_in, size, size)) < 0.2).astype(dtype)
        kernel = (rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(dtype)
        recorded = conv2d(Tensor(x), Tensor(kernel, requires_grad=True))
        assert recorded.requires_grad
        image_bytes = c_in * 9 * size * size * np.dtype(dtype).itemsize
        for budget in (image_bytes, 2 * image_bytes, 3 * image_bytes, tensor.COLUMN_BYTES):
            monkeypatch.setattr(tensor, "COLUMN_BYTES", budget)
            with no_grad():
                plain = conv2d(Tensor(x), Tensor(kernel, requires_grad=True))
            unneeded = conv2d(Tensor(x), Tensor(kernel))
            for out in (plain, unneeded):
                assert not out.requires_grad
                assert_same_bits(out.data, recorded.data)

    # The presets' convs at their training chunk: scaled-train 2 -> 64 at
    # 32x32 and 64 -> 64 at 16x16 over one sample of T = 14, desk 2 -> 16 at
    # 16x16 and 16 -> 16 at 8x8 over 8 samples of T = 8; and each at one image
    # fewer, so that blocks of 2 and of 3 images both end short.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fewer", [0, 1])
    @pytest.mark.parametrize(
        "batch,c_in,c_out,size", [(14, 2, 64, 32), (14, 64, 64, 16), (64, 2, 16, 16), (64, 16, 16, 8)]
    )
    def test_recomputed_columns_match_the_kept_ones(
        self, monkeypatch, batch, c_in, c_out, size, fewer, dtype
    ):
        # A recorded conv keeps its columns while one image's fit BLOCK_BYTES.
        # One byte less, its kernel gradient rebuilds them in blocks of 1, 2
        # and 3 images and of the default budget, with the same bytes in the
        # output and both gradients. The kept path runs last, so that a block
        # the rebuild missed cannot read its values from reused memory.
        rng = np.random.default_rng(c_in + c_out + size)
        x = (rng.random((batch - fewer, c_in, size, size)) < 0.2).astype(dtype)
        kernel = (rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(dtype)
        g = rng.standard_normal((batch - fewer, c_out, size, size)).astype(dtype)
        image_bytes = c_in * 9 * size * size * np.dtype(dtype).itemsize
        monkeypatch.setattr(tensor, "BLOCK_BYTES", image_bytes - 1)
        rebuilt = []
        for budget in (image_bytes, 2 * image_bytes, 3 * image_bytes, tensor.COLUMN_BYTES):
            monkeypatch.setattr(tensor, "COLUMN_BYTES", budget)
            rebuilt.append(conv2d_at_padding(x, kernel, 1, g))
        monkeypatch.setattr(tensor, "BLOCK_BYTES", image_bytes)
        kept = conv2d_at_padding(x, kernel, 1, g)
        for results in rebuilt:
            for got, want in zip(results, kept):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("leading", [(0,), (0, 3), (4, 0)])
    def test_no_images_give_an_empty_output(self, leading):
        x = np.ones((*leading, 2, 5, 5), dtype=np.float32)
        kernel = np.ones((3, 2, 3, 3), dtype=np.float32)
        recorded = conv2d(Tensor(x), Tensor(kernel, requires_grad=True))
        with no_grad():
            plain = conv2d(Tensor(x), Tensor(kernel, requires_grad=True))
        assert plain.shape == (*leading, 3, 5, 5)
        assert_same_bits(plain.data, recorded.data)


class TestIm2col:
    """The pad-free column fill against np.pad plus one slab per tap."""

    # Every padding of each odd kernel size, on H != W and on one-row,
    # one-column and one-pixel images where the padded frame holds the
    # kernel: at k = 5, padding 2, kernel rows 0, 1, 3 and 4 see only
    # padding. At padding k//2 a shift of a whole plane or more (1x6, 6x1,
    # 1x1) leaves a tap all zero and a shift by whole rows wraps every
    # column (6x1). Other paddings run through im2col_at_padding.
    SLAB_CASES = [
        (h, w, k, p)
        for h, w in ((7, 6), (5, 9), (1, 6), (6, 1), (1, 1))
        for k in (1, 3, 5)
        for p in range(k)
        if k <= min(h, w) + 2 * p
    ]
    WIDE_SHIFTS = [(2, 2), (1, 3), (3, 1), (2, 5)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("height,width,ksize,padding", SLAB_CASES)
    def test_matches_padded_slabs(self, height, width, ksize, padding, dtype):
        rng = np.random.default_rng(10 * ksize + padding)
        images = rng.standard_normal((2, 3, height, width)).astype(dtype)
        got = im2col_at_padding(images, ksize, padding)
        assert_same_bits(got, oracles.im2col_padded(images, ksize, padding))

    def test_taps_wholly_in_the_padding(self):
        # k = 7, padding 3 over three rows: kernel rows 0 and 6 see only
        # padding, their shift of three whole rows leaving nothing to copy.
        images = np.random.default_rng(5).standard_normal((2, 3, 3, 9))
        assert_same_bits(tensor._im2col(images, 7), oracles.im2col_padded(images, 7, 3))

    @pytest.mark.parametrize("height,width", WIDE_SHIFTS)
    def test_column_shifts_wider_than_the_image(self, height, width):
        # k = 7 at padding 3: a column shift of up to 3 can exceed the width,
        # and then every column of the tap wrapped round a row edge.
        images = np.random.default_rng(6).standard_normal((2, 3, height, width))
        assert_same_bits(tensor._im2col(images, 7), oracles.im2col_padded(images, 7, 3))

    def test_a_strided_view_matches_padded_slabs(self):
        images = np.random.default_rng(4).standard_normal((3, 4, 8, 10))[:, ::2, :, 1:-1]
        assert_same_bits(tensor._im2col(images, 3), oracles.im2col_padded(images, 3, 1))

    # The cases above, through a NaN-filled buffer one image longer than the
    # images: a reused buffer's stale values never show, and the spare image
    # is left as it was. Images are grown as im2col_at_padding grows them.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "height,width,ksize",
        [(h + 2 * max(p - k // 2, 0), w + 2 * max(p - k // 2, 0), k) for h, w, k, p in SLAB_CASES]
        + [(3, 9, 7)]
        + [(h, w, 7) for h, w in WIDE_SHIFTS],
    )
    def test_out_buffer_gets_every_value(self, height, width, ksize, dtype):
        images = np.random.default_rng(height * width + ksize).standard_normal((2, 3, height, width))
        assert_fills_a_nan_buffer(images.astype(dtype), ksize)

    def test_out_buffer_from_a_strided_view(self):
        images = np.random.default_rng(4).standard_normal((3, 4, 8, 10))[:, ::2, :, 1:-1]
        assert_fills_a_nan_buffer(images, 3)


def assert_fills_a_nan_buffer(images: np.ndarray, k: int) -> None:
    batch, channels, height, width = images.shape
    buffer = np.full((batch + 1, channels * k * k, height * width), np.nan, dtype=images.dtype)
    got = tensor._im2col(images, k, out=buffer)
    assert np.shares_memory(got, buffer)
    assert_same_bits(got, tensor._im2col(images, k))
    assert np.isnan(buffer[batch]).all()


class TestConv1d:
    def test_channel_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        k = np.eye(3)[:, :, None]
        out = oracles.conv1d_multichannel(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_zero_kernel(self):
        out = oracles.conv1d_multichannel(Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 2, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5))
        k = rng.standard_normal((3, 3, 2))
        out = oracles.conv1d_multichannel(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, oracles.conv1d_loops(x, k), atol=0)

    def test_gradients(self):
        grad_check(
            lambda rng: [rng.standard_normal((3, 5)), rng.standard_normal((3, 3, 2))],
            oracles.conv1d_multichannel,
            n_cases=3,
        )


class TestPool:
    def test_avg_example(self):
        out = pool2d(Tensor(np.array([[1.0, 3.0], [5.0, 7.0]])), "avg", 2)
        np.testing.assert_array_equal(out.data, [[4.0]])

    def test_max_example(self):
        out = pool2d(Tensor(np.array([[1.0, 3.0], [5.0, 7.0]])), "max", 2)
        np.testing.assert_array_equal(out.data, [[7.0]])

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_matches_window_oracle(self, kind):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 6))
        out = pool2d(Tensor(x), kind, 2)
        np.testing.assert_allclose(out.data, oracles.pool2d_loops(x, kind, 2), atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inputs", ["spikes", "gaussian"])
    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_loop_oracle_forward_and_backward(self, k, kind, inputs, dtype):
        # Binary spikes tie within most windows; the first in row-major scan wins.
        rng = np.random.default_rng(100 * k + len(inputs))
        for n_lead in range(4):
            shape = (2, 3, 2)[:n_lead] + (2 * k, 3 * k)
            if inputs == "spikes":
                x = (rng.random(shape) < 0.3).astype(dtype)
            else:
                x = rng.standard_normal(shape).astype(dtype)
            g = rng.standard_normal(shape[:-2] + (2, 3)).astype(dtype)
            xt = Tensor(x, requires_grad=True)
            out = pool2d(xt, kind, k)
            oracles.probe_sum(out, g).backward()
            want = oracles.pool2d_loops(x, kind, k)
            if kind == "avg" and k >= 3:
                # Only the order in which the k² terms are summed may differ.
                tol = k * k * np.finfo(dtype).eps * np.abs(x).max()
                np.testing.assert_allclose(out.data, want, rtol=0, atol=tol)
            else:
                assert_same_bits(out.data, want)
            assert_same_bits(xt.grad, oracles.pool2d_grad_loops(x, g, kind, k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, k, rows_per_block",
        [
            ((12, 9), 3, 3),  # 4 rows of windows: blocks of 3 and 1
            ((5, 4, 10), 2, 4),  # 10 rows: 4, 4 and 2
            ((2, 3, 1, 6, 8), 2, 5),  # 18 rows: 5, 5, 5 and 3
        ],
    )
    def test_max_backward_across_blocks_matches_loop_oracle(
        self, monkeypatch, dtype, shape, k, rows_per_block
    ):
        # A block is a run of rows of windows: k input rows of the full width.
        row_bytes = k * shape[-1] * np.dtype(dtype).itemsize
        monkeypatch.setattr(tensor, "BLOCK_BYTES", rows_per_block * row_bytes)
        rng = np.random.default_rng(sum(shape))
        x = (rng.random(shape) < 0.3).astype(dtype)  # most windows tie
        g = rng.standard_normal(shape[:-2] + (shape[-2] // k, shape[-1] // k)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = pool2d(xt, "max", k)
        oracles.probe_sum(out, g).backward()
        assert_same_bits(out.data, oracles.pool2d_loops(x, "max", k))
        assert_same_bits(xt.grad, oracles.pool2d_grad_loops(x, g, "max", k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_max_backward_signed_zero_ties(self, k, dtype):
        # Windows whose max is a zero tied with zeros of either sign, under
        # negative gradients and -0.0: the first zero in row-major order
        # takes g and every other entry +0.0.
        rng = np.random.default_rng(30 + k)
        x = rng.choice(np.array([-0.0, 0.0, -1.0], dtype=dtype), size=(3, 4 * k, 5 * k))
        x[0, :k, :k] = -1.0
        x[0, 0, 1], x[0, 1, 0] = -0.0, 0.0
        g = -rng.uniform(0.5, 2.0, size=(3, 4, 5)).astype(dtype)
        g[1, 0] = -0.0
        xt = Tensor(x, requires_grad=True)
        oracles.probe_sum(pool2d(xt, "max", k), g).backward()
        assert_same_bits(xt.grad, oracles.pool2d_grad_loops(x, g, "max", k))
        assert np.signbit(xt.grad).sum() > 0 and not np.signbit(xt.grad[0, 1, 0])

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            pool2d(Tensor(np.ones((5, 5))), "avg", 2)

    def test_max_tie_routes_to_first_row_major(self):
        x = Tensor(np.array([[2.0, 2.0], [2.0, 2.0]]), requires_grad=True)
        out = pool2d(x, "max", 2)
        oracles.total(out).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_gradients(self, kind):
        grad_check(
            lambda rng: [rng.standard_normal((2, 4, 4))],
            lambda x: pool2d(x, kind, 2),
            n_cases=3,
            seed=13,
        )


class TestBlocks:
    def test_runs_of_whole_units_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 100)
        spans = [(b.start, b.stop) for b in tensor.blocks(9, 40)]
        assert spans == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]

    def test_one_unit_when_a_unit_exceeds_the_budget(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 100)
        assert [(b.start, b.stop) for b in tensor.blocks(3, 101)] == [(0, 1), (1, 2), (2, 3)]

    def test_one_block_when_everything_fits(self):
        assert tensor.blocks(8, tensor.BLOCK_BYTES // 8) == [slice(0, 8)]

    def test_a_budget_stands_in_for_block_bytes(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 100)
        assert [(b.start, b.stop) for b in tensor.blocks(9, 40, 200)] == [(0, 5), (5, 9)]


class TestFullyConnected:
    def test_identity_weight(self):
        x = np.random.default_rng(0).standard_normal((3, 2, 4))
        out = fully_connected(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([1.0, -2.0])
        out = fully_connected(Tensor(np.ones((3, 2, 4))), Tensor(np.zeros((4, 2))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (3, 2, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(21)
        x, w, b = rng.standard_normal((3, 2, 5)), rng.standard_normal((5, 2)), rng.standard_normal(2)
        out = fully_connected(Tensor(x), Tensor(w), Tensor(b))
        want = oracles.matmul_loops(x.reshape(6, 5), w).reshape(3, 2, 2) + b
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            fully_connected(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))

    def test_sample_rows_do_not_depend_on_the_batch(self):
        # One GEMM per sample: a sample's output bits are those of its own
        # (T, F) @ (F, G) product, whatever shares its batch.
        rng = np.random.default_rng(23)
        for dtype in (np.float32, np.float64):
            x = (rng.random((8, 3, 1024)) < 0.3).astype(dtype)
            w, b = rng.standard_normal((1024, 64)).astype(dtype), rng.standard_normal(64).astype(dtype)
            out = fully_connected(Tensor(x), Tensor(w), Tensor(b)).data
            for j in range(3):
                alone = fully_connected(Tensor(x[:, j : j + 1]), Tensor(w), Tensor(b)).data
                assert out[:, j : j + 1].tobytes() == alone.tobytes()

    def test_gradients(self):
        grad_check(
            lambda rng: [
                rng.standard_normal((3, 2, 4)),
                rng.standard_normal((4, 2)),
                rng.standard_normal(2),
            ],
            fully_connected,
            n_cases=3,
        )


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        oracles.total(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_grad_is_two_x(self):
        data = np.array([1.0, -2.0, 0.5])
        x = Tensor(data, requires_grad=True)
        oracles.total(oracles.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * data, atol=0)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = oracles.add(x, x)
        oracles.total(oracles.mul(y, y)).backward()  # d/dx (2x)^2 = 8x
        np.testing.assert_allclose(x.grad, [24.0], atol=0)

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_detach_blocks_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        oracles.total(oracles.mul(oracles.detach(x), x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_composite_graph_matches_fd(self):
        # mean/reshape/transpose/sigmoid chained together.
        grad_check(
            lambda rng: [rng.standard_normal((3, 4))],
            lambda x: oracles.mean(
                oracles.reshape(
                    oracles.sigmoid(oracles.add(oracles.mul(oracles.transpose(x), 2.0), 1.0)), 12
                ),
                axis=0,
            ),
            n_cases=5,
            seed=17,
        )

    def test_take0_and_stack_roundtrip_grads(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        restacked = oracles.stack([oracles.mul(oracles.take0(x, t), t + 1.0) for t in range(3)])
        oracles.total(restacked).backward()
        expected = np.repeat(np.array([[1.0], [2.0], [3.0]]), 4, axis=1)
        np.testing.assert_array_equal(x.grad, expected)

    def test_interior_nodes_released_and_leaf_grads_kept(self):
        # Dyadic values keep every product and sum exact.
        xv, wv = np.array([1.0, -2.0, 0.5]), np.array([0.25, 4.0, -1.5])
        x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        y = oracles.mul(x, w)
        yx = oracles.mul(y, x)
        z = oracles.add(y, yx)
        loss = oracles.total(z)
        loss.backward()
        for node in (y, yx, z):
            assert node._backward is None and node._parents == () and node.grad is None
        assert loss._backward is None and loss._parents == ()
        np.testing.assert_array_equal(loss.grad, 1.0)
        # z = xw + x²w: dz/dx = w + 2xw, dz/dw = x + x².
        np.testing.assert_array_equal(x.grad, wv + 2 * xv * wv)
        np.testing.assert_array_equal(w.grad, xv + xv * xv)
        # A second graph over the same leaves accumulates into their grads.
        oracles.total(oracles.mul(x, w)).backward()
        np.testing.assert_array_equal(x.grad, 2 * wv + 2 * xv * wv)
        np.testing.assert_array_equal(w.grad, 2 * xv + xv * xv)


class TestNoGrad:
    def test_records_no_graph_and_restores_on_exit(self):
        w = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        x = Tensor(np.ones((1, 1, 4, 4)))
        with no_grad():
            out = oracles.total(oracles.mul(conv2d(x, w), 2.0))
            assert not out.requires_grad and out._backward is None and out._parents == ()
            with no_grad():
                pass
            assert not conv2d(x, w).requires_grad
        recorded = oracles.total(conv2d(x, w))
        assert recorded.requires_grad and recorded._parents
        recorded.backward()
        # Tap (i, j) meets the 4x4 image at 3, 4 or 3 rows times 3, 4 or 3 columns.
        np.testing.assert_array_equal(w.grad, np.outer([3.0, 4.0, 3.0], [3.0, 4.0, 3.0])[None, None])

    def test_conv_keeps_one_column_block(self):
        # Without a graph the conv builds one block of columns at a time, not
        # the (14, 576, 256) array (8.3 MB) a kernel gradient would read.
        rng = np.random.default_rng(2)
        x = Tensor((rng.random((14, 64, 16, 16)) < 0.2).astype(np.float32))
        kernel = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
        image_bytes = 64 * 9 * 16 * 16 * 4
        block = tensor.blocks(14, image_bytes, tensor.COLUMN_BYTES)[0]
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = x.data.nbytes + out.data.nbytes + (block.stop - block.start) * image_bytes + 64 * 1024
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB against {bound / 2**20:.2f} MiB"

    def test_recorded_large_conv_keeps_no_columns(self):
        # One image's columns (576 KiB) exceed BLOCK_BYTES, so the recorded
        # conv keeps none for its kernel gradient: what stays alive after the
        # forward is its output and one block's buffer, not the (14, 576, 256)
        # array (8.3 MB) that a conv under the threshold keeps.
        rng = np.random.default_rng(2)
        x = Tensor((rng.random((14, 64, 16, 16)) < 0.2).astype(np.float32), requires_grad=True)
        kernel = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
        image_bytes = 64 * 9 * 16 * 16 * 4
        assert image_bytes > tensor.BLOCK_BYTES
        block = tensor.blocks(14, image_bytes, tensor.COLUMN_BYTES)[0]
        tracemalloc.start()
        try:
            out = conv2d(x, kernel)
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        bound = x.data.nbytes + out.data.nbytes + (block.stop - block.start) * image_bytes + 64 * 1024
        assert alive < bound, f"alive {alive / 2**20:.2f} MiB against {bound / 2**20:.2f} MiB"

    def test_restores_recording_after_an_error(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError
        assert oracles.mul(w, 2.0).requires_grad


SCALED_ARCH = "64C3-LIF-MP2-TCJA-64C3-LIF-MP2-0.5DP-256FC-LIF-Voting"
REAL_WORKER = tensor._worker


class SpyWorker:
    """Stands in for tensor._worker(): counts submissions and, when `run`
    is set, hands them to the real worker; otherwise runs them at once."""

    def __init__(self, run: bool):
        self.run, self.submitted = run, 0

    def submit(self, fn):
        self.submitted += 1
        if self.run:
            return REAL_WORKER().submit(fn)
        future = Future()
        fn()
        future.set_result(None)
        return future


@pytest.fixture
def spy(monkeypatch):
    """The worker forced on, each submission counted and run on the real worker."""
    worker = SpyWorker(run=True)
    monkeypatch.setattr(tensor, "_worker_helps", lambda: True)
    monkeypatch.setattr(tensor, "_worker", lambda: worker)
    return worker


def conv_pass(x, kernel, g, input_grad=True):
    xt = Tensor(x, requires_grad=input_grad)
    kt = Tensor(kernel, requires_grad=True)
    out = conv2d(xt, kt)
    oracles.probe_sum(out, g).backward()
    return [out.data, kt.grad] + ([xt.grad] if input_grad else [])


def fc_pass(x, w, b, g):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = fully_connected(xt, wt, bt)
    oracles.probe_sum(out, g).backward()
    return [out.data, xt.grad, wt.grad, bt.grad]


def conv_arrays(batch, c_in, c_out, size, dtype):
    rng = np.random.default_rng(c_in + c_out + size)
    x = (rng.random((batch, c_in, size, size)) < 0.2).astype(dtype)
    kernel = (rng.standard_normal((c_out, c_in, 3, 3)) * 0.1).astype(dtype)
    g = rng.standard_normal((batch, c_out, size, size)).astype(dtype)
    return x, kernel, g


def fc_arrays(dtype):
    """scaled-train's FC at one sample: 4096 -> 256 over T = 14."""
    rng = np.random.default_rng(4096)
    x = (rng.random((14, 1, 4096)) < 0.2).astype(dtype)
    w = (rng.standard_normal((4096, 256)) * 0.02).astype(dtype)
    b, g = rng.standard_normal(256).astype(dtype), rng.standard_normal((14, 1, 256)).astype(dtype)
    return x, w, b, g


class TestGradientWorker:
    """Large parameter gradients run on a worker thread while backward()
    walks on: a conv whose kernel gradient rebuilds its columns, and an FC
    whose weight is over BLOCK_BYTES. backward() waits for them."""

    # The presets' convs at their training chunk, each with BLOCK_BYTES one
    # byte under its image's columns so that its kernel gradient is deferred.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "batch,c_in,c_out,size", [(14, 2, 64, 32), (14, 64, 64, 16), (64, 2, 16, 16), (64, 16, 16, 8)]
    )
    def test_deferred_conv_matches_the_inline_one(self, monkeypatch, spy, batch, c_in, c_out, size, dtype):
        arrays = conv_arrays(batch, c_in, c_out, size, dtype)
        monkeypatch.setattr(tensor, "BLOCK_BYTES", c_in * 9 * size * size * np.dtype(dtype).itemsize - 1)
        deferred = conv_pass(*arrays)
        assert spy.submitted == 1
        monkeypatch.setattr(tensor, "_worker_helps", lambda: False)
        for got, want in zip(deferred, conv_pass(*arrays)):
            assert_same_bits(got, want)
        assert spy.submitted == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scaled_train_layers_defer_at_the_default_budget(self, monkeypatch, spy, dtype):
        # scaled-train's 64 -> 64 conv (576 KiB of columns an image in f32)
        # and its 4096 -> 256 FC (4 MiB of weight); its 2 -> 64 conv keeps
        # its columns and runs inline.
        conv = conv_arrays(14, 64, 64, 16, dtype)
        fc = fc_arrays(dtype)
        first = conv_arrays(14, 2, 64, 32, dtype)
        deferred = conv_pass(*conv) + fc_pass(*fc) + conv_pass(*first, input_grad=False)
        assert spy.submitted == 2
        monkeypatch.setattr(tensor, "_worker_helps", lambda: False)
        inline = conv_pass(*conv) + fc_pass(*fc) + conv_pass(*first, input_grad=False)
        for got, want in zip(deferred, inline):
            assert_same_bits(got, want)

    def test_a_shared_kernel_sums_in_walk_order(self, monkeypatch, spy):
        # Five deferred contributions to one kernel, slow and fast in turn:
        # the one worker adds them in the order of the walk, where workers
        # taking turns would add the fast ones first.
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 1)
        rng = np.random.default_rng(9)
        kernel = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
        sizes = (1, 96, 1, 96, 1)
        xs = [(rng.random((n, 16, 16, 16)) < 0.3).astype(np.float32) for n in sizes]
        probes = [rng.standard_normal((n, 16, 16, 16)).astype(np.float32) for n in sizes]

        def kernel_grad():
            kt = Tensor(kernel, requires_grad=True)
            parts = [oracles.probe_sum(conv2d(Tensor(x), kt), p) for x, p in zip(xs, probes)]
            loss = parts[0]
            for part in parts[1:]:
                loss = oracles.add(loss, part)
            loss.backward()
            return kt.grad

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over between threads as often as it can
        try:
            deferred = kernel_grad()
        finally:
            sys.setswitchinterval(switch)
        assert spy.submitted == 5
        monkeypatch.setattr(tensor, "_worker_helps", lambda: False)
        assert_same_bits(deferred, kernel_grad())

    def test_an_error_in_deferred_work_leaves_backward_unchanged(self, monkeypatch, spy):
        x, kernel, g = conv_arrays(14, 64, 64, 16, np.float32)
        error = RuntimeError("deferred")
        accumulate = Tensor._accumulate
        kt = Tensor(kernel, requires_grad=True)

        def failing(self, contribution):
            if self is kt:
                raise error
            accumulate(self, contribution)

        monkeypatch.setattr(Tensor, "_accumulate", failing)
        xt = Tensor(x, requires_grad=True)
        loss = oracles.probe_sum(conv2d(xt, kt), g)
        with pytest.raises(RuntimeError) as info:
            loss.backward()
        assert info.value is error
        assert tensor._pending == [] and spy.submitted == 1
        assert xt.grad is not None  # the walk went on to the input gradient
        monkeypatch.setattr(Tensor, "_accumulate", accumulate)
        again = conv_pass(x, kernel, g)
        monkeypatch.setattr(tensor, "_worker_helps", lambda: False)
        for got, want in zip(again, conv_pass(x, kernel, g)):
            assert_same_bits(got, want)

    def test_an_error_in_the_walk_still_waits_for_the_worker(self, monkeypatch, spy):
        x, kernel, g = conv_arrays(14, 64, 64, 16, np.float32)
        error = RuntimeError("walk")
        accumulate = Tensor._accumulate
        xt, kt = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)

        def failing(self, contribution):
            if self is xt:
                raise error
            accumulate(self, contribution)

        monkeypatch.setattr(Tensor, "_accumulate", failing)
        loss = oracles.probe_sum(conv2d(xt, kt), g)
        with pytest.raises(RuntimeError) as info:
            loss.backward()
        assert info.value is error
        assert tensor._pending == [] and spy.submitted == 1
        monkeypatch.setattr(tensor, "_worker_helps", lambda: False)
        assert_same_bits(kt.grad, conv_pass(x, kernel, g)[1])

    def test_deferred_work_keeps_the_callers_error_state(self, spy):
        # cli.main silences overflow warnings; pytest turns any other into an
        # error, which would come out of backward() from the worker.
        x, w, b, g = fc_arrays(np.float32)
        with np.errstate(all="ignore"):
            grads = fc_pass(x, w, b, g * np.float32(3e38))
        assert spy.submitted == 1
        assert np.isinf(grads[2]).any() and np.isinf(grads[3]).any()

    @pytest.mark.parametrize("layer", ["conv", "fc"])
    def test_deferred_work_is_freed_when_backward_returns(self, spy, layer):
        # Once backward() has returned, nothing of the deferred work is left:
        # not the conv's rebuilt column buffer (576 KiB) and output gradient
        # (896 KiB), nor the FC's output gradient rows (224 KiB at batch 16).
        # What stays alive is the output and the input and parameter grads.
        rng = np.random.default_rng(5)
        if layer == "conv":
            x, kernel, g = conv_arrays(14, 64, 64, 16, np.float32)
            leaves = [Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)]
        else:
            _, w, b, _ = fc_arrays(np.float32)
            x = (rng.random((14, 16, 4096)) < 0.2).astype(np.float32)
            g = rng.standard_normal((14, 16, 256)).astype(np.float32)
            leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        REAL_WORKER().submit(int).result()  # its thread started before the trace
        tracemalloc.start()
        try:
            out = conv2d(*leaves) if layer == "conv" else fully_connected(*leaves)
            oracles.probe_sum(out, g).backward()
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert spy.submitted == 1
        bound = out.data.nbytes + sum(leaf.data.nbytes for leaf in leaves) + 64 * 1024
        assert alive < bound, f"alive {alive / 2**20:.2f} MiB against {bound / 2**20:.2f} MiB"


def _scaled_net_pass():
    arch = parse_arch(SCALED_ARCH, input_dims=(2, 32, 32), time_steps=14)
    net = build_network(arch, 4, rng=np.random.default_rng(0))
    x = (np.random.default_rng(1).random((14, 1, 2, 32, 32)) < 0.2).astype(np.float32)
    out = net.forward(Tensor(x))
    oracles.probe_sum(out, np.ones(out.shape, dtype=np.float32)).backward()


class TestGradientWorkerGate:
    """The worker runs only where it was measured to gain: the process may
    use more than one core and numpy's BLAS runs one thread."""

    @pytest.fixture
    def counted(self, monkeypatch):
        worker = SpyWorker(run=False)
        monkeypatch.setattr(tensor, "_worker", lambda: worker)
        gate = tensor._worker_helps
        gate.cache_clear()
        yield worker
        gate.cache_clear()  # the next call probes this process again

    @staticmethod
    def blas(monkeypatch, **symbols):
        library = type("Library", (), {name: staticmethod(value) for name, value in symbols.items()})
        monkeypatch.setattr(tensor.ctypes, "CDLL", lambda path: library())

    def test_two_cores_and_one_blas_thread_submit(self, monkeypatch, counted):
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})
        self.blas(monkeypatch, scipy_openblas_get_num_threads64_=lambda: 1)
        _scaled_net_pass()
        assert counted.submitted == 2  # the 64 -> 64 conv and the FC

    @pytest.mark.parametrize(
        "cores,symbols",
        [
            ({0, 1}, {"scipy_openblas_get_num_threads64_": lambda: 2}),
            ({0, 1}, {"openblas_get_num_threads": lambda: 1}),
            ({1}, {"scipy_openblas_get_num_threads64_": lambda: 1}),
            ({0, 1}, {}),
        ],
        ids=["blas-threads", "unmeasured-blas", "one-core", "no-symbol"],
    )
    def test_a_closed_gate_submits_nothing(self, monkeypatch, counted, cores, symbols):
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: cores)
        self.blas(monkeypatch, **symbols)
        _scaled_net_pass()
        assert counted.submitted == 0

    def test_the_gate_is_checked_once(self, monkeypatch, counted):
        probes = []
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0, 1})
        self.blas(monkeypatch, scipy_openblas_get_num_threads64_=lambda: probes.append(1) or 1)
        _scaled_net_pass()
        _scaled_net_pass()
        assert probes == [1] and counted.submitted == 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_desk_network_never_submits(self, monkeypatch, counted, dtype):
        monkeypatch.setattr(tensor, "_worker_helps", lambda: True)
        arch = parse_arch(PRESETS["desk"], input_dims=(2, 16, 16), time_steps=8)
        net = build_network(arch, 4, rng=np.random.default_rng(0), dtype=dtype)
        x = (np.random.default_rng(1).random((8, net.chunk_size, 2, 16, 16)) < 0.2).astype(dtype)
        out = net.forward(Tensor(x), rng=np.random.default_rng(2))
        oracles.probe_sum(out, np.ones(out.shape, dtype=dtype)).backward()
        assert counted.submitted == 0


class TestDeterminism:
    def test_forward_repeatable(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        a = conv2d(Tensor(x), Tensor(k)).data
        b = conv2d(Tensor(x), Tensor(k)).data
        np.testing.assert_array_equal(a, b)


class TestNoGenericArithmetic:
    """Every package op is a layer-sized node; generic arithmetic is test-only."""

    def test_tensor_defines_no_generic_ops(self):
        moved = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "sum", "mean", "reshape", "detach")
        assert [name for name in moved if hasattr(Tensor, name)] == []

    def test_module_defines_no_generic_op_helpers(self):
        helpers = ("_binary", "_coerce", "_spread", "_normalize_axes")
        assert [name for name in helpers if hasattr(tensor, name)] == []
