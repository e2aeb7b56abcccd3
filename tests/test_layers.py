import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_layers
from fdcheck import assert_close, central_diff
from forgenet import layers
from forgenet.errors import ContractError, DegenerateBatchError, ShapeError


def make_conv(rng, filters, in_channels, dtype=np.float64):
    return layers.ConvLayer(
        weights=rng.normal(size=(filters, in_channels, 3, 3)).astype(dtype),
        bias=rng.normal(size=(filters,)).astype(dtype),
    )


def make_bn(channels, dtype=np.float64, gamma=None, beta=None):
    return layers.BatchNormLayer(
        gamma=np.ones(channels, dtype) if gamma is None else np.asarray(gamma, dtype),
        beta=np.zeros(channels, dtype) if beta is None else np.asarray(beta, dtype),
        moving_mean=np.zeros(channels, dtype),
        moving_var=np.ones(channels, dtype),
    )


def conv_loop_oracle(x, weights, bias):
    """Direct six-nested-loop valid cross-correlation."""
    n, c, h, w = x.shape
    k = weights.shape[0]
    out = np.zeros((n, k, h - 2, w - 2), dtype=np.float64)
    for i in range(n):
        for f in range(k):
            for y in range(h - 2):
                for xx in range(w - 2):
                    acc = bias[f]
                    for ch in range(c):
                        for dy in range(3):
                            for dx in range(3):
                                acc += weights[f, ch, dy, dx] * x[i, ch, y + dy, xx + dx]
                    out[i, f, y, xx] = acc
    return out


class TestRequire:
    def test_require_rank_passes(self):
        x = np.zeros((1, 2, 3, 4), dtype=np.float32)
        assert layers.require_rank(x, 4) is x

    def test_require_rank_rejects(self):
        with pytest.raises(ShapeError):
            layers.require_rank(np.zeros((2, 2), dtype=np.float32), 4)


class TestConvForward:
    def test_zero_input_zero_bias(self, rng):
        layer = make_conv(rng, 4, 3, dtype=np.float32)
        layer.bias[:] = 0.0
        out = layers.conv2d_forward(np.zeros((1, 3, 128, 128), np.float32), layer)
        assert out.shape == (1, 4, 126, 126)
        assert not out.any()

    def test_delta_kernel_picks_center(self):
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        layer = layers.ConvLayer(weights=w, bias=np.zeros(1, np.float32))
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = layers.conv2d_forward(x, layer)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == x[0, 0, 1, 1]

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        layer = make_conv(rng, 1, 1)
        out = layers.conv2d_forward(x, layer)
        assert_close(out, conv_loop_oracle(x, layer.weights, layer.bias), 1e-6)

    def test_matches_loop_oracle_multichannel(self, rng):
        x = rng.normal(size=(2, 3, 5, 6))
        layer = make_conv(rng, 4, 3)
        out = layers.conv2d_forward(x, layer)
        assert_close(out, conv_loop_oracle(x, layer.weights, layer.bias), 1e-6)

    def test_small_spatial_rejected(self, rng):
        layer = make_conv(rng, 1, 1, dtype=np.float32)
        with pytest.raises(ShapeError):
            layers.conv2d_forward(np.zeros((1, 1, 2, 5), np.float32), layer)

    def test_channel_mismatch_rejected(self, rng):
        layer = make_conv(rng, 2, 3, dtype=np.float32)
        with pytest.raises(ShapeError):
            layers.conv2d_forward(np.zeros((1, 2, 4, 4), np.float32), layer)

    def test_linear_in_input_with_zero_bias(self, rng):
        layer = make_conv(rng, 2, 2)
        layer.bias[:] = 0.0
        x1 = rng.normal(size=(1, 2, 5, 5))
        x2 = rng.normal(size=(1, 2, 5, 5))
        a, b = 1.7, -0.4
        lhs = layers.conv2d_forward(a * x1 + b * x2, layer)
        rhs = a * layers.conv2d_forward(x1, layer) + b * layers.conv2d_forward(x2, layer)
        assert_close(lhs, rhs, 1e-5)


class TestConvBackward:
    def test_zero_upstream(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        layer = make_conv(rng, 3, 2)
        d_input, d_weights = layers.conv2d_backward(x, layer, np.zeros((2, 3, 2, 2)))
        assert not d_input.any()
        assert not d_weights.any()

    def test_upstream_shape_rejected(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        layer = make_conv(rng, 1, 1)
        with pytest.raises(ShapeError):
            layers.conv2d_backward(x, layer, np.ones((1, 1, 3, 3)))

    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        layer = make_conv(rng, 2, 2)
        upstream = rng.normal(size=(2, 2, 3, 3))

        def objective():
            return float(np.sum(upstream * layers.conv2d_forward(x, layer)))

        d_input, d_weights = layers.conv2d_backward(x, layer, upstream)
        assert_close(d_weights, central_diff(objective, layer.weights), 1e-4)
        assert_close(d_input, central_diff(objective, x), 1e-4)

    def test_writes_d_input_into_out(self, rng):
        x = rng.normal(size=(2, 2, 6, 5))
        layer = make_conv(rng, 3, 2)
        upstream = rng.normal(size=(2, 3, 4, 3))
        want_input, want_weights = layers.conv2d_backward(x, layer, upstream)
        out = np.empty_like(x)
        d_input, d_weights = layers.conv2d_backward(x, layer, upstream, out=out)
        assert d_input is out
        assert np.array_equal(d_input, want_input)
        assert np.array_equal(d_weights, want_weights)
        with pytest.raises(ShapeError):
            layers.conv2d_backward(x, layer, upstream, out=np.empty((2, 2, 6, 6)))


def assert_rel(actual, expected, rtol, what):
    """Elementwise within rtol of the largest magnitude in `expected`."""
    assert_close(actual, expected, rtol, atol=rtol * np.abs(expected).max(), what=what)


class TestConvAgainstReference:
    """The banded-GEMM conv against the strided im2col path it replaced."""

    # (5, 32) is one band per sample; (4, 128) ends each sample on a short
    # band of rows. 9x7 is not square, and one 2000-wide output row of four
    # channels exceeds PATCH_BYTES: d_input's kernel flip, channel swap and
    # padding would show on both.
    @pytest.mark.parametrize("batch,height,width", [
        pytest.param(16, 32, 32, id="16-32"),
        pytest.param(5, 32, 32, id="5-32"),
        pytest.param(4, 128, 128, id="4-128"),
        pytest.param(3, 9, 7, id="3-9x7"),
        pytest.param(2, 4, 2002, id="2-4x2002"),
    ])
    @pytest.mark.parametrize("in_channels", [3, 4])
    def test_float64_matches_reference(self, rng, batch, height, width, in_channels):
        x = rng.normal(size=(batch, in_channels, height, width))
        layer = make_conv(rng, 4, in_channels)
        out = layers.conv2d_forward(x, layer)
        assert_rel(out, reference_layers.conv2d_forward(x, layer), 1e-9, "output")
        upstream = rng.normal(size=out.shape)
        grads = layers.conv2d_backward(x, layer, upstream)
        expected = reference_layers.conv2d_backward(x, layer, upstream)
        for name, got, want in zip(("d_input", "d_weights"), grads, expected, strict=True):
            assert_rel(got, want, 1e-9, name)

    def test_float32_gradients_match_float64_reference(self, rng):
        """The float32 gradients at the paper frame size, against the float64
        reference on the same values: both of a hidden block, and the
        weight gradient of a first block (3 channels, no input gradient)."""
        for in_channels, input_grad in ((4, True), (3, False)):
            x = rng.normal(size=(4, in_channels, 128, 128)).astype(np.float32)
            layer = make_conv(rng, 4, in_channels, dtype=np.float32)
            upstream = rng.normal(size=(4, 4, 126, 126)).astype(np.float32)
            d_input, d_weights = layers.conv2d_backward(x, layer, upstream, input_grad)
            layer64 = layers.ConvLayer(
                weights=layer.weights.astype(np.float64),
                bias=layer.bias.astype(np.float64),
            )
            want_input, want_weights = reference_layers.conv2d_backward(
                x.astype(np.float64), layer64, upstream.astype(np.float64)
            )
            pairs = [("d_weights", d_weights, want_weights)]
            if input_grad:
                pairs.append(("d_input", d_input, want_input))
            else:
                assert d_input is None
            for name, got, want in pairs:
                assert got.dtype == np.float32, name
                assert_rel(got, want, 1e-5, name)

    @pytest.mark.parametrize(
        "shape",
        [(5, 3, 32, 32), (2, 4, 128, 128), (3, 4, 200, 9), (1, 1, 3, 3), (2, 4, 4, 2002)],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_tile_the_output_once(self, shape, dtype):
        n, c, h, w = shape
        x = np.zeros(shape, dtype)
        ho, wo = h - 2, w - 2
        row_bytes = c * 9 * wo * x.itemsize  # one row of patch columns
        seen, yielded = np.zeros((n, ho), int), []
        for i, rows, cols in layers._patches(x):
            seen[i, rows] += 1
            yielded.append((i, rows))
            assert cols.shape == (c * 9, (rows.stop - rows.start) * wo)
            assert cols.nbytes <= max(layers.PATCH_BYTES, row_bytes)
        assert (seen == 1).all()
        bands = layers._bands(x, ho, wo)
        assert yielded == [(i, rows) for i in range(n) for rows in bands]

    def test_without_input_grad_same_parameter_gradients(self, rng):
        # The last two shapes run in several bands per sample. The two
        # routes take d_weights from different patches, so they agree with
        # the reference, not bitwise with each other.
        for shape in ((3, 3, 9, 7), (2, 3, 4, 2002), (1, 3, 128, 128)):
            n, c, h, w = shape
            x = rng.normal(size=shape)
            layer = make_conv(rng, 4, c)
            upstream = rng.normal(size=(n, 4, h - 2, w - 2))
            _, full = layers.conv2d_backward(x, layer, upstream)
            d_input, skipped = layers.conv2d_backward(x, layer, upstream, input_grad=False)
            _, expected = reference_layers.conv2d_backward(x, layer, upstream)
            assert d_input is None
            for d_weights in (full, skipped):
                assert_rel(d_weights, expected, 1e-9, f"{shape}")

    @staticmethod
    def assert_matches_reference(x, layer, upstream):
        out = layers.conv2d_forward(x, layer)
        assert_rel(out, reference_layers.conv2d_forward(x, layer), 1e-9, "output")
        want_input, want_weights = reference_layers.conv2d_backward(x, layer, upstream)
        for input_grad in (True, False):
            d_input, d_weights = layers.conv2d_backward(x, layer, upstream, input_grad)
            assert_rel(d_weights, want_weights, 1e-9, "d_weights")
            if input_grad:
                assert_rel(d_input, want_input, 1e-9, "d_input")

    # Bands of full output rows at their edges: one output row or column,
    # and a last band of one row, in the forward's bands of x (which
    # input_grad=False also reads) or in the backward's bands of the
    # upstream padded by 2.
    @pytest.mark.parametrize("shape,path", [
        pytest.param((2, 3, 3, 9), None, id="ho1"),
        pytest.param((2, 3, 9, 3), None, id="wo1"),
        pytest.param((2, 3, 3, 3), None, id="ho1-wo1"),
        pytest.param((2, 4, 21, 100), "forward", id="forward-1-row-band"),
        pytest.param((2, 4, 19, 100), "backward", id="backward-1-row-band"),
    ])
    def test_full_row_edges_match_reference(self, rng, shape, path):
        n, c, h, w = shape
        x = rng.normal(size=shape)
        layer = make_conv(rng, 4, c)
        upstream = rng.normal(size=(n, 4, h - 2, w - 2))
        if path is not None:
            if path == "forward":
                bands = layers._bands(x, h - 2, w - 2)
            else:
                bands = layers._bands(upstream, h, w)
            sizes = [rows.stop - rows.start for rows in bands]
            assert sizes[-1] == 1 and sizes[0] != 1, sizes
        self.assert_matches_reference(x, layer, upstream)

    # The array `_patches` reads, with or without its padding by 2: several
    # samples of one band each, a last band of one row at each dtype, one
    # output row or column, and (with pad) one input row or column.
    @pytest.mark.parametrize("shape,pad,dtype,last_band", [
        pytest.param((10, 4, 16, 16), False, np.float64, False, id="samples"),
        pytest.param((4, 3, 10, 12), True, np.float32, False, id="pad-samples"),
        pytest.param((2, 4, 21, 100), False, np.float64, True, id="band-f64"),
        pytest.param((2, 4, 40, 100), False, np.float32, True, id="band-f32"),
        pytest.param((2, 4, 17, 98), True, np.float64, True, id="pad-band-f64"),
        pytest.param((2, 4, 35, 98), True, np.float32, True, id="pad-band-f32"),
        pytest.param((3, 3, 3, 9), False, np.float32, False, id="ho1"),
        pytest.param((3, 3, 9, 3), False, np.float64, False, id="wo1"),
        pytest.param((3, 3, 1, 7), True, np.float32, False, id="pad-h1"),
        pytest.param((3, 3, 7, 1), True, np.float64, False, id="pad-w1"),
    ])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_patches_equal_reference_im2col(
        self, rng, shape, pad, dtype, last_band, transposed
    ):
        n, c, h, w = shape
        if transposed:
            x = rng.normal(size=shape[::-1]).astype(dtype).transpose(3, 2, 1, 0)
            assert not x.flags.c_contiguous
        else:
            x = rng.normal(size=shape).astype(dtype)
        # Every sample's first and last rows are non-zero, so a padded sample
        # that read its neighbour's rows into its border would show.
        assert x[:, :, [0, -1]].all()
        src = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2))) if pad else x
        ho, wo = src.shape[2] - 2, src.shape[3] - 2
        want = reference_layers._im2col(src).reshape(n, ho, wo, c * 9)
        yielded = []
        for i, rows, cols in layers._patches(x, pad):
            expected = want[i, rows].reshape(-1, c * 9).T
            assert cols.dtype == dtype
            assert np.array_equal(cols, expected), (i, rows)
            yielded.append((i, rows))
        bands = layers._bands(x, ho, wo)
        assert yielded == [(i, rows) for i in range(n) for rows in bands]
        sizes = [rows.stop - rows.start for rows in bands]
        assert (sizes[-1] == 1 and sizes[0] != 1) == last_band, sizes

    def test_non_contiguous_input_same_result(self, rng):
        x = rng.normal(size=(3, 4, 11, 9)).transpose(0, 1, 3, 2)
        upstream = rng.normal(size=(3, 4, 9, 7)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous and not upstream.flags.c_contiguous
        layer = make_conv(rng, 4, 4)
        self.assert_matches_reference(x, layer, upstream)
        x_c, up_c = np.ascontiguousarray(x), np.ascontiguousarray(upstream)
        assert np.array_equal(
            layers.conv2d_forward(x, layer), layers.conv2d_forward(x_c, layer)
        )
        for input_grad in (True, False):
            d_input, d_weights = layers.conv2d_backward(x, layer, upstream, input_grad)
            want_input, want_weights = layers.conv2d_backward(x_c, layer, up_c, input_grad)
            assert np.array_equal(d_weights, want_weights)
            if input_grad:
                assert d_input.flags.c_contiguous
                assert np.array_equal(d_input, want_input)

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_leaves_its_inputs_unwritten(self, rng, input_grad):
        x = rng.normal(size=(2, 3, 12, 10))
        upstream = rng.normal(size=(2, 4, 10, 8))
        x_before, upstream_before = x.copy(), upstream.copy()
        layers.conv2d_backward(x, make_conv(rng, 4, 3), upstream, input_grad)
        assert np.array_equal(x, x_before)
        assert np.array_equal(upstream, upstream_before)

    def test_backward_pads_band_by_band(self, rng):
        """Beyond its d_input, backward allocates less than one copy of the
        upstream padded by 2: one sample at a time is padded into one grid."""
        x = rng.normal(size=(16, 4, 64, 64)).astype(np.float32)
        layer = make_conv(rng, 4, 4, dtype=np.float32)
        upstream = rng.normal(size=(16, 4, 62, 62)).astype(np.float32)
        padded_bytes = 16 * 4 * 66 * 66 * upstream.itemsize
        tracemalloc.start()
        try:
            d_input, _ = layers.conv2d_backward(x, layer, upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - d_input.nbytes < padded_bytes, peak


def test_float32_batch_statistics_at_paper_shape(rng):
    """Float32 conv -> BN batch statistics at 128px, batch 128, against float64.

    Summing the conv output over (n, h, w) in float32 stays accurate only
    when that output is contiguous NCHW; over a strided NHWC-backed view of
    the same values the batch variance is about 1e-3 off in relative terms.
    """
    x = rng.uniform(size=(128, 3, 128, 128)).astype(np.float32)
    layer = layers.ConvLayer(
        weights=rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3)).astype(np.float32),
        bias=np.array([1.0, -1.0, 0.5, -0.5], np.float32),
    )

    def batch_stats(h, dtype):
        _, cache = layers.batchnorm_forward(h, make_bn(4, dtype))
        assert cache.mean.dtype == cache.var.dtype == dtype
        return cache.mean.astype(np.float64), cache.var.astype(np.float64)

    out = layers.conv2d_forward(x, layer)
    assert out.flags.c_contiguous
    mean32, var32 = batch_stats(out, np.float32)
    del out

    layer64 = layers.ConvLayer(
        weights=layer.weights.astype(np.float64), bias=layer.bias.astype(np.float64)
    )
    out64 = np.concatenate(
        [
            reference_layers.conv2d_forward(chunk.astype(np.float64), layer64)
            for chunk in np.split(x, 8)
        ]
    )
    mean64, var64 = batch_stats(out64, np.float64)
    assert_close(mean32, mean64, 1e-5, atol=0.0, what="batch mean")
    assert_close(var32, var64, 1e-5, atol=0.0, what="batch variance")


class TestBatchNormForward:
    def test_constant_channel_maps_to_zero(self):
        layer = make_bn(1, np.float32)
        x = np.full((2, 1, 2, 2), 3.7, np.float32)
        out, cache = layers.batchnorm_forward(x, layer)
        assert cache is not None
        assert np.all(np.abs(out) <= math.sqrt(layers.BN_EPSILON))
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_four_value_scalar_oracle(self):
        layer = make_bn(1, np.float32)
        x = np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 1, 2, 2)
        out, _ = layers.batchnorm_forward(x.copy(), layer)
        expected = (x - 2.5) / math.sqrt(1.25 + 1e-3)
        assert_close(out, expected, 1e-6, atol=1e-6)

    def test_writes_no_layer_tensor_and_returns_batch_statistics(self, rng):
        layer = make_bn(2, gamma=rng.uniform(0.5, 1.5, 2), beta=rng.normal(size=2))
        before = {k: v.copy() for k, v in vars(layer).items()}
        x = rng.normal(loc=1.0, scale=2.0, size=(3, 2, 4, 4))
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        _, cache = layers.batchnorm_forward(x, layer)
        for name, tensor in vars(layer).items():
            assert tensor.tobytes() == before[name].tobytes(), name
        assert_close(cache.mean, mean, 1e-9)
        assert_close(cache.var, var, 1e-9)

    def test_single_element_training_rejected(self):
        layer = make_bn(1, np.float32)
        with pytest.raises(DegenerateBatchError):
            layers.batchnorm_forward(np.ones((1, 1, 1, 1), np.float32), layer)

    def test_channel_mismatch_rejected(self):
        layer = make_bn(3, np.float32)
        with pytest.raises(ShapeError):
            layers.batchnorm_forward(np.ones((1, 2, 2, 2), np.float32), layer)

    @given(scale=st.floats(0.2, 50.0), shift=st.floats(-20.0, 20.0), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_normalized_moments(self, scale, shift, seed):
        """Pre-affine output: mean 0, variance v/(v+eps) for batch variance v."""
        layer = make_bn(1)
        x = shift + scale * np.random.default_rng(seed).normal(size=(2, 1, 4, 4))
        out, _ = layers.batchnorm_forward(x.copy(), layer)
        v = x.var(axis=(0, 2, 3))[0]
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - v / (v + layers.BN_EPSILON)) < 1e-9

    @pytest.mark.parametrize(
        "shape", [(2, 2, 3, 3), (16, 4, 30, 30)], ids=lambda s: "x".join(map(str, s))
    )
    def test_float64_matches_reference(self, rng, shape):
        c = shape[1]
        layer = make_bn(c, gamma=rng.uniform(0.5, 1.5, c), beta=rng.normal(size=c))
        ref_layer = make_bn(c, gamma=layer.gamma, beta=layer.beta)
        x = rng.normal(loc=0.5, scale=2.0, size=shape)
        expected, ref_cache = reference_layers.batchnorm_forward(x, ref_layer, True)
        out, cache = layers.batchnorm_forward(x.copy(), layer)
        pairs = [
            ("output", out, expected),
            ("centred", cache.centred, ref_cache.centred),
            ("mean", cache.mean, ref_cache.mean),
            ("var", cache.var, ref_cache.var),
        ]
        for name, got, want in pairs:
            assert_close(got, want, 1e-9, atol=1e-9 * np.abs(want).max(), what=name)

    def test_takes_over_its_input(self, rng):
        # The conv output is centred in place: no full-size copy is made of it.
        x = rng.normal(size=(2, 3, 4, 4))
        _, cache = layers.batchnorm_forward(x, make_bn(3))
        assert cache.centred is x

    def test_writes_into_out(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        expected, _ = layers.batchnorm_forward(x.copy(), make_bn(3))
        out = np.empty_like(x)
        got, _ = layers.batchnorm_forward(x, make_bn(3), out=out)
        assert got is out
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(ShapeError):
            layers.batchnorm_forward(x.copy(), make_bn(3), out=np.empty((2, 3, 4, 3)))


class TestBatchNormBackward:
    def test_zero_upstream(self, rng):
        layer = make_bn(2)
        x = rng.normal(size=(2, 2, 3, 3))
        _, cache = layers.batchnorm_forward(x, layer)
        d_input, d_gamma, d_beta = layers.batchnorm_backward(cache, layer, np.zeros_like(x))
        assert not d_input.any()
        assert not d_gamma.any()
        assert not d_beta.any()

    def test_beta_gradient_is_upstream_sum(self, rng):
        layer = make_bn(3)
        x = rng.normal(size=(2, 3, 2, 2))
        upstream = rng.normal(size=x.shape)
        _, cache = layers.batchnorm_forward(x, layer)
        _, _, d_beta = layers.batchnorm_backward(cache, layer, upstream.copy())
        assert_close(d_beta, upstream.sum(axis=(0, 2, 3)), 1e-12)

    @staticmethod
    def check_finite_differences(rng, x):
        layer = make_bn(2, gamma=rng.normal(size=2), beta=rng.normal(size=2))
        upstream = rng.normal(size=x.shape)

        def objective():
            out, _ = layers.batchnorm_forward(x.copy(), layer)
            return float(np.sum(upstream * out))

        _, cache = layers.batchnorm_forward(x.copy(), layer)
        d_input, d_gamma, d_beta = layers.batchnorm_backward(cache, layer, upstream.copy())
        assert_close(d_gamma, central_diff(objective, layer.gamma), 1e-4)
        assert_close(d_beta, central_diff(objective, layer.beta), 1e-4)
        assert_close(d_input, central_diff(objective, x), 1e-4, atol=1e-6)
        return cache

    def test_matches_finite_differences(self, rng):
        self.check_finite_differences(rng, rng.normal(size=(2, 2, 3, 3)))

    def test_zero_variance_channel_matches_finite_differences(self, rng):
        # Channel 0 is constant, so its batch variance is exactly 0.
        x = rng.normal(size=(2, 2, 3, 3))
        x[:, 0] = 1.25
        cache = self.check_finite_differences(rng, x)
        assert cache.var[0] == 0.0

    @pytest.mark.parametrize(
        "shape", [(2, 2, 3, 3), (16, 4, 30, 30)], ids=lambda s: "x".join(map(str, s))
    )
    def test_float64_matches_reference(self, rng, shape):
        c = shape[1]
        layer = make_bn(c, gamma=rng.uniform(0.5, 1.5, c), beta=rng.normal(size=c))
        x = rng.normal(loc=0.5, scale=2.0, size=shape)
        upstream = rng.normal(size=shape)
        _, cache = layers.batchnorm_forward(x, layer)
        expected = reference_layers.batchnorm_backward(cache, layer, upstream)
        got = layers.batchnorm_backward(cache, layer, upstream)
        for name, g, want in zip(("d_input", "d_gamma", "d_beta"), got, expected, strict=True):
            assert_close(g, want, 1e-9, atol=1e-9 * np.abs(want).max(), what=name)

    def test_float32_gradients_against_float64(self, rng):
        # d_beta is the reference's own sum, so it stays bitwise. d_gamma and
        # d_input come from the per-channel coefficient form, whose float32
        # rounding differs from the reference's: both are checked against
        # the float64 gradients of the same inputs.
        layer = make_bn(4, np.float32, gamma=rng.uniform(0.5, 1.5, 4),
                        beta=rng.normal(size=4))
        x = rng.normal(size=(16, 4, 30, 30)).astype(np.float32)
        upstream = rng.normal(size=x.shape).astype(np.float32)
        layer64 = make_bn(4, gamma=layer.gamma, beta=layer.beta)
        _, cache64 = reference_layers.batchnorm_forward(x.astype(np.float64), layer64, True)
        want_input, want_gamma, _ = reference_layers.batchnorm_backward(
            cache64, layer64, upstream.astype(np.float64)
        )
        _, cache = layers.batchnorm_forward(x, layer)
        _, _, want_beta = reference_layers.batchnorm_backward(cache, layer, upstream)
        d_input, d_gamma, d_beta = layers.batchnorm_backward(cache, layer, upstream)
        assert d_input.dtype == d_gamma.dtype == d_beta.dtype == np.float32
        assert np.array_equal(d_beta, want_beta)
        assert_close(d_gamma, want_gamma, 1e-5, atol=0.0, what="d_gamma")
        assert_close(d_input, want_input, 1e-5,
                     atol=1e-6 * np.abs(want_input).max(), what="d_input")


def random_inference_bn(rng, channels, dtype):
    """A BN layer with non-trivial gamma, beta and moving statistics."""
    return layers.BatchNormLayer(
        gamma=rng.uniform(0.5, 1.5, channels).astype(dtype),
        beta=rng.normal(0.0, 0.2, channels).astype(dtype),
        moving_mean=rng.normal(0.0, 0.2, channels).astype(dtype),
        moving_var=rng.uniform(0.5, 2.0, channels).astype(dtype),
    )


class TestBatchNormFold:
    @pytest.mark.parametrize(
        "dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)], ids=["float64", "float32"]
    )
    def test_matches_reference_inference(self, rng, dtype, tol):
        conv = make_conv(rng, 4, 3, dtype)
        bn = random_inference_bn(rng, 4, dtype)
        x = rng.uniform(size=(3, 3, 10, 9)).astype(dtype)
        folded = layers.conv2d_forward(x, layers.batchnorm_fold(conv, bn))
        expected, cache = reference_layers.batchnorm_forward(
            reference_layers.conv2d_forward(x, conv), bn, training=False
        )
        assert cache is None
        assert folded.dtype == dtype
        assert_close(folded, expected, tol, atol=tol * np.abs(expected).max(),
                     what="folded conv output")

    def test_mutates_neither_layer(self, rng):
        conv = make_conv(rng, 4, 3, np.float32)
        bn = random_inference_bn(rng, 4, np.float32)
        tensors = [*vars(conv).values(), *vars(bn).values()]
        before = [t.copy() for t in tensors]
        folded = layers.batchnorm_fold(conv, bn)
        for tensor, kept in zip(tensors, before):
            assert np.array_equal(tensor, kept)
        assert not np.shares_memory(folded.weights, conv.weights)
        assert not np.shares_memory(folded.bias, conv.bias)


class TestRelu:
    def test_forward_values(self):
        x = np.array([-1.0, 0.0, 3.0], np.float32).reshape(1, 1, 1, 3)
        assert layers.relu_forward(x).reshape(-1).tolist() == [0.0, 0.0, 3.0]

    def test_backward_gates_on_strict_positive(self):
        x = np.array([-1.0, 2.0], np.float32).reshape(1, 1, 1, 2)
        upstream = np.array([5.0, 5.0], np.float32).reshape(1, 1, 1, 2)
        out = layers.relu_backward(x, upstream)
        assert out.reshape(-1).tolist() == [0.0, 5.0]

    def test_zero_input_gets_zero_gradient(self):
        x = np.zeros((1, 1, 1, 1), np.float32)
        assert layers.relu_backward(x, np.ones_like(x))[0, 0, 0, 0] == 0.0

    def test_backward_through_output_matches_input(self, rng):
        # Backward may gate on the ReLU output, or its mask, instead of its input.
        x = np.array([-2.0, -0.0, 0.0, 1e-30, 3.0, np.nan, -np.inf, np.inf],
                     np.float32).reshape(1, 2, 2, 2)
        upstream = rng.normal(size=x.shape).astype(np.float32)
        output = layers.relu_forward(x.copy())
        via_output = layers.relu_backward(output, upstream.copy())
        via_mask = layers.relu_backward(output > 0, upstream.copy())
        via_input = layers.relu_backward(x, upstream.copy())
        assert via_output.tobytes() == via_input.tobytes() == via_mask.tobytes()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        x = np.random.default_rng(seed).normal(size=(1, 2, 3, 3)).astype(np.float32)
        once = layers.relu_forward(x)
        assert np.array_equal(layers.relu_forward(once.copy()), once)


class TestDense:
    def test_zero_weights_bias_through(self):
        layer = layers.DenseLayer(
            weights=np.zeros((5, 1), np.float32), bias=np.array([0.7], np.float32)
        )
        out = layers.dense_forward(np.ones((3, 5), np.float32), layer)
        assert_close(out, np.full(3, 0.7), 1e-7)

    def test_dot_product(self):
        layer = layers.DenseLayer(
            weights=np.array([[3.0], [4.0]], np.float32),
            bias=np.zeros(1, np.float32),
        )
        out = layers.dense_forward(np.array([[1.0, 2.0]], np.float32), layer)
        assert out.tolist() == [11.0]

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(4, 7))
        layer = layers.DenseLayer(
            weights=rng.normal(size=(7, 1)), bias=rng.normal(size=(1,))
        )
        expected = np.array(
            [sum(x[i, j] * layer.weights[j, 0] for j in range(7)) + layer.bias[0]
             for i in range(4)]
        )
        assert_close(layers.dense_forward(x, layer), expected, 1e-6)

    def test_feature_mismatch_rejected(self, rng):
        layer = layers.DenseLayer(
            weights=rng.normal(size=(7, 1)).astype(np.float32),
            bias=np.zeros(1, np.float32),
        )
        with pytest.raises(ShapeError):
            layers.dense_forward(np.zeros((2, 6), np.float32), layer)

    def test_matches_finite_differences(self, rng):
        x = rng.normal(size=(3, 5))
        layer = layers.DenseLayer(
            weights=rng.normal(size=(5, 1)), bias=rng.normal(size=(1,))
        )
        upstream = rng.normal(size=(3,))

        def objective():
            return float(np.sum(upstream * layers.dense_forward(x, layer)))

        d_input, d_weights, d_bias = layers.dense_backward(x, layer, upstream)
        assert_close(d_weights, central_diff(objective, layer.weights), 1e-4)
        assert_close(d_bias, central_diff(objective, layer.bias), 1e-4)
        assert_close(d_input, central_diff(objective, x), 1e-4)

    def test_writes_d_input_over_its_input(self, rng):
        # The model lays the head's d_input over the last block's output.
        x = rng.normal(size=(3, 5))
        layer = layers.DenseLayer(
            weights=rng.normal(size=(5, 1)), bias=rng.normal(size=(1,))
        )
        upstream = rng.normal(size=(3,))
        expected = layers.dense_backward(x, layer, upstream)
        got = layers.dense_backward(x, layer, upstream, out=x)
        assert got[0] is x
        for name, g, want in zip(("d_input", "d_weights", "d_bias"), got, expected):
            assert np.array_equal(g, want), name


class TestSigmoid:
    def test_zero_logit(self):
        assert layers.sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_clamped(self):
        high = layers.sigmoid(np.array([100.0]))[0]
        low = layers.sigmoid(np.array([-100.0]))[0]
        assert high == 1.0 - layers.PROB_CLAMP
        assert low == layers.PROB_CLAMP

    @given(z=st.floats(-30.0, 30.0))
    def test_symmetry(self, z):
        arr = np.array([z, -z])
        p = layers.sigmoid(arr)
        assert abs(p[0] - (1.0 - p[1])) < 1e-6

    @given(z=st.floats(-500.0, 500.0))
    def test_strictly_inside_unit_interval(self, z):
        p = layers.sigmoid(np.array([z]))[0]
        assert 0.0 < p < 1.0


class TestBceLoss:
    def test_half_probability(self):
        loss, _ = layers.bce_loss(np.array([0.5]), np.array([0.0]))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_confident_correct(self):
        loss, _ = layers.bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
        assert 0.0 < loss < 2e-7

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(6,))
        y = (rng.uniform(size=6) > 0.5).astype(np.float64)

        def objective():
            loss, _ = layers.bce_loss(layers.sigmoid(logits), y)
            return loss

        _, d_logits = layers.bce_loss(layers.sigmoid(logits), y)
        assert_close(d_logits, central_diff(objective, logits), 1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            layers.bce_loss(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            layers.bce_loss(np.array([0.5, 0.5]), np.array([1.0]))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ContractError):
            layers.bce_loss(np.array([0.5]), np.array([2.0]))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_loss_nonnegative(self, seed):
        g = np.random.default_rng(seed)
        p = layers.sigmoid(g.normal(scale=5.0, size=8))
        y = (g.uniform(size=8) > 0.5).astype(np.float64)
        loss, _ = layers.bce_loss(p, y)
        assert loss >= 0.0
