import math
import threading
import weakref

import numpy as np
import pytest
from scipy.special import erf

from sbt_lab import autodiff as ad
from sbt_lab.autodiff import (
    ParamStore, Tensor, backward, conv2d, depthwise_conv3x3, gelu, grad_check,
    layer_norm, linear, matmul, softmax_lastdim, tensor,
)
from sbt_lab.errors import ContractError, DimensionError, NumericError
from sbt_lab.layers import Mlp
from sbt_lab.optim import AdamW, clip_grad_norm

F64 = np.float64


def t64(x, rg=False):
    return tensor(x, requires_grad=rg, dtype=F64)


class TestMatmul:
    def test_identity(self):
        a = tensor(np.eye(2))
        b = tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(matmul(a, b).data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(matmul(a, b).data, [[19, 22], [43, 50]])

    def test_ones_inner(self):
        a = tensor(np.ones((1, 3)))
        b = tensor(np.ones((3, 1)))
        np.testing.assert_allclose(matmul(a, b).data, [[3.0]])

    def test_shape_mismatch_message(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_lastdim(tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_analytic_ratio(self):
        out = softmax_lastdim(t64([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_stabilized(self):
        out = softmax_lastdim(tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_lastdim(tensor(rng.normal(size=(7, 5)) * 10))
        np.testing.assert_allclose(out.data.sum(-1), np.ones(7), atol=1e-6)

    def test_empty_lastdim_rejected(self):
        with pytest.raises(DimensionError):
            softmax_lastdim(tensor(np.ones((3, 0))))


class TestLayerNorm:
    def test_constant_row(self):
        out = layer_norm(tensor([[5.0, 5.0, 5.0, 5.0]]), tensor(np.ones(4)),
                         tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-6)

    def test_two_point(self):
        out = layer_norm(t64([[1.0, 3.0]]), t64(np.ones(2)), t64(np.zeros(2)),
                         eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_affine_override(self):
        rng = np.random.default_rng(1)
        out = layer_norm(tensor(rng.normal(size=(3, 4))), tensor(np.zeros(4)),
                         tensor(np.full(4, 2.0)))
        np.testing.assert_allclose(out.data, np.full((3, 4), 2.0), atol=1e-6)

    def test_token_mean_zero(self):
        rng = np.random.default_rng(2)
        out = layer_norm(t64(rng.normal(size=(10, 16))), t64(np.ones(16)),
                         t64(np.zeros(16)))
        assert np.abs(out.data.mean(-1)).max() < 1e-6

    def test_bad_affine_shape(self):
        with pytest.raises(DimensionError):
            layer_norm(tensor(np.ones((2, 4))), tensor(np.ones(3)), tensor(np.zeros(3)))


class TestGelu:
    def test_zero(self):
        assert gelu(tensor([0.0])).item() == 0.0

    def test_at_one(self):
        # x * Phi(x) at x=1, with Phi the standard-normal CDF
        assert abs(gelu(t64([1.0])).item() - 0.8413447460685429) < 1e-9

    def test_asymptote(self):
        assert abs(gelu(tensor([10.0])).item() - 10.0) < 1e-6

    @staticmethod
    def reference(x):
        x = np.asarray(x, dtype=F64)
        return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def test_float32_kernel_dense_grid(self):
        # more elements than one kernel block, so block edges are crossed
        x = np.linspace(-12.0, 12.0, 400_001).astype(np.float32)
        out = gelu(tensor(x)).data
        assert out.dtype == np.float32
        assert np.abs(out - self.reference(x)).max() <= 5e-7

    def test_float32_kernel_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-38, -1e-38,
                      1e30, -1e30], dtype=np.float32)
        out = gelu(tensor(x)).data
        assert np.isfinite(out).all()
        assert np.abs(out - self.reference(x)).max() <= 5e-7

    def test_float32_kernel_transposed_input_not_mutated(self):
        rng = np.random.default_rng(4)
        base = (rng.normal(size=(300, 257)) * 3).astype(np.float32)
        view = base.T
        before = base.copy()
        out = gelu(Tensor(view)).data
        np.testing.assert_array_equal(base, before)
        assert out.shape == view.shape
        assert np.abs(out - self.reference(view)).max() <= 5e-7
        # the same values laid out contiguously give the same bits
        np.testing.assert_array_equal(
            out, gelu(Tensor(np.ascontiguousarray(view))).data)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_non_finite_stays_non_finite(self, dtype):
        x = np.array([np.nan, np.inf, -np.inf, 1.0], dtype=dtype)
        with np.errstate(invalid="ignore"):
            out = gelu(Tensor(x)).data
        assert not np.isfinite(out[:3]).any() and np.isfinite(out[3])


def _tracked_and_untracked(fn, *arrays):
    """fn's output with and without a recorded graph."""
    with ad.no_grad():
        plain = fn(*[Tensor(a) for a in arrays]).data
    taped = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    assert taped._backward is not None
    return plain, taped.data


class TestTrackedEqualsUntracked:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_bitwise_equal(self, dtype):
        rng = np.random.default_rng(8)
        x = (rng.normal(size=(70_000, 3)) * 4).astype(dtype)
        g = rng.normal(size=3).astype(dtype)
        b = rng.normal(size=3).astype(dtype)
        before = x.copy()
        for fn, args in ((gelu, (x,)), (softmax_lastdim, (x,)),
                         (layer_norm, (x, g, b))):
            plain, taped = _tracked_and_untracked(fn, *args)
            assert plain.dtype == taped.dtype == dtype
            np.testing.assert_array_equal(plain, taped)
        np.testing.assert_array_equal(x, before)


def gelu_grad_reference(x, g):
    """GELU's gradient as g * (cdf + x*pdf), with the forward's cdf: the
    float32 kernel's Phi(x), op for op over the whole array, or scipy's."""
    with np.errstate(over="ignore"):
        if x.dtype == np.float32:
            a = np.abs(x)
            q = a * a
            q *= -0.5
            q = np.exp(q)
            t = a * ad._AS_P
            t += 1.0
            t = np.reciprocal(t)
            c5, c4, c3, c2, c1 = ad._AS_HALF_COEFFS
            o = t * c5
            for c in (c4, c3, c2, c1):
                o += c
                o *= t
            q *= o
            cdf = np.copysign(0.5 - q, x) + 0.5
        else:
            cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return g * (cdf + x * pdf)


class TestGeluBackward:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_equals_cdf_plus_x_pdf_bitwise(self, dtype):
        rng = np.random.default_rng(12)
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, tiny, -tiny, 1e-38, -1e-38, 1e30, -1e30]
        # more than one kernel block
        x = np.concatenate([np.linspace(-12.0, 12.0, 70_001), special,
                            rng.normal(size=5000) * 4]).astype(dtype)
        x = x.reshape(-1, 1)
        g = rng.normal(size=x.shape).astype(dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        out = gelu(xt)
        out._backward(g)
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(xt.grad, gelu_grad_reference(x, g))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_non_finite_input_gives_non_finite_gradient(self, dtype):
        x = Tensor(np.array([np.nan, np.inf, -np.inf, 1.0], dtype=dtype),
                   requires_grad=True)
        with np.errstate(invalid="ignore"):
            gelu(x)._backward(np.ones(4, dtype=dtype))
        assert not np.isfinite(x.grad[:3]).any() and np.isfinite(x.grad[3])


def add_at_reference(rows_shape, idx, g):
    gi = np.zeros(rows_shape, dtype=g.dtype)
    np.add.at(gi, idx, g)
    return gi


class TestTakeRows:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_backward_equals_add_at(self, dtype):
        rng = np.random.default_rng(14)
        table = rng.normal(size=(50, 7)).astype(dtype)
        # rows 40.. are never referenced, the rest several times over
        idx = rng.integers(0, 40, size=3000)
        g = (rng.normal(size=(3000, 7)) * 10.0 ** rng.integers(
            -6, 6, size=(3000, 1))).astype(dtype)
        t = Tensor(table, requires_grad=True)
        out = ad.take_rows(t, idx)
        np.testing.assert_array_equal(out.data, table[idx])
        out._backward(g)
        assert t.grad.dtype == dtype
        np.testing.assert_array_equal(t.grad, add_at_reference(table.shape,
                                                               idx, g))
        assert not t.grad[40:].any()

    def test_single_row_table_all_zero_index(self):
        # one row gathered into every output row: all of g lands on it
        rng = np.random.default_rng(15)
        t = Tensor(rng.normal(size=(1, 16)).astype(np.float32),
                   requires_grad=True)
        idx = np.zeros(4000, dtype=np.intp)
        g = rng.normal(size=(4000, 16)).astype(np.float32)
        ad.take_rows(t, idx)._backward(g)
        np.testing.assert_array_equal(t.grad, add_at_reference((1, 16), idx,
                                                               g))

    def test_scatter_cache_reused_across_calls(self):
        rng = np.random.default_rng(16)
        t = Tensor(rng.normal(size=(9, 3)).astype(np.float32),
                   requires_grad=True)
        idx = rng.integers(0, 9, size=40)
        cache = {}
        with ad.no_grad():
            ad.take_rows(t, idx, cache)
        assert cache == {}
        grads = []
        for k in range(2):
            g = rng.normal(size=(40, 3)).astype(np.float32)
            t.grad = None
            ad.take_rows(t, idx, cache)._backward(g)
            np.testing.assert_array_equal(t.grad, add_at_reference((9, 3),
                                                                   idx, g))
            grads.append(cache[np.dtype(np.float32)])
        assert grads[0] is grads[1]

    def test_grad_check(self):
        rng = np.random.default_rng(17)
        ps = ParamStore()
        ps.add("t", rng.normal(size=(6, 4)))
        idx = np.array([5, 0, 0, 3, 5, 5, 1])
        w = rng.normal(size=(7, 4))

        def f(p):
            rows = ad.take_rows(p["t"], idx)
            return ad.sum_(rows * rows * Tensor(w.astype(p.dtype)))

        assert grad_check(f, ps) < 1e-6


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Brute-force grouped cross-correlation of a (C, H, W) array."""
    cin, h, w_ = x.shape
    cout, cpg_in, k, _ = w.shape
    cpg_out = cout // groups
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w_ + 2 * padding - k) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        gi = co // cpg_out
        for yy in range(ho):
            for xx in range(wo):
                acc = 0.0 if b is None else b[co]
                for ci in range(cpg_in):
                    for i in range(k):
                        for j in range(k):
                            acc += (w[co, ci, i, j] *
                                    xp[gi * cpg_in + ci, yy * stride + i,
                                       xx * stride + j])
                out[co, yy, xx] = acc
    return out


def edge_pad_reference(img):
    """(C,H,W) -> (C,H+2,W+2), border cells copying the nearest cell."""
    _, h, w = img.shape
    iy = np.clip(np.arange(-1, h + 1), 0, h - 1)
    ix = np.clip(np.arange(-1, w + 1), 0, w - 1)
    return img[:, iy[:, None], ix[None, :]]


class TestDepthwiseConv3x3:
    GRIDS = [(1, 1), (1, 5), (4, 1), (6, 7)]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("pad", ["edge", "zero"])
    def test_equals_channels_first_conv(self, grid, pad):
        rng = np.random.default_rng(sum(grid))
        h, w_ = grid
        c = 5
        tokens = rng.normal(size=(h * w_, c))
        w = rng.normal(size=(c, 1, 3, 3))
        b = rng.normal(size=c)
        out = depthwise_conv3x3(t64(tokens), grid, t64(w), t64(b), pad=pad)
        img = tokens.T.reshape(c, h, w_)
        if pad == "edge":
            ref = naive_conv2d(edge_pad_reference(img), w, b, groups=c)
        else:
            ref = naive_conv2d(img, w, b, padding=1, groups=c)
        np.testing.assert_allclose(out.data, ref.reshape(c, -1).T,
                                   atol=1e-12)

    def test_float32_close_to_float64(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(64 * 64, 16))
        w = rng.normal(size=(16, 1, 3, 3)) / 3
        b = rng.normal(size=16)
        for pad in ("edge", "zero"):
            o32 = depthwise_conv3x3(tensor(tokens), (64, 64), tensor(w),
                                    tensor(b), pad=pad)
            o64 = depthwise_conv3x3(t64(tokens), (64, 64), t64(w), t64(b),
                                    pad=pad)
            assert o32.data.dtype == np.float32
            assert np.abs(o32.data - o64.data).max() < 1e-5

    def test_bad_arguments_rejected(self):
        x = tensor(np.ones((6, 2)))
        w = tensor(np.ones((2, 1, 3, 3)))
        with pytest.raises(DimensionError):
            depthwise_conv3x3(x, (2, 2), w, None, pad="zero")
        with pytest.raises(DimensionError):
            depthwise_conv3x3(x, (2, 3), tensor(np.ones((3, 1, 3, 3))), None,
                              pad="zero")
        with pytest.raises(DimensionError):
            depthwise_conv3x3(x, (2, 3), w, tensor(np.ones(3)), pad="zero")
        with pytest.raises(ContractError):
            depthwise_conv3x3(x, (2, 3), w, None, pad="reflect")

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("pad", ["edge", "zero"])
    def test_grad_check(self, grid, pad):
        rng = np.random.default_rng(40 + sum(grid))
        h, w_ = grid
        ps = ParamStore()
        ps.add("x", rng.normal(size=(h * w_, 3)))
        ps.add("w", rng.normal(size=(3, 1, 3, 3)))
        ps.add("b", rng.normal(size=3))
        weight = rng.normal(size=(h * w_, 3))

        def f(p):
            out = depthwise_conv3x3(p["x"], grid, p["w"], p["b"], pad=pad)
            return ad.sum_(ad.sigmoid(out) * weight)

        assert grad_check(f, ps) < 1e-6

    def test_grad_check_cond_pe_segments(self):
        # conditional PE over a template + search layout, one conv per
        # segment, gradients flowing through the shared weights and input
        rng = np.random.default_rng(9)
        ps = ParamStore()
        mlp = Mlp(ps, "mlp", rng, channels=3, hidden=4, cond_pe=True)
        layout = (("template", (2, 2)), ("search", (3, 4)))
        x = rng.normal(size=(16, 3))
        ps.add("x", x)

        def f(p):
            out = mlp(p["x"], layout=layout)
            return ad.sum_(out * out)

        assert grad_check(f, ps) < 1e-6


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(5, 5, 1)))
        w = tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w, None, stride=1, padding=0)
        np.testing.assert_allclose(out.data, x.data)

    def test_patch_grid_shape(self):
        x = tensor(np.zeros((256, 256, 3)))
        w = tensor(np.zeros((8, 3, 16, 16)))
        out = conv2d(x, w, None, stride=16, padding=0)
        assert out.shape == (16, 16, 8)

    def test_hand_sum(self):
        x = tensor(np.ones((4, 4, 1)))
        w = tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, w, None, stride=2, padding=0)
        np.testing.assert_allclose(out.data, np.full((2, 2, 1), 4.0))

    def test_bad_shapes_rejected(self):
        # weight for 2 input channels on a 3-channel map
        with pytest.raises(DimensionError):
            conv2d(tensor(np.ones((4, 4, 3))), tensor(np.ones((4, 2, 3, 3))),
                   None)
        with pytest.raises(DimensionError):
            conv2d(tensor(np.ones((4, 4, 2))), tensor(np.ones((4, 2, 3, 2))),
                   None)
        with pytest.raises(DimensionError):
            conv2d(tensor(np.ones((4, 4, 2))), tensor(np.ones((4, 2, 3, 3))),
                   tensor(np.ones(3)))

    @pytest.mark.parametrize("k,s,p", [(3, 2, 1), (4, 2, 1), (7, 4, 3),
                                       (1, 1, 0)])
    def test_matches_naive_loop(self, k, s, p):
        rng = np.random.default_rng(11)
        cin, cout, h, w_ = 4, 6, 9, 7
        x = rng.normal(size=(h, w_, cin))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        out = conv2d(t64(x), t64(w), t64(b), stride=s, padding=p)
        expected = naive_conv2d(x.transpose(2, 0, 1), w, b, s, p)
        np.testing.assert_allclose(out.data, expected.transpose(1, 2, 0),
                                   atol=1e-10)

    def test_channels_first_view_input(self):
        # the patch embed convolves a (3, H, W) image's transposed view
        rng = np.random.default_rng(12)
        img = rng.normal(size=(3, 8, 8))
        w = rng.normal(size=(5, 3, 4, 4))
        for p in (0, 1):
            out = conv2d(t64(img.transpose(1, 2, 0)), t64(w), None, stride=4,
                         padding=p)
            expected = naive_conv2d(img, w, stride=4, padding=p)
            np.testing.assert_allclose(out.data, expected.transpose(1, 2, 0),
                                       atol=1e-10)

    @pytest.mark.parametrize("k,s,p", [(3, 2, 1), (4, 2, 1), (1, 1, 0)])
    def test_grad_check(self, k, s, p):
        rng = np.random.default_rng(13)
        ps = ParamStore()
        ps.add("x", rng.normal(size=(6, 5, 3)))
        ps.add("w", rng.normal(size=(4, 3, k, k)))
        ps.add("b", rng.normal(size=4))
        with ad.no_grad():
            out_shape = conv2d(ps["x"], ps["w"], None, s, p).data.shape
        weight = rng.normal(size=out_shape)

        def f(q):
            out = conv2d(q["x"], q["w"], q["b"], stride=s, padding=p)
            return ad.sum_(ad.sigmoid(out) * weight)

        assert grad_check(f, ps) < 1e-6


class TestBackward:
    def test_linear_sum(self):
        x = t64([1.0, 2.0, 3.0], rg=True)
        backward(ad.sum_(x))
        np.testing.assert_allclose(x.grad, [1, 1, 1])

    def test_quadratic(self):
        x = t64([3.0], rg=True)
        backward(ad.sum_(x * x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_softmax_nll(self):
        logits = t64([0.0, 0.0], rg=True)
        p = softmax_lastdim(logits)
        loss = -ad.log(ad.index(p, (0,)))
        backward(loss)
        np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-12)

    def test_accumulation_without_reset(self):
        x = t64([2.0], rg=True)
        backward(ad.sum_(x * x))
        backward(ad.sum_(x * x))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_determinism_after_reset(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(5, 5)), rg=True)
        w = t64(rng.normal(size=(5, 5)), rg=True)

        def run():
            x.zero_grad()
            w.zero_grad()
            backward(ad.sum_(gelu(matmul(x, w)) ** 2.0))
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert (g1[0] == g2[0]).all() and (g1[1] == g2[1]).all()

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            backward(tensor([1.0, 2.0], requires_grad=True))

    def test_untaped_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(tensor([1.0]))


class TestGradientOwnership:
    """A backward hands each input a gradient nothing else reads or writes
    afterwards, and an input keeps the first one it receives. In each
    graph below an input's first gradient comes from the op under test,
    and later accumulations add into it in place."""

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_same_shape_add_inputs_accumulate_again(self, order):
        rng = np.random.default_rng(3)
        ps = ParamStore()
        ps.add("a", rng.normal(size=(3, 4)))
        ps.add("b", rng.normal(size=(3, 4)))

        def f(p):
            a, b = p["a"], p["b"]
            s = ad.add(a, b) if order == "ab" else ad.add(b, a)
            # the first term's nodes run first: the add hands out a's and
            # b's first gradients, then the second term adds into both
            return ad.sum_(s * s) + ad.sum_(a * a * b)

        assert grad_check(f, ps) < 1e-8

    def test_broadcast_sum_and_concat_fan_out(self):
        rng = np.random.default_rng(4)
        ps = ParamStore()
        ps.add("x", rng.normal(size=(3, 4)))
        ps.add("w", rng.normal(size=(3, 4)))

        def f(p):
            t = p["x"] * p["w"]
            m = ad.mean(t, axis=-1, keepdims=True)  # gives t its first grad
            c = ad.concat([t, t], axis=0)
            return (ad.sum_(m * m) + ad.sum_(c * c)
                    + ad.sum_(ad.sum_(t, axis=0) * t))

        assert grad_check(f, ps) < 1e-8

    def test_loss_grad_stays_ones(self):
        x = t64([1.0, 2.0], rg=True)
        s = ad.sum_(x)
        loss = ad.add(s, s)  # s's first gradient is the one handed down
        backward(loss)
        np.testing.assert_array_equal(loss.grad, [1.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def _recorded_input(arr):
    """arr as the output of a recorded op, so a backward reaches it through
    its node, not through a leaf Tensor."""
    return ad.mul(Tensor(arr, requires_grad=True), 1.0)


def _captured(fn):
    """The objects a backward closure keeps: its defaults and free
    variables, with tuples opened one level."""
    found = list(fn.__defaults__ or ()) + [c.cell_contents
                                           for c in fn.__closure__ or ()]
    return found + [y for x in found if isinstance(x, tuple) for y in x]


# (name, op, input shapes, inputs whose memory the backward keeps, whether
# it keeps the output's)
GRAPH_RECORDS = [
    ("add", lambda a, b: ad.add(a, b), [(4, 6), (4, 6)], (), False),
    ("add-scalar", lambda a: ad.add(a, 2.0), [(4, 6)], (), False),
    ("mul", lambda a, b: ad.mul(a, b), [(4, 6), (4, 6)], (0, 1), False),
    ("mul-scalar", lambda a: ad.mul(a, 0.5), [(4, 6)], (), False),
    ("pow", lambda a: ad.pow_const(a, 3.0), [(4, 6)], (0,), False),
    ("log", lambda a: ad.log(ad.absolute(a)), [(4, 6)], (), False),
    ("absolute", lambda a: ad.absolute(a), [(4, 6)], (0,), False),
    ("relu", lambda a: ad.relu(a), [(4, 6)], (0,), False),
    ("sigmoid", lambda a: ad.sigmoid(a), [(4, 6)], (), True),
    ("softmax", lambda a: softmax_lastdim(a), [(4, 6)], (), True),
    ("gelu", lambda a: gelu(a), [(4, 6)], (), False),
    ("layer_norm", lambda a, g, b: layer_norm(a, g, b),
     [(4, 6), (6,), (6,)], (1,), False),
    ("reshape", lambda a: ad.reshape(a, (6, 4)), [(4, 6)], (), False),
    ("transpose", lambda a: ad.transpose(a, (1, 0)), [(4, 6)], (), False),
    ("concat", lambda a, b: ad.concat([a, b], axis=0), [(4, 6), (2, 6)],
     (), False),
    ("index", lambda a: ad.index(a, (slice(1, 3), slice(None))), [(4, 6)],
     (), False),
    # an input neither C- nor F-ordered
    ("index-strided",
     lambda a: ad.index(ad.transpose(a, (1, 0, 2)), (slice(1, 3),)),
     [(2, 4, 6)], (), False),
    ("take_rows", lambda a: ad.take_rows(a, np.array([3, 0, 3])), [(4, 6)],
     (), False),
    ("sum", lambda a: ad.sum_(a, axis=0), [(4, 6)], (), False),
    ("matmul", lambda a, b: matmul(a, b), [(2, 4, 6), (2, 6, 3)], (0, 1),
     False),
    ("linear", lambda x, w, b: linear(x, w, b), [(4, 6), (6, 3), (3,)],
     (0, 1), False),
    ("conv2d", lambda t, w, b: conv2d(t, w, b, stride=2, padding=1),
     [(6, 6, 2), (3, 2, 3, 3), (3,)], (1,), False),
    ("depthwise_conv3x3",
     lambda t, w, b: depthwise_conv3x3(t, (3, 4), w, b, pad="edge"),
     [(12, 2), (2, 1, 3, 3), (2,)], (), False),
]


class TestGraphRecords:
    @pytest.mark.parametrize("name,fn,shapes,reads,reads_out", GRAPH_RECORDS,
                             ids=[r[0] for r in GRAPH_RECORDS])
    def test_backward_keeps_only_what_it_reads(self, name, fn, shapes, reads,
                                               reads_out):
        rng = np.random.default_rng(30)
        inputs = [_recorded_input(rng.normal(size=s) + 2.0) for s in shapes]
        out = fn(*inputs)
        kept = _captured(out._backward)
        assert not any(isinstance(x, Tensor) for x in kept)
        arrays = [x for x in kept if isinstance(x, np.ndarray)]

        def pinned(a):
            return any(np.may_share_memory(a, x) for x in arrays)

        assert [i for i, t in enumerate(inputs) if pinned(t.data)] == list(reads)
        assert pinned(out.data) == reads_out

    def test_index_gradient_c_ordered(self):
        x = Tensor(np.ones((2, 4, 6)).transpose(1, 0, 2), requires_grad=True)
        assert not (x.data.flags.c_contiguous or x.data.flags.f_contiguous)
        backward(ad.sum_(ad.index(x, (slice(1, 3),))))
        assert x.grad.flags.c_contiguous
        expect = np.zeros((4, 2, 6))
        expect[1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_unread_activation_freed_before_backward(self):
        # linear's output feeds only gelu, which keeps its derivative
        x = _recorded_input(np.ones((3, 4)))
        w = _recorded_input(np.ones((4, 5)))
        h = linear(x, w)
        ref = weakref.ref(h.data)
        y = gelu(h)
        del h
        assert ref() is None
        assert y._backward is not None


class TestUntrackedRecordsNothing:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("name,fn,shapes", [r[:3] for r in GRAPH_RECORDS],
                             ids=[r[0] for r in GRAPH_RECORDS])
    def test_no_node_and_tracked_bits(self, name, fn, shapes, dtype):
        rng = np.random.default_rng(31)
        arrays = [(rng.normal(size=s) + 2.0).astype(dtype) for s in shapes]
        taped = fn(*[_recorded_input(a) for a in arrays])
        assert taped._node is not None
        recorded = [_recorded_input(a) for a in arrays]
        with ad.no_grad():
            quiet = fn(*recorded)
        plain = fn(*[Tensor(a) for a in arrays])
        for out in (plain, quiet):
            assert out._node is None
            assert (out.data.dtype, out.data.shape, out.data.tobytes()) == (
                taped.data.dtype, taped.data.shape, taped.data.tobytes())


class TestBackwardConsumesGraph:
    def test_activations_freed_while_loss_and_outputs_held(self):
        w = t64(np.full((3, 3), 0.1), rg=True)
        h = gelu(matmul(t64(np.ones((2, 3))), w))
        ref = weakref.ref(h.data)
        out = matmul(h, w)
        loss = ad.sum_(out * out)
        del h
        assert ref() is not None  # the second matmul's backward reads it
        backward(loss)
        assert ref() is None
        assert loss.grad is not None and out.data.shape == (2, 3)
        assert w.grad is not None

    def test_second_backward_is_one_line_contract_error(self):
        x = t64([2.0], rg=True)
        loss = ad.sum_(x * x)
        backward(loss)
        with pytest.raises(ContractError) as e:
            backward(loss)
        assert "\n" not in str(e.value) and "consumed" in str(e.value)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_new_graph_on_consumed_output_rejected(self):
        x = t64([2.0], rg=True)
        y = x * x
        backward(ad.sum_(y))
        with pytest.raises(ContractError):
            backward(ad.sum_(y * x))
        np.testing.assert_allclose(x.grad, [4.0])


class TestNoGradThreads:
    def test_overlapping_blocks_stay_per_thread(self):
        # A enters, B enters, A exits, B exits: the interleaving under
        # which a process-wide flag ends disabled for everyone
        x = t64([1.0], rg=True)

        def records():
            return (x * x)._backward is not None

        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with ad.no_grad():
                a_in.set()
                seen["a_waited"] = b_in.wait(10)
                seen["a"] = records()
            a_out.set()

        def thread_b():
            seen["b_entered_after_a"] = a_in.wait(10)
            with ad.no_grad():
                b_in.set()
                seen["b_waited"] = a_out.wait(10)
                seen["b"] = records()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == {"a_waited": True, "b_entered_after_a": True,
                        "b_waited": True, "a": False, "b": False}
        assert records()


class TestGradCheck:
    def test_quadratic_exact(self):
        ps = ParamStore()
        ps.add("x", np.array([3.0]))
        err = grad_check(lambda p: ad.sum_(p["x"] * p["x"]), ps, eps=1e-5)
        assert err < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_core_ops_random(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamStore()
        ps.add("w", rng.normal(size=(4, 5)))
        ps.add("b", rng.normal(size=5))
        ps.add("g", np.ones(5))
        ps.add("be", np.zeros(5))
        x = rng.normal(size=(3, 4))

        def f(p):
            h = linear(Tensor(x.astype(p.dtype)), p["w"], p["b"])
            h = layer_norm(h, p["g"], p["be"])
            h = gelu(h)
            h = softmax_lastdim(h)
            return ad.sum_(h * h)

        assert grad_check(f, ps) < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_conv_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        ps = ParamStore()
        ps.add("w", rng.normal(size=(4, 3, 3, 3)) * 0.5)
        ps.add("b", rng.normal(size=4) * 0.1)
        ps.add("dw", rng.normal(size=(4, 1, 3, 3)) * 0.5)
        x = rng.normal(size=(5, 5, 3))

        def f(p):
            h = conv2d(Tensor(x.astype(p.dtype)), p["w"], p["b"], stride=2,
                       padding=1)
            h = depthwise_conv3x3(ad.reshape(h, (9, 4)), (3, 3), p["dw"],
                                  None, pad="zero")
            return ad.sum_(ad.sigmoid(h))

        assert grad_check(f, ps) < 1e-5

    def test_nan_analytic_gradient_raises(self):
        # d/dx sqrt(|x|) * 0 at x = 0 is inf * 0: NaN, and err > max_err
        # is false for NaN
        ps = ParamStore()
        ps.add("x", np.array([0.0, 1.0]))

        def f(p):
            return ad.sum_(ad.mul(ad.pow_const(ad.absolute(p["x"]), 0.5), 0.0))

        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match="non-finite analytic gradient for x"):
                grad_check(f, ps)


class TestAdamW:
    def test_decay_only(self):
        ps = ParamStore()
        p = ps.add("p", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        opt = AdamW(ps, lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, np.array([1.0, -2.0]) * (1 - 0.001),
                                   rtol=1e-6)

    def test_constant_gradient_fixed_point(self):
        ps = ParamStore()
        p = ps.add("p", np.array([0.0]))
        opt = AdamW(ps, lr=0.05, weight_decay=0.0)
        prev = p.data.copy()
        for _ in range(300):
            p.grad = np.array([0.7], dtype=p.data.dtype)
            opt.step()
        step = prev[0] - p.data[0]
        # after bias correction the per-step magnitude approaches lr
        last = abs(p.data[0])
        for _ in range(5):
            before = p.data.copy()
            p.grad = np.array([0.7], dtype=p.data.dtype)
            opt.step()
            assert abs(abs(p.data[0] - before[0]) - 0.05) < 1e-3

    def test_missing_gradient_rejected(self):
        ps = ParamStore()
        ps.add("p", np.array([1.0]))
        with pytest.raises(ContractError):
            AdamW(ps).step()

    def test_paper_default_rates_accepted(self):
        ps = ParamStore()
        ps.add("p", np.array([1.0]))
        for lr in (1e-4, 1e-5):
            opt = AdamW(ps, lr=lr, weight_decay=1e-4)
            assert opt.lr == lr and opt.weight_decay == 1e-4


def whole_array_adamw(params, grads, steps, lr, weight_decay, b1=0.9,
                      b2=0.999, eps=1e-8):
    """AdamW's update over each whole array at once, step by step; grads
    holds one dict per step, and a missing name skips that parameter."""
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t in range(1, steps + 1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[t - 1].get(name)
            if g is None:
                continue
            scratch = np.empty_like(p)
            m[name] *= b1
            np.multiply(g, 1.0 - b1, out=scratch)
            m[name] += scratch
            v[name] *= b2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - b2
            v[name] += scratch
            if weight_decay:
                p *= 1.0 - lr * weight_decay
            np.sqrt(v[name], out=scratch)
            scratch *= 1.0 / np.sqrt(bc2)
            scratch += eps
            np.divide(m[name], scratch, out=scratch)
            scratch *= lr / bc1
            p -= scratch


class TestAdamWBlocks:
    @pytest.mark.parametrize("weight_decay", [1e-4, 0.0])
    def test_equals_whole_array_update_bitwise(self, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {
            # two full blocks and a ragged last one
            "big": ((2 * 65536 + 7,), np.float32),
            "mat": ((3, 5), np.float32),
            "f64": ((300, 2), F64),
            "skipped": ((4,), np.float32),
        }
        ps = ParamStore()
        ref = {}
        for name, (shape, dtype) in shapes.items():
            ref[name] = rng.normal(size=shape).astype(dtype)
            ps.add(name, ref[name].copy())
        grads = []
        for step in range(4):
            grads.append({
                name: (rng.normal(size=shape) * 10.0 ** (step - 2)).astype(dtype)
                for name, (shape, dtype) in shapes.items()
                # strict=False: one parameter never has a gradient
                if name != "skipped"
            })
        opt = AdamW(ps, lr=3e-3, weight_decay=weight_decay, strict=False)
        for step_grads in grads:
            for name, p in ps.items():
                p.grad = step_grads.get(name)
            opt.step()
        whole_array_adamw(ref, grads, len(grads), lr=3e-3,
                          weight_decay=weight_decay)
        for name, p in ps.items():
            assert p.data.dtype == ref[name].dtype
            np.testing.assert_array_equal(p.data, ref[name])


def clip_reference_norm(grads):
    return math.sqrt(math.fsum(float(v) ** 2 for g in grads
                               for v in g.reshape(-1)))


class TestClipGradNorm:
    @staticmethod
    def store(rng, shapes, scale=1.0):
        ps = ParamStore()
        for i, shape in enumerate(shapes):
            p = ps.add(f"p{i}", np.zeros(shape, dtype=np.float32))
            p.grad = (rng.normal(size=shape) * scale).astype(np.float32)
        return ps

    # several 64K-value blocks, a ragged one, a matrix and a scalar
    SHAPES = [(3 * 65536 + 11,), (300, 7), (1,)]

    def test_returns_pre_clip_norm(self):
        ps = self.store(np.random.default_rng(40), self.SHAPES)
        grads = [p.grad.copy() for _, p in ps.items()]
        norm = clip_grad_norm(ps, 1e-3)
        ref = clip_reference_norm(grads)
        assert abs(norm - ref) <= 1e-12 * ref
        # the exact total of each gradient's 64K-value block sums, bit for
        # bit
        blocks = [np.sum(g.reshape(-1)[lo:lo + 65536].astype(np.float64) ** 2)
                  for g in grads for lo in range(0, g.size, 65536)]
        assert norm == math.sqrt(math.fsum(blocks))

    def test_norm_independent_of_parameter_order(self):
        """Adding a store's parameters in reverse order changes no bit of
        the norm, with gradients of mixed magnitudes."""
        rng = np.random.default_rng(45)
        for _ in range(20):
            sizes = rng.integers(1, 3 * 65536, size=6)
            grads = [(rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4)).astype(
                np.float32) for n in sizes]
            norms = []
            for order in (grads, grads[::-1]):
                ps = ParamStore()
                for i, g in enumerate(order):
                    ps.add(f"p{i}", np.zeros_like(g)).grad = g.copy()
                norms.append(clip_grad_norm(ps, float("inf")))
            assert norms[0] == norms[1]

    @pytest.mark.parametrize("max_norm_factor", [1.0, 2.0])
    def test_untouched_at_or_below_max_norm(self, max_norm_factor):
        ps = self.store(np.random.default_rng(41), self.SHAPES)
        grads = [p.grad.copy() for _, p in ps.items()]
        norm = clip_grad_norm(ps, float("inf"))
        assert clip_grad_norm(ps, norm * max_norm_factor) == norm
        for g, (_, p) in zip(grads, ps.items()):
            assert p.grad.tobytes() == g.tobytes()

    def test_scaled_above_max_norm(self):
        ps = self.store(np.random.default_rng(42), self.SHAPES)
        # a gradient in no single memory order is scaled too
        strided = np.random.default_rng(43).normal(size=(6, 8)).astype(
            np.float32)[:, ::2]
        ps.add("strided", np.zeros((6, 4), dtype=np.float32)).grad = strided
        grads = [p.grad.copy() for _, p in ps.items()]
        norm = clip_grad_norm(ps, 0.5)
        assert norm > 0.5
        for g, (_, p) in zip(grads, ps.items()):
            assert p.grad.dtype == np.float32
            np.testing.assert_array_equal(p.grad, g * (0.5 / norm))
        assert clip_reference_norm([p.grad for _, p in ps.items()]) == \
            pytest.approx(0.5, rel=1e-6)

    def test_parameters_without_gradient_skipped(self):
        ps = self.store(np.random.default_rng(44), [(5,), (7,)])
        ps.add("frozen", np.ones(4, dtype=np.float32))
        grads = [p.grad.copy() for name, p in ps.items() if name != "frozen"]
        assert clip_grad_norm(ps, 1e-3) == pytest.approx(
            clip_reference_norm(grads), rel=1e-12)
        assert ps["frozen"].grad is None

    def test_norm_past_float64_range_is_inf(self):
        """Two finite float64 squares whose total overflows: the norm is
        inf, as float64 addition gives, and every gradient scales to 0."""
        ps = ParamStore()
        for name in ("a", "b"):
            ps.add(name, np.zeros(1)).grad = np.array([1.2e154])
        assert clip_grad_norm(ps, 1.0) == math.inf
        for _, p in ps.items():
            np.testing.assert_array_equal(p.grad, [0.0])

    def test_no_gradients_norm_zero(self):
        ps = ParamStore()
        ps.add("p", np.ones(3, dtype=np.float32))
        assert clip_grad_norm(ps, 1.0) == 0.0


class TestParamStore:
    def test_unique_names(self):
        ps = ParamStore()
        ps.add("a", np.zeros(1))
        with pytest.raises(ContractError):
            ps.add("a", np.zeros(1))

    def test_iteration_order(self):
        ps = ParamStore()
        for n in ("z", "a", "m"):
            ps.add(n, np.zeros(1))
        assert ps.names() == ["z", "a", "m"]


def trunc_normal_reference(rng, shape, std=0.02):
    """Resample loop that re-checks the whole array every round."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(np.float32)


class TestTruncNormal:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("shape", [(4,), (7, 5), (64, 96), (8, 3, 7, 7),
                                       (1, 1), ()])
    def test_matches_reference_loop(self, seed, shape):
        got = ad.trunc_normal(np.random.default_rng(seed), shape, std=0.1)
        want = trunc_normal_reference(np.random.default_rng(seed), shape,
                                      std=0.1)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_first_draw_without_rejects(self):
        first = np.random.default_rng(0).standard_normal((4,))
        assert (np.abs(first) <= 2.0).all()
        got = ad.trunc_normal(np.random.default_rng(0), (4,), std=1.0)
        np.testing.assert_array_equal(got, first.astype(np.float32))

    def test_several_rounds_and_rng_state(self):
        # about 4.6% of draws land beyond 2 sigma, so this shape needs
        # several resample rounds; both must leave the rng in one state
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        got = ad.trunc_normal(a, (200, 300), std=1.0)
        want = trunc_normal_reference(b, (200, 300), std=1.0)
        np.testing.assert_array_equal(got, want)
        assert np.abs(got).max() <= 2.0
        assert a.standard_normal() == b.standard_normal()
