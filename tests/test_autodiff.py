import math

import numpy as np
import pytest

from treesent import autodiff as ad
from treesent.autodiff import Tensor
from treesent.optim import make_rng

F64 = np.float64


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=F64), requires_grad=requires_grad, dtype=F64)


class TestMatmul:
    def test_identity(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(t64(np.eye(2)), x)
        np.testing.assert_allclose(out.data, x.data)

    def test_hand_example(self):
        out = ad.matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[1.0], [1.0]]))
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        b = t64(rng.normal(size=(4, 2)))
        a0 = t64(rng.normal(size=(3, 4)))
        err = ad.finite_diff_check(
            lambda a: ad.tensor_sum(ad.tanh(ad.matmul(a, b))), a0)
        assert err < 1e-4

    def test_batched_gradient(self, rng):
        b = t64(rng.normal(size=(2, 3, 4)))
        a0 = t64(rng.normal(size=(2, 5, 3)))
        err = ad.finite_diff_check(
            lambda a: ad.tensor_sum(ad.tanh(ad.matmul(a, b))), a0)
        assert err < 1e-5

    @pytest.mark.parametrize("lead", [(2,), (2, 3)])
    def test_shared_weight_gradient(self, rng, lead):
        a0 = t64(rng.normal(size=lead + (5, 3)))
        b0 = t64(rng.normal(size=(3, 4)))
        err = ad.finite_diff_check(
            lambda b: ad.tensor_sum(ad.tanh(ad.matmul(a0, b))), b0)
        assert err < 1e-5
        # the input gradient of the same flattened-GEMM product
        err = ad.finite_diff_check(
            lambda a: ad.tensor_sum(ad.tanh(ad.matmul(a, b0))), a0)
        assert err < 1e-5

    @pytest.mark.parametrize("lead", [(2,), (2, 3)])
    def test_shared_weight_gradient_is_one_contraction(self, rng, lead):
        a = t64(rng.normal(size=lead + (5, 3)), requires_grad=True)
        b = t64(rng.normal(size=(3, 4)), requires_grad=True)
        g = rng.normal(size=lead + (5, 4))
        ad.backward(ad.tensor_sum(ad.mul(ad.matmul(a, b), t64(g))))
        lead_sub = "ij"[:len(lead)]  # the '...nk,...nm->km' contraction, spelled out
        want = np.einsum(f"{lead_sub}nk,{lead_sub}nm->km", a.data, g)
        np.testing.assert_allclose(b.grad, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 4), (4,)),             # 1-D right operand
        ((3,), (3, 4)),             # 1-D left operand
        ((4,), (4,)),
        ((2, 5, 3), (1, 3, 4)),     # broadcast batch
        ((5, 3), (2, 3, 4)),        # 2-D left, batched right
        ((2, 5, 3), (3, 3, 4)),     # mismatched batch
        ((2, 2, 5, 3), (2, 3, 4)),  # batch ranks differ
    ])
    def test_untaken_forms_raise(self, a_shape, b_shape):
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(t64(np.ones(a_shape)), t64(np.ones(b_shape)))


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("op", [
        lambda t: t * 0.5, lambda t: 0.5 * t, lambda t: t + 0.5, lambda t: t - 0.5,
        lambda t: ad.mul(0.5, t), lambda t: ad.add(np.float64(0.5), t),
        lambda t: ad.sub(t, np.ones(3)), lambda t: ad.matmul(t, np.ones((3, 2))),
    ], ids=["mul", "rmul", "add", "sub", "mul_left", "add_np_scalar", "sub_array",
            "matmul_array"])
    def test_scalar_operand_adopts_tensor_dtype(self, dtype, op):
        x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=dtype)
        out = op(x)
        assert out.dtype == dtype
        ad.backward(ad.tensor_sum(out))
        assert x.grad.dtype == dtype


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])

    def test_extreme_magnitudes_stable(self):
        out = ad.softmax(t64([1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.5, 0.5])
        assert np.isfinite(ad.softmax(t64([1e4, -1e4, 0.0])).data).all()

    def test_log_ratios(self):
        z = t64([math.log(1), math.log(2), math.log(3), math.log(4)])
        np.testing.assert_allclose(ad.softmax(z).data, [0.1, 0.2, 0.3, 0.4], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        z = t64(rng.normal(scale=50.0, size=(200, 7)))
        out = ad.softmax(z).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(200), atol=1e-9)
        assert (out >= 0).all()

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(50, 5))
        c = rng.normal(size=(50, 1)) * 100
        a = ad.softmax(t64(z)).data
        b = ad.softmax(t64(z + c)).data
        np.testing.assert_allclose(a, b, atol=1e-9)
        assert (np.argmax(a, axis=-1) == np.argmax(z, axis=-1)).all()

    def test_gradient(self, rng):
        w = rng.normal(size=5)
        z0 = t64(rng.normal(size=5))
        err = ad.finite_diff_check(
            lambda z: ad.tensor_sum(ad.mul(ad.softmax(z), t64(w))), z0)
        assert err < 1e-5


class TestLayerNorm:
    def test_constant_row_gives_bias(self):
        x = t64([[3.0, 3.0, 3.0]])
        gain, bias = t64([2.0, 2.0, 2.0]), t64([1.0, -1.0, 0.5])
        out = ad.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, [[1.0, -1.0, 0.5]], atol=1e-5)

    def test_two_point_row(self):
        out = ad.layer_norm(t64([1.0, 3.0]), t64([1.0, 1.0]), t64([0.0, 0.0]))
        scale = 1.0 / math.sqrt(1.0 + 1e-12)
        np.testing.assert_allclose(out.data, [-scale, scale], atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.layer_norm(t64(np.ones((2, 3))), t64(np.ones(4)), t64(np.zeros(4)))

    def test_gradient(self, rng):
        gain = t64(rng.normal(size=6))
        bias = t64(rng.normal(size=6))
        x0 = t64(rng.normal(size=(2, 6)))
        err = ad.finite_diff_check(
            lambda x: ad.tensor_sum(ad.tanh(ad.layer_norm(x, gain, bias))), x0,
            epsilon=1e-6)
        assert err < 1e-4
        x = t64(rng.normal(size=(2, 6)))
        err = ad.finite_diff_check(
            lambda g: ad.tensor_sum(ad.layer_norm(x, g, bias)), gain)
        assert err < 1e-5


class TestGelu:
    def test_zero(self):
        assert float(ad.gelu(t64(0.0)).data) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_zero_dim(self, dtype):
        x = Tensor(np.asarray(0.7, dtype=dtype), requires_grad=True, dtype=dtype)
        y = ad.gelu(x)
        ad.backward(y)
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (0.7 + 0.044715 * 0.7**3))
        dt = (1 - t * t) * c * (1 + 3 * 0.044715 * 0.7**2)
        assert y.shape == () and y.dtype == dtype and x.grad.dtype == dtype
        tol = 1e-6 if dtype == np.float32 else 1e-12
        assert abs(float(y.data) - 0.5 * 0.7 * (1 + t)) < tol
        assert abs(float(x.grad) - (0.5 * (1 + t) + 0.5 * 0.7 * dt)) < tol

    def test_asymptote(self):
        x = np.array([6.0, 10.0, 25.0])
        np.testing.assert_allclose(ad.gelu(t64(x)).data, x, rtol=1e-6)
        np.testing.assert_allclose(ad.gelu(t64(-x)).data, np.zeros(3), atol=1e-6)

    def test_gradient(self, rng):
        x0 = t64(rng.normal(size=8))
        err = ad.finite_diff_check(lambda x: ad.tensor_sum(ad.gelu(x)), x0)
        assert err < 1e-6

    def test_matches_closed_form(self, rng):
        x = rng.normal(scale=3.0, size=1000)
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(ad.gelu(t64(x)).data, want, rtol=1e-12, atol=0)


class TestEmbeddingLookup:
    def test_row_gather(self):
        table = t64(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, np.array([0, 2]))
        np.testing.assert_allclose(out.data, [[0, 1, 2], [6, 7, 8]])

    def test_duplicate_ids_accumulate(self):
        table = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = ad.embedding_lookup(table, np.array([0, 0]))
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_allclose(table.grad, [[2, 2, 2], [0, 0, 0]])

    def test_duplicate_ids_vs_finite_differences(self):
        ids = np.array([1, 1, 0])
        t0 = t64(np.arange(6.0).reshape(2, 3))
        err = ad.finite_diff_check(
            lambda t: ad.tensor_sum(ad.tanh(ad.embedding_lookup(t, ids))), t0)
        assert err < 1e-6

    @pytest.mark.parametrize("rows", [2, ad._ONE_HOT_MAX_ROWS + 1])
    @pytest.mark.parametrize("form", ["leaf", "interior", "tied"])
    def test_gradient_vs_finite_differences(self, rows, form):
        # repeated ids on both backward paths (dense one-hot and scatter);
        # "tied" also feeds the table to a matmul on its transpose, as the
        # MLM head does, so both contributions accumulate into one grad
        rng = np.random.default_rng(rows)
        ids = np.array([[1, 0, 1], [rows - 1, 1, 1]])
        t0 = t64(rng.normal(size=(rows, 3)))

        def f(t):
            table = t * 2.0 if form == "interior" else t
            out = ad.embedding_lookup(table, ids)
            if form == "tied":
                out = ad.matmul(out, ad.transpose(table))
            return ad.tensor_sum(ad.tanh(out))

        hit = sorted({0, 1, rows // 2, rows - 1})
        coords = [r * 3 + c for r in hit for c in range(3)]
        assert ad.finite_diff_check(f, t0, indices=coords) < 1e-6

    def test_single_row_table(self):
        table = t64(np.ones((1, 4)))
        out = ad.embedding_lookup(table, np.zeros(5, dtype=int))
        assert out.data.shape == (5, 4)

    def test_out_of_range(self):
        with pytest.raises(ad.IndexOutOfRangeError):
            ad.embedding_lookup(t64(np.ones((2, 3))), np.array([2]))


def gather(op, x, axis, indices):
    if op == "embedding_lookup":
        assert axis == 0
        return ad.embedding_lookup(x, indices)
    return ad.index_select(x, axis, indices)


# (op, axis) pairs of the two gathers; embedding_lookup gathers along axis 0 only
GATHERS = [("embedding_lookup", 0), ("index_select", 0), ("index_select", 1)]
# gathered-axis lengths on both sides of the one-hot/segment-sum switch
SIDES = [ad._ONE_HOT_MAX_ROWS, ad._ONE_HOT_MAX_ROWS + 1]


class TestGatherGradient:
    """The scatter-add backward both gathers share, against an ``np.add.at`` oracle."""

    ROWS, H = 2000, 8

    def ids(self, n=ROWS):
        # Zipf-like: many repeats of a few ids, a tail of rare ones, the last row
        rng = np.random.default_rng(3)
        ids = np.minimum(rng.zipf(1.5, size=(16, 64)) - 1, n - 1)
        ids[0, :4] = n - 1
        assert len(np.unique(ids)) < ids.size
        return ids

    @pytest.mark.parametrize("n", [ad._ONE_HOT_MAX_ROWS, ROWS])
    @pytest.mark.parametrize("op,axis", GATHERS)
    @pytest.mark.parametrize("form", ["leaf", "interior"])
    def test_matches_add_at(self, form, op, axis, n):
        ids = self.ids(n)
        if op == "index_select":  # the same slices, every other one counted from the end
            ids[:, ::2] -= n
        rng = np.random.default_rng(4)
        shape = (n, self.H) if axis == 0 else (3, n, self.H)
        leaf = t64(rng.normal(size=shape), requires_grad=True)
        x = leaf if form == "leaf" else ad.reshape(leaf, shape)
        out = gather(op, x, axis, ids)
        w = rng.normal(size=out.shape)
        ad.backward(ad.tensor_sum(ad.mul(out, t64(w))))
        pre = shape[0] if axis else 1
        want = np.zeros((pre, n, self.H))
        np.add.at(want, (slice(None), ids.reshape(-1) % n), w.reshape(pre, ids.size, self.H))
        np.testing.assert_allclose(leaf.grad, want.reshape(shape), rtol=0, atol=1e-12)
        untouched = np.setdiff1d(np.arange(n), ids % n)
        assert (np.take(leaf.grad, untouched, axis=axis) == 0).all()

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("op,axis", GATHERS)
    @pytest.mark.parametrize("form", ["leaf", "interior"])
    def test_empty_indices(self, form, op, axis, n):
        shape = (n, 3) if axis == 0 else (2, n, 3)
        for ids in (np.zeros(0, dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
            leaf = t64(np.ones(shape), requires_grad=True)
            x = leaf if form == "leaf" else ad.reshape(leaf, shape)
            out = gather(op, x, axis, ids)
            assert out.shape == shape[:axis] + ids.shape + shape[axis + 1:]
            ad.backward(ad.tensor_sum(out))
            np.testing.assert_array_equal(leaf.grad, np.zeros(shape))

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("op,axis", GATHERS)
    def test_interior_gradient_is_c_contiguous(self, op, axis, n):
        # a transposed input is an F-ordered view; its gradient comes back in C order
        leaf = t64(np.ones((3, n) if axis == 0 else (3, n, 2)), requires_grad=True)
        x = ad.transpose(leaf)
        assert not x.data.flags.c_contiguous
        seen = []
        closure = x._backward

        def spy(g):
            seen.append(g)
            closure(g)

        x._backward = spy
        ad.backward(ad.tensor_sum(gather(op, x, axis, np.array([[0, n - 1, 0]]))))
        (g,) = seen
        assert g.shape == x.shape and g.flags.c_contiguous
        counts = np.zeros(n)
        counts[[0, n - 1]] = 2, 1
        np.testing.assert_array_equal(g[..., 0], np.broadcast_to(counts, g.shape[:-1]))

    def test_tied_head_matches_add_at(self):
        # the MLM head's case: the lookup also feeds a linear on the
        # table's transpose, and both gradients land in one leaf grad
        ids = self.ids()
        rng = np.random.default_rng(5)
        table = t64(rng.normal(size=(self.ROWS, self.H)), requires_grad=True)
        bias = t64(rng.normal(size=self.ROWS))
        w = rng.normal(size=(ids.size, self.ROWS))
        hidden = ad.reshape(ad.embedding_lookup(table, ids), (ids.size, self.H))
        logits = ad.linear(hidden, ad.transpose(table), bias)
        ad.backward(ad.tensor_sum(ad.mul(logits, t64(w))))
        want = w.T @ hidden.data
        np.add.at(want, ids.reshape(-1), w @ table.data)
        np.testing.assert_allclose(table.grad, want, rtol=0, atol=1e-10)


class TestDropout:
    def test_inference_identity(self, rng):
        x = t64(rng.normal(size=100))
        out = ad.dropout(x, 0.1, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_identity(self, rng):
        x = t64(rng.normal(size=100))
        out = ad.dropout(x, 0.0, training=True, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inactive_records_nothing(self, rng):
        x = t64(rng.normal(size=10), requires_grad=True)
        for out in (ad.dropout(x, 0.1, training=False),
                    ad.dropout(x, 0.0, training=True, rng=rng)):
            assert out is x
            assert out._backward is None

    def test_zero_fraction_statistics(self):
        rng = make_rng(7)
        x = Tensor(np.ones(10**6))
        out = ad.dropout(x, 0.1, training=True, rng=rng)
        frac = float((out.data == 0).mean())
        assert abs(frac - 0.1) < 0.002  # 6 sigma binomial bound
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.9, rtol=1e-6)

    def test_invalid_probability(self, rng):
        with pytest.raises(ad.InvalidProbabilityError):
            ad.dropout(t64([1.0]), 1.0, training=True, rng=rng)
        with pytest.raises(ad.InvalidProbabilityError):
            ad.dropout(t64([1.0]), -0.1, training=True, rng=rng)

    def test_p_just_below_one(self):
        # round(p * 65536) is 65536 here, one past the largest 16-bit draw
        p, n = 1 - 1e-7, 4 * 65536
        out = ad.dropout(Tensor(np.ones(n, dtype=np.float32)), p, training=True,
                         rng=make_rng(8))
        kept = out.data != 0
        assert kept.mean() < 1e-3
        np.testing.assert_allclose(out.data[kept], 1.0 / (1.0 - p), rtol=1e-6)


def cross_entropy(probs, labels):
    """Mean negative log probability of the true class, the fused loss's oracle."""
    return float(-np.log(probs[np.arange(len(labels)), labels]).mean())


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.array([0, 1])) < 1e-6

    def test_uniform_five_way(self):
        probs = np.full((3, 5), 0.2)
        loss = cross_entropy(probs, np.array([0, 2, 4]))
        assert abs(loss - math.log(5)) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ad.LabelOutOfRangeError):
            ad.softmax_cross_entropy(t64(np.zeros((1, 3))), np.array([3]))

    def test_fused_matches_composed(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 2, 4])
        fused = float(ad.softmax_cross_entropy(t64(logits), labels).data)
        composed = cross_entropy(ad.softmax(t64(logits)).data, labels)
        assert abs(fused - composed) < 1e-9

    def test_fused_gradient(self, rng):
        labels = np.array([1, 0, 3])
        z0 = t64(rng.normal(size=(3, 4)))
        err = ad.finite_diff_check(
            lambda z: ad.softmax_cross_entropy(z, labels), z0)
        assert err < 1e-5

    def test_fused_gradient_is_probs_minus_onehot(self, rng):
        z = t64(rng.normal(size=(2, 3)), requires_grad=True)
        labels = np.array([0, 2])
        loss = ad.softmax_cross_entropy(z, labels)
        ad.backward(loss)
        probs = ad.softmax(t64(z.data)).data
        onehot = np.zeros_like(probs)
        onehot[np.arange(2), labels] = 1
        np.testing.assert_allclose(z.grad, (probs - onehot) / 2, atol=1e-9)


LABELS = np.array([0, 3, 19, 7, 7, 12, 1, 5])


def _ln(x):
    h = x.shape[-1]
    gain = Tensor(np.linspace(0.5, 1.5, h), requires_grad=True, dtype=x.dtype)
    bias = Tensor(np.linspace(-1.0, 1.0, h), requires_grad=True, dtype=x.dtype)
    return ad.layer_norm(x, gain, bias), (gain, bias)


FLOAT32_OPS = {
    "layer_norm": (_ln, (4, 6, 32)),
    "softmax": (lambda x: (ad.softmax(x), ()), (4, 6, 32)),
    "softmax_cross_entropy": (lambda x: (ad.softmax_cross_entropy(x, LABELS), ()), (8, 20)),
}


def run_op(op, data):
    """Output, input gradient and extra-leaf gradients of ``op`` on ``data``.

    A non-scalar output is reduced against fixed random weights, so every
    output element reaches the gradient.
    """
    x = Tensor(data, requires_grad=True, dtype=data.dtype)
    out, leaves = op(x)
    loss = out
    if out.data.ndim:
        w = make_rng(5).normal(size=out.shape)
        loss = ad.tensor_sum(ad.mul(out, Tensor(w, dtype=data.dtype)))
    ad.backward(loss)
    return out.data, x.grad, [leaf.grad for leaf in leaves]


def assert_close_to_scale(got, want, atol=1e-5):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=atol * scale)


class TestFloat32Oracle:
    """Float32 ops against the same op on a float64 copy of the input."""

    @pytest.mark.parametrize("name", sorted(FLOAT32_OPS))
    def test_matches_float64_and_stays_float32(self, name):
        op, shape = FLOAT32_OPS[name]
        x = (3.0 * make_rng(11).normal(size=shape) + 5.0).astype(np.float32)
        out, grad, leaf_grads = run_op(op, x)
        out64, grad64, leaf_grads64 = run_op(op, x.astype(F64))
        assert out.dtype == np.float32 and grad.dtype == np.float32
        assert all(g.dtype == np.float32 for g in leaf_grads)
        assert out64.dtype == F64 and grad64.dtype == F64
        assert_close_to_scale(out, out64)
        assert_close_to_scale(grad, grad64)
        for g, g64 in zip(leaf_grads, leaf_grads64):
            assert_close_to_scale(g, g64)

    def test_cross_entropy_wide_logits(self):
        x = make_rng(12).uniform(-1e4, 1e4, size=(8, 20)).astype(np.float32)
        op = FLOAT32_OPS["softmax_cross_entropy"][0]
        loss, grad, _ = run_op(op, x)
        loss64, grad64, _ = run_op(op, x.astype(F64))
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert_close_to_scale(loss, loss64)
        assert_close_to_scale(grad, grad64)

    def test_dropout_float32_mask(self):
        p, n = 0.3, 200_000
        x = Tensor(make_rng(13).normal(size=n).astype(np.float32), requires_grad=True)
        out = ad.dropout(x, p, training=True, rng=make_rng(14))
        assert out.dtype == np.float32
        kept = float((out.data != 0).mean())
        assert abs(kept - (1 - p)) < 6 * math.sqrt(p * (1 - p) / n)
        g = make_rng(15).normal(size=n).astype(np.float32)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
        assert x.grad.dtype == np.float32
        nz = x.data != 0
        np.testing.assert_allclose(x.grad[nz], (g * out.data / x.data)[nz], rtol=1e-6)


NEG_INF = -1e9
KEY_MASK = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])  # row 0 has two padded keys


def unfused_attention(q, k, v, key_bias, heads, p, training, rng):
    """The generic-op composition that ``ad.attention`` fuses."""
    lead, (n, h) = q.shape[:-2], q.shape[-2:]
    d = h // heads
    r = len(lead)
    heads_first = tuple(range(r)) + (r + 1, r, r + 2)

    def split(t):
        return ad.transpose(ad.reshape(t, lead + (n, heads, d)), heads_first)

    qh, kh, vh = split(q), split(k), split(v)
    scores = ad.matmul(qh, ad.transpose(kh, tuple(range(r + 1)) + (r + 2, r + 1)))
    scores = ad.mul(scores, 1.0 / math.sqrt(d))
    scores = scores + Tensor(key_bias.reshape(lead + (1, 1, n)), dtype=q.dtype)
    probs = ad.dropout(ad.softmax(scores), p, training, rng)
    ctx = ad.transpose(ad.matmul(probs, vh), heads_first)
    return ad.reshape(ctx, lead + (n, h))


def _attention_case(fn, lead, p):
    key_bias = np.where(KEY_MASK, 0.0, NEG_INF)[:lead[0]] if lead else np.zeros(5)
    # a fresh generator per call draws the same dropout mask every time
    return lambda q, k, v: fn(q, k, v, key_bias, 2, p, p > 0, make_rng(21))


def unfused_residual_linear(x, c, w, b, gain, bias, p, training, rng):
    return ad.add_layer_norm(x, ad.dropout(ad.linear(c, w, b), p, training, rng), gain, bias)


def unfused_residual_feed_forward(x, w1, b1, w2, b2, gain, bias, p, training, rng):
    branch = ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)
    return ad.add_layer_norm(x, ad.dropout(branch, p, training, rng), gain, bias)


def _residual_case(fn, p):
    # a fresh generator per call draws the same dropout mask every time
    return lambda *args: fn(*args, p, p > 0, make_rng(22))


def residual_cases():
    """The residual ops on (n, H) and (B, n, H) inputs, with and without dropout."""
    cases = {}
    for lead in ((3,), (2, 3)):
        for p in (0.0, 0.3):
            tag = f"{len(lead) + 1}d_p{p}"
            cases[f"residual_linear_{tag}"] = (
                _residual_case(ad.residual_linear, p),
                _residual_case(unfused_residual_linear, p),
                [lead + (8,), lead + (4,), (4, 8), (8,), (8,), (8,)])
            cases[f"residual_feed_forward_{tag}"] = (
                _residual_case(ad.residual_feed_forward, p),
                _residual_case(unfused_residual_feed_forward, p),
                [lead + (8,), (8, 6), (6,), (6, 8), (8,), (8,), (8,)])
    return cases


# name -> (fused, unfused, input shapes); every input is a gradient leaf
FUSED_OPS = {
    "linear": (ad.linear, lambda x, w, b: ad.matmul(x, w) + b, [(2, 3, 4), (4, 5), (5,)]),
    "linear_2d": (ad.linear, lambda x, w, b: ad.matmul(x, w) + b, [(3, 4), (4, 5), (5,)]),
    "add_layer_norm": (ad.add_layer_norm, lambda x, r, g, b: ad.layer_norm(x + r, g, b),
                       [(2, 3, 8), (2, 3, 8), (8,), (8,)]),
    "attention": (_attention_case(ad.attention, (2,), 0.3),
                  _attention_case(unfused_attention, (2,), 0.3), [(2, 5, 8)] * 3),
    "attention_no_dropout": (_attention_case(ad.attention, (2,), 0.0),
                             _attention_case(unfused_attention, (2,), 0.0), [(2, 5, 8)] * 3),
    "attention_unbatched": (_attention_case(ad.attention, (), 0.3),
                            _attention_case(unfused_attention, (), 0.3), [(5, 8)] * 3),
    **residual_cases(),
}


def fused_inputs(shapes, dtype, seed=31):
    rng = make_rng(seed)
    return [rng.normal(size=s).astype(dtype) for s in shapes]


def run_graph(fn, arrays):
    """Output and every input's gradient of ``fn``, its output reduced
    against fixed random weights so every element reaches the gradient."""
    leaves = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    out = fn(*leaves)
    w = make_rng(5).normal(size=out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, Tensor(w, dtype=out.dtype))))
    return out.data, [leaf.grad for leaf in leaves]


def assert_finite_differences(fn, arrays):
    """float64 ``finite_diff_check`` of ``fn`` in each of its inputs."""
    for i in range(len(arrays)):
        def f(t, i=i):
            args = [t64(a) for a in arrays]
            args[i] = t
            out = fn(*args)
            w = make_rng(5).normal(size=out.shape)
            return ad.tensor_sum(ad.tanh(ad.mul(out, t64(w))))

        assert ad.finite_diff_check(f, t64(arrays[i])) < 1e-6, i


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_gradient_vs_finite_differences(self, name):
        fused, _, shapes = FUSED_OPS[name]
        assert_finite_differences(fused, fused_inputs(shapes, F64))

    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_matches_unfused_float64(self, name):
        fused, unfused, shapes = FUSED_OPS[name]
        arrays = fused_inputs(shapes, F64)
        out, grads = run_graph(fused, arrays)
        want, want_grads = run_graph(unfused, arrays)
        assert out.dtype == F64
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)
        for g, g_want in zip(grads, want_grads):
            assert g.dtype == F64
            np.testing.assert_allclose(g, g_want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(FUSED_OPS))
    def test_matches_unfused_float32(self, name):
        fused, unfused, shapes = FUSED_OPS[name]
        arrays = fused_inputs(shapes, np.float32)
        out, grads = run_graph(fused, arrays)
        want, want_grads = run_graph(unfused, arrays)
        out64, grads64 = run_graph(fused, [a.astype(F64) for a in arrays])
        assert out.dtype == np.float32
        assert_close_to_scale(out, want)
        assert_close_to_scale(out, out64)
        for g, g_want, g64 in zip(grads, want_grads, grads64):
            assert g.dtype == np.float32
            assert_close_to_scale(g, g_want)
            assert_close_to_scale(g, g64)

    def test_attention_ignores_padded_keys(self):
        q, k, v = (t64(a) for a in fused_inputs([(2, 5, 8)] * 3, F64))
        key_bias = np.where(KEY_MASK, 0.0, NEG_INF)
        out = ad.attention(q, k, v, key_bias, 2, 0.0, False).data
        v2 = v.data.copy()
        v2[0, 3:] = 100.0  # values of row 0's padded keys
        k2 = k.data.copy()
        k2[0, 3:] = -7.0
        moved = ad.attention(q, t64(k2), t64(v2), key_bias, 2, 0.0, False).data
        np.testing.assert_allclose(moved, out, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op, args", [
        (ad.linear, [(2, 4), (3, 5), (5,)]),
        (ad.linear, [(2, 4), (4, 5), (4,)]),
        (ad.linear, [(2, 4), (4,), (4,)]),
        (ad.add_layer_norm, [(2, 4), (2, 3), (3,), (3,)]),
        (ad.add_layer_norm, [(2, 4), (2, 4), (3,), (4,)]),
        (_residual_case(ad.residual_feed_forward, 0.0),  # w1 not (4, ...)
         [(2, 4), (3, 5), (5,), (5, 4), (4,), (4,), (4,)]),
        (_residual_case(ad.residual_feed_forward, 0.0),  # b2 not (4,)
         [(2, 4), (4, 5), (5,), (5, 4), (3,), (4,), (4,)]),
        (_residual_case(ad.residual_linear, 0.0),  # 3 branch rows beside 2
         [(2, 4), (3, 4), (4, 4), (4,), (4,), (4,)]),
        (lambda q, k, v: ad.attention(q, k, v, np.zeros(3), 2, 0.0, False), [(3, 4), (3, 4), (2, 4)]),
        (lambda q, k, v: ad.attention(q, k, v, np.zeros(3), 3, 0.0, False), [(3, 4)] * 3),
        (lambda q, k, v: ad.attention(q, k, v, np.zeros(3), 2, 0.0, False),
         [(2, 6), (3, 4), (3, 4)]),
        (lambda q, k, v: ad.attention(q, k, v, np.zeros(3), 2, 0.0, False),
         [(2, 2, 4), (3, 4), (3, 4)]),
        (lambda q, k, v: ad.attention(q, k, v, np.zeros((2, 3)), 2, 0.0, False),
         [(1, 2, 4), (2, 3, 4), (2, 3, 4)]),
    ])
    def test_shape_mismatch(self, op, args):
        with pytest.raises(ad.ShapeMismatchError):
            op(*(t64(np.ones(s)) for s in args))

    def test_attention_dropout_checks_probability(self):
        q = t64(np.ones((3, 4)))
        with pytest.raises(ad.InvalidProbabilityError):
            ad.attention(q, q, q, np.zeros(3), 2, 1.0, True, make_rng(1))


QUERY_ROWS = np.array([0, 3, 4])  # 3 of 5 positions; 3 and 4 are padded keys in row 0


@pytest.mark.parametrize("lead", [(2,), ()])
class TestAttentionFewerQueries:
    def test_gradient_vs_finite_differences(self, lead):
        shapes = [lead + (3, 8), lead + (5, 8), lead + (5, 8)]
        assert_finite_differences(_attention_case(ad.attention, lead, 0.3),
                                  fused_inputs(shapes, F64))

    def test_rows_of_full_attention(self, lead):
        # the loss reads the full output only at QUERY_ROWS, so every
        # gradient must match the one through the queries at those rows alone
        attend = _attention_case(ad.attention, lead, 0.0)
        q, k, v = fused_inputs([lead + (5, 8)] * 3, F64)
        axis = len(lead)
        full, full_grads = run_graph(
            lambda q, k, v: ad.index_select(attend(q, k, v), axis, QUERY_ROWS), [q, k, v])
        part, (gq, gk, gv) = run_graph(attend, [np.take(q, QUERY_ROWS, axis=axis), k, v])
        assert part.shape == lead + (3, 8)
        np.testing.assert_allclose(part, full, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gq, np.take(full_grads[0], QUERY_ROWS, axis=axis),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(gk, full_grads[1], rtol=0, atol=1e-10)
        np.testing.assert_allclose(gv, full_grads[2], rtol=0, atol=1e-10)


class DualNumber:
    """Forward-mode scalar oracle for checking reverse-mode accumulation."""

    def __init__(self, val, dot=0.0):
        self.val, self.dot = val, dot

    def __add__(self, o):
        return DualNumber(self.val + o.val, self.dot + o.dot)

    def __mul__(self, o):
        return DualNumber(self.val * o.val, self.dot * o.val + self.val * o.dot)

    def tanh(self):
        t = math.tanh(self.val)
        return DualNumber(t, (1 - t * t) * self.dot)


class TestBackward:
    def test_sum_gradient_ones(self, rng):
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        ad.backward(ad.tensor_sum(x))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_square_gradient(self, rng):
        x = t64(rng.normal(size=7), requires_grad=True)
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_not_scalar(self, rng):
        x = t64(rng.normal(size=3), requires_grad=True)
        with pytest.raises(ad.NotScalarError):
            ad.backward(ad.mul(x, x))

    def test_shared_subexpression_vs_dual_oracle(self, rng):
        # y = tanh(a*b + a); loss = y*y + y*b — a and y both feed two consumers
        for _ in range(20):
            av, bv = rng.normal(), rng.normal()

            def build(a, b):
                y = ad.tanh(a * b + a)
                return y * y + y * b

            a = t64(av, requires_grad=True)
            b = t64(bv, requires_grad=True)
            ad.backward(build(a, b))

            def oracle(wrt):
                da = DualNumber(av, 1.0 if wrt == "a" else 0.0)
                db = DualNumber(bv, 1.0 if wrt == "b" else 0.0)
                y = (da * db + da).tanh()
                return (y * y + y * db).dot

            assert abs(float(a.grad) - oracle("a")) < 1e-9
            assert abs(float(b.grad) - oracle("b")) < 1e-9

    def test_leaf_with_two_consumers_keeps_both_gradients(self, rng):
        a = t64(rng.normal(size=(2, 4, 3)), requires_grad=True)
        c = t64(rng.normal(size=(5, 3)))
        w = t64(rng.normal(size=(3, 2)), requires_grad=True)
        h1 = ad.matmul(a, w)
        h2 = ad.tanh(ad.matmul(c, w))
        ad.backward(ad.tensor_sum(ad.mul(h1, h1)) + ad.tensor_sum(h2))
        want = (2 * np.einsum("ink,inm->km", a.data, a.data @ w.data)
                + c.data.T @ (1 - np.tanh(c.data @ w.data) ** 2))
        np.testing.assert_allclose(w.grad, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.grad, 2 * (a.data @ w.data) @ w.data.T,
                                   rtol=1e-12, atol=1e-12)
        # interior nodes are freed during the pass; leaves keep their grads
        for node in (h1, h2):
            assert node.grad is None and node._backward is None and node._parents == ()

    @pytest.mark.parametrize("q_first", [False, True])
    def test_shared_first_gradient_is_not_written_through(self, rng, q_first):
        # add hands one gradient array to both of its operands; a later
        # contribution to one of them must not change the other's
        x = t64(rng.normal(size=4), requires_grad=True)
        y = t64(rng.normal(size=4), requires_grad=True)
        a, b = ad.tanh(x), ad.tanh(y)
        p, q = ad.add(a, b), ad.mul(a, 3.0)
        ad.backward(ad.tensor_sum(ad.add(q, p) if q_first else ad.add(p, q)))
        np.testing.assert_allclose(x.grad, 4 * (1 - np.tanh(x.data) ** 2), rtol=1e-12)
        np.testing.assert_allclose(y.grad, 1 - np.tanh(y.data) ** 2, rtol=1e-12)

    def test_tape_cleared_after_backward(self, rng):
        x = t64(rng.normal(size=3), requires_grad=True)
        loss = ad.tensor_sum(ad.mul(x, x))
        ad.backward(loss)
        assert loss._backward is None and loss._parents == ()


class TestFiniteDiffCheck:
    def test_sum_is_exact(self, rng):
        x = t64(rng.normal(size=5))
        assert ad.finite_diff_check(ad.tensor_sum, x) < 1e-10

    def test_softmax_pick(self, rng):
        x = t64(rng.normal(size=6))
        err = ad.finite_diff_check(
            lambda z: ad.tensor_sum(ad.mul(ad.softmax(z), t64(np.eye(6)[2]))), x)
        assert err < 1e-5

    def test_discontinuous_reported_not_crashed(self):
        def f(x):
            s = ad.tensor_sum(x)
            return s if float(s.data) > 0 else ad.mul(s, s)

        err = ad.finite_diff_check(f, t64([1e-9, -1e-9]))
        assert math.isfinite(err)

    def test_nan_gradient_is_reported(self):
        # coordinate 0's error is NaN, coordinate 1's is 0: NaN must win
        err = ad.finite_diff_check(lambda t: ad.tensor_sum(ad.mul(t, t64([math.nan, 1.0]))),
                                   t64([1.0, 2.0]))
        assert math.isnan(err)


def test_all_primitives_randomized_fd(rng):
    """Seeded randomized sweep over every differentiable primitive."""
    checks = 0
    for trial in range(25):
        w = t64(rng.normal(size=(3, 3)))
        v = t64(rng.normal(size=3))
        cases = [
            (lambda x: ad.tensor_sum(ad.matmul(x, w)), (2, 3)),
            (lambda x: ad.tensor_sum(ad.softmax(x) * v), (2, 3)),
            (lambda x: ad.tensor_sum(ad.gelu(x)), (4,)),
            (lambda x: ad.tensor_sum(ad.tanh(x)), (4,)),
            (lambda x: ad.tensor_mean(ad.mul(x, x)), (5,)),
            (lambda x: ad.tensor_sum(ad.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)))), (2, 3)),
        ]
        for f, shape in cases:
            x = t64(rng.normal(size=shape))
            assert ad.finite_diff_check(f, x) < 1e-4
            checks += 1
    assert checks >= 100
