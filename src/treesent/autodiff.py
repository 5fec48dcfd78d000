"""Minimal dense tensor library with reverse-mode automatic differentiation.

Tensors store float32 data by default (float64 supported for high-precision
gradient checking). Every activation keeps the dtype of its tensor inputs:
a Python scalar or array passed to ``add``, ``sub``, ``mul`` or ``matmul``
adopts the dtype of the Tensor operand, so a float32 model computes in
float32 throughout. Sums, softmax, layer norm and the fused loss accumulate
their reductions in float64 (``dtype=np.float64``) but make no full-size
float64 copies: every full-size array stays in the input's dtype. Dropout
keeps a unit where a 16-bit draw, four to each raw 64-bit word of the
generator, is at least ``round(p * 65536)``. Its mask is boolean, 1 byte a
unit, and the ``1/(1-p)`` scale is a scalar multiply after it.

Three fused ops carry each encoder block, each one tape node with a
hand-written backward that saves only what it reads: ``attention`` (head
split, scores, key mask, softmax, probability dropout, context and head
merge), which also takes fewer queries than keys; ``residual_linear``,
``layer_norm(x + dropout(c @ w + b))``; and ``residual_feed_forward``,
``layer_norm(x + dropout(gelu(x @ w1 + b1) @ w2 + b2))``, which recomputes
the GELU output in its backward. ``linear`` (one GEMM plus an in-place bias)
and ``add_layer_norm`` (the residual add fused into layer norm) serve the
embeddings, pooler and heads. Each computes what the composition of the
generic ops computes, in the same order, so only gradient sums may differ
in the last bits; the two residual ops give exactly the bits of ``linear``,
``dropout``, ``add_layer_norm`` and ``gelu`` composed.

The ops take only the forms the encoder, its heads and the gradient checks
use: ``matmul`` multiplies by a 2-D weight or by a batch of the same leading
shape, and ``tensor_sum``/``tensor_mean`` reduce the whole tensor to a
scalar. ``embedding_lookup`` and ``index_select`` differ only in the indices
they accept: both are ``_gather``, one gather with one scatter-add backward.

An op's result array becomes its output tensor's data without a copy, and
an interior node keeps the first gradient it receives without a copy too.
Operations record backward closures on their outputs; ``backward(loss)``
runs them once in reverse topological order and frees each interior node's
gradient, closure and parent links as soon as its closure has run. Only
leaf tensors keep ``grad``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "IndexOutOfRangeError",
    "InvalidProbabilityError",
    "LabelOutOfRangeError",
    "NotScalarError",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "tensor_sum",
    "tensor_mean",
    "tanh",
    "gelu",
    "softmax",
    "layer_norm",
    "add_layer_norm",
    "dropout",
    "residual_linear",
    "residual_feed_forward",
    "attention",
    "embedding_lookup",
    "index_select",
    "softmax_cross_entropy",
    "backward",
    "finite_diff_check",
]


class ShapeMismatchError(ValueError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


class InvalidProbabilityError(ValueError):
    pass


class LabelOutOfRangeError(ValueError):
    pass


class NotScalarError(ValueError):
    pass


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense multi-dimensional float array participating in autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _operands(a, b):
    """Both operands as Tensors; a non-Tensor adopts the other's dtype.

    Without this a Python float becomes a 0-d float64 array, and NumPy 2
    promotes float32 @ float64 to float64 from that op onward.
    """
    if not isinstance(a, Tensor):
        a = Tensor(a, dtype=b.dtype if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.dtype)
    return a, b


def _make(data, parents, backward_fn):
    """Wrap ``data``, uncopied, as the result tensor; record the closure if needed."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t, g):
    """Add ``g`` to ``t.grad``.

    Closures only read the gradient they are given, so an interior node
    keeps its first gradient uncopied (it may be a view of another node's)
    and adds later ones out of place. A leaf gets its own writable array.
    """
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a, b):
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a, b):
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def matmul(a, b):
    """Matrix product over the last two axes, in one of two forms.

    * ``(..., n, k) @ (k, m)``: a 2-D ``b`` (every linear layer, the pooler
      and the heads) runs as one GEMM over the flattened leading
      dimensions, forward and backward.
    * ``(..., n, k) @ (..., k, m)`` with the same leading shape (attention)
      runs as a batched product.

    Any other pairing, a 1-D operand or a broadcast batch included, raises
    ``ShapeMismatchError``.
    """
    a, b = _operands(a, b)
    sa, sb = a.data.shape, b.data.shape
    weight = b.data.ndim == 2 and a.data.ndim >= 2
    batch = a.data.ndim == b.data.ndim > 2 and sa[:-2] == sb[:-2]
    if not (weight or batch) or sa[-1] != sb[-2]:
        raise ShapeMismatchError(f"matmul: {sa} @ {sb}")
    if weight:
        k, m = sb
        out_data = (a.data.reshape(-1, k) @ b.data).reshape(sa[:-1] + (m,))
    else:
        out_data = a.data @ b.data

    def bw(g):
        if weight:
            g2 = g.reshape(-1, m)
            _accumulate(a, (g2 @ b.data.T).reshape(sa))
            _accumulate(b, a.data.reshape(-1, k).T @ g2)
        else:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(out_data, (a, b), bw)


def linear(x, w, b):
    """``x @ w + b`` for a 2-D weight ``(k, m)`` and a bias ``(m,)``.

    One GEMM over the flattened leading dimensions of ``x``, the bias added
    in place; the backward is ``g2 @ w.T``, ``x2.T @ g2`` and ``g2.sum(0)``.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    shape = x.data.shape
    if w.data.ndim != 2 or shape[-1:] != w.data.shape[:1] or b.data.shape != w.data.shape[1:]:
        raise ShapeMismatchError(f"linear: {shape} @ {w.data.shape} + {b.data.shape}")
    k, m = w.data.shape
    x2 = x.data.reshape(-1, k)
    out_data = x2 @ w.data
    out_data += b.data

    def bw(g):
        g2 = g.reshape(-1, m)
        _accumulate(x, (g2 @ w.data.T).reshape(shape))
        _accumulate(w, x2.T @ g2)
        _accumulate(b, g2.sum(axis=0))

    return _make(out_data.reshape(shape[:-1] + (m,)), (x, w, b), bw)


def reshape(a, shape):
    a = _as_tensor(a)
    out_data = a.data.reshape(shape)
    old_shape = a.data.shape

    def bw(g):
        _accumulate(a, g.reshape(old_shape))

    return _make(out_data, (a,), bw)


def transpose(a, axes=None):
    a = _as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def bw(g):
        _accumulate(a, np.transpose(g, inv))

    return _make(out_data, (a,), bw)


def tensor_sum(a):
    """Sum of every element, accumulated in float64."""
    a = _as_tensor(a)
    out_data = a.data.sum(dtype=np.float64).astype(a.data.dtype)

    def bw(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), bw)


def tensor_mean(a):
    """Mean of every element, accumulated in float64."""
    a = _as_tensor(a)
    n = a.data.size
    out_data = (a.data.sum(dtype=np.float64) / n).astype(a.data.dtype)

    def bw(g):
        _accumulate(a, np.broadcast_to(g / n, a.data.shape))

    return _make(out_data, (a,), bw)


def tanh(a):
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def bw(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x):
    """``tanh(C (x + 0.044715 x^3))``, GELU's tanh term, in a buffer of its own.

    ``out=`` keeps 0-d inputs as arrays: ``x * x`` on a 0-d array is a numpy
    scalar, which in-place ops cannot write into. The cube is x * x * x, not
    x**3: float32 ``**`` goes through pow, many times slower.
    """
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_from_tanh(x, t):
    """GELU's output ``0.5 x (1 + t)`` in a new buffer."""
    out = np.add(t, 1.0, out=np.empty_like(x))
    out *= x
    out *= 0.5
    return out


def _gelu_backward(g, x, t, d, s):
    """``g`` times GELU's derivative at ``x``, formed in buffer ``d``.

    d/dx = 0.5 (1 + t) + u (1 - t^2), with u = 0.5 C x (1 + 3 * 0.044715 x^2).
    ``s`` may be ``x``'s own buffer, which is last read before ``s`` is
    written; ``t`` is overwritten.
    """
    np.multiply(x, x, out=d)
    d *= 3 * 0.044715
    d += 1.0
    d *= 0.5 * _GELU_C
    d *= x
    np.multiply(t, t, out=s)
    np.subtract(1.0, s, out=s)
    d *= s
    np.add(t, 1.0, out=t)
    np.multiply(t, 0.5, out=t)
    d += t
    d *= g
    return d


def gelu(a):
    """Pointwise GELU, tanh approximation, computed in reused buffers."""
    a = _as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)

    def bw(g):
        # the closure runs once, so t's buffer is free to reuse
        _accumulate(a, _gelu_backward(g, x, t, np.empty_like(x), np.empty_like(x)))

    return _make(_gelu_from_tanh(x, t), (a,), bw)


def _exp_normalise(y):
    """Softmax of the rows of max-shifted ``y``, in place; row sums in float64."""
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)


def _softmax_backward(g, y):
    """dz = y * (g - sum(g * y)) over the last axis, in one buffer."""
    dz = g * y
    s = dz.sum(axis=-1, keepdims=True, dtype=np.float64).astype(y.dtype)
    np.subtract(g, s, out=dz)
    dz *= y
    return dz


def softmax(z):
    """Row softmax over the last axis, computed with max-subtraction.

    The shift, ``exp`` and normalisation run in one buffer of the input's
    dtype; only the row sums accumulate in float64.
    """
    z = _as_tensor(z)
    x = z.data
    y = x - x.max(axis=-1, keepdims=True)
    _exp_normalise(y)

    def bw(g):
        _accumulate(z, _softmax_backward(g, y))

    return _make(y, (z,), bw)


def _row_mean(a):
    """Mean over the last axis, accumulated in float64, in ``a``'s dtype."""
    return a.mean(axis=-1, keepdims=True, dtype=np.float64).astype(a.dtype)


def _check_affine(name, h, gain, bias):
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise ShapeMismatchError(
            f"{name}: x last dim {h}, gain {gain.data.shape}, bias {bias.data.shape}"
        )


def _normalise(xhat, gain, bias):
    """Layer norm of the centred rows ``xhat``, which it scales in place.

    Returns the output and the per-row ``1 / std``. Variances accumulate in
    float64; the variance floor is BERT's 1e-12.
    """
    out = np.square(xhat)  # the squares first, then the output
    var = out.mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + 1e-12)).astype(xhat.dtype)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return out, inv


def _normalise_backward(g, xhat, inv, gain, bias):
    """Accumulate the gain and bias gradients; return the input gradient.

    The closure calling it runs once, so ``xhat``'s buffer is reused.
    """
    h = xhat.shape[-1]
    t = g * xhat
    _accumulate(gain, t.reshape(-1, h).sum(axis=0, dtype=np.float64))
    _accumulate(bias, g.reshape(-1, h).sum(axis=0, dtype=np.float64))
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    dx = g * gain.data
    np.multiply(dx, xhat, out=t)
    np.multiply(xhat, _row_mean(t), out=xhat)
    dx -= _row_mean(dx)
    dx -= xhat
    dx *= inv
    return dx


def layer_norm(x, gain, bias):
    """Zero-mean unit-variance normalization over the last axis, then affine.

    Row means and variances accumulate in float64; the full-size arrays stay
    in the input's dtype. The variance floor is BERT's 1e-12.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    _check_affine("layer_norm", x.data.shape[-1], gain, bias)
    xhat = x.data - _row_mean(x.data)
    out_data, inv = _normalise(xhat, gain, bias)

    def bw(g):
        _accumulate(x, _normalise_backward(g, xhat, inv, gain, bias))

    return _make(out_data, (x, gain, bias), bw)


def add_layer_norm(x, r, gain, bias):
    """``layer_norm(x + r, gain, bias)`` for a residual ``r`` of ``x``'s shape.

    The sum is centred in its own buffer, and one input gradient goes to
    both ``x`` and ``r``.
    """
    x, r, gain, bias = _as_tensor(x), _as_tensor(r), _as_tensor(gain), _as_tensor(bias)
    if r.data.shape != x.data.shape:
        raise ShapeMismatchError(f"add_layer_norm: {x.data.shape} + {r.data.shape}")
    _check_affine("add_layer_norm", x.data.shape[-1], gain, bias)
    xhat = x.data + r.data
    xhat -= _row_mean(xhat)
    out_data, inv = _normalise(xhat, gain, bias)

    def bw(g):
        dx = _normalise_backward(g, xhat, inv, gain, bias)
        _accumulate(x, dx)
        _accumulate(r, dx)

    return _make(out_data, (x, r, gain, bias), bw)


def _dropout_mask(shape, p, training, rng):
    """Inverted dropout's boolean keep mask, or None when inactive.

    Each unit takes one 16-bit draw, four to each raw 64-bit word of the
    generator, and is kept when the draw is at least ``round(p * 65536)``,
    capped at 65535 so that every ``p`` below 1 keeps some units.
    """
    if not (0.0 <= p < 1.0):
        raise InvalidProbabilityError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    n = math.prod(shape)
    draws = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n].reshape(shape)
    return draws >= np.uint16(min(round(p * 65536), 65535))


def _drop(a, keep, p, out=None):
    """``(a * keep) * (1 / (1 - p))`` with the scale in ``a``'s dtype, into
    ``out`` if given: the bits of ``a`` times the scaled float mask, signed
    zeros and NaNs included."""
    out = np.multiply(a, keep, out=out)
    out *= a.dtype.type(1.0 / (1.0 - p))
    return out


def dropout(x, p, training, rng=None):
    """Inverted dropout: train-time survivors scaled by 1/(1-p).

    Forward and backward each multiply by the boolean keep mask, 1 byte a
    unit, and then by the scale. When inactive (inference, or ``p == 0``)
    it returns ``x`` itself and records nothing on the tape.
    """
    x = _as_tensor(x)
    keep = _dropout_mask(x.data.shape, p, training, rng)
    if keep is None:
        return x

    def bw(g):
        _accumulate(x, _drop(g, keep, p))

    return _make(_drop(x.data, keep, p), (x,), bw)


def _residual_tail(x, y2, w, b, gain, bias, p, training, rng):
    """Forward of ``layer_norm(x + dropout(y2 @ w + b))``, ``y2`` being the
    (N, k) rows of a branch beside ``x`` (..., H).

    The GEMM's output buffer becomes the centred sum, so the projection is
    never held. Returns the output and ``bw(g, y2)``, which accumulates the
    gradients of ``x``, ``w``, ``b``, ``gain`` and ``bias`` and returns
    ``y2``'s, given ``y2`` again: the caller may have let it go.
    """
    shape = x.data.shape
    if w.data.shape != (y2.shape[1], shape[-1]) or b.data.shape != shape[-1:]:
        raise ShapeMismatchError(
            f"residual branch: {y2.shape} @ {w.data.shape} + {b.data.shape} beside {shape}")
    _check_affine("residual layer norm", shape[-1], gain, bias)
    xhat = y2 @ w.data
    xhat += b.data
    xhat = xhat.reshape(shape)
    keep = _dropout_mask(shape, p, training, rng)
    if keep is not None:
        _drop(xhat, keep, p, out=xhat)
    xhat += x.data
    xhat -= _row_mean(xhat)
    out, inv = _normalise(xhat, gain, bias)

    def bw(g, y2):
        dx = _normalise_backward(g, xhat, inv, gain, bias)
        _accumulate(x, dx)
        g2 = (dx if keep is None else _drop(dx, keep, p)).reshape(-1, shape[-1])
        _accumulate(w, y2.T @ g2)
        _accumulate(b, g2.sum(axis=0))
        return g2 @ w.data.T

    return out, bw


def residual_linear(x, c, w, b, gain, bias, p, training, rng=None):
    """``layer_norm(x + dropout(c @ w + b), gain, bias)``, one tape node.

    ``c`` is (..., k) with ``x``'s leading shape: the attention context
    and its output projection. Saved: the centred sum, the row scales and
    the keep mask.
    """
    x, c, w, b, gain, bias = (_as_tensor(t) for t in (x, c, w, b, gain, bias))
    if c.data.shape[:-1] != x.data.shape[:-1]:
        raise ShapeMismatchError(f"residual_linear: {c.data.shape} beside {x.data.shape}")
    c2 = c.data.reshape(-1, c.data.shape[-1])
    out, tail_bw = _residual_tail(x, c2, w, b, gain, bias, p, training, rng)

    def bw(g):
        _accumulate(c, tail_bw(g, c2).reshape(c.data.shape))

    return _make(out, (x, c, w, b, gain, bias), bw)


def residual_feed_forward(x, w1, b1, w2, b2, gain, bias, p, training, rng=None):
    """``layer_norm(x + dropout(gelu(x @ w1 + b1) @ w2 + b2), gain, bias)``,
    one tape node.

    Saved: the pre-activation, GELU's tanh term, the centred sum, the row
    scales and the keep mask. The backward recomputes the activation, with
    the forward's ops, for ``w2``'s gradient, and then forms GELU's
    derivative in that buffer and the pre-activation's.
    """
    x, w1, b1, w2, b2, gain, bias = (_as_tensor(t) for t in (x, w1, b1, w2, b2, gain, bias))
    h = x.data.shape[-1]
    if w1.data.ndim != 2 or w1.data.shape[0] != h or b1.data.shape != w1.data.shape[1:]:
        raise ShapeMismatchError(
            f"residual_feed_forward: {x.data.shape} @ {w1.data.shape} + {b1.data.shape}")
    x2 = x.data.reshape(-1, h)
    pre = x2 @ w1.data
    pre += b1.data
    t = _gelu_tanh(pre)
    out, tail_bw = _residual_tail(x, _gelu_from_tanh(pre, t), w2, b2, gain, bias,
                                  p, training, rng)

    def bw(g):
        a = _gelu_from_tanh(pre, t)  # the activation again, for w2's gradient
        d = _gelu_backward(tail_bw(g, a), pre, t, d=a, s=pre)
        _accumulate(x, (d @ w1.data.T).reshape(x.data.shape))
        _accumulate(w1, x2.T @ d)
        _accumulate(b1, d.sum(axis=0))

    return _make(out, (x, w1, b1, w2, b2, gain, bias), bw)


def attention(q, k, v, key_bias, heads, p, training, rng=None):
    """Multi-head scaled dot-product attention: ``(..., m, H)`` queries
    against ``(..., n, H)`` keys and values, giving ``(..., m, H)``.

    ``m`` may be below ``n``: a query row reads every key whatever the other
    queries are, so attending from a subset of positions gives exactly the
    rows the full query set gives at those positions. ``key_bias``
    ``(..., n)`` is added to every score of its key column: 0 for a real
    key, a large negative value for a padded one. The head split,
    ``q k^T / sqrt(H / heads)``, key bias, row softmax, inverted dropout on
    the ``(..., heads, m, n)`` probabilities, context and head merge are one
    tape node. It saves the probabilities and the keep mask; the backward
    forms the dropped-out probabilities again rather than hold them.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qs, ks = q.data.shape, k.data.shape
    lead, n, h = ks[:-2], ks[-2], ks[-1]
    if (v.data.shape != ks or len(qs) != len(ks) or qs[:-2] != lead or qs[-1] != h
            or h % heads):
        raise ShapeMismatchError(
            f"attention: q {qs}, k {ks}, v {v.data.shape}, {heads} heads")
    d = h // heads

    def split(t):  # (..., rows, H) -> (..., heads, rows, d), a view where it can be
        return np.swapaxes(t.reshape(t.shape[:-1] + (heads, d)), -2, -3)

    def merge(t):  # (..., heads, rows, d) -> (..., rows, H)
        t = np.swapaxes(t, -2, -3)
        return t.reshape(t.shape[:-2] + (h,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = np.asarray(1.0 / math.sqrt(d), dtype=q.data.dtype)
    probs = qh @ np.swapaxes(kh, -1, -2)
    probs *= scale
    probs += np.asarray(key_bias).reshape(lead + (1, 1, n))
    probs -= probs.max(axis=-1, keepdims=True)
    _exp_normalise(probs)
    keep = _dropout_mask(probs.shape, p, training, rng)

    def dropped():  # the probabilities after dropout, formed anew for each use
        return probs if keep is None else _drop(probs, keep, p)

    def bw(g):
        gc = split(g)
        dv = np.swapaxes(dropped(), -1, -2) @ gc
        dp = gc @ np.swapaxes(vh, -1, -2)
        if keep is not None:
            _drop(dp, keep, p, out=dp)
        ds = _softmax_backward(dp, probs)
        ds *= scale
        _accumulate(q, merge(ds @ kh))
        _accumulate(k, merge(np.swapaxes(ds, -1, -2) @ qh))
        _accumulate(v, merge(dv))

    return _make(merge(dropped() @ vh), (q, k, v), bw)


# Axes up to this many slices take a gather's gradient as one dense one-hot
# (n, N) @ (N, rest) product, whose cost grows with n * N; longer ones as a
# segment sum over the sorted indices, whose cost grows with N. On 1-thread
# BLAS the two meet between about 300 (N = 1024) and 500 slices (N = 192).
_ONE_HOT_MAX_ROWS = 512


def _gather(x, axis, indices):
    """``np.take(x, indices, axis)`` for in-range, non-negative indices of any
    shape, with the scatter-add backward of both public gathers: each slice
    of ``x`` gets the sum of the output slices that read it, added into a
    leaf's grad in place along axis 0, else into one fresh C-contiguous array.
    """
    shape = x.data.shape
    axis %= len(shape)
    pre, n, post = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])

    def bw(g):
        flat = indices.reshape(-1)
        g3 = g.reshape(pre, flat.size, post)
        if n <= _ONE_HOT_MAX_ROWS:
            one_hot = np.zeros((n, flat.size), dtype=g.dtype)
            one_hot[flat, np.arange(flat.size)] = 1
            _accumulate(x, (one_hot @ g3).reshape(shape))
            return
        # one sum per distinct index, over the slices of its run in the sorted indices
        order = np.argsort(flat, kind="stable")
        starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
        rows = flat[order[starts]]
        sums = np.add.reduceat(g3[:, order], starts, axis=1)
        if axis == 0 and x._backward is None:  # a leaf owns its grad array: add into it
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[rows] += sums.reshape(rows.shape + shape[1:])
        else:
            gx = np.zeros(shape, dtype=x.data.dtype)
            gx.reshape(pre, n, post)[:, rows] = sums
            _accumulate(x, gx)

    return _make(np.take(x.data, indices, axis=axis), (x,), bw)


def embedding_lookup(table, ids):
    """Gather rows of a (V, ...) table by an integer id array, in ``[0, V)``, of any shape."""
    table, ids = _as_tensor(table), np.asarray(ids)
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexOutOfRangeError(f"ids outside [0, {v})")
    return _gather(table, 0, ids)


def index_select(x, axis, indices):
    """Take slices along ``axis`` by an integer index array, in ``[-n, n)``, of any shape."""
    x, indices = _as_tensor(x), np.asarray(indices)
    n = x.data.shape[axis]
    if indices.size and (indices.min() < -n or indices.max() >= n):
        raise IndexOutOfRangeError(f"indices outside [0, {n}) on axis {axis}")
    return _gather(x, axis, np.where(indices < 0, indices + n, indices))


def softmax_cross_entropy(logits, labels):
    """Fused softmax + cross-entropy; gradient is (probs - onehot) / n.

    One ``exp`` of the max-shifted logits serves both the loss, taken in
    float64 from the float64 row sums, and the probabilities the gradient
    needs.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfRangeError(f"labels outside [0, {k})")
    rows = np.arange(n)
    x = logits.data
    probs = x - x.max(axis=-1, keepdims=True)
    picked = probs[rows, labels].astype(np.float64)
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, dtype=np.float64)
    out_data = np.asarray((np.log(total) - picked).mean(), dtype=x.dtype)
    probs /= total.astype(x.dtype)[:, None]

    def bw(g):
        # the closure runs once, so probs becomes the gradient in place
        probs[rows, labels] -= 1.0
        np.multiply(probs, g / n, out=probs)
        _accumulate(logits, probs)

    return _make(out_data, (logits,), bw)


def _topological_order(out):
    """Every node reaching ``out``, each listed after all of its parents."""
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``grad`` on every requires-grad leaf reaching ``loss``.

    Closures run in reverse topological order. Once an interior node's
    closure has run, its ``grad``, closure and parent links are dropped, so
    the temporaries they hold are freed during the pass rather than after
    it. A second backward on the same graph finds no closures left to run.
    """
    if loss.data.size != 1:
        raise NotScalarError(f"backward needs a scalar, got shape {loss.data.shape}")
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = None
        node._parents = ()


def finite_diff_check(f, x, epsilon=None, indices=None):
    """Max relative error between autodiff and central finite differences.

    ``f`` maps a Tensor to a scalar Tensor. ``indices`` optionally restricts
    the check to a sample of flat coordinates (for large tensors).
    """
    base = x.data.copy()
    probe = Tensor(base.copy(), requires_grad=True, dtype=base.dtype)
    out = f(probe)
    if out.data.size != 1:
        raise NotScalarError("finite_diff_check needs a scalar-valued function")
    backward(out)
    g_ad = probe.grad if probe.grad is not None else np.zeros_like(base)

    if indices is None:
        indices = range(base.size)
    flat = base.reshape(-1)
    worst = 0.0
    for i in indices:
        if epsilon is None:
            eps = (1e-5 if base.dtype == np.float64 else 1e-2) * max(1.0, abs(float(flat[i])))
        else:
            eps = epsilon
        for sign, store in ((1.0, "hi"), (-1.0, "lo")):
            pert = flat.copy()
            pert[i] += sign * eps
            with no_grad():
                val = f(Tensor(pert.reshape(base.shape), dtype=base.dtype)).data
            if store == "hi":
                hi = float(val)
            else:
                lo = float(val)
        g_fd = (hi - lo) / (2.0 * eps)
        g_a = float(g_ad.reshape(-1)[i])
        err = abs(g_a - g_fd) / max(abs(g_a), abs(g_fd), 1.0)
        if err > worst:
            worst = err
    return worst
