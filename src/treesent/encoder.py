"""Bidirectional Transformer encoder: embeddings, attention blocks, pooler.

Post-layer-norm block order, learned absolute position embeddings, and a
tanh pooler over the first (classification) position. The last block can
run at only the positions a caller reads (``encode_batch``'s ``rows``).
Parameters live in a flat name -> Tensor dict using the checkpoint naming
scheme:

    emb.tok, emb.pos, emb.seg, emb.ln.{g,b},
    layer.<i>.attn.{q,k,v,o}.{w,b}, layer.<i>.ffn.{in,out}.{w,b},
    layer.<i>.ln{1,2}.{g,b}, pooler.{w,b}
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ModelConfig",
    "UnknownPresetError",
    "PRESETS",
    "preset",
    "param_shapes",
    "init_params",
    "attention_block",
    "encode_batch",
]

NEG_INF = -1e9  # additive attention mask on padded keys
INIT_STD = 0.02  # weight init scale of BERT, for the encoder and every head


class UnknownPresetError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    hidden: int
    heads: int
    intermediate: int
    vocab_size: int
    max_positions: int
    segment_types: int = 2
    dropout_p: float = 0.1

    def __post_init__(self):
        """Refuse sizes that are not positive integers (``layers`` ≥ 1, since
        ``encode_batch``'s rows run in the last block) and a ``dropout_p``
        outside [0, 1), as a checkpoint's corrupt header may hold them."""
        for name in ("layers", "hidden", "heads", "intermediate", "vocab_size",
                     "max_positions", "segment_types"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} {value!r} is not a positive integer")
        if type(self.dropout_p) not in (int, float) or not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout_p {self.dropout_p!r} is outside [0, 1)")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")


PRESETS = {
    "base": dict(layers=12, hidden=768, heads=12, intermediate=3072,
                 vocab_size=30522, max_positions=512),
    "large": dict(layers=24, hidden=1024, heads=16, intermediate=4096,
                  vocab_size=30522, max_positions=512),
    "toy": dict(layers=2, hidden=64, heads=2, intermediate=256,
                vocab_size=2000, max_positions=64),
}


def preset(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise UnknownPresetError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = ModelConfig(**PRESETS[name])
    return replace(cfg, **overrides) if overrides else cfg


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape map for every trainable encoder tensor."""
    h, f = config.hidden, config.intermediate
    shapes = {
        "emb.tok": (config.vocab_size, h),
        "emb.pos": (config.max_positions, h),
        "emb.seg": (config.segment_types, h),
        "emb.ln.g": (h,),
        "emb.ln.b": (h,),
        "pooler.w": (h, h),
        "pooler.b": (h,),
    }
    for i in range(config.layers):
        for p in ("q", "k", "v", "o"):
            shapes[f"layer.{i}.attn.{p}.w"] = (h, h)
            shapes[f"layer.{i}.attn.{p}.b"] = (h,)
        shapes[f"layer.{i}.ffn.in.w"] = (h, f)
        shapes[f"layer.{i}.ffn.in.b"] = (f,)
        shapes[f"layer.{i}.ffn.out.w"] = (f, h)
        shapes[f"layer.{i}.ffn.out.b"] = (h,)
        for ln in ("ln1", "ln2"):
            shapes[f"layer.{i}.{ln}.g"] = (h,)
            shapes[f"layer.{i}.{ln}.b"] = (h,)
    return shapes


def _truncated_normal(rng, shape):
    """Normal(0, INIT_STD) with draws beyond 2 INIT_STD redrawn."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * INIT_STD
    return out.astype(np.float32)


def init_params(config: ModelConfig, rng, dtype=np.float32) -> dict:
    """Truncated-normal weights, zero biases, unit layer-norm gains."""
    params = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            data = np.ones(shape, dtype=np.float32)
        elif leaf == "b":
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = _truncated_normal(rng, shape)
        params[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return params


def _linear(x, params, prefix):
    return ad.linear(x, params[prefix + ".w"], params[prefix + ".b"])


def _gather_rows(x, rows):
    """``x[b, rows[b, j]]`` as a (B, m, H) tensor, one ``index_select`` over
    the flattened (B * n, H) states."""
    b, n, h = x.shape
    flat = (np.arange(b)[:, None] * n + rows).reshape(-1)
    return ad.reshape(ad.index_select(ad.reshape(x, (b * n, h)), 0, flat),
                      rows.shape + (h,))


def attention_block(x, params, layer: int, config: ModelConfig, mask,
                    training=False, rng=None, rows=None):
    """One Transformer block over (..., n, H) with a per-key {0,1} mask.

    Multi-head scaled dot-product attention (padded keys get a large
    negative additive bias before softmax), then two residual sublayers,
    each one tape node: the output projection with dropout, residual and
    layer norm, then a GELU feed-forward with its own.

    With ``rows`` (B, m), for a (B, n, H) ``x``, keys and values still come
    from every position, but the queries and everything after attention
    run only at ``x[b, rows[b]]``, and the block returns (B, m, H): the rows
    the full block gives at those positions, and dropout drawn for them
    alone.
    """
    prefix = f"layer.{layer}"
    mask = np.asarray(mask)
    n = x.shape[-2]
    if mask.shape[-1] != n:
        raise ad.ShapeMismatchError(f"mask length {mask.shape[-1]} != sequence length {n}")
    key_bias = np.where(mask, np.float32(0.0), np.float32(NEG_INF))
    resid = x if rows is None else _gather_rows(x, rows)  # the rows computed
    ctx = ad.attention(_linear(resid, params, f"{prefix}.attn.q"),
                       _linear(x, params, f"{prefix}.attn.k"),
                       _linear(x, params, f"{prefix}.attn.v"),
                       key_bias, config.heads, config.dropout_p, training, rng)
    x = ad.residual_linear(resid, ctx, params[f"{prefix}.attn.o.w"], params[f"{prefix}.attn.o.b"],
                           params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"],
                           config.dropout_p, training, rng)
    ffn = (params[f"{prefix}.{name}"] for name in
           ("ffn.in.w", "ffn.in.b", "ffn.out.w", "ffn.out.b", "ln2.g", "ln2.b"))
    return ad.residual_feed_forward(x, *ffn, config.dropout_p, training, rng)


def _check_rows(rows, b, n):
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] != b or rows.shape[1] == 0 or rows.dtype.kind not in "iu":
        raise ad.ShapeMismatchError(f"rows must be a ({b}, m >= 1) int array, got "
                                    f"{rows.dtype} {rows.shape}")
    # b * n + pos with pos outside [0, n) would read another row's state
    if rows.min() < 0 or rows.max() >= n:
        raise ad.IndexOutOfRangeError(f"rows outside [0, {n})")
    if rows[:, 0].any():
        raise ValueError("rows[:, 0] must be 0: slot 0 feeds the pooler")
    return rows


def encode_batch(ids, segment_ids, mask, params, config: ModelConfig,
                 training=False, rng=None, rows=None):
    """Encode a batch: (B, n) int arrays -> (hidden (B, m, H), pooled (B, H)).

    ``rows`` (B, m) lists the positions each row's caller reads, with
    ``rows[:, 0] == 0`` so that slot 0 is [CLS], which the pooler reads.
    The last block runs its queries, feed-forward and layer norms only
    there (see ``attention_block``), so ``hidden[b, j]`` is the state at
    position ``rows[b, j]``: what the full encoder gives there, up to
    summation order, but with the last block's dropout drawn only for those
    rows. ``rows=None`` runs every position and returns (B, n, H).
    """
    ids = np.asarray(ids)
    segment_ids = np.asarray(segment_ids)
    mask = np.asarray(mask)
    b, n = ids.shape
    if n > config.max_positions:
        raise ad.IndexOutOfRangeError(f"sequence length {n} > max_positions {config.max_positions}")
    if rows is not None:
        rows = _check_rows(rows, b, n)

    tok = ad.embedding_lookup(params["emb.tok"], ids)
    pos = ad.embedding_lookup(params["emb.pos"], np.arange(n))
    seg = ad.embedding_lookup(params["emb.seg"], segment_ids)
    x = ad.add_layer_norm(tok + pos, seg, params["emb.ln.g"], params["emb.ln.b"])
    x = ad.dropout(x, config.dropout_p, training, rng)

    for layer in range(config.layers):
        last = layer == config.layers - 1
        x = attention_block(x, params, layer, config, mask, training=training, rng=rng,
                            rows=rows if last else None)

    first = ad.reshape(ad.index_select(x, 1, np.array([0])), (b, config.hidden))
    pooled = ad.tanh(_linear(first, params, "pooler"))
    return x, pooled
