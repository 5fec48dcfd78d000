import numpy as np
import pytest
from conftest import param_count

from treesent import autodiff as ad
from treesent import encoder as enc
from treesent import tokenizer as tok
from treesent.autodiff import Tensor
from treesent.optim import make_rng

TINY = enc.ModelConfig(layers=2, hidden=16, heads=2, intermediate=32,
                       vocab_size=40, max_positions=16)


def tiny_params(seed=0, dtype=np.float32):
    return enc.init_params(TINY, make_rng(seed), dtype=dtype)


def letter_vocab():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return tok.Vocab(list(tok.SPECIAL_TOKENS) + letters[:35 - 26]
                     + ["##" + c for c in letters[:35 - 26]])


class TestPresets:
    def test_base(self):
        cfg = enc.preset("base")
        assert (cfg.layers, cfg.hidden, cfg.heads, cfg.intermediate) == (12, 768, 12, 3072)

    def test_large(self):
        cfg = enc.preset("large")
        assert (cfg.layers, cfg.hidden, cfg.heads, cfg.intermediate) == (24, 1024, 16, 4096)

    def test_toy(self):
        cfg = enc.preset("toy")
        assert (cfg.layers, cfg.hidden, cfg.heads) == (2, 64, 2)
        assert cfg.hidden % cfg.heads == 0

    def test_unknown(self):
        with pytest.raises(enc.UnknownPresetError):
            enc.preset("giant")

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            enc.ModelConfig(layers=1, hidden=10, heads=3, intermediate=8,
                            vocab_size=5, max_positions=4)


class TestParamCount:
    def test_matches_materialized_tensors(self):
        # oracle: actually allocate every tensor and add up sizes
        params = tiny_params()
        walked = sum(p.data.size for p in params.values())
        assert param_count(TINY) == walked

    def test_base_near_published_total(self):
        assert abs(param_count(enc.preset("base")) - 110e6) / 110e6 < 0.05

    def test_large_near_published_total(self):
        assert abs(param_count(enc.preset("large")) - 340e6) / 340e6 < 0.05


class TestInit:
    def test_deterministic_per_seed(self):
        p1, p2 = tiny_params(3), tiny_params(3)
        for name in p1:
            np.testing.assert_array_equal(p1[name].data, p2[name].data)
        p3 = tiny_params(4)
        assert any((p1[n].data != p3[n].data).any() for n in p1 if n.endswith(".w"))

    def test_layer_norm_gains_are_one(self):
        params = tiny_params()
        for name, p in params.items():
            if name.endswith(".g"):
                np.testing.assert_array_equal(p.data, np.ones_like(p.data))
            if name.endswith(".b"):
                np.testing.assert_array_equal(p.data, np.zeros_like(p.data))

    def test_weight_std_in_band(self):
        rng = make_rng(0)
        draws = enc._truncated_normal(rng, (100, 100))
        assert 0.015 <= draws.std() <= 0.025
        assert np.abs(draws).max() <= 0.04 + 1e-6


class TestAttentionBlock:
    def test_single_position_finite(self):
        params = tiny_params()
        x = Tensor(make_rng(1).normal(size=(1, 16)).astype(np.float32))
        out = enc.attention_block(x, params, 0, TINY, np.array([1]))
        assert out.data.shape == (1, 16)
        assert np.isfinite(out.data).all()

    def test_isolated_position_attends_to_itself(self):
        # with all other keys masked, output row 0 must match the
        # single-position computation on the same row
        params = tiny_params()
        rng = make_rng(2)
        rows = rng.normal(size=(3, 16)).astype(np.float32)
        full = enc.attention_block(Tensor(rows), params, 0, TINY, np.array([1, 0, 0]))
        solo = enc.attention_block(Tensor(rows[:1]), params, 0, TINY, np.array([1]))
        np.testing.assert_allclose(full.data[0], solo.data[0], atol=1e-5)

    def test_permutation_equivariance(self):
        params = tiny_params()
        rng = make_rng(3)
        rows = rng.normal(size=(4, 16)).astype(np.float32)
        mask = np.array([1, 1, 1, 1])
        perm = np.array([0, 2, 1, 3])
        out = enc.attention_block(Tensor(rows), params, 0, TINY, mask)
        out_p = enc.attention_block(Tensor(rows[perm]), params, 0, TINY, mask[perm])
        np.testing.assert_allclose(out.data[perm], out_p.data, atol=1e-5)

    def test_mask_length_checked(self):
        params = tiny_params()
        x = Tensor(np.zeros((3, 16), dtype=np.float32))
        with pytest.raises(ad.ShapeMismatchError):
            enc.attention_block(x, params, 0, TINY, np.array([1, 1]))

    def test_masked_attention_rows_sum_over_unmasked(self):
        # softmax over additively masked scores: zero weight on masked keys,
        # unit total over the rest
        rng = make_rng(4)
        scores = rng.normal(size=(5, 6))
        mask = np.array([1, 1, 0, 1, 0, 1], dtype=float)
        biased = scores + (1.0 - mask) * enc.NEG_INF
        attn = ad.softmax(Tensor(biased, dtype=np.float64)).data
        np.testing.assert_allclose(attn[:, mask == 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(attn[:, mask == 1].sum(axis=1), 1.0, atol=1e-6)


def unfused_block(x, params, layer, config, mask, training=False, rng=None):
    """``attention_block`` as the generic ops compose it: the reference of
    the fused ``linear``, ``attention`` and ``add_layer_norm``."""
    prefix = f"layer.{layer}"
    a, d = config.heads, config.hidden // config.heads
    lead, n = x.shape[:-2], x.shape[-2]
    heads_first = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)

    def linear(t, name):
        return ad.matmul(t, params[f"{prefix}.{name}.w"]) + params[f"{prefix}.{name}.b"]

    def split_heads(t):
        return ad.transpose(ad.reshape(t, lead + (n, a, d)), heads_first)

    def add_ln(t, r, name):
        return ad.layer_norm(t + r, params[f"{prefix}.{name}.g"], params[f"{prefix}.{name}.b"])

    q, k, v = (split_heads(linear(x, f"attn.{p}")) for p in "qkv")
    scores = ad.matmul(q, ad.transpose(k, tuple(range(len(lead) + 1))
                                       + (len(lead) + 2, len(lead) + 1)))
    scores = ad.mul(scores, 1.0 / np.sqrt(d))
    key_bias = np.where(mask, np.float32(0.0), np.float32(enc.NEG_INF))
    scores = scores + Tensor(key_bias.reshape(lead + (1, 1, n)))
    attn = ad.dropout(ad.softmax(scores), config.dropout_p, training, rng)
    ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), heads_first), lead + (n, a * d))
    attn_out = ad.dropout(linear(ctx, "attn.o"), config.dropout_p, training, rng)
    x = add_ln(x, attn_out, "ln1")
    ff = linear(ad.gelu(linear(x, "ffn.in")), "ffn.out")
    return add_ln(x, ad.dropout(ff, config.dropout_p, training, rng), "ln2")


class TestFusedBlock:
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_unfused_float64(self, training):
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]])
        x0 = make_rng(7).normal(size=(2, 6, 16))
        w = make_rng(8).normal(size=(2, 6, 16))
        results = []
        for block in (enc.attention_block, unfused_block):
            params = tiny_params(dtype=np.float64)
            x = Tensor(x0, requires_grad=True, dtype=np.float64)
            out = block(x, params, 1, TINY, mask, training=training, rng=make_rng(9))
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(w, dtype=np.float64))))
            grads = {n: p.grad for n, p in params.items() if n.startswith("layer.1.")}
            results.append((out.data, x.grad, grads))
        (out, gx, grads), (want, want_gx, want_grads) = results
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-10)
        assert grads.keys() == want_grads.keys() and len(grads) == 16
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=1e-10,
                                       err_msg=name)


def composed_block(x, params, layer, config, mask, training=False, rng=None, rows=None):
    """``attention_block`` with each residual sublayer composed from
    ``linear``, ``dropout``, ``add_layer_norm`` and ``gelu``: the float32
    reference whose operation order the two sublayer ops keep."""
    prefix = f"layer.{layer}"

    def linear(t, name):
        return ad.linear(t, params[f"{prefix}.{name}.w"], params[f"{prefix}.{name}.b"])

    def add_ln(t, r, name):
        r = ad.dropout(r, config.dropout_p, training, rng)
        return ad.add_layer_norm(t, r, params[f"{prefix}.{name}.g"], params[f"{prefix}.{name}.b"])

    key_bias = np.where(mask, np.float32(0.0), np.float32(enc.NEG_INF))
    resid = x if rows is None else enc._gather_rows(x, rows)
    ctx = ad.attention(linear(resid, "attn.q"), linear(x, "attn.k"), linear(x, "attn.v"),
                       key_bias, config.heads, config.dropout_p, training, rng)
    x = add_ln(resid, linear(ctx, "attn.o"), "ln1")
    return add_ln(x, linear(ad.gelu(linear(x, "ffn.in")), "ffn.out"), "ln2")


class TestSublayerOps:
    MASK = np.array([[1, 1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1, 1]])

    @pytest.mark.parametrize("rows", [None, np.array([[0, 2, 6], [0, 1, 5]])],
                             ids=["every-row", "rows"])
    def test_block_bit_identical_to_composition(self, rows):
        # same float32 bits as the composed ops, dropout on, gradients included
        x0 = make_rng(13).normal(size=(2, 7, 16)).astype(np.float32)
        m = 7 if rows is None else rows.shape[1]
        w = Tensor(make_rng(14).normal(size=(2, m, 16)).astype(np.float32))
        results = []
        for block in (enc.attention_block, composed_block):
            params = tiny_params()
            x = Tensor(x0, requires_grad=True)
            out = block(x, params, 1, TINY, self.MASK, training=True, rng=make_rng(15),
                        rows=rows)
            ad.backward(ad.tensor_sum(ad.mul(out, w)))
            grads = {n: p.grad for n, p in params.items() if n.startswith("layer.1.")}
            results.append((out.data, x.grad, grads))
        (out, gx, grads), (want, want_gx, want_grads) = results
        assert TINY.dropout_p > 0 and out.dtype == np.float32
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gx, want_gx)
        assert grads.keys() == want_grads.keys() and len(grads) == 16
        for name in grads:
            np.testing.assert_array_equal(grads[name], want_grads[name], err_msg=name)

    def test_dropout_keeps_signed_zeros_and_nans(self):
        # (x * keep) * scale is x times the scaled float mask, bit for bit
        x = np.array([-0.0, 0.0, -1.5, np.nan, np.inf, -np.inf, 3.0, -2.0] * 64, np.float32)
        keep = ad._dropout_mask(x.shape, 0.5, True, make_rng(16))
        assert keep.dtype == bool and 0 < keep.sum() < keep.size
        with np.errstate(invalid="ignore"):  # inf * 0
            want = x * np.multiply(keep, 1.0 / (1.0 - 0.5), dtype=np.float32)
            got = ad.dropout(Tensor(x), 0.5, True, make_rng(16)).data
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_shapes_checked(self):
        params = tiny_params()
        x = Tensor(np.zeros((2, 3, 16), dtype=np.float32))
        o = [params[f"layer.0.{n}"] for n in ("attn.o.w", "attn.o.b", "ln1.g", "ln1.b")]
        with pytest.raises(ad.ShapeMismatchError):
            ad.residual_linear(x, Tensor(np.zeros((2, 4, 16), np.float32)), *o, 0.0, False)
        with pytest.raises(ad.ShapeMismatchError):
            ad.residual_linear(x, x, *o[:3], Tensor(np.zeros(8, np.float32)), 0.0, False)
        ffn = [params[f"layer.0.{n}"] for n in ("ffn.in.w", "ffn.in.b", "ffn.out.w",
                                                 "ffn.out.b", "ln2.g", "ln2.b")]
        with pytest.raises(ad.ShapeMismatchError):
            ad.residual_feed_forward(x, ffn[2], *ffn[1:], 0.0, False)
        with pytest.raises(ad.ShapeMismatchError):
            ad.residual_feed_forward(x, ffn[0], ffn[1], ffn[0], *ffn[3:], 0.0, False)


def encode_one(seq, params, config=TINY, training=False, rng=None):
    """Encode one TokenSequence as a one-row batch."""
    return enc.encode_batch(*tok.stack_batch([seq]), params, config,
                            training=training, rng=rng)


def pooled_padded(seq, width, vocab, params, config=TINY):
    """Pooled row of ``seq`` batched beside a ``width``-long row, so its
    columns from ``n_real`` on are masked padding."""
    filler = tok.TokenSequence(ids=np.full(width, vocab.cls_id),
                               segment_ids=np.zeros(width, dtype=np.int64))
    ids, segs, mask = tok.stack_batch([seq, filler])
    assert mask.shape[1] == width > seq.n_real
    _, pooled = enc.encode_batch(ids, segs, mask, params, config)
    return ad.index_select(pooled, 0, np.array([0]))


class TestEncode:
    def setup_method(self):
        self.vocab = letter_vocab()
        self.params = tiny_params()

    def test_shape_contract(self):
        seq = tok.encode("abc de", self.vocab, 12)
        hidden, pooled = encode_one(seq, self.params)
        assert hidden.data.shape == (1, seq.n_real, 16)
        assert pooled.data.shape == (1, 16)

    def test_pad_region_cannot_influence_pooled(self):
        short = tok.encode("ab", self.vocab, 10)
        longer = tok.encode("abc de fg", self.vocab, 10)
        ids, segs, mask = tok.stack_batch([short, longer])
        assert ids.shape[1] > short.n_real
        _, pooled = enc.encode_batch(ids, segs, mask, self.params, TINY)
        ids2 = ids.copy()
        ids2[0, short.n_real:] = 7  # arbitrary non-pad id in the masked columns
        _, pooled2 = enc.encode_batch(ids2, segs, mask, self.params, TINY)
        np.testing.assert_allclose(pooled.data[0], pooled2.data[0], atol=1e-6)

    def test_inference_bitwise_deterministic(self):
        seq = tok.encode("abc", self.vocab, 8)
        _, p1 = encode_one(seq, self.params, training=False)
        _, p2 = encode_one(seq, self.params, training=False)
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_pooled_invariant_to_padding_length(self):
        seq = tok.encode("abc de f", self.vocab, 16)
        longer = tok.encode("abc de fg hi", self.vocab, 16)
        _, alone = encode_one(seq, self.params)
        ids, segs, mask = tok.stack_batch([seq, longer])
        assert ids.shape[1] > seq.n_real  # same real tokens, more padding
        _, batched = enc.encode_batch(ids, segs, mask, self.params, TINY)
        np.testing.assert_allclose(alone.data[0], batched.data[0], atol=1e-5)

    def test_id_out_of_range(self):
        seq = tok.encode("abc", self.vocab, 8)
        bad = tok.TokenSequence(ids=np.full_like(seq.ids, 4000),
                                segment_ids=seq.segment_ids)
        with pytest.raises(ad.IndexOutOfRangeError):
            encode_one(bad, self.params)

    def test_sequence_longer_than_positions(self):
        max_len = TINY.max_positions + 4
        seq = tok.encode(" ".join(["a"] * max_len), self.vocab, max_len)
        assert seq.n_real == max_len
        with pytest.raises(ad.IndexOutOfRangeError):
            encode_one(seq, self.params)


class TestEndToEndGradients:
    def test_encoder_gradcheck_float64(self):
        params = tiny_params(dtype=np.float64)
        vocab = letter_vocab()
        seq = tok.encode("ab cd", vocab, 8)
        rng = make_rng(5)
        names = ["emb.tok", "layer.0.attn.q.w", "layer.1.ffn.in.w",
                 "layer.0.ln1.g", "pooler.w", "emb.pos"]
        w = Tensor(rng.normal(size=16), dtype=np.float64)

        for name in names:
            target = params[name]

            def f(t):
                saved = params[name]
                params[name] = t
                try:
                    pooled = pooled_padded(seq, 8, vocab, params)
                    return ad.tensor_sum(ad.mul(pooled, w))
                finally:
                    params[name] = saved

            idx = rng.choice(target.data.size, size=min(6, target.data.size),
                             replace=False)
            err = ad.finite_diff_check(f, target, indices=idx)
            assert err < 1e-5, name

    def test_encoder_gradcheck_float32(self):
        params = tiny_params(dtype=np.float32)
        vocab = letter_vocab()
        seq = tok.encode("ab cd", vocab, 8)
        rng = make_rng(6)
        w = Tensor(rng.normal(size=16).astype(np.float32))

        target = params["layer.0.attn.v.w"]

        def f(t):
            saved = params["layer.0.attn.v.w"]
            params["layer.0.attn.v.w"] = t
            try:
                pooled = pooled_padded(seq, 8, vocab, params)
                return ad.tensor_sum(ad.mul(pooled, w))
            finally:
                params["layer.0.attn.v.w"] = saved

        idx = rng.choice(target.data.size, size=8, replace=False)
        assert ad.finite_diff_check(f, target, indices=idx) < 1e-3


def row_states(hidden, rows):
    """``hidden[b, rows[b, j]]`` as a (B, m, H) tensor."""
    b, n, h = hidden.shape
    flat = (np.arange(b)[:, None] * n + rows).reshape(-1)
    return ad.reshape(ad.index_select(ad.reshape(hidden, (b * n, h)), 0, flat),
                      rows.shape + (h,))


class TestRows:
    # row 0 has two padded keys; rows repeat position 0 as padding, as
    # pretrain_step pads them
    IDS = np.array([[2, 5, 6, 7, 3, 0, 0], [2, 8, 9, 10, 11, 12, 3]])
    ROWS = np.array([[0, 2, 6, 0], [0, 1, 4, 5]])

    def encode(self, params, rows=None, training=False, rng=None):
        mask = (self.IDS != 0).astype(np.int64)
        return enc.encode_batch(self.IDS, np.zeros_like(self.IDS), mask, params, TINY,
                                training=training, rng=rng, rows=rows)

    def test_matches_full_encoder_float64(self):
        w = make_rng(11).normal(size=self.ROWS.shape + (TINY.hidden,))
        w_pooled = make_rng(12).normal(size=(2, TINY.hidden))
        results = []
        for rows in (self.ROWS, None):
            params = tiny_params(dtype=np.float64)
            hidden, pooled = self.encode(params, rows)
            if rows is None:
                hidden = row_states(hidden, self.ROWS)
            ad.backward(ad.tensor_sum(ad.mul(hidden, Tensor(w, dtype=np.float64)))
                        + ad.tensor_sum(ad.mul(pooled, Tensor(w_pooled, dtype=np.float64))))
            results.append((hidden.data, pooled.data, {n: p.grad for n, p in params.items()}))
        (hidden, pooled, grads), (want, want_pooled, want_grads) = results
        assert hidden.shape == self.ROWS.shape + (TINY.hidden,)
        np.testing.assert_allclose(hidden, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pooled, want_pooled, rtol=0, atol=1e-10)
        assert grads.keys() == want_grads.keys()
        for name in grads:
            assert grads[name] is not None, name
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=1e-10,
                                       err_msg=name)

    @pytest.mark.parametrize("rows, error", [
        ([[0, 7], [0, 1]], ad.IndexOutOfRangeError),   # past the end: the next row's state
        ([[0, -1], [0, 1]], ad.IndexOutOfRangeError),
        ([[1, 2], [0, 1]], ValueError),                # slot 0 must be [CLS]
        ([[0, 1], [2, 1]], ValueError),
        ([0, 1], ad.ShapeMismatchError),
        ([[0, 1]], ad.ShapeMismatchError),
        (np.zeros((2, 0), dtype=np.int64), ad.ShapeMismatchError),
        ([[0.0, 1.0], [0.0, 1.0]], ad.ShapeMismatchError),
    ])
    def test_rejects_bad_rows(self, rows, error):
        with pytest.raises(error):
            self.encode(tiny_params(), np.asarray(rows))

    def test_needs_a_layer(self):
        with pytest.raises(ValueError):
            enc.ModelConfig(layers=0, hidden=4, heads=2, intermediate=8,
                            vocab_size=5, max_positions=4)


class TestFloat32:
    def test_training_step_stays_float32(self, monkeypatch):
        params = tiny_params()
        ids = np.array([[2, 5, 6, 7, 3, 0], [2, 8, 9, 3, 0, 0]])
        mask = (ids != 0).astype(np.int64)
        dtypes = []
        make = ad._make

        def record(data, parents, backward_fn):
            dtypes.append(data.dtype)
            return make(data, parents, backward_fn)

        monkeypatch.setattr(ad, "_make", record)
        hidden, pooled = enc.encode_batch(ids, np.zeros_like(ids), mask, params, TINY,
                                          training=True, rng=make_rng(1))
        monkeypatch.setattr(ad, "_make", make)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        ad.backward(ad.tensor_sum(hidden) + ad.tensor_sum(ad.mul(pooled, pooled)))
        assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float32)}
