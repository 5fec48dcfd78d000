"""Release gate: one quantitative end-to-end check per shipped guarantee.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line so the whole
gate can be read at a glance from the test log.  Checks that need the real
treebank distribution are skipped (and say so) when it is not installed;
learning checks then run on the bundled synthetic corpus instead.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from treesent import autodiff as ad
from treesent import classify as cl
from treesent import cli
from treesent import encoder as enc
from treesent import pretrain as pt
from treesent import synth
from treesent import tokenizer as tok
from treesent import treebank as tb
from treesent.autodiff import Tensor
from treesent.optim import make_rng

from conftest import param_count, sst_dir


def _report(capsys, label, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}{tail}"


def _skip(capsys, label, reason):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: SKIP - {reason}")
    pytest.skip(reason)


def letter_vocab():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return tok.Vocab(list(tok.SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


def test_1_corpus_counts(capsys):
    label = "1 corpus counts (11855 sentences / 215154 unique phrases)"
    path = sst_dir()
    if path is None:
        _skip(capsys, label, "real treebank distribution not installed")
    t0 = time.time()
    corpora = [tb.load_corpus(os.path.join(path, f"{s}.txt"), s)
               for s in ("train", "dev", "test")]
    stats = tb.corpus_stats(corpora)
    elapsed = time.time() - t0
    ok = (stats.sentence_count == 11855
          and stats.unique_phrase_count == 215154
          and elapsed < 30)
    _report(capsys, label, ok,
            f"sentences={stats.sentence_count} phrases={stats.unique_phrase_count} "
            f"({elapsed:.1f}s)")


def test_2_softmax_normalization_and_shift_invariance(capsys):
    label = "2 softmax rows sum to 1 and argmax is shift invariant"
    rng = make_rng(20)
    n = 100_000
    rows = rng.normal(size=(n, 8))
    scales = rng.choice([1.0, 10.0, 1e2, 1e4], size=(n, 1))
    signs = rng.choice([-1.0, 1.0], size=(n, 1))
    rows = rows * scales * signs
    probs = ad.softmax(Tensor(rows, dtype=np.float64)).data
    sum_err = np.abs(probs.sum(axis=1) - 1.0).max()

    draws = rng.normal(size=(n, 6)) * rng.choice([1.0, 50.0], size=(n, 1))
    shifts = rng.uniform(-1e4, 1e4, size=(n, 1))
    base = np.argmax(ad.softmax(Tensor(draws, dtype=np.float64)).data, axis=1)
    shifted = np.argmax(ad.softmax(Tensor(draws + shifts, dtype=np.float64)).data, axis=1)
    n_shift_fail = int((base != shifted).sum())

    ok = sum_err < 1e-6 and n_shift_fail == 0
    _report(capsys, label, ok,
            f"max row-sum error {sum_err:.2e}, {n_shift_fail} argmax shifts over {n} draws")


def test_3_gradient_oracle(capsys):
    label = "3 finite-difference gradients (primitives + full encoder, float32)"
    t0 = time.time()
    rng = make_rng(30)
    tol = 1e-3
    worst = 0.0
    points = 0

    def t32(a):
        return Tensor(np.asarray(a, dtype=np.float32))

    for trial in range(15):
        w = t32(rng.normal(size=(3, 3)))
        v = t32(rng.normal(size=3))
        # layer norm over very few features makes the float32 probe itself
        # noisy, so give it a wider row
        g = t32(np.abs(rng.normal(size=8)) + 0.5)
        b = t32(rng.normal(size=8))
        labels = rng.integers(0, 3, size=2)
        cases = [
            (lambda x: ad.tensor_sum(ad.matmul(x, w)), (2, 3)),
            (lambda x: ad.tensor_sum(ad.mul(ad.add(x, v), ad.sub(x, v))), (2, 3)),
            (lambda x: ad.tensor_sum(ad.softmax(x) * v), (2, 3)),
            (lambda x: ad.tensor_sum(ad.gelu(x)), (5,)),
            (lambda x: ad.tensor_sum(ad.tanh(x)), (5,)),
            (lambda x: ad.tensor_mean(ad.reshape(ad.mul(x, x), (6,))), (2, 3)),
            (lambda x: ad.tensor_sum(ad.matmul(ad.transpose(x), w)), (3, 3)),
            (lambda x: ad.tensor_sum(ad.layer_norm(x, g, b)), (2, 8)),
            (lambda x: ad.softmax_cross_entropy(x, labels), (2, 3)),
            (lambda x: ad.tensor_sum(ad.index_select(x, 0, np.array([1, 0, 1]))), (2, 3)),
            (lambda x: ad.tensor_sum(ad.embedding_lookup(x, np.array([2, 0]))), (4, 3)),
        ]
        for f, shape in cases:
            x = t32(rng.normal(size=shape))
            err = ad.finite_diff_check(f, x)
            worst = max(worst, err)
            points += x.data.size

    cfg = enc.ModelConfig(layers=2, hidden=16, heads=2, intermediate=32,
                          vocab_size=57, max_positions=16, dropout_p=0.0)
    vocab = letter_vocab()
    params = enc.init_params(cfg, make_rng(31))
    head_w = Tensor(enc._truncated_normal(make_rng(32), (cfg.hidden, 5)))
    head_b = Tensor(np.zeros(5, dtype=np.float32))
    seq = tok.encode("ab cde", vocab, 10)
    # batched beside a 10-long row, so seq's last columns are masked padding
    filler = tok.TokenSequence(ids=np.full(10, vocab.cls_id),
                               segment_ids=np.zeros(10, dtype=np.int64))
    batch = tok.stack_batch([seq, filler])
    assert batch[2].shape[1] == 10 > seq.n_real
    for name in ("emb.tok", "layer.0.attn.q.w", "layer.1.ffn.out.w",
                 "layer.0.ln2.g", "pooler.w"):
        target = params[name]

        def f(t, _name=name):
            saved = params[_name]
            params[_name] = t
            try:
                _, pooled = enc.encode_batch(*batch, params, cfg)
                pooled = ad.index_select(pooled, 0, np.array([0]))
                logits = ad.matmul(pooled, head_w) + head_b
                return ad.softmax_cross_entropy(logits, np.array([3]))
            finally:
                params[_name] = saved

        idx = make_rng(33).choice(target.data.size, size=min(5, target.data.size),
                                  replace=False)
        err = ad.finite_diff_check(f, target, indices=idx)
        worst = max(worst, err)
        points += len(idx)

    elapsed = time.time() - t0
    ok = worst < tol and points >= 100 and elapsed < 300
    _report(capsys, label, ok,
            f"max rel err {worst:.2e} over {points} points ({elapsed:.0f}s)")


def test_4_tokenizer_fidelity(capsys):
    label = "4 wordpiece splits 'playing' and sequence invariants hold"
    vocab = tok.Vocab(list(tok.SPECIAL_TOKENS)
                      + [chr(c) for c in range(ord("a"), ord("z") + 1)]
                      + ["##" + chr(c) for c in range(ord("a"), ord("z") + 1)]
                      + ["play", "##ing"])
    split_ok = tok.wordpiece("playing", vocab) == ["play", "##ing"]

    rng = make_rng(40)
    pool = list("abcdefghijklmnopqrstuvwxyz  ,.!?019ÁÉçü-")
    failures = 0
    for i in range(10_000):
        length = int(rng.integers(0, 40))
        text = "".join(rng.choice(pool, size=length))
        max_len = int(rng.integers(3, 24))
        seq = tok.encode(text, vocab, max_len)
        full = tok.TokenSequence(ids=np.full(max_len, vocab.cls_id),
                                 segment_ids=np.zeros(max_len, dtype=np.int64))
        ids, segs, mask = tok.stack_batch([seq, full])
        try:
            assert len(seq.ids) == seq.n_real <= max_len
            assert seq.ids[0] == vocab.cls_id
            assert seq.ids[seq.n_real - 1] == vocab.sep_id
            assert int((seq.ids == vocab.sep_id).sum()) == 1
            assert ids.shape == (2, max_len)
            assert ((mask[0] == 0) == (ids[0] == vocab.pad_id)).all()
            assert (segs[0] == 0).all()
        except AssertionError:
            failures += 1
    ok = split_ok and failures == 0
    _report(capsys, label, ok,
            f"playing->{tok.wordpiece('playing', vocab)}, {failures} invariant "
            f"failures over 10000 texts")


def test_5_objective_statistics(capsys):
    label = "5 mask rate, pair-label balance, uniform-corpus loss floor"
    vocab = letter_vocab()
    rng = make_rng(50)

    masked = maskable = 0
    while maskable < 100_000:
        words = rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=30)
        seq = tok.encode_pair(" ".join(words[:15]), " ".join(words[15:]), vocab, 40)
        ex = pt.mask_tokens(seq, 0.15, rng, vocab)
        masked += len(ex.mask_positions)
        maskable += seq.n_real - 3
    rate = masked / maskable

    sentences = [" ".join(rng.choice(list("abcdefgh"), size=3)) for _ in range(501)]
    pieces = tok.piece_ids(sentences, vocab)
    labels = []
    draw = 0
    while len(labels) < 10_000:
        pairs = pt.make_nsp_pairs(sentences, pieces, vocab, 12, make_rng(51, stream=draw))
        labels.extend(p.label for p in pairs)
        draw += 1
    balance = float(np.mean(labels[:10_000]))

    cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                          vocab_size=len(vocab), max_positions=16, dropout_p=0.0)
    hyper = pt.PretrainConfig(lr=2e-3)
    state = pt.init_pretrain_state(cfg, hyper, seed=0)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    losses = []
    for _ in range(260):
        batch = []
        for _ in range(8):
            words = [letters[int(rng.integers(26))] for _ in range(12)]
            seq = tok.encode_pair(" ".join(words[:6]), " ".join(words[6:]), vocab, 15)
            batch.append((pt.mask_tokens(seq, 0.15, rng, vocab), int(rng.integers(2))))
        mlm, _ = pt.pretrain_step(state, batch, rng)
        losses.append(mlm)
    floor = float(np.mean(losses[-40:]))
    floor_target = math.log(26)

    ok = (abs(rate - 0.15) <= 0.005
          and abs(balance - 0.50) <= 0.02
          and abs(floor - floor_target) / floor_target <= 0.05)
    _report(capsys, label, ok,
            f"mask rate {rate:.4f}, balance {balance:.3f}, "
            f"loss floor {floor:.3f} vs ln26={floor_target:.3f}")


def _training_corpus(tmp_path_factory):
    """Real treebank train/dev splits when installed, synthetic otherwise."""
    path = sst_dir()
    source = "real treebank"
    if path is None:
        path = str(tmp_path_factory.mktemp("accept_synth"))
        synth.write_dataset(path, n_train=120, n_dev=40, n_test=40, seed=5)
        source = "synthetic corpus"
    train = tb.load_corpus(os.path.join(path, "train.txt"), "train")
    dev = tb.load_corpus(os.path.join(path, "dev.txt"), "dev")
    return train, dev, source


def _pretrained_toy(train, vocab):
    cfg = enc.preset("toy", vocab_size=len(vocab), max_positions=64)
    hyper = pt.PretrainConfig(epochs=3, batch_size=16, lr=1e-3)
    state = pt.pretrain(train, vocab, cfg, hyper, max_len=24, seed=0)
    params = {k: v for k, v in state.params.items()
              if not k.startswith(("mlm.", "nsp."))}
    return cfg, params


def _copy_params(params):
    return {k: Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def test_6_learning_sanity(capsys, tmp_path_factory):
    label = "6 pretrained toy model memorizes a 64-sentence subset"
    t0 = time.time()
    train, _, source = _training_corpus(tmp_path_factory)
    vocab = tok.build_vocab([train], 150 if source != "real treebank" else 2000)
    cfg, params = _pretrained_toy(train, vocab)

    subset = [tb.extract_phrases(t)[0] for t in train.trees[:64]]
    hyper = cl.FinetuneConfig(epochs=50, batch_size=16, lr=2e-3, head_lr=2e-3)
    params, _ = cl.finetune(subset, subset, params, cfg, vocab, "sst5", hyper,
                            max_len=24, seed=1)
    preds = cl.predict_texts([r.text for r in subset], params, cfg, vocab, 24)
    golds = [cl.project_label(r.label, "sst5") for r in subset]
    acc = cl.accuracy([p.label for p in preds], golds)
    elapsed = time.time() - t0
    ok = acc >= 0.95 and elapsed < 600
    _report(capsys, label, ok,
            f"train root accuracy {acc:.3f} on {source} ({elapsed:.0f}s)")


def test_7_generalization_direction(capsys, tmp_path_factory):
    label = "7 fine-tuned model beats chance and majority; full >= frozen"
    train, dev, source = _training_corpus(tmp_path_factory)
    vocab = tok.build_vocab([train], 150 if source != "real treebank" else 2000)
    cfg, base_params = _pretrained_toy(train, vocab)

    train_recs = [r for t in train.trees for r in tb.extract_phrases(t)]
    dev_recs = [r for t in dev.trees for r in tb.extract_phrases(t)]
    dev_roots = [r for r in dev_recs if r.is_root]
    golds = [cl.project_label(r.label, "sst5") for r in dev_roots]
    majority = float(np.bincount(golds, minlength=5).max()) / len(golds)

    accs = {}
    for freeze in (False, True):
        params = _copy_params(base_params)
        hyper = cl.FinetuneConfig(epochs=10, batch_size=32, lr=2e-3, head_lr=1e-3,
                                  freeze_encoder=freeze)
        params, _ = cl.finetune(train_recs, dev_recs, params, cfg, vocab, "sst5", hyper,
                                max_len=24, seed=1)
        preds = cl.predict_texts([r.text for r in dev_roots], params, cfg, vocab, 24)
        accs[freeze] = cl.accuracy([p.label for p in preds], golds)

    ok = accs[False] > max(0.2, majority) and accs[False] >= accs[True]
    _report(capsys, label, ok,
            f"full {accs[False]:.3f} vs frozen {accs[True]:.3f}, "
            f"majority {majority:.3f}, chance 0.2 ({source})")


def test_8_parameter_budget(capsys):
    label = "8 preset parameter counts near published sizes"
    base = param_count(enc.preset("base"))
    large = param_count(enc.preset("large"))
    base_off = abs(base - 110e6) / 110e6
    large_off = abs(large - 340e6) / 340e6
    ok = base_off < 0.05 and large_off < 0.05
    _report(capsys, label, ok,
            f"base {base:,} ({100 * base_off:.1f}% off 110M), "
            f"large {large:,} ({100 * large_off:.1f}% off 340M)")


def test_9_pipeline_determinism(capsys, tmp_path):
    label = "9 identical seeded runs produce byte-identical artifacts"
    from test_cli import write_config

    data = tmp_path / "data"
    data.mkdir()
    synth.write_dataset(data, n_train=40, n_dev=15, n_test=15, seed=9)
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.ini", data, out)
        chain = (
            ["prepare", "--config", cfg],
            ["vocab", "--config", cfg],
            ["pretrain", "--config", cfg],
            ["finetune", "--config", cfg, "--init", str(out / "pretrain.ckpt")],
            ["eval", "--config", cfg, "--checkpoint", str(out / "finetune_sst5.ckpt")],
        )
        for args in chain:
            assert cli.main(args) == 0
        runs.append({
            f: (out / f).read_bytes()
            for f in ("vocab.txt", "pretrain.ckpt", "pretrain_loss.csv",
                      "finetune_sst5.ckpt", "report_sst5.tsv", "report_sst5.json",
                      "stats.json")
        })
    same = [f for f in runs[0] if runs[0][f] == runs[1][f]]
    ok = len(same) == len(runs[0])
    _report(capsys, label, ok, f"{len(same)}/{len(runs[0])} artifacts identical")
