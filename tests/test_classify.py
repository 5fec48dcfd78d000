import zlib

import numpy as np
import pytest

from treesent import autodiff as ad
from treesent import classify as cl
from treesent import encoder as enc
from treesent import tokenizer as tok
from treesent.autodiff import Tensor
from treesent.optim import make_rng
from treesent.treebank import (
    PhraseTree,
    SentimentLabel,
    extract_phrases,
    parse_tree,
    root_record,
)

TINY = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                       vocab_size=57, max_positions=32, dropout_p=0.0)


def letter_vocab():
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    return tok.Vocab(list(tok.SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


def tiny_setup(seed=0, vocab=None, max_positions=TINY.max_positions, dropout_p=0.0):
    vocab = vocab or letter_vocab()
    cfg = enc.ModelConfig(layers=TINY.layers, hidden=TINY.hidden, heads=TINY.heads,
                          intermediate=TINY.intermediate, vocab_size=len(vocab),
                          max_positions=max_positions, dropout_p=dropout_p)
    params = enc.init_params(cfg, make_rng(seed))
    return vocab, cfg, params


def zero_head(n_classes, hidden=16, bias=None):
    w = Tensor(np.zeros((hidden, n_classes), dtype=np.float32), requires_grad=True)
    b = np.zeros(n_classes, dtype=np.float32) if bias is None else np.asarray(bias, dtype=np.float32)
    return {"head.w": w, "head.b": Tensor(b, requires_grad=True)}


def drawn_head(n_classes, rng, hidden=16):
    """A head drawn as fine-tuning draws a fresh one: truncated normal, zero bias."""
    w = enc._truncated_normal(rng, (hidden, n_classes))
    return {"head.w": Tensor(w, requires_grad=True),
            "head.b": Tensor(np.zeros(n_classes, dtype=np.float32), requires_grad=True)}


def head_forward(pooled, head):
    """Prediction for one pooled vector, through the batch head path."""
    with ad.no_grad():
        return cl._head_predictions(Tensor(pooled.reshape(1, -1)), head)[0]


class TestHeadForward:
    def test_bias_decides_label(self):
        head = zero_head(5, bias=[0, 0, 10, 0, 0])
        pred = head_forward(np.zeros(16, dtype=np.float32), head)
        assert pred.label == 2
        assert pred.probs[2] > 0.99

    def test_probs_sum_to_one(self):
        rng = make_rng(1)
        head = drawn_head(5, rng)
        pred = head_forward(rng.normal(size=16).astype(np.float32), head)
        assert pred.probs.shape == (5,)
        assert abs(pred.probs.sum() - 1.0) < 1e-6
        assert (pred.probs > 0).all()

    def test_uniform_ties_break_low(self):
        head = zero_head(5)
        pred = head_forward(np.zeros(16, dtype=np.float32), head)
        np.testing.assert_allclose(pred.probs, 0.2, atol=1e-7)
        assert pred.label == 0

    def test_shape_mismatch(self):
        head = zero_head(2)
        with pytest.raises(ad.ShapeMismatchError):
            head_forward(np.zeros(8, dtype=np.float32), head)

    def test_bad_class_count(self, synth_corpora):
        vocab, cfg, params = tiny_setup()
        params.update(zero_head(3))
        records = extract_phrases(parse_tree("(3 ab)"))
        for task in cl.TASKS:
            with pytest.raises(cl.LabelSpaceMismatchError):
                cl.evaluate(params, cfg, vocab, synth_corpora[2:], [(task, "all")], max_len=64)
            with pytest.raises(cl.LabelSpaceMismatchError):
                cl.finetune(records, records, params, cfg, vocab, task,
                            cl.FinetuneConfig(epochs=1), max_len=64, seed=0)


class TestProjectLabel:
    def test_five_way_is_identity(self):
        for v in range(5):
            assert cl.project_label(SentimentLabel(v), "sst5") == v

    def test_binary_projection(self):
        expected = {0: 0, 1: 0, 2: None, 3: 1, 4: 1}
        for v, want in expected.items():
            assert cl.project_label(SentimentLabel(v), "sst2") == want

    def test_unknown_task(self):
        with pytest.raises(cl.LabelSpaceMismatchError):
            cl.project_label(SentimentLabel(0), "sst3")


class TestAccuracy:
    def test_exact_fraction(self):
        assert cl.accuracy([0, 1, 2, 3], [0, 1, 0, 3]) == 0.75

    def test_all_wrong(self):
        assert cl.accuracy([1, 1], [0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cl.accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            cl.accuracy([], [])


class TestPredictTexts:
    def test_batching_matches_single(self):
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(5, make_rng(2), cfg.hidden))
        texts = ["ab cd", "ef", "gh ij kl", "m"]
        one = cl.predict_texts(texts, params, cfg, vocab, 12, batch_size=1)
        many = cl.predict_texts(texts, params, cfg, vocab, 12, batch_size=64)
        for a, b in zip(one, many):
            np.testing.assert_allclose(a.probs, b.probs, atol=1e-6)
            assert a.label == b.label

    def test_independent_of_batch_composition_and_padded_length(self):
        vocab, cfg, params = tiny_setup(max_positions=64)
        rng = make_rng(2)
        params["head.w"] = Tensor(rng.normal(size=(cfg.hidden, 5)).astype(np.float32))
        params["head.b"] = Tensor(np.zeros(5, dtype=np.float32))
        texts = ["gh ij kl mn op", "ab cd", "m", "qrs tu v wx", "ef", "ab cd", "yz a"]
        assert max(tok.encode(t, vocab, 64).n_real for t in texts) <= 32  # nothing truncated

        ref = cl.predict_texts(texts, params, cfg, vocab, 32, batch_size=3)
        singles = [cl.predict_texts([t], params, cfg, vocab, 32)[0] for t in texts]
        perm = rng.permutation(len(texts))
        shuffled = cl.predict_texts([texts[i] for i in perm], params, cfg, vocab, 32)
        unshuffled = [None] * len(texts)
        for pos, i in enumerate(perm):
            unshuffled[i] = shuffled[pos]
        longer = cl.predict_texts(texts, params, cfg, vocab, 64, batch_size=3)
        for other in (singles, unshuffled, longer):
            for a, b in zip(ref, other):
                np.testing.assert_allclose(a.probs, b.probs, atol=1e-5)
                assert a.label == b.label

    def test_inference_does_not_mutate_params(self):
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(2, make_rng(3), cfg.hidden))
        before = {k: p.data.tobytes() for k, p in params.items()}
        cl.predict_texts(["ab", "cd ef"], params, cfg, vocab, 8)
        after = {k: p.data.tobytes() for k, p in params.items()}
        assert before == after
        assert all(p.grad is None for p in params.values())


class TestTokenizeOnce:
    def test_each_text_list_is_one_piece_ids_call(self, synth_corpora, monkeypatch):
        vocab, cfg, params = tiny_setup()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:40]
        dev = [root_record(t) for t in synth_corpora[1].trees][:5]
        calls = []

        def counting(texts, vocab):
            calls.append(list(texts))
            return tok.piece_ids(texts, vocab)

        monkeypatch.setattr(cl, "piece_ids", counting)
        hyper = cl.FinetuneConfig(epochs=2, batch_size=16)
        cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper, max_len=16, seed=1)
        # the training texts in one call, then one call per epoch's dev check
        assert calls[0] == [r.text for r in train if cl.project_label(r.label, "sst5") is not None]
        assert len(calls) == 1 + hyper.epochs
        calls.clear()
        cl.predict_texts(["ab cd", "ef", "gh"], params, cfg, vocab, 12)
        assert calls == [["ab cd", "ef", "gh"]]


def phrase_lengths(seed=0, n=360):
    """Piece counts shaped like SST phrase nodes: most one word, a long tail."""
    rng = make_rng(seed)
    return rng.permutation(np.concatenate([np.full(n * 5 // 9, 3),
                                           rng.integers(4, 10, n - n * 5 // 9)]))


def pad_fraction(batches, lengths):
    slots = sum(len(b) * lengths[b].max() for b in batches)
    return 1.0 - sum(lengths[b].sum() for b in batches) / slots


class TestBucketedBatches:
    """``tokenizer.length_batches``, the sampler of fine-tuning and pretraining."""

    def test_every_index_once_per_epoch(self):
        lengths = phrase_lengths()
        rng = make_rng(1)
        epochs = [tok.length_batches(lengths, 32, rng) for _ in range(3)]
        for batches in epochs:
            np.testing.assert_array_equal(np.sort(np.concatenate(batches)),
                                          np.arange(len(lengths)))
        assert not np.array_equal(np.concatenate(epochs[0]), np.concatenate(epochs[1]))

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 127, 128, 129, 360])
    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_step_count_and_one_short_batch(self, n, batch_size):
        batches = tok.length_batches(phrase_lengths(n=n), batch_size, make_rng(n))
        assert len(batches) == -(-n // batch_size)
        assert all(1 <= len(b) <= batch_size for b in batches)
        assert sum(len(b) < batch_size for b in batches) <= 1

    def test_less_padding_than_a_plain_permutation(self):
        lengths = phrase_lengths()
        rng, plain_rng = make_rng(2), make_rng(2)
        sortish, plain = [], []
        for _ in range(20):
            sortish += tok.length_batches(lengths, 32, rng)
            order = plain_rng.permutation(len(lengths))
            plain += [order[i:i + 32] for i in range(0, len(order), 32)]
        assert pad_fraction(sortish, lengths) < pad_fraction(plain, lengths)


class TestFinetune:
    def test_zero_epochs_returns_inputs_unchanged(self, synth_corpora):
        vocab, cfg, params = tiny_setup()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)]
        snapshot = {k: p.data.copy() for k, p in params.items()}
        hyper = cl.FinetuneConfig(epochs=0)
        out_params, summary = cl.finetune(train[:20], dev[:10], params, cfg,
                                          vocab, "sst5", hyper, max_len=64, seed=1)
        assert out_params is params
        assert summary == {"best_epoch": None, "best_dev_root_acc": None}
        for k in snapshot:
            np.testing.assert_array_equal(params[k].data, snapshot[k])
        # the fresh head is the first draw of the seed's stream 2
        fresh = drawn_head(5, make_rng(1, stream=2), cfg.hidden)
        assert set(params) == set(snapshot) | {"head.w", "head.b"}
        for name in ("head.w", "head.b"):
            assert params[name].data.tobytes() == fresh[name].data.tobytes()

    def test_frozen_encoder_only_trains_head(self, synth_corpora):
        vocab, cfg, params = tiny_setup()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)]
        snapshot = {k: p.data.tobytes() for k, p in params.items()}
        params.update(drawn_head(5, make_rng(4), cfg.hidden))
        w0 = params["head.w"].data.copy()
        hyper = cl.FinetuneConfig(epochs=2, batch_size=16, freeze_encoder=True)
        cl.finetune(train[:40], dev[:10], params, cfg, vocab, "sst5", hyper, max_len=16, seed=1)
        assert {k: params[k].data.tobytes() for k in snapshot} == snapshot
        assert (params["head.w"].data != w0).any()

    def test_deterministic_per_seed(self, synth_corpora):
        vocab = letter_vocab()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)]
        results = []
        for _ in range(2):
            _, cfg, params = tiny_setup()
            hyper = cl.FinetuneConfig(epochs=1, batch_size=16)
            cl.finetune(train[:40], dev[:10], params, cfg, vocab, "sst5", hyper,
                        max_len=16, seed=7)
            results.append((params["head.w"].data.tobytes(),
                            {k: p.data.tobytes() for k, p in params.items()}))
        assert results[0] == results[1]

    def test_dropout_does_not_move_batches(self, synth_corpora, monkeypatch):
        # the batches come from their own stream, so dropout draws leave them be
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:48]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)][:10]
        encode_batch = enc.encode_batch
        seen = []

        def recording(ids, segs, mask, params, config, training=False, rng=None, **kwargs):
            if training:
                seen[-1].append(ids.tolist())
            return encode_batch(ids, segs, mask, params, config, training=training, rng=rng,
                                **kwargs)

        monkeypatch.setattr(enc, "encode_batch", recording)
        for dropout_p in (0.0, 0.1):
            seen.append([])
            vocab, cfg, params = tiny_setup(dropout_p=dropout_p)
            hyper = cl.FinetuneConfig(epochs=3, batch_size=16)
            cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper, max_len=16, seed=5)
        assert len(seen[0]) == 3 * 3
        assert seen[0] == seen[1]

    def test_padded_length_does_not_change_training(self, synth_corpora):
        # batches are padded to their longest row, so when no row is
        # truncated max_len cannot change a single bit of the result
        vocab = tok.build_vocab(synth_corpora[:1], 200)
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:48]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)][:10]
        assert max(tok.encode(r.text, vocab, 64).n_real for r in train + dev) <= 40
        results = []
        for max_len in (40, 64):
            _, cfg, params = tiny_setup(vocab=vocab, max_positions=64, dropout_p=0.1)
            hyper = cl.FinetuneConfig(epochs=2, batch_size=16, lr=1e-3)
            _, summary = cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper,
                                     max_len=max_len, seed=3)
            results.append((summary, params["head.w"].data.tobytes(),
                            params["head.b"].data.tobytes(),
                            {k: p.data.tobytes() for k, p in params.items()}))
        assert results[0] == results[1]

    @pytest.mark.parametrize("dev_tree", ["(2 (3 ab) (1 cd))", None])
    def test_no_scorable_dev_root_keeps_last_epoch(self, synth_corpora, monkeypatch,
                                                   dev_tree):
        # sst2 drops neutral roots, so an all-neutral or empty dev split has
        # nothing to pick an epoch by
        vocab, cfg, params = tiny_setup()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:40]
        dev = extract_phrases(parse_tree(dev_tree)) if dev_tree else []
        dev_root_accuracy = cl._dev_root_accuracy
        after_epoch = []

        def recording(dev_records, params, *args):
            after_epoch.append({k: p.data.tobytes() for k, p in params.items()})
            return dev_root_accuracy(dev_records, params, *args)

        monkeypatch.setattr(cl, "_dev_root_accuracy", recording)
        hyper = cl.FinetuneConfig(epochs=3, batch_size=16, lr=1e-3)
        _, summary = cl.finetune(train, dev, params, cfg, vocab, "sst2", hyper,
                                 max_len=16, seed=2)
        assert summary == {"best_epoch": 2, "best_dev_root_acc": None}
        assert len(after_epoch) == 3 and after_epoch[0] != after_epoch[2]
        assert {k: p.data.tobytes() for k, p in params.items()} == after_epoch[2]

    @pytest.mark.parametrize("freeze", [False, True])
    def test_best_epoch_is_restored_into_the_arena(self, synth_corpora, monkeypatch, freeze):
        vocab, cfg, params = tiny_setup()
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:40]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)][:10]
        scores = iter([0.2, 0.6, 0.6, 0.4])  # epoch 1 wins; the tie keeps it
        after_epoch = []
        optimizers = []

        def scripted(dev_records, params, *args):
            after_epoch.append({k: p.data.copy() for k, p in params.items()})
            return next(scores)

        class RecordingAdamW(cl.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(cl, "_dev_root_accuracy", scripted)
        monkeypatch.setattr(cl, "AdamW", RecordingAdamW)
        hyper = cl.FinetuneConfig(epochs=4, batch_size=16, lr=1e-3, head_lr=1e-2,
                                  freeze_encoder=freeze)
        out, summary = cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper,
                                   max_len=16, seed=2)
        assert summary == {"best_epoch": 1, "best_dev_root_acc": 0.6}
        assert {k: p.data.tobytes() for k, p in out.items()} == {
            k: x.tobytes() for k, x in after_epoch[1].items()}
        assert after_epoch[1]["head.w"].tobytes() != after_epoch[3]["head.w"].tobytes()
        # the restored values sit in the optimizer's own arena
        (opt,) = optimizers
        for name, p in opt.params.items():
            assert p is out[name] and np.shares_memory(p.data, opt.arena)

    def test_head_lr_only_sets_a_frozen_encoder_run(self, synth_corpora):
        # a full fine-tune trains the head at lr, as BERT does
        train = [r for t in synth_corpora[0].trees for r in extract_phrases(t)][:40]
        dev = [r for t in synth_corpora[1].trees for r in extract_phrases(t)][:10]
        saved = {}
        for freeze in (False, True):
            for head_lr in (1e-9, 1.0):
                vocab, cfg, params = tiny_setup()
                hyper = cl.FinetuneConfig(epochs=1, batch_size=16, lr=1e-3, head_lr=head_lr,
                                          freeze_encoder=freeze)
                cl.finetune(train, dev, params, cfg, vocab, "sst5", hyper, max_len=16, seed=4)
                saved[freeze, head_lr] = {k: p.data.tobytes() for k, p in params.items()}
        assert saved[False, 1e-9] == saved[False, 1.0]
        assert saved[True, 1e-9]["head.w"] != saved[True, 1.0]["head.w"]

    def test_all_neutral_binary_training_rejected(self):
        vocab, cfg, params = tiny_setup()
        records = extract_phrases(parse_tree("(2 (2 ab) (2 cd))"))
        hyper = cl.FinetuneConfig(epochs=1)
        with pytest.raises(cl.EmptyTrainingSetError):
            cl.finetune(records, records, params, cfg, vocab, "sst2", hyper, max_len=64, seed=0)

    def test_unknown_task(self):
        vocab, cfg, params = tiny_setup()
        records = extract_phrases(parse_tree("(3 ab)"))
        with pytest.raises(cl.LabelSpaceMismatchError):
            cl.finetune(records, records, params, cfg, vocab, "sst7",
                        cl.FinetuneConfig(epochs=1), max_len=64, seed=0)

    def test_head_class_mismatch(self):
        vocab, cfg, params = tiny_setup()
        records = extract_phrases(parse_tree("(3 ab)"))
        params.update(drawn_head(5, make_rng(0), cfg.hidden))
        with pytest.raises(cl.LabelSpaceMismatchError):
            cl.finetune(records, records, params, cfg, vocab, "sst2",
                        cl.FinetuneConfig(epochs=1), max_len=64, seed=0)


def oracle_predictor(corpora, task):
    """Text -> gold label lookup, for driving evaluate with perfect answers."""
    lookup = {}
    for corpus in corpora:
        for tree in corpus.trees:
            for rec in extract_phrases(tree):
                y = cl.project_label(rec.label, task)
                if y is not None:
                    lookup[rec.text] = y

    def fake_predict(texts, params, config, vocab, max_len, batch_size=64):
        k = params["head.b"].shape[0]
        out = []
        for t in texts:
            probs = np.zeros(k)
            probs[lookup[t]] = 1.0
            out.append(cl.Prediction(probs=probs, label=lookup[t]))
        return out

    return fake_predict


class TestEvaluate:
    def test_oracle_scores_perfectly(self, synth_corpora, monkeypatch):
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(5, make_rng(5), cfg.hidden))
        monkeypatch.setattr(cl, "predict_texts",
                            oracle_predictor(synth_corpora[2:], "sst5"))
        report = cl.evaluate(params, cfg, vocab, synth_corpora[2:],
                             [("sst5", "all"), ("sst5", "root")], max_len=16)
        for cell, (n, acc) in report.cells.items():
            assert n > 0 and acc == 1.0

    def test_all_cell_counts_every_node(self, synth_corpora, monkeypatch):
        corpus = synth_corpora[2]
        total_nodes = sum(len(extract_phrases(t)) for t in corpus.trees)
        n_roots = len(corpus.trees)
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(5, make_rng(6), cfg.hidden))
        monkeypatch.setattr(cl, "predict_texts", oracle_predictor([corpus], "sst5"))
        report = cl.evaluate(params, cfg, vocab, [corpus],
                             [("sst5", "all"), ("sst5", "root")], max_len=16)
        assert report.cells[("sst5", "all")][0] == total_nodes
        assert report.cells[("sst5", "root")][0] == n_roots

    def test_neutral_roots_give_empty_binary_cell(self):
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(2, make_rng(7), cfg.hidden))
        from treesent.treebank import Corpus

        tree = parse_tree("(2 (3 ab) (1 cd))")
        corpus = Corpus(split="test", trees=(tree,))
        report = cl.evaluate(params, cfg, vocab, [corpus],
                             [("sst2", "all"), ("sst2", "root")], max_len=8)
        assert report.cells[("sst2", "root")] == (0, 0.0)
        n_all, _ = report.cells[("sst2", "all")]
        assert n_all == 2  # the two polar leaves; neutral root excluded

    def test_task_head_mismatch(self, synth_corpora):
        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(5, make_rng(8), cfg.hidden))
        with pytest.raises(cl.LabelSpaceMismatchError):
            cl.evaluate(params, cfg, vocab, synth_corpora[2:],
                        [("sst2", "root")], max_len=64)

    def test_report_formats_agree(self, synth_corpora, monkeypatch):
        import json

        vocab, cfg, params = tiny_setup()
        params.update(drawn_head(5, make_rng(9), cfg.hidden))
        monkeypatch.setattr(cl, "predict_texts",
                            oracle_predictor(synth_corpora[2:], "sst5"))
        report = cl.evaluate(params, cfg, vocab, synth_corpora[2:],
                             [("sst5", "all")], max_len=16)
        tsv = report.to_tsv()
        payload = json.loads(report.to_json())
        n, acc = report.cells[("sst5", "all")]
        assert f"sst5\tall\t{n}\t{100 * acc:.1f}" in tsv
        assert payload["cells"]["sst5/all"] == {"n": n, "accuracy": acc}

    def test_empty_cell_renders_na(self):
        report = cl.EvalReport(cells={("sst2", "root"): (0, 0.0)})
        assert "n/a" in report.to_tsv()
        import json

        assert json.loads(report.to_json())["cells"]["sst2/root"]["accuracy"] is None


# The two scoring paths that ``_score`` serves, kept as references: the dev
# check projected and predicted the dev roots on its own, and ``evaluate``
# predicted every labeled node whatever the requested scopes.
def reference_dev_root_accuracy(dev_records, params, config, vocab, max_len, task):
    roots = [r for r in dev_records if r.is_root]
    pairs = [(r, cl.project_label(r.label, task)) for r in roots]
    pairs = [(r, y) for r, y in pairs if y is not None]
    if not pairs:
        return None
    preds = cl.predict_texts([r.text for r, _ in pairs], params, config, vocab, max_len)
    return cl.accuracy([p.label for p in preds], [y for _, y in pairs])


def reference_evaluate(params, config, vocab, corpora, cells, max_len=64):
    k = params["head.b"].shape[0]
    for task, _ in cells:
        if len(cl.TASKS[task].names) != k:
            raise cl.LabelSpaceMismatchError(f"cell task {task} does not fit a {k}-class head")
    report = cl.EvalReport()
    if not cells:
        return report
    task = cells[0][0]
    records = []
    for corpus in corpora:
        for tree in corpus.trees:
            records.extend(extract_phrases(tree))
    golds = [cl.project_label(r.label, task) for r in records]
    usable = [(r, y) for r, y in zip(records, golds) if y is not None]
    distinct = list(dict.fromkeys(r.text for r, _ in usable))
    by_text = dict(zip(distinct, cl.predict_texts(distinct, params, config, vocab, max_len)))
    preds = [by_text[r.text] for r, _ in usable]
    for task, scope in cells:
        if scope == "root":
            triple = [(p, y) for p, (r, y) in zip(preds, usable) if r.is_root]
        else:
            triple = list(zip(preds, [y for _, y in usable]))
        if not triple:
            report.cells[(task, scope)] = (0, 0.0)
            continue
        acc = cl.accuracy([p.label for p, _ in triple], [y for _, y in triple])
        report.cells[(task, scope)] = (len(triple), acc)
    return report


def recording_predictor(sent):
    """A predictor whose label is a fixed function of the text, so every
    path gets the same answer for a text however it batches; each call's
    texts are appended to ``sent``."""
    def predict(texts, params, config, vocab, max_len, batch_size=64):
        sent.append(list(texts))
        k = params["head.b"].shape[0]
        return [cl.Prediction(probs=np.eye(k)[zlib.crc32(t.encode()) % k],
                              label=zlib.crc32(t.encode()) % k) for t in texts]
    return predict


def neutral_roots_corpus():
    from treesent.treebank import Corpus

    trees = ("(2 (3 ab) (1 cd))", "(2 (4 ef) (2 gh))", "(2 (0 ab) (2 ij))")
    return Corpus(split="test", trees=tuple(parse_tree(t) for t in trees))


class TestScoringPath:
    @pytest.mark.parametrize("task", ["sst5", "sst2"])
    @pytest.mark.parametrize("scopes", [("all",), ("root",), ("all", "root"), ("root", "all")])
    @pytest.mark.parametrize("neutral", [False, True])
    def test_matches_the_reference_paths(self, synth_corpora, monkeypatch, task, scopes,
                                         neutral):
        vocab, cfg, params = tiny_setup()
        params.update(zero_head(len(cl.TASKS[task].names)))
        corpora = [neutral_roots_corpus()] if neutral else synth_corpora[1:]
        cells = [(task, scope) for scope in scopes]
        monkeypatch.setattr(cl, "predict_texts", recording_predictor([]))
        got = cl.evaluate(params, cfg, vocab, corpora, cells, max_len=16)
        want = reference_evaluate(params, cfg, vocab, corpora, cells, max_len=16)
        assert got.cells == want.cells and set(got.cells) == set(cells)
        if neutral and task == "sst2" and "root" in scopes:
            assert got.cells[(task, "root")] == (0, 0.0)
        records = [r for c in corpora for t in c.trees for r in extract_phrases(t)]
        assert (cl._dev_root_accuracy(records, params, cfg, vocab, 16, task)
                == reference_dev_root_accuracy(records, params, cfg, vocab, 16, task))

    def test_all_neutral_dev_roots_score_none(self):
        vocab, cfg, params = tiny_setup()
        params.update(zero_head(2))
        records = [r for t in neutral_roots_corpus().trees for r in extract_phrases(t)]
        assert cl._dev_root_accuracy(records, params, cfg, vocab, 16, "sst2") is None

    def test_root_scope_predicts_roots_only(self, synth_corpora, monkeypatch):
        vocab, cfg, params = tiny_setup()
        params.update(zero_head(5))
        sent = []
        monkeypatch.setattr(cl, "predict_texts", recording_predictor(sent))

        def every_node(tree):
            raise AssertionError("a root-only eval built a record for every node")

        monkeypatch.setattr(cl, "extract_phrases", every_node)
        corpus = synth_corpora[2]
        report = cl.evaluate(params, cfg, vocab, [corpus], [("sst5", "root")], max_len=16)
        roots = [tree.span_text for tree in corpus.trees]
        assert sent == [list(dict.fromkeys(roots))]
        assert report.cells[("sst5", "root")][0] == len(roots)

    def test_dev_roots_sharing_a_text_are_predicted_once(self, monkeypatch):
        vocab, cfg, params = tiny_setup()
        params.update(zero_head(5))
        sent = []
        monkeypatch.setattr(cl, "predict_texts", recording_predictor(sent))
        trees = ("(3 (3 ab) (2 cd))", "(1 (3 ab) (2 cd))", "(4 ef)")
        records = [r for t in trees for r in extract_phrases(parse_tree(t))]
        acc = cl._dev_root_accuracy(records, params, cfg, vocab, 16, "sst5")
        assert sent == [["ab cd", "ef"]]
        golds = [3, 1, 4]
        labels = [zlib.crc32(t.encode()) % 5 for t in ("ab cd", "ab cd", "ef")]
        assert acc == sum(p == g for p, g in zip(labels, golds)) / 3
