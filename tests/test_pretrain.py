import math

import numpy as np
import pytest

from test_classify import pad_fraction

from treesent import encoder as enc
from treesent import pretrain as pt
from treesent import tokenizer as tok
from treesent.optim import make_rng
from treesent.treebank import Corpus, PhraseTree, SentimentLabel


def letter_vocab(n_letters=26):
    letters = [chr(c) for c in range(ord("a"), ord("a") + n_letters)]
    return tok.Vocab(list(tok.SPECIAL_TOKENS) + letters + ["##" + c for c in letters])


def sentence_corpus(sentences, split="train"):
    trees = []
    for s in sentences:
        words = s.split()
        leaves = tuple(PhraseTree(SentimentLabel(2), token=w) for w in words)
        tree = leaves[0] if len(leaves) == 1 else PhraseTree(SentimentLabel(2), children=leaves)
        trees.append(tree)
    return Corpus(split=split, trees=tuple(trees))


def nsp_pairs(corpus, vocab, max_len, rng):
    """``make_nsp_pairs`` over a corpus, tokenized as ``pretrain`` does."""
    sentences = [tree.span_text for tree in corpus.trees]
    return pt.make_nsp_pairs(sentences, tok.piece_ids(sentences, vocab), vocab, max_len, rng)


class TestMaskTokens:
    def test_mask_fraction_statistics(self):
        # single-letter words, so word-level selection == position-level
        vocab = letter_vocab()
        rng = make_rng(11)
        text = " ".join("abcdefghij" * 3)  # 30 maskable single-piece words
        seq = tok.encode(text, vocab, 40)
        total = 0
        masked = 0
        while total < 10**5:
            ex = pt.mask_tokens(seq, 0.15, rng, vocab)
            total += seq.n_real - 2  # maskable positions per draw
            masked += len(ex.mask_positions)
        frac = masked / total
        assert abs(frac - 0.15) < 0.005

    def test_forced_mask_on_single_token(self):
        vocab = letter_vocab()
        rng = make_rng(12)
        seq = tok.encode("a", vocab, 4)
        for _ in range(50):
            ex = pt.mask_tokens(seq, 0.15, rng, vocab)
            assert list(ex.mask_positions) == [1]
            assert list(ex.targets) == [vocab.id_of("a")]

    def test_specials_never_masked(self):
        vocab = letter_vocab()
        rng = make_rng(13)
        seq = tok.encode("ab cd", vocab, 10)
        for _ in range(10**4):
            ex = pt.mask_tokens(seq, 0.5, rng, vocab)
            assert 0 not in ex.mask_positions          # [CLS]
            assert (seq.n_real - 1) not in ex.mask_positions  # [SEP]
            assert not any(p >= seq.n_real for p in ex.mask_positions)

    def test_word_level_masking_selects_whole_words(self):
        # "playing" -> two pieces; they must be selected together
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vocab = tok.Vocab(list(tok.SPECIAL_TOKENS) + letters
                          + ["##" + c for c in letters] + ["play", "##ing"])
        rng = make_rng(14)
        seq = tok.encode("playing playing playing", vocab, 12)
        for _ in range(200):
            ex = pt.mask_tokens(seq, 0.3, rng, vocab)
            pos = set(int(p) for p in ex.mask_positions)
            for start in (1, 3, 5):  # word boundaries: pieces (1,2),(3,4),(5,6)
                assert (start in pos) == (start + 1 in pos)

    def test_roundtrip_restores_original(self):
        vocab = letter_vocab()
        rng = make_rng(15)
        seq = tok.encode("ab cd ef gh", vocab, 16)
        ex = pt.mask_tokens(seq, 0.5, rng, vocab)
        restored = ex.seq.ids.copy()
        for p, target in zip(ex.mask_positions, ex.targets):
            restored[p] = target
        np.testing.assert_array_equal(restored, seq.ids)
        untouched = [i for i in range(len(seq.ids)) if i not in set(map(int, ex.mask_positions))]
        np.testing.assert_array_equal(ex.seq.ids[untouched], seq.ids[untouched])

    def test_replacement_split(self):
        vocab = letter_vocab()
        rng = make_rng(16)
        text = " ".join("abcdefghij" * 4)
        seq = tok.encode(text, vocab, 48)
        n_mask = n_rand = n_keep = 0
        for _ in range(2000):
            ex = pt.mask_tokens(seq, 0.3, rng, vocab)
            for p, target in zip(ex.mask_positions, ex.targets):
                new = int(ex.seq.ids[p])
                if new == vocab.mask_id:
                    n_mask += 1
                elif new == int(target):
                    n_keep += 1
                else:
                    n_rand += 1
        total = n_mask + n_rand + n_keep
        assert abs(n_mask / total - 0.8) < 0.02
        # "unchanged" and "random token" both inflate n_keep slightly when the
        # random draw happens to equal the original; allow that skew
        assert abs(n_rand / total - 0.1) < 0.02
        assert abs(n_keep / total - 0.1) < 0.02

    def test_no_maskable_positions(self):
        vocab = letter_vocab()
        seq = tok.encode("", vocab, 4)
        with pytest.raises(pt.NoMaskablePositionsError):
            pt.mask_tokens(seq, 0.15, make_rng(0), vocab)

    def test_bad_rate(self):
        vocab = letter_vocab()
        seq = tok.encode("ab", vocab, 6)
        with pytest.raises(ValueError):
            pt.mask_tokens(seq, 0.0, make_rng(0), vocab)


def reference_mask_tokens(seq, rate, rng, vocab):
    """The per-position loop ``mask_tokens`` replaced, as the oracle.

    Returns (masked ids, mask positions, targets, whether a word was forced).
    """
    special = {vocab.cls_id, vocab.sep_id}
    positions = [i for i in range(seq.n_real) if int(seq.ids[i]) not in special]
    words = []
    for i in positions:
        piece = vocab.tokens[int(seq.ids[i])]
        if piece.startswith("##") and words and words[-1][-1] == i - 1:
            words[-1].append(i)
        else:
            words.append([i])
    chosen = [w for w in words if rng.random() < rate]
    forced = not chosen
    if forced:
        chosen = [words[rng.integers(len(words))]]
    mask_positions = np.array([i for word in chosen for i in word], dtype=np.int64)
    ids = seq.ids.copy()
    for i in mask_positions:
        r = rng.random()
        if r < 0.8:
            ids[i] = vocab.mask_id
        elif r < 0.9:
            ids[i] = int(rng.integers(len(vocab.special_ids), len(vocab)))
    return ids, mask_positions, seq.ids[mask_positions], forced


class TestMaskTokensOracle:
    def test_matches_per_position_loop(self):
        # random piece sequences, specials included mid-sequence, so "##"
        # pieces land right after [CLS] and [SEP] and word runs break there
        vocab = letter_vocab(6)
        pool = ([vocab.id_of(c) for c in "abcdef"] + [vocab.id_of("##" + c) for c in "abcdef"]
                + [vocab.cls_id, vocab.sep_id, vocab.unk_id, vocab.mask_id])
        draw = make_rng(60)
        seen = {"cont_after_special": 0, "forced": 0, "single": 0}
        checked = 0
        for seed in range(1500):
            middle = draw.choice(pool, size=int(draw.integers(0, 12))).tolist()
            ids = np.array([vocab.cls_id] + middle + [vocab.sep_id], dtype=np.int64)
            seq = tok.TokenSequence(ids=ids, segment_ids=np.zeros_like(ids))
            n_maskable = int(((ids != vocab.cls_id) & (ids != vocab.sep_id)).sum())
            rate = (0.02, 0.15, 0.5, 0.9)[seed % 4]
            got_rng, want_rng = make_rng(seed, stream=7), make_rng(seed, stream=7)
            if n_maskable == 0:
                with pytest.raises(pt.NoMaskablePositionsError):
                    pt.mask_tokens(seq, rate, got_rng, vocab)
                continue
            ex = pt.mask_tokens(seq, rate, got_rng, vocab)
            want_ids, want_pos, want_targets, forced = reference_mask_tokens(
                seq, rate, want_rng, vocab)
            np.testing.assert_array_equal(ex.seq.ids, want_ids)
            np.testing.assert_array_equal(ex.mask_positions, want_pos)
            np.testing.assert_array_equal(ex.targets, want_targets)
            assert ex.mask_positions.dtype == np.int64
            assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
            checked += 1
            seen["forced"] += forced
            seen["single"] += n_maskable == 1
            seen["cont_after_special"] += any(
                vocab.tokens[int(ids[i])].startswith("##")
                and int(ids[i - 1]) in (vocab.cls_id, vocab.sep_id)
                for i in range(1, len(ids)))
        assert checked >= 1000
        assert all(seen.values()), seen


class TestMakeNspPairs:
    def test_two_sentence_corpus_forced_next(self):
        class AlwaysNext:
            def random(self):
                return 0.0

        vocab = letter_vocab()
        corpus = sentence_corpus(["ab cd", "ef gh"])
        pairs = nsp_pairs(corpus, vocab, 12, AlwaysNext())
        assert len(pairs) == 1
        assert pairs[0].label == pt.IS_NEXT
        assert pairs[0].a_text == "ab cd" and pairs[0].b_text == "ef gh"

    def test_random_b_never_true_next(self):
        vocab = letter_vocab()
        sentences = [f"{chr(ord('a') + i % 26)} {chr(ord('a') + (i * 7) % 26)}"
                     for i in range(40)]
        corpus = sentence_corpus(sentences)
        rng = make_rng(21)
        for _ in range(20):
            for i, pair in enumerate(nsp_pairs(corpus, vocab, 12, rng)):
                if pair.label == pt.NOT_NEXT:
                    assert pair.b_text != sentences[i + 1]

    def test_label_balance(self):
        vocab = letter_vocab()
        sentences = [f"{chr(ord('a') + i % 26)}" for i in range(2001)]
        corpus = sentence_corpus(sentences)
        rng = make_rng(22)
        labels = []
        for _ in range(5):
            labels.extend(p.label for p in nsp_pairs(corpus, vocab, 8, rng))
        frac = sum(labels) / len(labels)
        assert len(labels) == 10**4
        assert 0.48 <= frac <= 0.52

    def test_pair_segments_cover_both(self):
        vocab = letter_vocab()
        corpus = sentence_corpus(["ab cd", "ef gh", "ij kl"])
        for pair in nsp_pairs(corpus, vocab, 12, make_rng(23)):
            real = pair.seq.segment_ids[: pair.seq.n_real]
            assert 0 in real and 1 in real

    def test_pairs_match_encode_pair(self):
        # repeated words, "##" pieces, and truncation of either side: every
        # pair assembled from cached piece ids equals encode_pair on its texts
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vocab = tok.Vocab(list(tok.SPECIAL_TOKENS) + letters
                          + ["##" + c for c in letters] + ["play", "##ing"])
        corpus = sentence_corpus(["playing ab playing", "cd", "ab ab ab ab ab ab ab",
                                  "playing", "ef gh ij kl mn", "ab cd", "playing playing ing",
                                  "x", "ab cd"])
        cut_a = cut_b = 0
        for max_len in (5, 6, 8, 11, 16, 40):
            for seed in range(8):
                for pair in nsp_pairs(corpus, vocab, max_len, make_rng(seed)):
                    want = tok.encode_pair(pair.a_text, pair.b_text, vocab, max_len)
                    np.testing.assert_array_equal(pair.seq.ids, want.ids)
                    np.testing.assert_array_equal(pair.seq.segment_ids, want.segment_ids)
                    full_a, full_b = map(len, tok.piece_ids([pair.a_text, pair.b_text], vocab))
                    cut_a += int((want.segment_ids == 0).sum()) - 2 < full_a
                    cut_b += int((want.segment_ids == 1).sum()) - 1 < full_b
        assert cut_a and cut_b

    def test_max_len_below_pair_minimum(self):
        vocab = letter_vocab()
        with pytest.raises(ValueError):
            nsp_pairs(sentence_corpus(["ab", "cd", "ef"]), vocab, 4, make_rng(0))

    def test_corpus_too_small(self):
        vocab = letter_vocab()
        with pytest.raises(pt.CorpusTooSmallError):
            nsp_pairs(sentence_corpus(["ab"]), vocab, 8, make_rng(0))


TINY = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                       vocab_size=57, max_positions=16, dropout_p=0.0)


def tiny_state(vocab, lr=1e-3, seed=0):
    hyper = pt.PretrainConfig(lr=lr, seed=seed)
    cfg = enc.ModelConfig(layers=TINY.layers, hidden=TINY.hidden, heads=TINY.heads,
                          intermediate=TINY.intermediate, vocab_size=len(vocab),
                          max_positions=TINY.max_positions, dropout_p=0.0)
    return pt.init_pretrain_state(cfg, hyper)


def batch_from(corpus, vocab, rng, max_len=12, rate=0.15):
    pairs = nsp_pairs(corpus, vocab, max_len, rng)
    return [(pt.mask_tokens(p.seq, rate, rng, vocab), p.label) for p in pairs]


class TestPretrainStep:
    def test_degenerate_unk_batch_is_finite(self):
        vocab = letter_vocab()
        state = tiny_state(vocab)
        corpus = sentence_corpus(["ΔΦ ΠΣ", "ΩΞ ΘΛ", "ΨΓ ΛΛ"])  # all [UNK] pieces
        rng = make_rng(31)
        batch = batch_from(corpus, vocab, rng)
        mlm, nsp = pt.pretrain_step(state, batch, rng)
        assert math.isfinite(mlm) and math.isfinite(nsp)

    def test_overfits_fixed_batch(self):
        vocab = letter_vocab()
        state = tiny_state(vocab, lr=3e-3)
        corpus = sentence_corpus(["ab cd ef", "gh ij kl", "mn op qr"])
        rng = make_rng(32)
        batch = batch_from(corpus, vocab, rng)
        first, _ = pt.pretrain_step(state, batch, rng)
        last = first
        for _ in range(199):
            last, _ = pt.pretrain_step(state, batch, rng)
        assert last < first

    def test_losses_match_full_encoder(self):
        # the last block runs only at [CLS] and the masked slots; the losses
        # must be those of the full hidden states at the masked positions,
        # targets in batch order
        import treesent.autodiff as ad

        vocab = letter_vocab()
        state = tiny_state(vocab)  # dropout 0
        corpus = sentence_corpus(["ab cd ef gh", "ij kl", "mn op qr st uv", "wx yz ab"])
        rng = make_rng(34)
        batch = batch_from(corpus, vocab, rng, max_len=16, rate=0.4)
        counts = [len(ex.mask_positions) for ex, _ in batch]
        assert len(set(counts)) > 1  # slot padding differs between rows
        ids, segs, mask = tok.stack_batch([ex.seq for ex, _ in batch])
        with ad.no_grad():
            hidden, pooled = enc.encode_batch(ids, segs, mask, state.params, state.config)
            b, n, h = hidden.shape
            flat = np.concatenate([row * n + ex.mask_positions
                                   for row, (ex, _) in enumerate(batch)])
            states = hidden.data.reshape(b * n, h)[flat]
            mlm_logits = ad.linear(states, ad.transpose(state.params["emb.tok"]),
                                   state.params["mlm.b"])
            mlm = ad.softmax_cross_entropy(
                mlm_logits, np.concatenate([ex.targets for ex, _ in batch]))
            nsp = ad.softmax_cross_entropy(
                ad.linear(pooled, state.params["nsp.w"], state.params["nsp.b"]),
                np.array([lbl for _, lbl in batch]))
        got = pt.pretrain_step(state, batch, rng)
        np.testing.assert_allclose(got, (float(mlm.data), float(nsp.data)), rtol=1e-5)

    def test_nsp_separable_corpus(self):
        # two interleaved "languages" (a-f vs u-z) with a deterministic
        # successor: sentence i repeats cycle[i % 12] three times, so the true
        # next sentence is fully determined by the current word and every
        # random replacement is detectably wrong.  Repeating the word keeps
        # the signal visible even when one copy gets masked.
        vocab = letter_vocab()
        rng = make_rng(33)
        cycle = list("aubvcwdxeyfz")
        sentences = [" ".join([cycle[i % 12]] * 3) for i in range(48)]
        corpus = sentence_corpus(sentences)
        state = tiny_state(vocab, lr=3e-3)
        batches = []
        for seed in range(30):
            r = make_rng(100 + seed)
            batches.append(batch_from(corpus, vocab, r))
        for _ in range(40):
            for batch in batches:
                pt.pretrain_step(state, batch, rng)
        # measure training accuracy on the same distribution
        import treesent.autodiff as ad
        import treesent.encoder as te

        correct = total = 0
        for batch in batches[:10]:
            ids, segs, mask = tok.stack_batch([ex.seq for ex, _ in batch])
            with ad.no_grad():
                _, pooled = te.encode_batch(ids, segs, mask, state.params,
                                            state.config, training=False)
                logits = ad.matmul(pooled, state.params["nsp.w"]) + state.params["nsp.b"]
            pred = np.argmax(logits.data, axis=-1)
            gold = np.array([lbl for _, lbl in batch])
            correct += int((pred == gold).sum())
            total += len(gold)
        assert correct / total > 0.9


class TestPretrainLoop:
    def test_zero_epochs_returns_initial_state(self):
        vocab = letter_vocab()
        corpus = sentence_corpus(["ab cd", "ef gh", "ij kl"])
        hyper = pt.PretrainConfig(epochs=0, seed=5)
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        state = pt.pretrain(corpus, vocab, cfg, hyper)
        assert state.step == 0 and state.loss_history == []
        fresh = pt.init_pretrain_state(cfg, hyper)
        np.testing.assert_array_equal(state.params["emb.tok"].data,
                                      fresh.params["emb.tok"].data)

    @pytest.mark.parametrize("sentences", [[], ["ab cd"]])
    def test_too_small_corpus_names_its_split(self, sentences):
        # checked up front, so it raises even when no epoch would run
        vocab = letter_vocab()
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        with pytest.raises(pt.CorpusTooSmallError, match=f"dev split has {len(sentences)} tree"):
            pt.pretrain(sentence_corpus(sentences, split="dev"), vocab, cfg,
                        pt.PretrainConfig(epochs=0))

    def test_seeded_determinism(self):
        vocab = letter_vocab()
        sentences = [f"{chr(ord('a') + i % 20)} {chr(ord('a') + (i * 3) % 20)}"
                     for i in range(30)]
        corpus = sentence_corpus(sentences)
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        hyper = pt.PretrainConfig(epochs=2, batch_size=8, seed=9, max_len=12)
        s1 = pt.pretrain(corpus, vocab, cfg, hyper)
        s2 = pt.pretrain(corpus, vocab, cfg, hyper)
        assert s1.loss_history == s2.loss_history
        for name in s1.params:
            np.testing.assert_array_equal(s1.params[name].data, s2.params[name].data)

    def test_loss_decreases_over_epochs(self, synth_corpora):
        train = synth_corpora[0]
        vocab = tok.build_vocab([train], 150)
        cfg = enc.ModelConfig(layers=1, hidden=32, heads=2, intermediate=64,
                              vocab_size=len(vocab), max_positions=24)
        hyper = pt.PretrainConfig(epochs=16, batch_size=16, lr=5e-3, seed=4, max_len=20)
        state = pt.pretrain(train, vocab, cfg, hyper)
        first_epoch = [m for _, m, _ in state.loss_history[:3]]
        last_epoch = [m for _, m, _ in state.loss_history[-3:]]
        assert np.mean(last_epoch) < 0.8 * np.mean(first_epoch)

    def test_stops_at_max_steps(self, monkeypatch):
        # 30 sentences make 4 batches of 8 an epoch, so the cap falls in epoch 0
        vocab = letter_vocab()
        corpus = sentence_corpus([f"{chr(ord('a') + i % 20)} {chr(ord('a') + (i * 3) % 20)}"
                                  for i in range(30)])
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        make_nsp_pairs = pt.make_nsp_pairs
        calls = {"pairs": 0, "checkpoint": 0}

        def counting(*args):
            calls["pairs"] += 1
            return make_nsp_pairs(*args)

        def checkpoint_fn(state, epoch):
            calls["checkpoint"] += 1

        monkeypatch.setattr(pt, "make_nsp_pairs", counting)
        one = pt.pretrain(corpus, vocab, cfg, pt.PretrainConfig(
            epochs=1, batch_size=8, seed=9, max_len=12, max_steps=2))
        calls.update(pairs=0, checkpoint=0)
        three = pt.pretrain(corpus, vocab, cfg, pt.PretrainConfig(
            epochs=3, batch_size=8, seed=9, max_len=12, max_steps=2),
            checkpoint_fn=checkpoint_fn)
        assert three.step == 2
        assert calls == {"pairs": 1, "checkpoint": 1}
        assert three.loss_history == one.loss_history

    def test_batches_come_from_the_shared_sampler(self, monkeypatch):
        # pairs of 2-12 words: each epoch steps through the sampler's
        # batches, ceil(n / batch_size) of them, and they hold less [PAD]
        # than slices of a plain permutation of the same examples
        vocab = letter_vocab()
        rng = make_rng(3)
        sentences = [" ".join(rng.choice(list("abcdefgh"), int(rng.integers(1, 7))))
                     for _ in range(41)]
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        sampled, stepped = [], []
        pretrain_step = pt.pretrain_step

        def sampler(lengths, batch_size, rng):
            sampled.append((lengths, tok.length_batches(lengths, batch_size, rng)))
            return sampled[-1][1]

        def recording_step(state, batch, rng):
            stepped.append([ex.seq.n_real for ex, _ in batch])
            return pretrain_step(state, batch, rng)

        monkeypatch.setattr(pt, "length_batches", sampler)
        monkeypatch.setattr(pt, "pretrain_step", recording_step)
        state = pt.pretrain(sentence_corpus(sentences), vocab, cfg,
                            pt.PretrainConfig(epochs=3, batch_size=4, seed=2, max_len=16))
        assert len(sampled) == 3 and state.step == 3 * 10
        assert stepped == [lengths[sel].tolist() for lengths, batches in sampled
                           for sel in batches]
        plain_rng = make_rng(4)
        for lengths, batches in sampled:
            assert len(lengths) == 40 and len(batches) == 10
            plain = []
            for _ in range(20):
                order = plain_rng.permutation(len(lengths))
                plain.append(pad_fraction([order[i:i + 4] for i in range(0, 40, 4)], lengths))
            assert pad_fraction(batches, lengths) < np.mean(plain)

    def test_tokenizes_each_sentence_once(self, monkeypatch):
        # three epochs, a repeated sentence and repeated words: one
        # canonicalize per sentence and one wordpiece per distinct word
        vocab = letter_vocab()
        sentences = ["ab cd ab", "cd ef", "ab cd ab", "gh", "ef ab", "ij kl cd"]
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=16)
        canonicalize, wordpiece = tok.canonicalize, tok.wordpiece
        texts, words = [], []

        def counting_canonicalize(text):
            texts.append(text)
            return canonicalize(text)

        def counting_wordpiece(word, vocab):
            words.append(word)
            return wordpiece(word, vocab)

        monkeypatch.setattr(tok, "canonicalize", counting_canonicalize)
        monkeypatch.setattr(tok, "wordpiece", counting_wordpiece)
        state = pt.pretrain(sentence_corpus(sentences), vocab, cfg,
                            pt.PretrainConfig(epochs=3, batch_size=4, seed=3, max_len=12))
        assert state.step == 6
        assert texts == sentences
        assert sorted(words) == sorted({w for s in sentences for w in s.split()})

    def test_history_is_append_only_increasing_steps(self, synth_corpora):
        vocab = tok.build_vocab(synth_corpora[:1], 120)
        cfg = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                              vocab_size=len(vocab), max_positions=24)
        hyper = pt.PretrainConfig(epochs=1, batch_size=32, seed=1, max_len=16)
        state = pt.pretrain(synth_corpora[0], vocab, cfg, hyper)
        steps = [s for s, _, _ in state.loss_history]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert state.step == steps[-1]


class TestNoLeakage:
    def _uniform_random_batches(self, vocab, rng, n_batches, batch_size, n_words):
        letters = [t for t in vocab.tokens if len(t) == 1]
        batches = []
        for _ in range(n_batches):
            batch = []
            for _ in range(batch_size):
                words = [letters[int(rng.integers(len(letters)))] for _ in range(n_words)]
                a = " ".join(words[: n_words // 2])
                b = " ".join(words[n_words // 2:])
                seq = tok.encode_pair(a, b, vocab, n_words + 3)
                ex = pt.mask_tokens(seq, 0.15, rng, vocab)
                batch.append((ex, int(rng.integers(2))))
            batches.append(batch)
        return batches

    def test_mlm_loss_converges_to_log_vocab(self):
        # targets are uniform over the 26 single-letter tokens and contexts
        # are fresh random draws every step: the best reachable loss is
        # ln(26), and dipping below it would mean information leakage
        vocab = letter_vocab(26)
        state = tiny_state(vocab, lr=2e-3)
        rng = make_rng(41)
        batches = self._uniform_random_batches(vocab, rng, 260, 8, 12)
        losses = [pt.pretrain_step(state, b, rng)[0] for b in batches]
        tail = np.mean(losses[-40:])
        target = math.log(26)
        assert abs(tail - target) / target < 0.05

    def test_nsp_loss_stays_at_log2_on_shuffled_labels(self):
        vocab = letter_vocab(26)
        state = tiny_state(vocab, lr=2e-3)
        rng = make_rng(42)
        batches = self._uniform_random_batches(vocab, rng, 200, 8, 12)
        losses = [pt.pretrain_step(state, b, rng)[1] for b in batches]
        tail = np.mean(losses[-40:])
        assert abs(tail - math.log(2)) / math.log(2) < 0.05
