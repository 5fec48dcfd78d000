import itertools
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent.optim import make_rng
from treesent.tokenizer import (
    MAX_WORD_CHARS,
    CLS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    TargetTooSmallError,
    TokenSequence,
    Vocab,
    assemble,
    build_vocab,
    canonicalize,
    encode,
    encode_pair,
    stack_batch,
    wordpiece,
)
from treesent.treebank import Corpus, PhraseTree, SentimentLabel


def word_corpus(text, split="train"):
    """Wrap a whitespace-separated string as a one-sentence corpus."""
    words = text.split()
    leaves = tuple(PhraseTree(SentimentLabel(2), token=w) for w in words)
    tree = leaves[0] if len(leaves) == 1 else PhraseTree(SentimentLabel(2), children=leaves)
    return Corpus(split=split, trees=(tree,))


class TestCanonicalize:
    def test_digits_and_punct_removed(self):
        assert canonicalize("Playing 123!") == "playing"

    def test_accents_and_hyphens(self):
        assert canonicalize("Café-au-lait") == "cafe au lait"

    def test_empty(self):
        assert canonicalize("") == ""

    def test_whitespace_collapsed(self):
        assert canonicalize("  A   b\t c \n") == "a b c"

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = canonicalize(text)
        assert canonicalize(once) == once

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_output_clean(self, text):
        out = canonicalize(text)
        for ch in out:
            cat = unicodedata.category(ch)
            assert cat != "Nd" and not cat.startswith("P") and cat != "Mn"
            assert ch == ch.lower()
        assert "  " not in out and out == out.strip()


def reference_canonicalize(text):
    """The per-character loop ``canonicalize`` replaced, as the oracle."""
    out = []
    for ch in unicodedata.normalize("NFD", text):
        cat = unicodedata.category(ch)
        if cat == "Mn":
            continue
        if cat == "Nd" or cat.startswith("P") or ch.isspace():
            out.append(" ")
        else:
            out.append(ch.lower())
    return " ".join("".join(out).split())


# Mn accents, non-ASCII Nd digits, Unicode P* and S* characters, an ASCII
# separator and an ideographic space that are whitespace, and a capital
# whose lowercase is two characters
EDGE_CHARS = ("\u0301\u0308\u0327\u20dd" "\u0663\u096b\uff15" "\u00bf\u2014\u300c\u00b7"
              "\u20ac\u00a9+\u02c6\U0001f600" "\x1c\u3000\u00a0" "\u0130\u00c5\u00df")


class TestCanonicalizeReference:
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(EDGE_CHARS)),
                   max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_matches_per_character_loop(self, text):
        assert canonicalize(text) == reference_canonicalize(text)

    @pytest.mark.parametrize("ch", list(EDGE_CHARS))
    def test_edge_characters(self, ch):
        for text in (ch, f"A{ch}b", f"{ch}{ch} x{ch}"):
            assert canonicalize(text) == reference_canonicalize(text)


def greedy_reference(word, vocab_tokens):
    """Independent longest-match-first reference over a plain token set."""
    pieces = []
    start = 0
    while start < len(word):
        matches = []
        for tok in vocab_tokens:
            body = tok[2:] if tok.startswith("##") else tok
            is_cont = tok.startswith("##")
            if is_cont != (start > 0):
                continue
            if word.startswith(body, start) and body:
                matches.append(body)
        if not matches:
            return [UNK]
        best = max(matches, key=len)
        pieces.append(("##" + best) if start > 0 else best)
        start += len(best)
    return pieces


class TestWordpiece:
    def test_playing(self, small_vocab):
        assert wordpiece("playing", small_vocab) == ["play", "##ing"]

    def test_exact_match(self, small_vocab):
        assert wordpiece("play", small_vocab) == ["play"]

    def test_unknown_characters(self, small_vocab):
        assert wordpiece("δφγ", small_vocab) == [UNK]

    def test_over_length_word(self, small_vocab):
        assert wordpiece("a" * 101, small_vocab) == [UNK]

    def test_concatenation_recovers_word(self, small_vocab):
        for word in ("rocks", "playingplay", "zzz"):
            pieces = wordpiece(word, small_vocab)
            assert UNK not in pieces
            assert "".join(p.removeprefix("##") for p in pieces) == word

    def test_greedy_matches_bruteforce_reference(self):
        rng = make_rng(99)
        alphabet = "abc"
        all_words = [
            "".join(w)
            for n in range(1, 7)
            for w in itertools.product(alphabet, repeat=n)
        ]
        pool = []
        for n in (1, 2, 3):
            for w in itertools.product(alphabet, repeat=n):
                pool.append("".join(w))
                pool.append("##" + "".join(w))
        for trial in range(30):
            chosen = [pool[i] for i in rng.choice(len(pool), size=12, replace=False)]
            tokens = list(SPECIAL_TOKENS) + sorted(set(chosen))
            vocab = Vocab(tokens)
            for word in all_words:
                assert wordpiece(word, vocab) == greedy_reference(word, tokens[5:]), (
                    word, sorted(set(chosen)))


def reference_build_vocab(corpora, target_size):
    """The per-candidate loop ``build_vocab`` replaced, as the oracle."""
    word_freq = Counter()
    for corpus in corpora:
        for tree in corpus.trees:
            for w in canonicalize(tree.span_text).split():
                word_freq[w[:MAX_WORD_CHARS]] += 1

    alphabet = sorted({ch for w in word_freq for ch in w})
    base = list(SPECIAL_TOKENS) + alphabet + ["##" + ch for ch in alphabet]
    if target_size < len(base):
        raise TargetTooSmallError(target_size)

    cand_freq = Counter()
    for w, f in word_freq.items():
        n = len(w)
        cands = set()
        for i in range(n):
            for j in range(i + 2, n + 1):
                piece = w[i:j]
                cands.add(piece if i == 0 else "##" + piece)
        for c in cands:
            cand_freq[c] += f

    tokens = list(base)
    have = set(tokens)
    ranked = sorted(cand_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    for tok, _ in ranked:
        if len(tokens) >= target_size:
            break
        if tok not in have:
            tokens.append(tok)
            have.add(tok)
    return Vocab(tokens)


class TestBuildVocab:
    def test_hand_counted_example(self):
        # corpus "aa aa ab": alphabet {a, b}; the only multi-char candidates
        # are aa (freq 2) and ab (freq 1), so aa ranks first
        vocab = build_vocab([word_corpus("aa aa ab")], 12)
        for t in list(SPECIAL_TOKENS) + ["a", "b", "##a", "##b"]:
            assert t in vocab
        toks = vocab.tokens
        assert toks.index("aa") < toks.index("ab")

    def test_alphabet_only_target(self):
        vocab = build_vocab([word_corpus("aa aa ab")], 9)
        assert len(vocab) == 9
        assert wordpiece("aab", vocab) == ["a", "##a", "##b"]

    def test_empty_corpus(self):
        vocab = build_vocab([Corpus(split="train", trees=())], 5)
        assert vocab.tokens == list(SPECIAL_TOKENS)

    def test_target_too_small(self):
        with pytest.raises(TargetTooSmallError):
            build_vocab([word_corpus("aa ab")], 8)

    def test_deterministic(self, synth_corpora):
        v1 = build_vocab(synth_corpora[:1], 150)
        v2 = build_vocab(synth_corpora[:1], 150)
        assert v1.tokens == v2.tokens

    @pytest.mark.parametrize("target", [120, 150, 400, 1000, 5000])
    def test_matches_reference_on_synth(self, synth_corpora, target):
        for corpora in (synth_corpora[:1], synth_corpora):
            assert build_vocab(corpora, target).tokens == reference_build_vocab(corpora, target).tokens

    def test_matches_reference_on_long_and_repeating_words(self):
        corpus = word_corpus(" ".join(["x" * (MAX_WORD_CHARS + 30), "xy" * 60, "aaaa", "abab",
                                       "Ab-ab", "ÉTÉ", "été", "x" * MAX_WORD_CHARS]))
        for target in (20, 60, 400):
            assert build_vocab([corpus], target).tokens == reference_build_vocab([corpus], target).tokens

    @given(st.lists(st.text(alphabet="abAé1-", min_size=1, max_size=6), min_size=1, max_size=8),
           st.lists(st.integers(0, 7), min_size=1, max_size=30), st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_word_lists(self, pool, picks, extra):
        # words drawn with repetition from a small pool over a small
        # alphabet, so candidate counts tie often
        corpus = word_corpus(" ".join(pool[i % len(pool)] for i in picks))
        alphabet = set(canonicalize(" ".join(pool)).replace(" ", ""))
        target = len(SPECIAL_TOKENS) + 2 * len(alphabet) + extra
        assert build_vocab([corpus], target).tokens == reference_build_vocab([corpus], target).tokens

    def test_save_load_roundtrip(self, tmp_path, synth_corpora):
        v1 = build_vocab(synth_corpora[:1], 120)
        path = tmp_path / "vocab.txt"
        path.write_text(v1.dump(), encoding="utf-8")
        v2 = Vocab.load(path)
        assert v1.tokens == v2.tokens
        assert path.read_text(encoding="utf-8").splitlines()[:5] == list(SPECIAL_TOKENS)


def check_sequence_invariants(seq, vocab, max_len, pair=False):
    assert len(seq.ids) == len(seq.segment_ids) == seq.n_real <= max_len
    assert seq.ids[0] == vocab.cls_id
    assert seq.ids[-1] == vocab.sep_id
    assert vocab.pad_id not in seq.ids
    n_sep = int((seq.ids == vocab.sep_id).sum())
    assert n_sep == (2 if pair else 1)
    first_sep = int(np.argmax(seq.ids == vocab.sep_id))
    assert (seq.segment_ids[: first_sep + 1] == 0).all()
    if pair:
        assert (seq.segment_ids[first_sep + 1:] == 1).all()
    check_padded_invariants(seq, vocab, max_len)


def check_padded_invariants(seq, vocab, max_len):
    """Stacked beside a max_len row, the padded slots hold [PAD], segment 0."""
    full = TokenSequence(ids=np.full(max_len, vocab.cls_id),
                         segment_ids=np.zeros(max_len, dtype=np.int64))
    ids, segs, mask = stack_batch([seq, full])
    assert ids.shape[1] == max_len
    assert ((mask[0] == 0) == (ids[0] == vocab.pad_id)).all()
    assert (segs[0][mask[0] == 0] == 0).all()
    assert int(mask[0].sum()) == seq.n_real


class TestEncode:
    def test_playing_frame(self, small_vocab):
        seq = encode("playing", small_vocab, 8)
        want = [small_vocab.cls_id, small_vocab.id_of("play"),
                small_vocab.id_of("##ing"), small_vocab.sep_id]
        assert seq.ids.tolist() == want
        assert seq.n_real == 4
        assert seq.segment_ids.tolist() == [0] * 4

    def test_empty_text(self, small_vocab):
        seq = encode("", small_vocab, 4)
        assert seq.ids.tolist() == [small_vocab.cls_id, small_vocab.sep_id]
        assert seq.n_real == 2

    def test_truncation_keeps_sep(self, small_vocab):
        text = " ".join(["playing"] * 50)  # 100 pieces
        seq = encode(text, small_vocab, 8)
        assert seq.n_real == 8
        assert seq.ids[7] == small_vocab.sep_id
        check_sequence_invariants(seq, small_vocab, 8)

    def test_min_len_enforced(self, small_vocab):
        with pytest.raises(ValueError):
            encode("x", small_vocab, 2)

    @given(st.text(max_size=40), st.integers(3, 24))
    @settings(max_examples=200, deadline=None)
    def test_invariants_random_text(self, text, max_len):
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vocab = Vocab(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])
        seq = encode(text, vocab, max_len)
        check_sequence_invariants(seq, vocab, max_len)

    def test_deterministic(self, small_vocab):
        a = encode("playing rocks", small_vocab, 12)
        b = encode("playing rocks", small_vocab, 12)
        assert (a.ids == b.ids).all() and (a.segment_ids == b.segment_ids).all()


class TestEncodePair:
    def test_basic_pair(self, small_vocab):
        seq = encode_pair("play", "play", small_vocab, 8)
        v = small_vocab
        assert seq.ids.tolist() == [v.cls_id, v.id_of("play"), v.sep_id,
                                    v.id_of("play"), v.sep_id]
        assert seq.segment_ids.tolist() == [0, 0, 0, 1, 1]
        check_sequence_invariants(seq, small_vocab, 8, pair=True)

    def test_empty_second_sentence(self, small_vocab):
        seq = encode_pair("play", "", small_vocab, 8)
        sep_positions = np.flatnonzero(seq.ids == small_vocab.sep_id)
        assert list(sep_positions) == [2, 3]

    def test_alternating_truncation_balance(self, small_vocab):
        # simulate the truncation loop over synthetic lengths: whenever both
        # sides were truncated, the kept lengths differ by at most one
        long_a = " ".join(["playing"] * 30)
        long_b = " ".join(["rocks"] * 30)
        for max_len in (9, 10, 15, 24):
            seq = encode_pair(long_a, long_b, small_vocab, max_len)
            first_sep = int(np.argmax(seq.ids == small_vocab.sep_id))
            len_a = first_sep - 1
            len_b = seq.n_real - first_sep - 2
            assert len_a + len_b == max_len - 3
            assert len_a - len_b in (0, 1)
            check_sequence_invariants(seq, small_vocab, max_len, pair=True)

    def test_min_len_enforced(self, small_vocab):
        with pytest.raises(ValueError):
            encode_pair("a", "b", small_vocab, 4)


def reference_single(ids, max_len):
    """A lone text keeps its first max_len - 2 pieces, as a slice."""
    return ids[: max_len - 2]


def reference_pair(ids_a, ids_b, max_len):
    """BERT's _truncate_seq_pair, stated as its loop: while the pair is over
    max_len, the longer side loses its last piece (side b on a tie)."""
    len_a, len_b = len(ids_a), len(ids_b)
    while len_a + len_b > max_len - 3:
        if len_a > len_b:
            len_a -= 1
        else:
            len_b -= 1
    return ids_a[:len_a], ids_b[:len_b]


PIECES = st.lists(st.integers(len(SPECIAL_TOKENS), 56), max_size=40)


class TestAssemble:
    @given(PIECES, st.none() | PIECES, st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_rules(self, ids_a, ids_b, data):
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)]
        vocab = Vocab(list(SPECIAL_TOKENS) + letters + ["##" + c for c in letters])
        max_len = data.draw(st.integers(3 if ids_b is None else 5, 40))
        given_a, given_b = list(ids_a), None if ids_b is None else list(ids_b)
        seq = assemble(ids_a, ids_b, vocab, max_len)
        if ids_b is None:
            want = [vocab.cls_id, *reference_single(ids_a, max_len), vocab.sep_id]
            want_segs = [0] * len(want)
        else:
            a, b = reference_pair(ids_a, ids_b, max_len)
            want = [vocab.cls_id, *a, vocab.sep_id, *b, vocab.sep_id]
            want_segs = [0] * (len(a) + 2) + [1] * (len(b) + 1)
        assert seq.ids.tolist() == want
        assert seq.segment_ids.tolist() == want_segs
        assert seq.ids.dtype == seq.segment_ids.dtype == np.int64
        assert ids_a == given_a and ids_b == given_b


class TestStackBatch:
    def test_width_is_longest_real_row(self, small_vocab):
        seqs = [encode("ab", small_vocab, 16), encode("play rock", small_vocab, 16),
                encode_pair("a", "movie", small_vocab, 16)]
        ids, segs, mask = stack_batch(seqs)
        width = max(s.n_real for s in seqs)
        assert width < 16
        assert ids.shape == segs.shape == mask.shape == (3, width)
        for row, s in enumerate(seqs):
            np.testing.assert_array_equal(ids[row, :s.n_real], s.ids)
            np.testing.assert_array_equal(segs[row, :s.n_real], s.segment_ids)
            assert (ids[row, s.n_real:] == small_vocab.pad_id).all()
            assert (segs[row, s.n_real:] == 0).all()
            assert int(mask[row].sum()) == s.n_real

    @given(st.lists(st.lists(st.tuples(st.integers(1, 99), st.integers(0, 1)),
                             min_size=1, max_size=12), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_sequence_then_zeros(self, rows):
        seqs = [TokenSequence(ids=np.array([i for i, _ in r], dtype=np.int64),
                              segment_ids=np.array([g for _, g in r], dtype=np.int64))
                for r in rows]
        ids, segs, mask = stack_batch(seqs)
        width = max(len(r) for r in rows)
        assert ids.shape == segs.shape == mask.shape == (len(seqs), width)
        for row, s in enumerate(seqs):
            pad = [0] * (width - s.n_real)
            assert ids[row].tolist() == s.ids.tolist() + pad
            assert segs[row].tolist() == s.segment_ids.tolist() + pad
            assert mask[row].tolist() == [True] * s.n_real + [False] * len(pad)
            assert int(mask[row].sum()) == s.n_real
