"""Text preprocessing: canonicalization, WordPiece, and sequence assembly.

Canonicalization lowercases and strips digits, punctuation, and accent
marks. WordPiece uses greedy longest-match-first segmentation with "##"
continuation pieces; the vocabulary is induced by frequency ranking (not
likelihood training) at desk scale. ``piece_ids`` tokenizes a list of
texts in one call and ``assemble`` frames one text's or pair's piece ids;
``encode`` and ``encode_pair`` do both for a single input.
``length_batches`` draws every training epoch's batches, pretraining's
and fine-tuning's, and ``stack_batch`` pads a batch into arrays.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

__all__ = [
    "PAD", "UNK", "CLS", "SEP", "MASK", "SPECIAL_TOKENS",
    "Vocab", "VocabError", "TokenSequence", "TargetTooSmallError",
    "canonicalize", "wordpiece", "build_vocab", "piece_ids", "assemble",
    "encode", "encode_pair", "length_batches", "stack_batch",
]

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

MAX_WORD_CHARS = 100  # longer words become [UNK] outright

# training batches are length-sorted within chunks of this many batches
BUCKET_CHUNK = 4


class TargetTooSmallError(ValueError):
    pass


class VocabError(ValueError):
    pass


class Vocab:
    """Ordered token list; id = position. Specials occupy ids 0-4."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise VocabError("vocab must start with [PAD],[UNK],[CLS],[SEP],[MASK]")
        if len(set(tokens)) != len(tokens):
            raise VocabError("duplicate tokens in vocab")
        self.tokens = tokens
        self.index = {t: i for i, t in enumerate(tokens)}
        self.pad_id = self.index[PAD]
        self.unk_id = self.index[UNK]
        self.cls_id = self.index[CLS]
        self.sep_id = self.index[SEP]
        self.mask_id = self.index[MASK]
        # by id: a "##" piece continues the word before it
        self.is_continuation = np.array([t.startswith("##") for t in tokens], dtype=bool)

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    def id_of(self, token):
        return self.index[token]

    @property
    def special_ids(self):
        return frozenset(range(len(SPECIAL_TOKENS)))

    def dump(self) -> str:
        """One token per line, as ``load`` reads it."""
        return "".join(t + "\n" for t in self.tokens)

    @classmethod
    def load(cls, path):
        """The vocab ``dump`` wrote to ``path``; a VocabError names the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])
        except (UnicodeDecodeError, VocabError) as exc:
            raise VocabError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TokenSequence:
    """Unpadded id sequence with its segment ids; ``stack_batch`` pads."""

    ids: np.ndarray
    segment_ids: np.ndarray

    def __post_init__(self):
        assert self.ids.shape == self.segment_ids.shape

    @property
    def n_real(self):
        return len(self.ids)


class _CanonicalTable(dict):
    """``str.translate`` table of ``canonicalize``'s per-character rules.

    Each code point is classified the first time it is looked up and the
    result is stored: None drops a combining accent (``Mn``), a digit
    (``Nd``), punctuation (``P*``) or whitespace becomes a space, and any
    other character becomes its lowercase (which may be two characters).
    """

    def __missing__(self, code):
        ch = chr(code)
        cat = unicodedata.category(ch)
        if cat == "Mn":
            out = None
        elif cat == "Nd" or cat.startswith("P") or ch.isspace():
            out = " "
        else:
            out = ch.lower()
        self[code] = out
        return out


_CANONICAL = _CanonicalTable()


def canonicalize(text: str) -> str:
    """Lowercase; drop digits, punctuation, and combining accents.

    Removed symbols become spaces (so hyphenated words split), runs of
    whitespace collapse, and the result is trimmed. Idempotent. One
    ``str.translate`` pass over the NFD form, whose table classifies each
    code point once per process; ``piece_ids`` calls this once per text,
    so ``pretrain`` canonicalizes each sentence once per call.
    """
    return " ".join(unicodedata.normalize("NFD", text).translate(_CANONICAL).split())


def wordpiece(word: str, vocab: Vocab) -> list:
    """Greedy longest-match-first subword segmentation.

    Returns ["[UNK]"] when any remaining prefix has no vocab match (the
    character alphabet in a built vocab makes this rare).
    """
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def _substring_slices(n):
    """Slices of an n-character word's substrings of 2 or more characters:
    those that start the word, then those that continue it."""
    head = [slice(0, j) for j in range(2, n + 1)]
    inner = [slice(i, j) for i in range(1, n - 1) for j in range(i + 2, n + 1)]
    return head, inner


def build_vocab(corpora, target_size: int) -> Vocab:
    """Frequency-ranked vocab: specials, full alphabet, then subwords.

    Every corpus character appears both bare and "##"-prefixed so greedy
    segmentation can always fall back to characters. The candidates are
    each word's multi-character substrings in vocab spelling ("##" unless
    at the word's start), counted once per word occurrence. Deterministic:
    ties break lexicographically. May come up short of target_size when
    the corpus has too few candidates.
    """
    texts = [tree.span_text for corpus in corpora for tree in corpus.trees]
    words = " ".join(map(canonicalize, texts)).split()
    word_freq = Counter(map(itemgetter(slice(MAX_WORD_CHARS)), words))

    alphabet = sorted(set("".join(word_freq)))
    base = list(SPECIAL_TOKENS) + alphabet + ["##" + ch for ch in alphabet]
    if target_size < len(base):
        raise TargetTooSmallError(
            f"target_size {target_size} < specials + alphabet ({len(base)})"
        )

    slices = {n: _substring_slices(n) for n in set(map(len, word_freq))}
    cand_freq = Counter()
    for word, freq in word_freq.items():
        head, inner = slices[len(word)]
        cands = set(map(word.__getitem__, head))
        cands.update(map("##".__add__, map(word.__getitem__, inner)))
        cand_freq.update(chain.from_iterable(repeat(cands, freq)))

    # by count, most frequent first, then by token: two stable sorts
    ranked = sorted(cand_freq.items(), key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)
    have = set(base)
    fresh = (tok for tok, _ in ranked if tok not in have)
    return Vocab(base + list(islice(fresh, target_size - len(base))))


def piece_ids(texts, vocab: Vocab) -> list:
    """Each text's WordPiece ids, as one list of ints per text.

    Every text is canonicalized once, and each distinct word is segmented
    once per call: the memo lives only as long as the call, so it never
    outlives the vocab it was built from. ``pretrain`` and ``classify``
    pass each of their text lists in one call.
    """
    memo = {}
    out = []
    for text in texts:
        ids = []
        for word in canonicalize(text).split():
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = memo[word] = [vocab.id_of(p) for p in wordpiece(word, vocab)]
            ids.extend(word_ids)
        out.append(ids)
    return out


def assemble(ids_a: list, ids_b, vocab: Vocab, max_len: int) -> TokenSequence:
    """[CLS] a [SEP], or [CLS] a [SEP] b [SEP] when ``ids_b`` is not None,
    from piece ids truncated to ``max_len``.

    The one place piece ids become a ``TokenSequence``. A single text keeps
    its first ``max_len - 2`` pieces. A pair is truncated longest-first, as
    BERT's ``_truncate_seq_pair``: while it is over ``max_len``, the longer
    side loses its last piece (side b on a tie). So a side cut short keeps
    at least half of the ``max_len - 3`` piece slots, a rounded up and b
    rounded down. The input lists are not modified.
    """
    pair = ids_b is not None
    if max_len < (5 if pair else 3):
        raise ValueError(f"max_len must be at least {5 if pair else 3}")
    budget = max_len - (3 if pair else 2)  # pieces left beside [CLS] and the [SEP]s
    len_b = min(len(ids_b), max(budget - len(ids_a), budget // 2)) if pair else 0
    len_a = min(len(ids_a), budget - len_b)
    ids = [vocab.cls_id, *ids_a[:len_a], vocab.sep_id]
    if pair:
        ids += [*ids_b[:len_b], vocab.sep_id]
    segs = np.zeros(len(ids), dtype=np.int64)
    segs[len_a + 2:] = 1
    return TokenSequence(ids=np.array(ids, dtype=np.int64), segment_ids=segs)


def encode(text: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """[CLS] pieces [SEP], truncated from the right to ``max_len``."""
    return assemble(piece_ids([text], vocab)[0], None, vocab, max_len)


def encode_pair(a: str, b: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """[CLS] a [SEP] b [SEP] with longest-first alternating truncation."""
    return assemble(*piece_ids([a, b], vocab), vocab, max_len)


def length_batches(lengths, batch_size, rng):
    """One epoch of training batches, as arrays of example indices.

    A "sortish" sampler: permute the examples, cut the permutation into
    chunks of ``BUCKET_CHUNK`` batches, stable-sort each chunk by length,
    split it into batches and shuffle the batch order. Only the last chunk
    can be partial, so there are ``ceil(n / batch_size)`` batches and at
    most one is short.
    """
    order = rng.permutation(len(lengths))
    batches = []
    for start in range(0, len(order), BUCKET_CHUNK * batch_size):
        chunk = order[start:start + BUCKET_CHUNK * batch_size]
        chunk = chunk[np.argsort(lengths[chunk], kind="stable")]
        batches.extend(chunk[i:i + batch_size] for i in range(0, len(chunk), batch_size))
    return [batches[i] for i in rng.permutation(len(batches))]


def stack_batch(seqs):
    """Pad sequences into (ids, segment_ids, mask) arrays of shape (B, n).

    ``n`` is the longest row of the batch. Shorter rows are filled with id
    0, which is [PAD] in every Vocab, and segment 0; ``mask`` is True on
    each row's real positions. This is the only place sequences are padded.
    """
    lengths = np.array([s.n_real for s in seqs])
    n = int(lengths.max())
    mask = np.arange(n) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    segs = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = np.concatenate([s.ids for s in seqs])
    segs[mask] = np.concatenate([s.segment_ids for s in seqs])
    return ids, segs, mask
