"""Seeded synthetic treebank splits for the benchmark workloads.

The generator is independent of ``src/``: it writes bracketed trees in the
one-tree-per-line format that ``treesent prepare`` reads, and it knows the
text and gold label of every node it writes, so the benchmark can check
the program's outputs without trusting the program's own parser.

Sentence lengths come from a fixed multiset that the seed only shuffles,
so a split's word and node counts depend on its size, not on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Polar words in the style of ``treesent.synth``: every node's label is the
# clipped mean polarity of its span, so the sentiment signal is learnable.
POLARITY = {
    "dreadful": -2, "awful": -2, "unbearable": -2, "disaster": -2, "horrid": -2,
    "dismal": -2, "painful": -2, "inept": -2,
    "boring": -1, "weak": -1, "flawed": -1, "tedious": -1, "shallow": -1,
    "clumsy": -1, "bland": -1, "murky": -1,
    "movie": 0, "film": 0, "story": 0, "actor": 0, "scene": 0, "plot": 0,
    "script": 0, "director": 0, "ending": 0, "score": 0, "camera": 0, "cast": 0,
    "decent": 1, "solid": 1, "charming": 1, "pleasant": 1, "engaging": 1,
    "witty": 1, "warm": 1, "lively": 1,
    "brilliant": 2, "stunning": 2, "masterpiece": 2, "superb": 2, "glorious": 2,
    "moving": 2, "radiant": 2, "dazzling": 2,
}
POLAR_WORDS = tuple(sorted(POLARITY))

_ONSETS = tuple("bcdfghjklmnprstvwz") + (
    "br", "ch", "cl", "dr", "fl", "gr", "pl", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "ng", "rd", "st")


@dataclass(frozen=True)
class Split:
    """One written split: its lines, sentence texts and every node's
    (text, gold label)."""

    lines: tuple
    roots: tuple   # sentence texts
    nodes: tuple   # (text, label) per node, pre-order within each sentence

    @property
    def sentences(self):
        return len(self.lines)

    @property
    def texts(self):
        return [text for text, _ in self.nodes]


def label_of(words) -> int:
    """Gold sst5 label of a span: mean polarity + 2, rounded and clipped."""
    avg = sum(POLARITY.get(w, 0) for w in words) / len(words)
    return max(0, min(4, round(avg + 2)))


def _lengths(rng, n, lo, hi):
    """A fixed multiset of n lengths cycling lo..hi, in a seeded order."""
    lengths = [lo + i % (hi - lo + 1) for i in range(n)]
    return [lengths[i] for i in rng.permutation(n)]


def _bracket(words, lo, hi, rng, nodes, label_fn):
    """Random binary bracketing of words[lo:hi]; appends nodes pre-order."""
    span = words[lo:hi]
    label = label_fn(span)
    nodes.append((" ".join(span), label))
    if hi - lo == 1:
        return f"({label} {span[0]})"
    cut = int(rng.integers(lo + 1, hi))
    left = _bracket(words, lo, cut, rng, nodes, label_fn)
    right = _bracket(words, cut, hi, rng, nodes, label_fn)
    return f"({label} {left} {right})"


def _split(rng, sentences_words, label_fn):
    lines, nodes = [], []
    for words in sentences_words:
        lines.append(_bracket(words, 0, len(words), rng, nodes, label_fn))
    return Split(lines=tuple(lines), roots=tuple(" ".join(w) for w in sentences_words),
                 nodes=tuple(nodes))


def polar_split(rng, n_sentences, min_words=3, max_words=7) -> Split:
    """Short sentences drawn uniformly from the polar lexicon."""
    sents = [[POLAR_WORDS[i] for i in rng.integers(len(POLAR_WORDS), size=n)]
             for n in _lengths(rng, n_sentences, min_words, max_words)]
    return _split(rng, sents, label_of)


def word_pool(rng, size):
    """``size`` distinct invented words of one to four syllables."""
    pool, seen = [], set()
    while len(pool) < size:
        syllables = int(rng.integers(1, 5))
        word = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                       for _ in range(syllables))
        word += _CODAS[rng.integers(len(_CODAS))]
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def zipf_split(rng, pool, n_sentences, min_words=10, max_words=24, exponent=1.1) -> Split:
    """Long sentences over ``pool`` with Zipf-weighted word choice; neutral labels."""
    weights = 1.0 / np.arange(1, len(pool) + 1) ** exponent
    weights /= weights.sum()
    sents = [[pool[i] for i in rng.choice(len(pool), size=n, p=weights)]
             for n in _lengths(rng, n_sentences, min_words, max_words)]
    return _split(rng, sents, lambda span: 2)


def write_splits(directory, splits):
    """Write {split name: Split} as ``<name>.txt`` treebank files."""
    os.makedirs(directory, exist_ok=True)
    for name, split in splits.items():
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(split.lines) + "\n")
