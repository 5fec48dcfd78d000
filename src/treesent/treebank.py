"""Sentiment treebank ingestion: PTB-style bracketed trees with node labels.

File format: one tree per line, ``(<label> <child> ... <child>)`` where each
child is a bare token or a nested expression and labels are integers 0-4
(very negative .. very positive).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

__all__ = [
    "LABEL_NAMES",
    "SentimentLabel",
    "BinaryLabel",
    "PhraseTree",
    "Corpus",
    "PhraseRecord",
    "StatsReport",
    "TreeParseError",
    "UnbalancedParensError",
    "InvalidLabelError",
    "EmptyNodeError",
    "TrailingGarbageError",
    "TreeTooDeepError",
    "CorpusLoadError",
    "parse_tree",
    "serialize_tree",
    "extract_phrases",
    "to_binary",
    "load_corpus",
    "corpus_stats",
]

LABEL_NAMES = ("very negative", "negative", "neutral", "positive", "very positive")

# a binary tree over n tokens nests at most n deep, so this admits any sentence
# of up to 128 tokens; the recursive tree code overflows at a few hundred levels
MAX_TREE_DEPTH = 128


class TreeParseError(ValueError):
    """Malformed tree line; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnbalancedParensError(TreeParseError):
    pass


class InvalidLabelError(TreeParseError):
    pass


class EmptyNodeError(TreeParseError):
    pass


class TrailingGarbageError(TreeParseError):
    pass


class TreeTooDeepError(TreeParseError):
    pass


class CorpusLoadError(ValueError):
    def __init__(self, path, line_no, inner):
        super().__init__(f"{path}:{line_no}: {inner}")
        self.line_no = line_no
        self.inner = inner


@dataclass(frozen=True)
class SentimentLabel:
    """Five-way sentiment label, 0 (very negative) .. 4 (very positive)."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not 0 <= self.value <= 4:
            raise ValueError(f"sentiment label must be an integer in [0, 4], got {self.value!r}")

    @property
    def name(self) -> str:
        return LABEL_NAMES[self.value]


class BinaryLabel(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


@dataclass(frozen=True)
class PhraseTree:
    """A labeled constituency node: either a leaf token or ≥1 children."""

    label: SentimentLabel
    token: Optional[str] = None
    children: tuple = ()

    def __post_init__(self):
        if self.token is not None:
            if self.children:
                raise ValueError("a node is either a leaf or internal, not both")
            if not self.token or any(c in self.token for c in " \t\n()"):
                raise ValueError(f"bad leaf token {self.token!r}")
        elif not self.children:
            raise ValueError("internal node needs at least one child")

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @cached_property
    def span_text(self) -> str:
        """The leaf tokens joined by spaces, computed once per node."""
        if self.is_leaf:
            return self.token
        return " ".join(c.span_text for c in self.children)

    def nodes(self):
        """Pre-order iteration over all nodes."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class Corpus:
    split: str
    trees: tuple

    def __len__(self):
        return len(self.trees)


@dataclass(frozen=True)
class PhraseRecord:
    text: str
    label: SentimentLabel
    is_root: bool = False


def parse_tree(line: str) -> PhraseTree:
    """Parse one bracketed tree line. Errors carry the byte offset."""
    s = line
    n = len(s)
    pos = 0

    def skip_ws(p):
        while p < n and s[p].isspace():
            p += 1
        return p

    def parse_node(p, depth):
        p = skip_ws(p)
        if p >= n or s[p] != "(":
            raise UnbalancedParensError("expected '('", p)
        if depth > MAX_TREE_DEPTH:
            raise TreeTooDeepError(f"nodes nested deeper than {MAX_TREE_DEPTH}", p)
        open_at = p
        p = skip_ws(p + 1)
        start = p
        while p < n and not s[p].isspace() and s[p] not in "()":
            p += 1
        label_text = s[start:p]
        if not label_text.isdigit() or not 0 <= int(label_text) <= 4:
            raise InvalidLabelError(f"expected label digit 0-4, got {label_text!r}", start)
        label = SentimentLabel(int(label_text))
        children = []
        token = None
        while True:
            p = skip_ws(p)
            if p >= n:
                raise UnbalancedParensError("unclosed '('", open_at)
            if s[p] == ")":
                p += 1
                break
            if s[p] == "(":
                child, p = parse_node(p, depth + 1)
                children.append(child)
            else:
                start = p
                while p < n and not s[p].isspace() and s[p] not in "()":
                    p += 1
                if token is not None or children:
                    raise EmptyNodeError("token mixed with other children", start)
                token = s[start:p]
        if token is None and not children:
            raise EmptyNodeError("node has no token and no children", open_at)
        if token is not None and children:
            raise EmptyNodeError("token mixed with other children", open_at)
        return PhraseTree(label, token=token, children=tuple(children)), p

    tree, pos = parse_node(pos, 1)
    pos = skip_ws(pos)
    if pos != n:
        raise TrailingGarbageError(f"trailing input {s[pos:pos + 20]!r}", pos)
    return tree


def serialize_tree(tree: PhraseTree) -> str:
    """Inverse of parse_tree, with single-space normalization."""
    if tree.is_leaf:
        return f"({tree.label.value} {tree.token})"
    inner = " ".join(serialize_tree(c) for c in tree.children)
    return f"({tree.label.value} {inner})"


def extract_phrases(tree: PhraseTree) -> list:
    """One PhraseRecord per node, pre-order; the first record is the root."""
    records = []
    first = True
    for node in tree.nodes():
        records.append(PhraseRecord(node.span_text, node.label, is_root=first))
        first = False
    return records


def to_binary(label: SentimentLabel) -> Optional[BinaryLabel]:
    """Project to the binary task; neutral (2) maps to None (excluded)."""
    if label.value <= 1:
        return BinaryLabel.NEGATIVE
    if label.value >= 3:
        return BinaryLabel.POSITIVE
    return None


def load_corpus(path, split: str) -> Corpus:
    """Load one tree per non-empty line; errors name the line number."""
    trees = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                trees.append(parse_tree(line))
            except TreeParseError as exc:
                raise CorpusLoadError(path, line_no, exc) from exc
    return Corpus(split=split, trees=tuple(trees))


@dataclass
class StatsReport:
    sentence_count: int
    node_count: int
    unique_phrase_count: int
    label_histogram: dict = field(default_factory=dict)
    root_label_histogram: dict = field(default_factory=dict)
    per_split: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"sentences = {self.sentence_count}",
            f"nodes = {self.node_count}",
            f"unique_phrases = {self.unique_phrase_count}",
        ]
        for lbl in range(5):
            lines.append(f"label_{lbl} = {self.label_histogram.get(lbl, 0)}")
        for lbl in range(5):
            lines.append(f"root_label_{lbl} = {self.root_label_histogram.get(lbl, 0)}")
        for split in sorted(self.per_split):
            lines.append(f"split_{split} = {self.per_split[split]}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "sentences": self.sentence_count,
                "nodes": self.node_count,
                "unique_phrases": self.unique_phrase_count,
                "label_histogram": {str(k): v for k, v in sorted(self.label_histogram.items())},
                "root_label_histogram": {str(k): v for k, v in sorted(self.root_label_histogram.items())},
                "per_split": dict(sorted(self.per_split.items())),
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def corpus_stats(corpora) -> StatsReport:
    """Sentence/node/unique-phrase counts and label histograms.

    Uniqueness is on whitespace-normalized raw span text, case-sensitive,
    before any model preprocessing.
    """
    sentences = 0
    nodes = 0
    unique = set()
    hist = {i: 0 for i in range(5)}
    root_hist = {i: 0 for i in range(5)}
    per_split = {}
    for corpus in corpora:
        per_split[corpus.split] = len(corpus.trees)
        sentences += len(corpus.trees)
        for tree in corpus.trees:
            for rec in extract_phrases(tree):
                nodes += 1
                unique.add(" ".join(rec.text.split()))
                hist[rec.label.value] += 1
                if rec.is_root:
                    root_hist[rec.label.value] += 1
    return StatsReport(
        sentence_count=sentences,
        node_count=nodes,
        unique_phrase_count=len(unique),
        label_histogram=hist,
        root_label_histogram=root_hist,
        per_split=per_split,
    )
