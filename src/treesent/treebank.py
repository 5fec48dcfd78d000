"""Sentiment treebank ingestion: PTB-style bracketed trees with node labels.

File format: one tree per line, ``(<label> <child> ... <child>)`` where each
child is a bare token or a nested expression. A label is exactly one ASCII
digit 0-4 (very negative .. very positive). A token is a run of characters
that are neither whitespace (``str.isspace``) nor parentheses; whitespace
separates items and is otherwise ignored. ``parse_tree`` reads a line in one
linear pass and gives every node its ``span_text`` as the node closes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
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
# of up to 128 tokens; serialize_tree and tree equality recurse and overflow
# at a few hundred levels
MAX_TREE_DEPTH = 128


class TreeParseError(ValueError):
    """Malformed tree line; ``offset`` is the index in the line (a character,
    not a byte, offset) of the problem."""

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


# a token is what parse_tree reads between whitespace and parentheses; in a
# str pattern ``\s`` matches exactly the characters ``str.isspace`` accepts
_TOKEN = re.compile(r"[^\s()]+")


@dataclass(frozen=True)
class PhraseTree:
    """A labeled constituency node: either a leaf token or ≥1 children.

    ``span_text`` is the node's leaf tokens joined by single spaces. It is
    computed once, when the node is built, so reading it is an attribute
    read; it takes no part in equality.
    """

    label: SentimentLabel
    token: Optional[str] = None
    children: tuple = ()
    span_text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.token is not None:
            if self.children:
                raise ValueError("a node is either a leaf or internal, not both")
            if not _TOKEN.fullmatch(self.token):
                raise ValueError(f"bad leaf token {self.token!r}")
            text = self.token
        elif not self.children:
            raise ValueError("internal node needs at least one child")
        else:
            text = " ".join([c.span_text for c in self.children])
        object.__setattr__(self, "span_text", text)

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

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


# the parser's scan: every character that is not whitespace belongs to a
# "(", a ")" or a token, so the items of a line are all of its non-space text
_ITEM = re.compile(r"\(|\)|" + _TOKEN.pattern)
_LABELS = {str(v): SentimentLabel(v) for v in range(5)}


def _parsed(label, token, children, text):
    """A PhraseTree the parser has already checked, built without checks."""
    node = object.__new__(PhraseTree)
    attrs = node.__dict__
    attrs["label"] = label
    attrs["token"] = token
    attrs["children"] = children
    attrs["span_text"] = text
    return node


def _offset(line, index):
    """Offset of the line's ``index``-th item, or its length past the last."""
    starts = [m.start() for m in _ITEM.finditer(line)]
    return starts[index] if index < len(starts) else len(line)


def parse_tree(line: str) -> PhraseTree:
    """Parse one bracketed tree line. Errors carry the character offset.

    One regex scan splits the line into "(", ")" and token items, and an
    explicit stack of open nodes assembles them, so the cost is linear in
    the line and no nesting depth reaches Python's recursion limit. Each
    node's ``span_text`` is joined from its children's as it closes. Item
    offsets are computed only to report an error.
    """
    items = _ITEM.findall(line)
    n = len(items)
    if not n or items[0] != "(":
        raise UnbalancedParensError("expected '('", _offset(line, 0))
    stack = []  # open nodes, innermost last: [item index of "(", label, token, children]
    i = 0
    while True:
        item = items[i] if i < n else None
        if item == "(":
            if len(stack) == MAX_TREE_DEPTH:
                raise TreeTooDeepError(f"nodes nested deeper than {MAX_TREE_DEPTH}", _offset(line, i))
            label_text = items[i + 1] if i + 1 < n else ""
            label = _LABELS.get(label_text)
            if label is None:
                label_text = "" if label_text in ("(", ")") else label_text
                raise InvalidLabelError(f"expected label digit 0-4, got {label_text!r}",
                                        _offset(line, i + 1))
            if i + 3 < n and items[i + 3] == ")" and items[i + 2] not in ("(", ")"):
                token = items[i + 2]  # the common "(label token)" leaf, read whole
                node = _parsed(label, token, (), token)
                i += 4
            else:
                stack.append([i, label, None, []])
                i += 2
                continue
        elif item == ")":
            open_at, label, token, children = stack.pop()
            # a token followed by ")" was read as a leaf above, so a token
            # here always came with children
            if token is not None:
                raise EmptyNodeError("token mixed with other children", _offset(line, open_at))
            if not children:
                raise EmptyNodeError("node has no token and no children", _offset(line, open_at))
            node = _parsed(label, None, tuple(children), " ".join([c.span_text for c in children]))
            i += 1
        elif item is None:
            raise UnbalancedParensError("unclosed '('", _offset(line, stack[-1][0]))
        else:
            frame = stack[-1]
            if frame[2] is not None or frame[3]:
                raise EmptyNodeError("token mixed with other children", _offset(line, i))
            frame[2] = item
            i += 1
            continue
        if not stack:
            if i != n:
                at = _offset(line, i)
                raise TrailingGarbageError(f"trailing input {line[at:at + 20]!r}", at)
            return node
        stack[-1][3].append(node)


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
            line = line.rstrip("\n")  # offsets count from the line's first character
            if not line.strip():
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

    Uniqueness is on raw span text, case-sensitive, before any model
    preprocessing; span texts are already single-space joined tokens.
    """
    labels = Counter()
    root_labels = Counter()
    unique = set()
    sentences = 0
    per_split = {}
    for corpus in corpora:
        per_split[corpus.split] = len(corpus.trees)
        sentences += len(corpus.trees)
        root_labels.update([tree.label.value for tree in corpus.trees])
        for tree in corpus.trees:
            nodes = list(tree.nodes())
            labels.update([node.label.value for node in nodes])
            unique.update([node.span_text for node in nodes])
    return StatsReport(
        sentence_count=sentences,
        node_count=sum(labels.values()),
        unique_phrase_count=len(unique),
        label_histogram={i: labels[i] for i in range(5)},
        root_label_histogram={i: root_labels[i] for i in range(5)},
        per_split=per_split,
    )
