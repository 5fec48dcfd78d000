import os
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treesent.treebank import (
    MAX_TREE_DEPTH,
    BinaryLabel,
    Corpus,
    CorpusLoadError,
    EmptyNodeError,
    InvalidLabelError,
    PhraseTree,
    SentimentLabel,
    StatsReport,
    TrailingGarbageError,
    TreeParseError,
    TreeTooDeepError,
    UnbalancedParensError,
    corpus_stats,
    extract_phrases,
    load_corpus,
    parse_tree,
    serialize_tree,
    to_binary,
)


def count_nodes(tree):
    """Independent recursive node counter (oracle for extract_phrases)."""
    if tree.is_leaf:
        return 1
    return 1 + sum(count_nodes(c) for c in tree.children)


def reference_parse_tree(line):
    """The recursive parser ``parse_tree`` replaced, as the oracle.

    It differs on labels alone: it takes any ``str.isdigit`` run whose
    ``int`` is 0-4, so it accepts ``03`` and ``٣`` and lets ``int('²')``
    raise a bare ValueError.
    """
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


def reference_span_text(tree):
    """The leaf tokens joined by spaces, recomputed recursively."""
    if tree.is_leaf:
        return tree.token
    return " ".join(reference_span_text(c) for c in tree.children)


class TestParse:
    def test_two_leaf_tree(self):
        t = parse_tree("(3 (2 It) (4 rocks))")
        assert t.label.value == 3
        assert not t.is_leaf
        assert [c.token for c in t.children] == ["It", "rocks"]
        assert [c.label.value for c in t.children] == [2, 4]
        assert t.span_text == "It rocks"

    def test_single_leaf(self):
        t = parse_tree("(2 hello)")
        assert t.is_leaf and t.label.value == 2 and t.span_text == "hello"

    def test_nary_children_accepted(self):
        t = parse_tree("(2 (1 a) (2 b) (3 c))")
        assert len(t.children) == 3

    def test_unbalanced(self):
        with pytest.raises(UnbalancedParensError) as exc:
            parse_tree("(4 (2 It)")
        assert exc.value.offset == 0

    def test_invalid_label(self):
        with pytest.raises(InvalidLabelError) as exc:
            parse_tree("(7 hello)")
        assert exc.value.offset == 1
        with pytest.raises(InvalidLabelError):
            parse_tree("(x hello)")

    # a label is exactly one ASCII digit 0-4: "²" passes str.isdigit but not
    # int(), "٣" and "03" pass both, and an empty label is a "(" or ")" or
    # the end of the line where the label should be
    @pytest.mark.parametrize("line, offset", [
        ("(² bad)", 1), ("(٣ bad)", 1), ("(03 bad)", 1), ("(2 (00 bad))", 4),
        ("(2 (\xa0\t²\x1c bad))", 6), ("((2 bad))", 1), ("( )", 2), ("(", 1)])
    def test_label_is_one_ascii_digit(self, line, offset):
        with pytest.raises(InvalidLabelError) as exc:
            parse_tree(line)
        assert exc.value.offset == offset

    def test_empty_node(self):
        with pytest.raises(EmptyNodeError):
            parse_tree("(2 )")

    def test_trailing_garbage(self):
        with pytest.raises(TrailingGarbageError) as exc:
            parse_tree("(2 hello) junk")
        assert exc.value.offset == 10

    def test_whitespace_normalization(self):
        messy = "(3   (2 It)  (4   rocks) )"
        assert serialize_tree(parse_tree(messy)) == "(3 (2 It) (4 rocks))"


@pytest.mark.parametrize("depth", [1, 2, MAX_TREE_DEPTH - 1, MAX_TREE_DEPTH])
def test_nesting_up_to_the_cap_parses(depth):
    line = "(2 " * (depth - 1) + "(3 deep)" + ")" * (depth - 1)
    tree = parse_tree(line)
    assert tree == reference_parse_tree(line)
    chain = [tree]
    while not chain[-1].is_leaf:
        chain.append(chain[-1].children[0])
    assert len(chain) == depth
    assert all(node.span_text == "deep" for node in chain)


def test_nesting_past_the_cap_names_the_first_deep_paren():
    line = "(2 " * MAX_TREE_DEPTH + "(3 deep)" + ")" * MAX_TREE_DEPTH
    with pytest.raises(TreeTooDeepError) as exc:
        parse_tree(line)
    assert exc.value.offset == 3 * MAX_TREE_DEPTH  # the 129th "("


labels = st.integers(0, 4)
tokens = st.text(alphabet="abcXYZ'!,", min_size=1, max_size=6)


def trees(depth=3):
    leaf = st.builds(lambda l, t: PhraseTree(SentimentLabel(l), token=t), labels, tokens)
    return st.recursive(
        leaf,
        lambda child: st.builds(
            lambda l, cs: PhraseTree(SentimentLabel(l), children=tuple(cs)),
            labels,
            st.lists(child, min_size=1, max_size=3),
        ),
        max_leaves=12,
    )


@given(trees())
@settings(max_examples=200, deadline=None)
def test_roundtrip_random_trees(tree):
    line = serialize_tree(tree)
    assert parse_tree(line) == tree
    assert serialize_tree(parse_tree(line)) == line


@given(trees())
@settings(max_examples=100, deadline=None)
def test_extract_matches_independent_node_count(tree):
    records = extract_phrases(tree)
    assert len(records) == count_nodes(tree)
    assert sum(r.is_root for r in records) == 1
    assert records[0].is_root and records[0].text == tree.span_text


# whitespace the parser must skip like a space: str.isspace accepts each
SPACES = (" ", "\t", "\xa0", "\x1c")
# every label is a lone ASCII digit (0-4 valid, 7 not); the tokens include a
# non-ASCII letter and a digit that str.isdigit accepts inside a longer run
PIECES = ("(", ")", "0", "2", "4", "7", "ab", "x", "é", "x²") + SPACES


def parse_outcome(parse, line):
    try:
        return parse(line)
    except TreeParseError as exc:
        return type(exc), exc.offset


def lone_digit_labels(line):
    """Whether every all-digit run of the line is one ASCII digit, where
    both parsers read labels alike."""
    return all(not run.isdigit() or (len(run) == 1 and run.isascii())
               for run in re.findall(r"[^\s()]+", line))


@st.composite
def tree_lines(draw):
    """A random tree's line, its spaces redrawn, maybe cut or given an extra piece."""
    parts = serialize_tree(draw(trees())).split(" ")
    line = parts[0] + "".join(draw(st.sampled_from(SPACES)) + p for p in parts[1:])
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from(["keep", "cut", "insert"]))
    if edit == "cut":
        line = line[:at] + line[at + 1:]
    elif edit == "insert":
        line = line[:at] + draw(st.sampled_from(PIECES)) + line[at:]
    return line


@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=24).map("".join), tree_lines()))
@example("")
@example("\x1c(2\ta\xa0)\t")
@example("(2 ))")
@example("(2 ( ))")
@example("(2 a (3 b))")
@example("(2 (3 b) a)")
@example("(2 a) (3 b)")
@settings(max_examples=300, deadline=None)
def test_parse_matches_recursive_reference(line):
    assume(lone_digit_labels(line))
    got = parse_outcome(parse_tree, line)
    want = parse_outcome(reference_parse_tree, line)
    if isinstance(want, PhraseTree):
        assert got == want
        for node, ref in zip(got.nodes(), want.nodes()):
            assert node.span_text == ref.span_text == reference_span_text(ref)
    else:
        assert got == want


def test_extract_preorder():
    t = parse_tree("(3 (2 It) (4 rocks))")
    records = extract_phrases(t)
    assert [(r.text, r.label.value) for r in records] == [
        ("It rocks", 3), ("It", 2), ("rocks", 4)]
    assert len(extract_phrases(parse_tree("(2 hello)"))) == 1


def test_span_text_composes():
    t = parse_tree("(1 (0 (1 very) (1 bad)) (2 film))")
    assert t.span_text == "very bad film"
    assert t.children[0].span_text == "very bad"
    built = PhraseTree(SentimentLabel(1), children=(
        PhraseTree(SentimentLabel(0), children=(PhraseTree(SentimentLabel(1), token="very"),
                                                PhraseTree(SentimentLabel(1), token="bad"))),
        PhraseTree(SentimentLabel(2), token="film")))
    assert built == t and built.span_text == "very bad film"


# the parser ends a token at any str.isspace character or parenthesis, so the
# constructor refuses a leaf token holding one: its line would not parse back
@pytest.mark.parametrize("token", ["", "a b", "a\xa0b", "a\rb", "a\x1cb", "\u3000", "a(b", "b)"])
def test_leaf_token_rule(token):
    with pytest.raises(ValueError, match="bad leaf token"):
        PhraseTree(SentimentLabel(2), token=token)


@given(st.text(st.one_of(st.characters(), st.sampled_from("() \t\r\xa0\x1c\u2028")),
               max_size=6))
@settings(max_examples=300, deadline=None)
def test_every_accepted_leaf_parses_back(token):
    try:
        leaf = PhraseTree(SentimentLabel(2), token=token)
    except ValueError:
        assert not token or re.search(r"[\s()]", token)
        return
    assert parse_tree(serialize_tree(leaf)) == leaf


def test_label_range_enforced():
    with pytest.raises(ValueError):
        SentimentLabel(5)
    with pytest.raises(ValueError):
        SentimentLabel(-1)


def test_to_binary():
    assert to_binary(SentimentLabel(0)) is BinaryLabel.NEGATIVE
    assert to_binary(SentimentLabel(1)) is BinaryLabel.NEGATIVE
    assert to_binary(SentimentLabel(2)) is None
    assert to_binary(SentimentLabel(3)) is BinaryLabel.POSITIVE
    assert to_binary(SentimentLabel(4)) is BinaryLabel.POSITIVE


class TestLoadCorpus:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "mini.txt"
        p.write_text("(3 (2 It) (4 rocks))\n(2 hello)\n")
        corpus = load_corpus(p, "train")
        assert len(corpus) == 2
        assert corpus.trees[0].span_text == "It rocks"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert len(load_corpus(p, "dev")) == 0

    def test_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("(2 ok)\n(9 bad)\n")
        with pytest.raises(CorpusLoadError) as exc:
            load_corpus(p, "train")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("bad", ["(² bad)", "(٣ bad)", "(03 bad)"])
    def test_label_error_names_line(self, tmp_path, bad):
        p = tmp_path / "bad.txt"
        p.write_text(f"(2 ok)\n{bad}\n", encoding="utf-8")
        with pytest.raises(CorpusLoadError) as exc:
            load_corpus(p, "train")
        assert exc.value.line_no == 2
        assert isinstance(exc.value.inner, InvalidLabelError) and exc.value.inner.offset == 1

    @pytest.mark.parametrize("bad, offset", [
        ("   (9 bad)", 4),           # label after leading spaces
        ("\t(2 (9 bad))", 5),        # nested label after a tab
        ("  (2 ok) x  ", 9),         # trailing garbage after leading spaces
    ])
    def test_error_offset_counts_from_the_line_start(self, tmp_path, bad, offset):
        p = tmp_path / "bad.txt"
        p.write_text(f"(2 ok)\n{bad}\n", encoding="utf-8")
        with pytest.raises(CorpusLoadError) as exc:
            load_corpus(p, "train")
        assert exc.value.line_no == 2
        assert exc.value.inner.offset == offset
        assert bad[offset] not in " \t"

    def test_indented_lines_load_as_stripped(self, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("  (3 (2 It) (4 rocks))  \n\t\n(1 meh)\r\n", encoding="utf-8")
        trees = load_corpus(p, "train").trees
        assert trees == (parse_tree("(3 (2 It) (4 rocks))"), parse_tree("(1 meh)"))


def test_corpus_stats_single_tree(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("(2 hello)\n")
    stats = corpus_stats([load_corpus(p, "train")])
    assert stats.sentence_count == 1
    assert stats.node_count == 1
    assert stats.label_histogram == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    assert stats.root_label_histogram[2] == 1


def reference_corpus_stats(corpora):
    """The per-record loop ``corpus_stats`` replaced, as the oracle."""
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
    return StatsReport(sentences, nodes, len(unique), hist, root_hist, per_split)


@given(st.lists(trees(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_corpus_stats_matches_reference(tree_list):
    # repeated trees and splits give repeated phrases
    corpora = [Corpus("train", tuple(tree_list)), Corpus("dev", tuple(tree_list[:2]))]
    assert corpus_stats(corpora) == reference_corpus_stats(corpora)


def test_corpus_stats_matches_reference_on_synth(synth_corpora):
    assert corpus_stats(synth_corpora) == reference_corpus_stats(synth_corpora)


def test_stats_serializations(synth_corpora):
    stats = corpus_stats(synth_corpora)
    text = stats.to_text()
    assert f"sentences = {stats.sentence_count}" in text
    import json

    payload = json.loads(stats.to_json())
    assert payload["sentences"] == stats.sentence_count
    assert payload["unique_phrases"] == stats.unique_phrase_count


def test_sst_roundtrip_every_line(sst_path):
    for split in ("train", "dev", "test"):
        with open(os.path.join(sst_path, f"{split}.txt"), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                assert serialize_tree(parse_tree(line)) == " ".join(line.split())


def test_sst_root_labels_roughly_balanced(sst_path):
    corpora = [load_corpus(os.path.join(sst_path, f"{s}.txt"), s)
               for s in ("train", "dev", "test")]
    stats = corpus_stats(corpora)
    total_roots = sum(stats.root_label_histogram.values())
    assert max(stats.root_label_histogram.values()) <= 0.5 * total_roots
