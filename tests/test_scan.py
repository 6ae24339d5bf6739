"""The one tree reader and the per-sentence vote tally.

``treebank.parse_tree`` and ``treebank.scan_tree`` must each read every
line as the recursive reader they replaced did, and fail on the same
lines with the same message; the one exception is a lone ``)``, which
the reader rejects.  ``metrics.Tally`` must vote as the
tree-based ``agreement_groups`` did.  Both replaced functions are kept
below as reference copies.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distparse import metrics
from distparse import treebank as tb

FEW = settings(max_examples=60, deadline=None)

WORDS = st.sampled_from(["a", "b", "c", "d", "e"])
LABELS = st.sampled_from(["S", "NP", "X", "VP|"])
# separators between tokens, including none where the syntax allows it
GAPS = st.sampled_from([" ", " ", "  ", "\t", ""])


# ---------------------------------------------------------------------------
# References


_TOKEN_PAT = re.compile(r"\(|\)|[^()\s]+")


def ref_parse_tree(line, lineno=None):
    """``treebank.parse_tree`` as it was before the one reader, for
    labeled notation."""
    toks = _TOKEN_PAT.findall(line)
    if not toks:
        raise tb.TreeParseError("empty input", lineno)
    pos = 0

    def parse_expr():
        nonlocal pos
        if toks[pos] != "(":
            tok = toks[pos]
            pos += 1
            return tb.Leaf(tok)
        pos += 1  # consume "("
        if pos >= len(toks):
            raise tb.TreeParseError("unbalanced parentheses", lineno)
        if toks[pos] in ("(", ")"):
            raise tb.TreeParseError("node without a label", lineno)
        label = toks[pos]
        pos += 1
        children = []
        bare = []
        while pos < len(toks) and toks[pos] != ")":
            bare.append(toks[pos] != "(")
            children.append(parse_expr())
        if pos >= len(toks):
            raise tb.TreeParseError("unbalanced parentheses", lineno)
        pos += 1  # consume ")"
        if not children:
            raise tb.TreeParseError("empty node", lineno)
        if len(children) == 1 and bare[0]:
            return children[0]  # (TAG token) preterminal
        return tb.Node(label, tuple(children))

    tree = parse_expr()
    if pos != len(toks):
        raise tb.TreeParseError("unbalanced parentheses", lineno)
    return tree


def ref_agreement_groups(parses):
    """``metrics.agreement_groups`` as it was before the tally."""
    if not parses:
        raise ValueError("need at least one parse")
    words = tb.leaves(parses[0])
    groups: dict = {}
    for i, t in enumerate(parses):
        if tb.leaves(t) != words:
            raise ValueError(f"parse {i} covers different words")
        key = metrics.brackets(t)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [t, 1]
    modal, n_a = None, 0
    for rep, count in groups.values():
        if count > n_a:
            modal, n_a = rep, count
    return modal, n_a


# ---------------------------------------------------------------------------
# Generated lines


@st.composite
def groups(draw, depth=3):
    """One bracketed group in labeled notation: preterminals, unary
    chains and n-ary nodes, with words and groups as children."""
    label = draw(LABELS)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return f"({draw(GAPS)}{label} {draw(WORDS)}{draw(GAPS)})"  # (TAG w)
    kids = draw(st.lists(st.one_of(WORDS, groups(depth=depth - 1)),
                         min_size=1, max_size=3))
    body = ""
    for kid in kids:
        # a word needs whitespace before it; a group may follow directly
        body += (draw(GAPS) if kid.startswith("(") else " ") + kid
    return f"({draw(GAPS)}{label}{body}{draw(GAPS)})"


LINES = st.one_of(WORDS, groups()).flatmap(
    lambda line: st.tuples(GAPS, GAPS).map(lambda g: g[0] + line + g[1]))


def ref_scan(line, lineno=None):
    t = ref_parse_tree(line, lineno)
    return (tb.leaves(t), [(s, e) for s, e, _ in tb.spans(t)],
            tb.is_binary(t))


def assert_reads_as_reference(line):
    """Same tree and scan, or the same error with the same message.

    One divergence is deliberate: the reference reads a lone ``)`` as a
    one-word tree, and the reader rejects it as unbalanced.
    """
    try:
        if _TOKEN_PAT.findall(line) == [")"]:
            raise tb.TreeParseError("unbalanced parentheses", 7)
        want_tree = ref_parse_tree(line, 7)
    except tb.TreeParseError as exc:
        for read in (tb.parse_tree, tb.scan_tree):
            with pytest.raises(tb.TreeParseError) as got:
                read(line, 7)
            assert str(got.value) == str(exc)
        return
    assert tb.parse_tree(line, 7) == want_tree
    assert tb.scan_tree(line, 7) == ref_scan(line)


@FEW
@given(LINES)
def test_parse_matches_reference(line):
    assert tb.parse_tree(line) == ref_parse_tree(line)


@FEW
@given(LINES)
def test_scan_matches_parse_tree(line):
    assert tb.scan_tree(line) == ref_scan(line)


def test_scan_examples():
    assert tb.scan_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))") == (
        ["the", "cat", "sat"], [(0, 2), (2, 3), (0, 3)], False)
    assert tb.scan_tree("(S (NP a))") == (["a"], [(0, 1)], False)
    assert tb.scan_tree("(X (X a b) c)\n") == (
        ["a", "b", "c"], [(0, 2), (0, 3)], True)
    assert tb.scan_tree("a") == (["a"], [], True)
    assert tb.scan_tree("(X(Y a)( Z b))") == (["a", "b"], [(0, 2)], True)


@pytest.mark.parametrize("space", [
    "\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\r\n", "\u200b"])
def test_scan_splits_where_parse_tree_does(space):
    # "\u200b" is not whitespace: it joins the tokens around it, and the
    # line no longer parses
    assert_reads_as_reference(f"(S{space}(NP{space}a{space}b){space}c)")


@FEW
@given(LINES, st.data())
def test_scan_fails_as_parse_tree_does(line, data):
    # an edit that keeps the line valid must still read as the reference
    pos = data.draw(st.integers(0, len(line)))
    cut = data.draw(st.integers(0, 3))
    extra = data.draw(st.sampled_from(["", "(", ")", "( ", " x", "(X"]))
    assert_reads_as_reference(line[:pos] + extra + line[pos + cut:])


@pytest.mark.parametrize("line", [
    "", "  ", "a b", "(", ")(", "(X)", "(X (Y a)", "(() a)", "((X a))",
    "(X a))", "(X a) (Y b)", "(X a) b", "(X a(Y b)", "( )", ")"])
def test_scan_malformed_examples(line):
    if line == ")":
        # the reference reads a lone ")" as a one-word tree
        assert ref_parse_tree(line, 3) == tb.Leaf(")")
        message = "line 3: unbalanced parentheses"
    else:
        with pytest.raises(tb.TreeParseError) as want:
            ref_parse_tree(line, 3)
        message = str(want.value)
    for read in (tb.parse_tree, tb.scan_tree):
        with pytest.raises(tb.TreeParseError) as got:
            read(line, 3)
        assert str(got.value) == message


def test_reader_takes_a_100k_word_right_branching_line():
    n = 100_000
    words = [f"w{i}" for i in range(n)]
    line = "".join(f"(X {w} " for w in words[:-1]) + words[-1] + ")" * (n - 1)
    got_words, node_spans, binary = tb.scan_tree(line)
    assert got_words == words and binary
    assert node_spans == [(i, n) for i in range(n - 2, -1, -1)]
    for t in (tb.parse_tree(line), tb.read_trees([line]).sentences[0]):
        # walked down the spine: a recursive == or repr would overflow
        node = t
        for w in words[:-1]:
            assert type(node) is tb.Node and node.label == "X"
            left, node = node.children
            assert left == tb.Leaf(w)
        assert node == tb.Leaf(words[-1])


# ---------------------------------------------------------------------------
# Keys and tallies


FOUR = ("a", "b", "c", "d")


@st.composite
def trees_over_four(draw, words=FOUR):
    """Trees over fixed words: binary, n-ary, with unary wraps, so that
    different shapes often share a bracket set."""
    if len(words) == 1:
        leaf = tb.Leaf(words[0])
        return tb.Node("U", (leaf,)) if draw(st.booleans()) else leaf
    cuts = sorted(draw(st.sets(st.integers(1, len(words) - 1), min_size=1,
                               max_size=min(2, len(words) - 1))))
    bounds = [0, *cuts, len(words)]
    kids = tuple(draw(trees_over_four(words[i:j]))
                 for i, j in zip(bounds, bounds[1:]))
    node = tb.Node(draw(LABELS), kids)
    return tb.Node("U", (node,)) if draw(st.booleans()) else node


@FEW
@given(trees_over_four(), trees_over_four())
def test_keys_equal_exactly_when_brackets_equal(x, y):
    same = metrics.brackets(x) == metrics.brackets(y)
    key_x = metrics.bracket_key(metrics.brackets(x), 4)
    assert (key_x == metrics.bracket_key(metrics.brackets(y), 4)) == same
    # the scanned spans of the written tree give the same key
    words, node_spans, _ = tb.scan_tree(tb.format_tree(x))
    assert metrics.bracket_key(node_spans, len(words)) == key_x


def test_keys_of_long_sentences():
    words = [f"w{i}" for i in range(300)]
    right = tb.right_branching(words)
    left = tb.left_branching(words)
    keys = {metrics.bracket_key(metrics.brackets(t), 300)
            for t in (right, left, right)}
    assert len(keys) == 2


@FEW
@given(st.lists(st.integers(0, 3), min_size=1, max_size=9),
       st.lists(trees_over_four(), min_size=4, max_size=4))
def test_tally_votes_as_reference(picks, pool):
    # draws from a pool of four shapes, so groups tie often
    parses = [pool[i] for i in picks]
    modal, n_a = metrics.agreement_groups(parses)
    ref_modal, ref_n_a = ref_agreement_groups(parses)
    assert modal is ref_modal and n_a == ref_n_a
    # the same votes from written lines read back the same modal tree
    tally = metrics.Tally(FOUR)
    for t in parses:
        words, node_spans, _ = tb.scan_tree(tb.format_tree(t))
        tally.add(metrics.bracket_key(node_spans, len(words)),
                  tb.format_tree(t))
    rep, scanned_n_a = tally.modal()
    assert metrics.as_tree(rep) == tb.parse_tree(tb.format_tree(ref_modal))
    assert scanned_n_a == ref_n_a and len(tally) == len(parses)


@FEW
@given(st.lists(st.integers(0, 3), min_size=1, max_size=9),
       st.lists(st.integers(0, 3), max_size=3),
       st.lists(trees_over_four(), min_size=4, max_size=4))
def test_pruned_tally_votes_as_reference(picks, later, pool):
    # votes that arrive after a prune, as extra self-training rounds add
    tally = metrics.tally_trees([pool[i] for i in picks])
    tally.prune(spare_votes=len(later))
    for i in later:
        tally.add_tree(pool[i])
    modal, n_a = tally.modal()
    ref_modal, ref_n_a = ref_agreement_groups([pool[i] for i in picks + later])
    assert modal is ref_modal and n_a == ref_n_a
    assert len(tally) == len(picks) + len(later)


def test_prune_keeps_groups_within_reach():
    a, b, c = (tb.parse_tree(line) for line in
               ("(X (X a b) (X c d))", "(X a (X b (X c d)))",
                "(X (X (X a b) c) d)"))
    tally = metrics.tally_trees([a, a, a, b, b, c])
    tally.prune(spare_votes=1)
    assert list(tally.reps.values()) == [a, b]
    assert list(tally.votes.values()) == [3, 2, 1]
    tally.prune()
    assert list(tally.reps.values()) == [a]


def test_tally_tie_goes_to_first_seen():
    a = tb.right_branching(FOUR)
    b = tb.left_branching(FOUR)
    modal, n_a = metrics.agreement_groups([b, a, a, b])
    assert modal is b and n_a == 2


def test_tally_rejects_other_words():
    with pytest.raises(ValueError, match="parse 1 covers different words"):
        metrics.tally_trees([tb.right_branching("ab"),
                             tb.right_branching("ac")])
    with pytest.raises(ValueError, match="need at least one parse"):
        metrics.agreement_groups([])
