"""Properties of the shared tree walks against reference copies.

Every reader of tree shape derives from one explicit-stack walk,
``treebank.walk``: the tree helpers, the span users, the formatter and
the encoders (through ``distance._walk_splits``).  The decoder
``distance.gaps_to_tree`` is a monotone stack, and the tree builders
and ``binarize`` use explicit stacks too.  The references below are the
recursive functions they replaced, and they call none of the module's
helpers; every property asserts equal output, order included.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distparse import distance as dist
from distparse import metrics
from distparse import predictor as pr
from distparse import treebank as tb

FEW = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Reference walks


def ref_leaves(t):
    if isinstance(t, tb.Leaf):
        return [t.token]
    out = []
    for c in t.children:
        out.extend(ref_leaves(c))
    return out


def ref_leaf_count(t):
    if isinstance(t, tb.Leaf):
        return 1
    return sum(ref_leaf_count(c) for c in t.children)


def ref_tree_depth(t):
    if isinstance(t, tb.Leaf):
        return 0
    return 1 + max(ref_tree_depth(c) for c in t.children)


def ref_is_binary(t):
    if isinstance(t, tb.Leaf):
        return True
    return len(t.children) == 2 and all(ref_is_binary(c) for c in t.children)


def ref_spans(t):
    out = []

    def walk(node, start):
        if isinstance(node, tb.Leaf):
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end)
        out.append((start, end, node))
        return end

    walk(t, 0)
    return out


def ref_format(t):
    if isinstance(t, tb.Leaf):
        return t.token
    label = t.label if t.label is not None else tb.UNLABELED
    return "(" + label + " " + " ".join(ref_format(c) for c in t.children) + ")"


def ref_format_tree(t):
    if isinstance(t, tb.Leaf):
        return f"({tb.UNLABELED} {t.token})"
    return ref_format(t)


def ref_collect_labels(examples):
    names = set()

    def walk(node):
        if isinstance(node, tb.Node):
            name = tb.base_label(node.label)
            if name:
                names.add(name)
            for c in node.children:
                walk(c)

    for ex in examples:
        if ex.tree is not None:
            walk(ex.tree)
    return sorted(names) if names else None


def ref_binarize(t, direction="right"):
    if isinstance(t, tb.Leaf):
        return t
    label, children = t.label, t.children
    while len(children) == 1:
        only = children[0]
        if isinstance(only, tb.Leaf):
            return only
        children = only.children
    if len(children) == 2:
        return tb.Node(label, (ref_binarize(children[0], direction),
                               ref_binarize(children[1], direction)))
    art = tb._artificial_label(label)
    if direction == "right":
        rest = tb.Node(art, children[1:])
        return tb.Node(label, (ref_binarize(children[0], direction),
                               ref_binarize(rest, direction)))
    rest = tb.Node(art, children[:-1])
    return tb.Node(label, (ref_binarize(rest, direction),
                           ref_binarize(children[-1], direction)))


def ref_right_branching(tokens):
    if len(tokens) == 1:
        return tb.Leaf(tokens[0])
    return tb.Node(None, (tb.Leaf(tokens[0]), ref_right_branching(tokens[1:])))


def ref_left_branching(tokens):
    if len(tokens) == 1:
        return tb.Leaf(tokens[-1])
    return tb.Node(None, (ref_left_branching(tokens[:-1]), tb.Leaf(tokens[-1])))


def ref_random_binary(tokens, rng):
    if len(tokens) == 1:
        return tb.Leaf(tokens[0])
    k = rng.randrange(1, len(tokens))
    return tb.Node(None, (ref_random_binary(tokens[:k], rng),
                          ref_random_binary(tokens[k:], rng)))


def ref_sample(grammar, symbol, rng, budget):
    if symbol not in grammar.rules:
        return tb.Leaf(symbol)
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    expansions = grammar.rules[symbol]
    weights = [w for _, w in expansions]
    rhs, _ = rng.choices(expansions, weights=weights, k=1)[0]
    children = []
    for sym in rhs:
        child = ref_sample(grammar, sym, rng, budget)
        if child is None:
            return None
        children.append(child)
    return tb.Node(symbol, tuple(children))


def ref_tree_to_latent(t, max_depth=dist.DEFAULT_MAX_DEPTH):
    depth = ref_tree_depth(t)
    if depth >= max_depth:
        raise ValueError(f"tree depth {depth} >= max_depth {max_depth}")
    d = [1.0] * ref_leaf_count(t)

    def assign(node, base, m):
        if isinstance(node, tb.Leaf):
            return
        left, right = node.children
        n_left = ref_leaf_count(left)
        d[base + n_left] = float(m)
        assign(left, base, m - 1)
        assign(right, base + n_left, m - 1)

    assign(t, 0, max_depth)
    return d


def ref_tree_to_gaps(t):
    out = []

    def walk(node):
        if isinstance(node, tb.Leaf):
            return 0
        left, right = node.children
        h_left = walk(left)
        mark = len(out)
        out.append(0.0)
        height = max(h_left, walk(right)) + 1
        out[mark] = float(height)
        return height

    walk(t)
    return out


def ref_argmax(values, lo, hi, ties):
    best = lo
    for i in range(lo + 1, hi):
        if values[i] > values[best] or (ties == "right" and values[i] == values[best]):
            best = i
    return best


def ref_latent_to_tree(d, tokens, ties):
    def build(i, j):
        if j - i == 1:
            return tb.Leaf(tokens[i])
        k = ref_argmax(d, i + 1, j, ties)
        return tb.Node(None, (build(i, k), build(k, j)))

    return build(0, len(tokens))


def ref_gaps_to_tree(d, tokens, ties):
    def build(i, j):
        if j - i == 1:
            return tb.Leaf(tokens[i])
        g = ref_argmax(d, i, j - 1, ties)
        return tb.Node(None, (build(i, g + 1), build(g + 1, j)))

    return build(0, len(tokens))


def ref_brackets(t, include_full_span=True, labeled=False):
    spans = []

    def walk(node, start):
        if isinstance(node, tb.Leaf):
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end)
        if end - start >= 2:
            if labeled:
                spans.append((start, end, tb.base_label(node.label) or ""))
            else:
                spans.append((start, end))
        return end

    n = walk(t, 0)
    if not include_full_span:
        spans = [s for s in spans if (s[0], s[1]) != (0, n)]
    return frozenset(spans)


def ref_gold_label_spans(model, t):
    spans = []
    unknown = 0

    def walk(node, start):
        nonlocal unknown
        if isinstance(node, tb.Leaf):
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end)
        if end - start >= 2:
            name = tb.base_label(node.label) or ""
            if name not in model._label_index:
                unknown += 1
            spans.append((start, end, model.label_id(name)))
        return end

    walk(t, 0)
    return spans, unknown


def ref_annotate(model, t, hidden):
    p = model.params

    def walk(node, start):
        if isinstance(node, tb.Leaf):
            return node, start + 1
        end = start
        new_children = []
        for c in node.children:
            new_c, end = walk(c, end)
            new_children.append(new_c)
        logits = p.label_w @ hidden[start:end].mean(axis=0) + p.label_b
        name = model.labels[int(np.argmax(logits))]
        return tb.Node(name, tuple(new_children)), end

    return walk(t, 0)[0]


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def binary_trees(draw, max_words=30):
    """Merge adjacent spans at drawn positions until one tree remains."""
    n = draw(st.integers(1, max_words))
    nodes = [tb.Leaf(f"w{i}") for i in range(n)]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i:i + 2] = [tb.Node(None, (nodes[i], nodes[i + 1]))]
    return nodes[0]


# labeled, n-ary trees with unary nodes, binarization marks and labels
# the label head has never seen
LABELS = st.sampled_from([None, "S", "NP", "VP", "NP|", "|", "ADJP"])
TREES = st.recursive(
    st.builds(tb.Leaf, st.sampled_from(["a", "b", "c"])),
    lambda kids: st.builds(tb.Node, LABELS,
                           st.lists(kids, min_size=1, max_size=3).map(tuple)),
    max_leaves=16)

# few distinct values, so ties are frequent
TIE_HEAVY = st.lists(st.integers(0, 3).map(float), min_size=1, max_size=25)


# ---------------------------------------------------------------------------
# Encoders


@FEW
@given(binary_trees(), st.integers(-2, 2))
def test_encoders_match_reference(t, slack):
    # max_depth lands on both sides of the tree's depth and on it
    depth = ref_tree_depth(t)
    max_depth = max(1, depth + slack)
    assert dist.tree_to_gaps(t) == ref_tree_to_gaps(t)
    if depth >= max_depth:
        message = f"^tree depth {depth} >= max_depth {max_depth}$"
        for encode in (dist.tree_to_latent, dist.record_from_tree):
            with pytest.raises(ValueError, match=message):
                encode(t, max_depth)
        return
    dl = ref_tree_to_latent(t, max_depth)
    assert dist.tree_to_latent(t, max_depth) == dl
    rec = dist.record_from_tree(t, max_depth, agreement=2)
    assert rec == dist.DistanceRecord(tuple(ref_leaves(t)), tuple(dl),
                                      tuple(ref_tree_to_gaps(t)), 2)
    ex = pr.TrainExample.from_tree(t, max_depth)
    assert ex.tokens == rec.tokens and ex.tree is t
    assert ex.dl.tolist() == dl and ex.dg.tolist() == list(rec.dg)


# ---------------------------------------------------------------------------
# Decoder


@FEW
@given(TIE_HEAVY, st.sampled_from(["left", "right"]))
def test_latent_decoder_is_gap_decoder_on_tail(d, ties):
    tokens = [f"w{i}" for i in range(len(d))]
    expected = ref_latent_to_tree(d, tokens, ties)
    assert dist.latent_to_tree(d, tokens, ties) == expected
    assert dist.gaps_to_tree(d[1:], tokens, ties) == expected
    assert ref_gaps_to_tree(d[1:], tokens, ties) == expected


@FEW
@given(TIE_HEAVY, st.data(), st.sampled_from(["left", "right"]))
def test_decoders_reject_nan(d, data, ties):
    # NaN is unordered, so no split order holds it; the reference argmax
    # would silently place it
    d[data.draw(st.integers(0, len(d) - 1))] = float("nan")
    tokens = [f"w{i}" for i in range(len(d) + 1)]
    with pytest.raises(ValueError, match="NaN distance"):
        dist.gaps_to_tree(d, tokens, ties)
    with pytest.raises(ValueError, match="NaN distance"):
        dist.latent_to_tree([1.0] + d, tokens, ties)


# ---------------------------------------------------------------------------
# Spans


@FEW
@given(TREES, st.booleans(), st.booleans())
def test_brackets_match_reference(t, include_full_span, labeled):
    got = metrics.brackets(t, include_full_span, labeled)
    want = ref_brackets(t, include_full_span, labeled)
    assert got == want
    assert list(got) == list(want)


def _label_model():
    vocab = pr.Vocab.build([["a", "b", "c"]])
    config = pr.TrainingConfig(embed_dim=4, hidden_dim=6, l1=1, seed=3)
    return pr.DistancePredictor.create(vocab, config, labels=["S", "NP", "VP"])


def test_spans_are_post_order():
    t = tb.parse_tree("(S (NP (DT a) (NN b)) (VP c (PP d e)))")
    assert [(s, e, n.label) for s, e, n in tb.spans(t)] == [
        (0, 2, "NP"), (3, 5, "PP"), (2, 5, "VP"), (0, 5, "S")]
    assert tb.spans(tb.Leaf("a")) == []


@FEW
@given(TREES, st.integers(0, 2**32 - 1))
def test_label_spans_and_annotate_match_reference(t, seed):
    model = _label_model()
    assert pr.gold_label_spans(model, t) == ref_gold_label_spans(model, t)
    n = ref_leaf_count(t)
    hidden = np.random.default_rng(seed).normal(size=(n, 6))
    got = pr._annotate(model, t, hidden)
    assert got == ref_annotate(model, t, hidden)
    assert ref_leaves(got) == ref_leaves(t)


# ---------------------------------------------------------------------------
# Tree helpers and the formatter


@FEW
@given(TREES)
def test_walk_derived_helpers_match_reference(t):
    words, nodes = tb.walk(t)
    assert words == ref_leaves(t) and nodes == ref_spans(t)
    assert tb.leaves(t) == ref_leaves(t)
    assert tb.leaf_count(t) == ref_leaf_count(t)
    assert tb.tree_depth(t) == ref_tree_depth(t)
    assert tb.is_binary(t) == ref_is_binary(t)
    assert tb.spans(t) == ref_spans(t)
    assert tb.format_tree(t) == ref_format_tree(t)


@FEW
@given(st.lists(st.one_of(st.none(), TREES), max_size=4))
def test_collect_labels_matches_reference(trees):
    examples = [pr.TrainExample(tokens=("a",), dl=np.array([1.0]),
                                dg=np.array([]), tree=t) for t in trees]
    assert pr.collect_labels(examples) == ref_collect_labels(examples)


@FEW
@given(TREES, st.sampled_from(["right", "left"]))
def test_binarize_matches_reference(t, direction):
    got = tb.binarize(t, direction)
    assert got == ref_binarize(t, direction)
    assert tb.is_binary(got)


# ---------------------------------------------------------------------------
# Tree builders


@FEW
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_builders_match_reference(n, seed):
    tokens = [f"w{i}" for i in range(n)]
    assert tb.right_branching(tokens) == ref_right_branching(tokens)
    assert tb.left_branching(tokens) == ref_left_branching(tokens)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert tb.random_binary(tokens, rng) == ref_random_binary(tokens, ref_rng)
    assert rng.random() == ref_rng.random()  # the same draws were made


# a productive grammar whose runaway derivations often hit small budgets
SAMPLED = tb.parse_grammar("""
S -> NP VP : 2
S -> S c S : 1
NP -> a : 3
NP -> a NP b : 1
VP -> v NP : 2
VP -> v : 1
""")


@FEW
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_sampler_matches_reference(seed, budget):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(5):  # one stream, as gen_synthetic's attempts share it
        want = ref_sample(SAMPLED, SAMPLED.start, ref_rng, [budget])
        assert tb._sample(SAMPLED, rng, budget) == want
        assert rng.getstate() == ref_rng.getstate()


# ---------------------------------------------------------------------------
# A 100k-word tree through every conversion


def test_100k_word_right_branching_line_round_trips():
    n = 100_000
    words = [f"w{i}" for i in range(n)]
    line = "".join(f"(X {w} " for w in words[:-1]) + words[-1] + ")" * (n - 1)
    t = tb.binarize(tb.parse_tree(line))
    # no == on whole trees below: a recursive == would overflow
    assert tb.leaves(t) == words
    assert tb.tree_depth(t) == n - 1 and tb.is_binary(t)
    rec = dist.record_from_tree(t, max_depth=200_000)
    assert rec.dg == tuple(float(n - k) for k in range(1, n))
    for decoded in (dist.latent_to_tree(rec.dl, rec.tokens),
                    dist.gaps_to_tree(rec.dg, rec.tokens)):
        assert tb.format_tree(decoded) == line
    assert tb.format_tree(t) == line
