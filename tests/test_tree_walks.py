"""Properties of the shared tree walks against reference copies.

The encoders, the decoder and the span users each run on one shared walk
(``distance._walk_splits``, ``distance.gaps_to_tree``, ``treebank.spans``).
The references below are the separate recursive walks they replaced;
every property asserts equal output, order included.
"""

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


def ref_tree_to_latent(t, max_depth=dist.DEFAULT_MAX_DEPTH):
    depth = tb.tree_depth(t)
    if depth >= max_depth:
        raise ValueError(f"tree depth {depth} >= max_depth {max_depth}")
    d = [1.0] * tb.leaf_count(t)

    def assign(node, base, m):
        if isinstance(node, tb.Leaf):
            return
        left, right = node.children
        n_left = tb.leaf_count(left)
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
    depth = tb.tree_depth(t)
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
    assert rec == dist.DistanceRecord(tuple(tb.leaves(t)), tuple(dl),
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
    n = tb.leaf_count(t)
    hidden = np.random.default_rng(seed).normal(size=(n, 6))
    got = pr._annotate(model, t, hidden)
    assert got == ref_annotate(model, t, hidden)
    assert tb.leaves(got) == tb.leaves(t)
