"""Shared fixtures and tree builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from distparse import metrics
from distparse import treebank as tb

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def random_binary_tree(tokens, rng, label=None):
    """Uniformly merge adjacent spans until one tree covers the tokens."""
    nodes = [tb.Leaf(t) for t in tokens]
    while len(nodes) > 1:
        i = int(rng.integers(0, len(nodes) - 1))
        nodes[i:i + 2] = [tb.Node(label, (nodes[i], nodes[i + 1]))]
    return nodes[0]


def rotate_subtrees(t, rng, rate):
    """Corrupt a binary tree with local rotations, bottom-up.

    At each internal node, with probability ``rate``, one rotation is
    applied when the shape allows it: ((A B) C) <-> (A (B C)).  Leaves
    and leaf order are untouched, so the result parses the same
    sentence.  Used to simulate noisy ensemble members.
    """
    if isinstance(t, tb.Leaf):
        return t
    node = tb.Node(t.label, tuple(rotate_subtrees(c, rng, rate)
                                  for c in t.children))
    if rng.random() >= rate:
        return node
    a, b = node.children
    can_right = isinstance(a, tb.Node)
    can_left = isinstance(b, tb.Node)
    if can_right and can_left:
        can_right = rng.random() < 0.5
        can_left = not can_right
    if can_right:
        return tb.Node(node.label,
                       (a.children[0], tb.Node(a.label, (a.children[1], b))))
    if can_left:
        return tb.Node(node.label,
                       (tb.Node(b.label, (a, b.children[0])), b.children[1]))
    return node


def simulated_ensemble(gold_trees, n_members, rate, seed):
    """Per-sentence parse lists from independently corrupted copies of
    the gold trees, one noise stream per member."""
    members = []
    for k in range(n_members):
        rng = np.random.default_rng(1000 * seed + k)
        members.append([rotate_subtrees(t, rng, rate) for t in gold_trees])
    return [[members[k][i] for k in range(n_members)]
            for i in range(len(gold_trees))]


def tallies(parse_lists):
    """One tally per sentence from per-sentence lists of parse trees."""
    return [metrics.tally_trees(parses) for parses in parse_lists]


@pytest.fixture(scope="session")
def toy_grammar():
    return tb.parse_grammar((DATA_DIR / "toy_grammar.cfg").read_text())
