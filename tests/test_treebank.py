"""Tree reading, binarization, serialization, and the synthetic sampler."""

import io
import math
import random

import numpy as np
import pytest

from distparse import treebank as tb

from conftest import DATA_DIR, random_binary_tree


# ---------------------------------------------------------------------------
# Parsing


def test_parse_drops_preterminals():
    t = tb.parse_tree("(X (A a) (B b))")
    assert t == tb.Node("X", (tb.Leaf("a"), tb.Leaf("b")))


def test_parse_keeps_unary_chain():
    t = tb.parse_tree("(X (A a))")
    assert t == tb.Node("X", (tb.Leaf("a"),))


def test_parse_nested():
    t = tb.parse_tree("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
    assert t == tb.Node("S", (
        tb.Node("NP", (tb.Leaf("the"), tb.Leaf("cat"))),
        tb.Node("VP", (tb.Leaf("sat"),)),
    ))


def test_parse_unbalanced_reports_line():
    with pytest.raises(tb.TreeParseError, match="line 1"):
        tb.read_trees("((A a) (B b)")


def test_parse_empty_node_rejected():
    with pytest.raises(tb.TreeParseError):
        tb.parse_tree("(X () (B b))")


def test_parse_error_line_number_counts_from_file_start():
    text = "(X (A a) (B b))\n\n(X (A a) (B b\n"
    with pytest.raises(tb.TreeParseError, match="line 3"):
        tb.read_trees(text)


def test_read_trees_keeps_line_order():
    bank = tb.read_trees("(X (A a) (B b))\n(Y (C c))\n")
    assert [tb.leaves(t) for t in bank] == [["a", "b"], ["c"]]
    assert len(bank) == 2


# ---------------------------------------------------------------------------
# Binarization


def collapse_unaries(t):
    """Oracle: repeatedly splice single-child nodes, outer label wins."""
    if isinstance(t, tb.Leaf):
        return t
    if len(t.children) == 1:
        child = collapse_unaries(t.children[0])
        if isinstance(child, tb.Leaf):
            return child
        return collapse_unaries(tb.Node(t.label, child.children))
    return tb.Node(t.label, tuple(collapse_unaries(c) for c in t.children))


def test_binarize_ternary_right():
    t = tb.Node("X", (tb.Leaf("a"), tb.Leaf("b"), tb.Leaf("c")))
    assert tb.binarize(t) == tb.Node("X", (
        tb.Leaf("a"), tb.Node("X|", (tb.Leaf("b"), tb.Leaf("c")))))


def test_binarize_ternary_left():
    t = tb.Node("X", (tb.Leaf("a"), tb.Leaf("b"), tb.Leaf("c")))
    assert tb.binarize(t, "left") == tb.Node("X", (
        tb.Node("X|", (tb.Leaf("a"), tb.Leaf("b"))), tb.Leaf("c")))


def test_binarize_identity_on_binary_tree():
    t = tb.Node("S", (tb.Node("NP", (tb.Leaf("a"), tb.Leaf("b"))),
                      tb.Leaf("c")))
    assert tb.binarize(t) == t


def test_binarize_collapses_unary_chain_to_leaf():
    t = tb.Node("X", (tb.Node("Y", (tb.Leaf("a"),)),))
    assert tb.binarize(t) == tb.Leaf("a")


def test_binarize_unary_keeps_outer_label():
    t = tb.Node("X", (tb.Node("Y", (tb.Leaf("a"), tb.Leaf("b"))),))
    assert tb.binarize(t) == tb.Node("X", (tb.Leaf("a"), tb.Leaf("b")))


def test_binarize_matches_unary_splice_oracle():
    rng = random.Random(11)

    def random_nary(depth):
        if depth == 0 or rng.random() < 0.3:
            return tb.Leaf(rng.choice("abcde"))
        k = rng.choice([1, 1, 2, 3, 4])
        return tb.Node(rng.choice("SNV"),
                       tuple(random_nary(depth - 1) for _ in range(k)))

    for _ in range(200):
        t = random_nary(4)
        direct = tb.binarize(t)
        spliced = tb.binarize(collapse_unaries(t))
        assert direct == spliced
        assert tb.is_binary(direct)
        assert tb.leaves(direct) == tb.leaves(t)


def test_binarize_idempotent():
    rng = np.random.default_rng(3)
    for n in range(2, 12):
        tokens = [f"w{i}" for i in range(n)]
        t = tb.Node("S", tuple(tb.Leaf(w) for w in tokens))  # flat n-ary
        once = tb.binarize(t)
        assert tb.binarize(once) == once
        r = random_binary_tree(tokens, rng, label="S")
        assert tb.binarize(r) == r


def test_binarize_rejects_unknown_direction():
    with pytest.raises(ValueError):
        tb.binarize(tb.Leaf("a"), "up")


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_fixed_trees():
    text = ("(X (A a) (B b))\n"
            "(S (NP (DT the) (NN cat)) (VP sat))\n"
            "(S (A a) (B b) (C c))\n")
    bank = tb.read_trees(text)
    out = io.StringIO()
    tb.write_trees(bank, out)
    again = tb.read_trees(out.getvalue())
    assert list(again) == list(bank)


def test_round_trip_drops_rebuilt_preterminals():
    # (VP (VBD sat)) loses its POS layer on first read; the surviving
    # unary (VP sat) is then indistinguishable from a preterminal, so a
    # second read collapses it too.  Identity holds from then on.
    bank = tb.read_trees("(S (NP (DT the) (NN cat)) (VP (VBD sat)))\n")
    out = io.StringIO()
    tb.write_trees(bank, out)
    again = tb.read_trees(out.getvalue())
    assert list(again) == [tb.Node("S", (
        tb.Node("NP", (tb.Leaf("the"), tb.Leaf("cat"))), tb.Leaf("sat")))]
    out2 = io.StringIO()
    tb.write_trees(again, out2)
    assert list(tb.read_trees(out2.getvalue())) == list(again)


def test_write_empty_treebank_rejected():
    with pytest.raises(ValueError):
        tb.write_trees(tb.Treebank(()), io.StringIO())


def test_round_trip_1000_random_binarized_trees():
    rng = np.random.default_rng(17)
    trees = []
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        trees.append(random_binary_tree([f"w{i}" for i in range(n)], rng,
                                        label="S"))
    bank = tb.Treebank(tuple(trees))
    out = io.StringIO()
    tb.write_trees(bank, out)
    assert list(tb.read_trees(out.getvalue())) == trees


def test_unlabeled_tree_round_trips_through_x_label():
    # decoders emit label-None nodes; they serialize as "X" and read back
    t = tb.Node(None, (tb.Leaf("a"), tb.Node(None, (tb.Leaf("b"),
                                                    tb.Leaf("c")))))
    line = tb.format_tree(t)
    assert line == "(X a (X b c))"
    back = tb.parse_tree(line)
    assert tb.leaves(back) == ["a", "b", "c"]


def test_single_leaf_formats_as_bracketed_token():
    assert tb.format_tree(tb.Leaf("hi")) == "(X hi)"


# ---------------------------------------------------------------------------
# Stats


def test_tree_stats_leaf():
    leaf = tb.Leaf("a")
    assert (tb.leaf_count(leaf), tb.tree_depth(leaf)) == (1, 0)


def test_tree_stats_pair():
    t = tb.Node("X", (tb.Leaf("a"), tb.Leaf("b")))
    assert (tb.leaf_count(t), tb.tree_depth(t)) == (2, 1)


def test_tree_stats_balanced_eight():
    def balanced(tokens):
        if len(tokens) == 1:
            return tb.Leaf(tokens[0])
        mid = len(tokens) // 2
        return tb.Node("X", (balanced(tokens[:mid]), balanced(tokens[mid:])))

    t = balanced([f"w{i}" for i in range(8)])
    assert (tb.leaf_count(t), tb.tree_depth(t)) == (8, 3)


def test_depth_lower_bound_for_binary_trees():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        length, depth = tb.leaf_count(t), tb.tree_depth(t)
        assert depth >= math.ceil(math.log2(length))
        assert (depth == 0) == (length == 1)


# ---------------------------------------------------------------------------
# Synthetic grammar sampler


def test_gen_single_rule_grammar():
    bank = tb.gen_synthetic("S -> a : 1.0", 3, seed=0)
    assert len(bank) == 3
    for t in bank:
        assert tb.leaves(t) == ["a"]


def test_gen_deterministic(toy_grammar):
    a = tb.gen_synthetic(toy_grammar, 40, seed=9)
    b = tb.gen_synthetic(toy_grammar, 40, seed=9)
    assert list(a) == list(b)
    c = tb.gen_synthetic(toy_grammar, 40, seed=10)
    assert list(c) != list(a)


def test_gen_right_branching_grammar_depth_tracks_length():
    # S -> a S | a binarizes to a pure right comb: depth = length - 1
    g = tb.parse_grammar("S -> a S : 0.7\nS -> a : 0.3\n")
    bank = tb.gen_synthetic(g, 500, seed=2)
    binarized = [tb.binarize(t) for t in bank]
    lens = [tb.leaf_count(t) for t in binarized]
    depths = [tb.tree_depth(t) for t in binarized]
    mean_len = sum(lens) / len(lens)
    mean_depth = sum(depths) / len(depths)
    assert abs(mean_depth - (mean_len - 1)) < 1e-9


def test_gen_respects_max_len(toy_grammar):
    bank = tb.gen_synthetic(toy_grammar, 200, seed=4, max_len=8)
    assert max(tb.leaf_count(t) for t in bank) <= 8


def test_gen_rejects_bad_weights():
    with pytest.raises(ValueError):
        tb.parse_grammar("S -> a : -1.0")
    with pytest.raises(ValueError):
        tb.parse_grammar("S -> a : 0.0")


def test_gen_detects_nonterminating_grammar():
    g = tb.parse_grammar("S -> S S : 1.0")
    with pytest.raises(ValueError) as err:
        tb.gen_synthetic(g, 1, seed=0)
    assert "'S'" in str(err.value)


def test_grammar_comments_and_blank_lines():
    g = tb.parse_grammar("# a comment\n\nS -> a : 1.0\n")
    assert len(tb.gen_synthetic(g, 2, seed=0)) == 2


def test_shipped_sample_treebank_loads():
    bank = tb.load_trees(DATA_DIR / "sample.trees")
    assert len(bank) >= 3
    for t in bank:
        bt = tb.binarize(t)
        assert tb.is_binary(bt)
        assert tb.leaves(bt) == tb.leaves(t)
