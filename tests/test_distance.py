"""Tree <-> distance conversions, decoders, and record serialization."""

import io

import numpy as np
import pytest

from distparse import distance as dist
from distparse import treebank as tb

from conftest import random_binary_tree


def balanced4():
    return tb.Node(None, (
        tb.Node(None, (tb.Leaf("a"), tb.Leaf("b"))),
        tb.Node(None, (tb.Leaf("c"), tb.Leaf("d"))),
    ))


def right_comb(tokens):
    if len(tokens) == 1:
        return tb.Leaf(tokens[0])
    return tb.Node(None, (tb.Leaf(tokens[0]), right_comb(tokens[1:])))


# ---------------------------------------------------------------------------
# Per-word encoding


def test_latent_leaf():
    assert dist.tree_to_latent(tb.Leaf("a")) == [1]


def test_latent_balanced_four():
    assert dist.tree_to_latent(balanced4()) == [1, 99, 100, 99]


def test_latent_right_comb_three():
    assert dist.tree_to_latent(right_comb(["a", "b", "c"])) == [1, 100, 99]


def test_latent_rejects_nonbinary():
    t = tb.Node("X", (tb.Leaf("a"), tb.Leaf("b"), tb.Leaf("c")))
    with pytest.raises(ValueError):
        dist.tree_to_latent(t)


def test_latent_rejects_too_deep_tree():
    t = right_comb([f"w{i}" for i in range(6)])
    with pytest.raises(ValueError):
        dist.tree_to_latent(t, max_depth=4)


def test_latent_value_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        d = dist.tree_to_latent(t)
        depth = tb.tree_depth(t)
        assert d[0] == 1
        assert all(100 - depth < v <= 100 for v in d[1:])
        # the root boundary is the unique maximum among later positions
        assert d[1:].count(max(d[1:])) == 1


# ---------------------------------------------------------------------------
# Per-gap encoding


def test_gaps_leaf():
    assert dist.tree_to_gaps(tb.Leaf("a")) == []


def test_gaps_balanced_four():
    assert dist.tree_to_gaps(balanced4()) == [1, 2, 1]


def test_gaps_right_comb_four():
    assert dist.tree_to_gaps(right_comb(list("abcd"))) == [3, 2, 1]


def test_gaps_max_equals_depth():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        assert max(dist.tree_to_gaps(t)) == tb.tree_depth(t)


def test_gaps_are_lca_heights():
    # oracle: gap g's value = height of the lowest common ancestor of
    # leaves g and g+1, computed by explicit path comparison
    def height(t):
        if isinstance(t, tb.Leaf):
            return 0
        return 1 + max(height(c) for c in t.children)

    def leaf_paths(t, path=()):
        if isinstance(t, tb.Leaf):
            return [path]
        out = []
        for i, c in enumerate(t.children):
            out.extend(leaf_paths(c, path + (i,)))
        return out

    def subtree_at(t, path):
        for i in path:
            t = t.children[i]
        return t

    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        paths = leaf_paths(t)
        expected = []
        for g in range(n - 1):
            a, b = paths[g], paths[g + 1]
            k = 0
            while a[k] == b[k]:
                k += 1
            expected.append(height(subtree_at(t, a[:k])))
        assert dist.tree_to_gaps(t) == expected


# ---------------------------------------------------------------------------
# Decoding


def test_decode_latent_example():
    t = dist.latent_to_tree([1, 99, 100, 99], list("abcd"))
    assert t == balanced4()


def test_decode_latent_single_token():
    assert dist.latent_to_tree([1], ["a"]) == tb.Leaf("a")


def test_decode_latent_all_equal_gives_right_comb():
    t = dist.latent_to_tree([1, 5, 5, 5], list("abcd"))
    assert t == right_comb(list("abcd"))


def test_decode_gaps_example():
    assert dist.gaps_to_tree([1, 2, 1], list("abcd")) == balanced4()


def test_decode_gaps_empty_single_token():
    assert dist.gaps_to_tree([], ["a"]) == tb.Leaf("a")


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        dist.latent_to_tree([1, 2], ["a", "b", "c"])
    with pytest.raises(ValueError):
        dist.gaps_to_tree([1, 2], ["a", "b"])


def test_decoders_total_on_arbitrary_values():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        tokens = [f"w{i}" for i in range(n)]
        dl = rng.normal(size=n).tolist()
        dg = rng.normal(size=n - 1).tolist()
        for t in (dist.latent_to_tree(dl, tokens),
                  dist.gaps_to_tree(dg, tokens)):
            assert tb.is_binary(t)
            assert tb.leaves(t) == tokens


def test_ties_right_flag():
    t = dist.gaps_to_tree([5, 5, 5], list("abcd"), ties="right")
    # rightmost maximum splits last gap first: left comb
    assert t == tb.Node(None, (
        tb.Node(None, (tb.Node(None, (tb.Leaf("a"), tb.Leaf("b"))),
                       tb.Leaf("c"))),
        tb.Leaf("d")))


def test_round_trip_both_formulations():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        assert dist.latent_to_tree(dist.tree_to_latent(t), tb.leaves(t)) == t
        assert dist.gaps_to_tree(dist.tree_to_gaps(t), tb.leaves(t)) == t


def test_monotone_invariance_of_decoding():
    rng = np.random.default_rng(5)
    transforms = [lambda x: 2.0 * x + 3.0,
                  lambda x: x ** 3,
                  lambda x: np.exp(0.1 * x)]
    for _ in range(30):
        n = int(rng.integers(2, 20))
        tokens = [f"w{i}" for i in range(n)]
        t = random_binary_tree(tokens, rng)
        dl = np.array(dist.tree_to_latent(t), dtype=float)
        dg = np.array(dist.tree_to_gaps(t), dtype=float)
        for f in transforms:
            assert dist.latent_to_tree(f(dl).tolist(), tokens) == t
            assert dist.gaps_to_tree(f(dg).tolist(), tokens) == t


# ---------------------------------------------------------------------------
# Record serialization


def test_record_round_trip_single():
    rec = dist.record_from_tree(balanced4(), agreement=9)
    out = io.StringIO()
    dist.write_records([rec], out)
    assert out.getvalue().count("\n") == 1
    back = dist.read_records(out.getvalue())
    assert back == [rec]


def test_record_missing_gap_field():
    line = '{"tokens": ["a", "b"], "dl": [1, 100]}\n'
    with pytest.raises(dist.RecordFormatError, match="dg"):
        dist.read_records(line)


def test_record_malformed_json_reports_line():
    text = ('{"tokens": ["a"], "dl": [1], "dg": []}\n'
            "not json\n")
    with pytest.raises(dist.RecordFormatError, match="line 2"):
        dist.read_records(text)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", '"nan"'])
def test_record_non_finite_distance_rejected(bad):
    text = ('{"tokens": ["a", "b"], "dl": [1, 2], "dg": [1]}\n'
            f'{{"tokens": ["a", "b", "c"], "dl": [1, 2, 3], "dg": [{bad}, 1]}}\n')
    with pytest.raises(dist.RecordFormatError,
                       match="line 2: distances must be finite"):
        dist.read_records(text)


def test_record_length_invariant_enforced():
    with pytest.raises(ValueError):
        dist.DistanceRecord(("a", "b"), (1.0,), (1.0,))


def test_record_round_trip_1000_random():
    rng = np.random.default_rng(6)
    records = []
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        agreement = int(rng.integers(1, 16)) if rng.random() < 0.5 else None
        records.append(dist.record_from_tree(t, agreement=agreement))
    out = io.StringIO()
    dist.write_records(records, out)
    assert dist.read_records(out.getvalue()) == records


def test_record_from_tree_consistent_with_encoders():
    t = balanced4()
    rec = dist.record_from_tree(t)
    assert list(rec.tokens) == tb.leaves(t)
    assert list(rec.dl) == dist.tree_to_latent(t)
    assert list(rec.dg) == dist.tree_to_gaps(t)
