"""Bracket scoring, corpus evaluation, and ensemble agreement."""

import io

import numpy as np
import pytest

from distparse import metrics
from distparse import treebank as tb

from conftest import random_binary_tree, simulated_ensemble, tallies


def t_balanced():
    return tb.parse_tree("(X (X a b) (X c d))")


def t_comb():
    return tb.parse_tree("(X a (X b (X c d)))")


# ---------------------------------------------------------------------------
# Bracket extraction


def test_brackets_with_full_span():
    assert metrics.brackets(t_balanced()) == {(0, 2), (2, 4), (0, 4)}


def test_brackets_without_full_span():
    got = metrics.brackets(t_balanced(), include_full_span=False)
    assert got == {(0, 2), (2, 4)}


def test_brackets_leaf_empty():
    assert metrics.brackets(tb.Leaf("a")) == frozenset()


def test_brackets_exclude_single_word_spans():
    t = tb.parse_tree("(S (NP (DT the)) (VP sat))")
    bt = tb.binarize(t)
    spans = metrics.brackets(bt)
    assert all(end - start >= 2 for start, end in spans)


def test_brackets_labeled_normalizes_binarization_marks():
    t = tb.binarize(tb.parse_tree("(S (A a) (B b) (C c))"))
    spans = metrics.brackets(t, labeled=True)
    assert spans == {(0, 3, "S"), (1, 3, "S")}


def test_brackets_count_and_nesting():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        t = random_binary_tree([f"w{i}" for i in range(n)], rng)
        spans = metrics.brackets(t)
        # a binary tree over n words has exactly n-1 multi-word nodes
        assert len(spans) == n - 1
        for a in spans:
            for b in spans:
                assert (a[1] <= b[0] or b[1] <= a[0]          # disjoint
                        or (a[0] <= b[0] and b[1] <= a[1])    # nest
                        or (b[0] <= a[0] and a[1] <= b[1]))


# ---------------------------------------------------------------------------
# Sentence F1


def test_f1_worked_example():
    got = metrics.sentence_f1(t_balanced(), t_comb())
    assert abs(got - 200 / 3) < 1e-9


def test_f1_identity_is_100():
    assert metrics.sentence_f1(t_balanced(), t_balanced()) == 100.0


def test_f1_two_word_sentence_always_100():
    a = tb.parse_tree("(X a b)")
    b = tb.parse_tree("(X a b)")
    assert metrics.sentence_f1(a, b) == 100.0


def test_f1_single_word_both_empty_scores_100():
    assert metrics.sentence_f1(tb.Leaf("a"), tb.Leaf("a")) == 100.0


def test_f1_one_sided_empty_scores_0():
    pred = tb.parse_tree("(X (X a b) (X c d))")
    gold = t_balanced()
    got = metrics.sentence_f1(pred, gold, include_full_span=False)
    assert got == 100.0  # same shape, both non-empty
    # no-full-span pred brackets vs a gold comb sharing none
    p = tb.parse_tree("(X (X a b) c)")
    g = tb.parse_tree("(X a (X b c))")
    assert metrics.sentence_f1(p, g, include_full_span=False) == 0.0


def test_f1_leaf_mismatch_rejected():
    with pytest.raises(ValueError):
        metrics.sentence_f1(tb.Leaf("a"), tb.Leaf("b"))


def test_f1_symmetric_when_sets_swap():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        tokens = [f"w{i}" for i in range(n)]
        a = random_binary_tree(tokens, rng)
        b = random_binary_tree(tokens, rng)
        assert metrics.sentence_f1(a, b) == pytest.approx(
            metrics.sentence_f1(b, a))
        assert 0.0 <= metrics.sentence_f1(a, b) <= 100.0


def test_f1_brute_force_oracle():
    def oracle(pred, gold):
        p = metrics.brackets(pred)
        g = metrics.brackets(gold)
        if not p and not g:
            return 100.0
        if not p or not g:
            return 0.0
        hits = len(p & g)
        if hits == 0:
            return 0.0
        prec = hits / len(p)
        rec = hits / len(g)
        return 200.0 * prec * rec / (prec + rec)

    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        tokens = [f"w{i}" for i in range(n)]
        a = random_binary_tree(tokens, rng)
        b = random_binary_tree(tokens, rng)
        assert metrics.sentence_f1(a, b) == pytest.approx(oracle(a, b))


def test_labeled_f1_stricter_than_unlabeled():
    pred = tb.parse_tree("(S (A a) (NP b c))")
    gold = tb.parse_tree("(S (A a) (VP b c))")
    pb = tb.binarize(pred)
    gb = tb.binarize(gold)
    assert metrics.sentence_f1(pb, gb) == 100.0
    assert metrics.sentence_f1(pb, gb, labeled=True) < 100.0


# ---------------------------------------------------------------------------
# Corpus evaluation


def test_corpus_eval_gold_vs_gold():
    bank = tb.Treebank(tuple(
        tb.binarize(t) for t in tb.load_trees("data/sample.trees")))
    report = metrics.corpus_eval(bank, bank)
    assert report.macro_f1 == 100.0
    assert all(f == 100.0 for f in report.per_sentence_f1)


def test_corpus_eval_macro_is_mean():
    rng = np.random.default_rng(3)
    pred, gold = [], []
    for _ in range(40):
        n = int(rng.integers(2, 25))
        tokens = [f"w{i}" for i in range(n)]
        pred.append(random_binary_tree(tokens, rng))
        gold.append(random_binary_tree(tokens, rng))
    report = metrics.corpus_eval(tb.Treebank(tuple(pred)),
                                 tb.Treebank(tuple(gold)))
    assert report.macro_f1 == pytest.approx(
        sum(report.per_sentence_f1) / len(report.per_sentence_f1))
    assert sum(b.count for b in report.buckets) == 40


def test_corpus_eval_rb_beats_lb_on_right_branching_corpus(toy_grammar):
    g = tb.parse_grammar("S -> a S : 0.75\nS -> a : 0.25\n")
    gold = tb.Treebank(tuple(
        tb.binarize(t) for t in tb.gen_synthetic(g, 200, seed=8)))
    rb = tb.Treebank(tuple(tb.right_branching(tb.leaves(t)) for t in gold))
    lb = tb.Treebank(tuple(tb.left_branching(tb.leaves(t)) for t in gold))
    rb_score = metrics.corpus_eval(rb, gold).macro_f1
    lb_score = metrics.corpus_eval(lb, gold).macro_f1
    assert rb_score == 100.0
    assert lb_score < rb_score


def test_corpus_eval_length_mismatch():
    one = tb.Treebank((tb.Leaf("a"),))
    two = tb.Treebank((tb.Leaf("a"), tb.Leaf("b")))
    with pytest.raises(ValueError):
        metrics.corpus_eval(one, two)


def test_bucket_boundaries():
    assert metrics.bucket_index(5) == 0
    assert metrics.bucket_index(10) == 0
    assert metrics.bucket_index(11) == 1
    assert metrics.bucket_index(40) == 3
    assert metrics.bucket_index(41) == 4
    names = [metrics.bucket_name(lo, hi)
             for lo, hi in metrics.LENGTH_BUCKETS]
    assert names == ["0-10", "10-20", "20-30", "30-40", ">40"]


# ---------------------------------------------------------------------------
# Agreement


def test_agreement_modal_group():
    tokens = list("abcd")
    shape_a = tb.right_branching(tokens)
    shape_b = tb.left_branching(tokens)
    parses = [shape_a] * 9 + [shape_b] * 6
    modal, n_a = metrics.agreement_groups(parses)
    assert n_a == 9
    assert metrics.brackets(modal) == metrics.brackets(shape_a)


def test_agreement_all_distinct():
    rng = np.random.default_rng(5)
    tokens = [f"w{i}" for i in range(10)]
    parses, seen = [], set()
    while len(parses) < 6:
        t = random_binary_tree(tokens, rng)
        key = metrics.brackets(t)
        if key not in seen:
            seen.add(key)
            parses.append(t)
    modal, n_a = metrics.agreement_groups(parses)
    assert n_a == 1
    assert modal is parses[0]


def test_agreement_tie_breaks_by_first_occurrence():
    tokens = list("abcd")
    a = tb.right_branching(tokens)
    b = tb.left_branching(tokens)
    c = tb.parse_tree("(X (X a b) (X c d))")
    parses = [b, a, b, a, b, a, b, a, b, a, c, c, c, c, c]
    modal, n_a = metrics.agreement_groups(parses)
    assert n_a == 5
    assert metrics.brackets(modal) == metrics.brackets(b)  # b occurred first


def test_agreement_ignores_labels():
    x = tb.parse_tree("(S (NP a b) (VP c d))")
    y = tb.parse_tree("(Z (Q a b) (R c d))")
    _, n_a = metrics.agreement_groups([tb.binarize(x), tb.binarize(y)])
    assert n_a == 2


def test_agreement_token_mismatch():
    with pytest.raises(ValueError):
        metrics.agreement_groups([tb.Leaf("a"), tb.Leaf("b")])


def test_agreement_report_perfect_ensemble():
    gold = [tb.binarize(t) for t in tb.load_trees("data/sample.trees")]
    parse_lists = [[t] * 7 for t in gold]
    rows = metrics.agreement_report(tallies(parse_lists),
                                    tb.Treebank(tuple(gold)))
    assert len(rows) == 7
    top = rows[-1]
    assert (top.n_agree, top.count, top.avg_f1) == (7, len(gold), 100.0)
    assert all(r.count == 0 for r in rows[:-1])


def test_agreement_report_counts_partition_corpus(toy_grammar):
    gold = [tb.binarize(t) for t in tb.gen_synthetic(toy_grammar, 120, seed=6)]
    parse_lists = simulated_ensemble(gold, 9, rate=0.25, seed=3)
    rows = metrics.agreement_report(tallies(parse_lists),
                                    tb.Treebank(tuple(gold)))
    assert sum(r.count for r in rows) == len(gold)
    assert [r.n_agree for r in rows] == list(range(1, 10))


def test_agreement_report_f1_rises_with_agreement(toy_grammar):
    # statistical trend over 500 sentences: high-consensus buckets score
    # at least as well as the no-consensus bucket
    gold = [tb.binarize(t) for t in tb.gen_synthetic(toy_grammar, 500, seed=7)]
    parse_lists = simulated_ensemble(gold, 15, rate=0.3, seed=9)
    rows = metrics.agreement_report(tallies(parse_lists),
                                    tb.Treebank(tuple(gold)))
    low = [r for r in rows if r.count and r.n_agree == 1]
    high = [r for r in rows if r.count and r.n_agree >= 12]
    assert low and high
    low_f1 = low[0].avg_f1
    high_f1 = (sum(r.avg_f1 * r.count for r in high)
               / sum(r.count for r in high))
    assert high_f1 >= low_f1


def test_agreement_csv_shape():
    gold = [tb.binarize(t) for t in tb.load_trees("data/sample.trees")]
    rows = metrics.agreement_report(tallies([[t, t] for t in gold]),
                                    tb.Treebank(tuple(gold)))
    out = io.StringIO()
    metrics.write_agreement_csv(rows, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "n_agree,count,avg_f1,avg_len,avg_depth"
    assert len(lines) == 3  # header + one row per agreement level
    assert lines[1].startswith("1,0,,")  # empty bucket prints blanks
