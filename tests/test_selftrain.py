"""Consensus filtering and the self-training orchestration."""

import io
import math

import numpy as np
import pytest

from distparse import distance as dist
from distparse import metrics
from distparse import predictor as pr
from distparse import selftrain as st
from distparse import treebank as tb

from conftest import random_binary_tree, simulated_ensemble, tallies


TINY = pr.TrainingConfig(l1=1, embed_dim=8, hidden_dim=12, lr=0.2,
                         epochs=15, batch_size=8, seed=3)


def write_members(dirpath, parse_lists):
    """parse_lists is per-sentence; write one file per member."""
    n_c = len(parse_lists[0])
    for k in range(n_c):
        bank = tb.Treebank(tuple(row[k] for row in parse_lists))
        tb.dump_trees(bank, dirpath / f"member_{k}.trees")


# ---------------------------------------------------------------------------
# Admission threshold


def test_threshold_paper_setting():
    assert st.admission_threshold(0.6, 15) == 9


def test_threshold_fixtures_around_nine():
    cfg = st.SelfTrainConfig(n_c=15, mu=0.6)
    tokens = tuple("abcdef")
    agree = tb.right_branching(tokens)
    for n_a, admitted in ((8, False), (9, True), (10, True)):
        others = []
        rng = np.random.default_rng(n_a)
        seen = {metrics.brackets(agree)}
        while len(others) < 15 - n_a:
            t = random_binary_tree(tokens, rng)
            if metrics.brackets(t) not in seen:
                seen.add(metrics.brackets(t))
                others.append(t)
        silver = st.build_silver(tallies([[agree] * n_a + others]), cfg)
        assert (len(silver) == 1) == admitted, n_a


def test_threshold_strict_flag():
    assert st.admission_threshold(0.6, 15, strict=True) == 10
    assert st.admission_threshold(1.0, 15) == 15
    assert st.admission_threshold(1.0, 15, strict=True) == 16  # unreachable


def test_threshold_robust_to_float_dust():
    # 0.6 * 15 is 8.999999... in binary; the ceiling must still be 9
    assert st.admission_threshold(0.6, 15) == math.ceil(9)
    assert st.admission_threshold(0.3, 10) == 3
    assert st.admission_threshold(0.2, 5) == 1


def test_threshold_monotone_in_mu():
    prev = 0
    for mu in np.linspace(0.05, 1.0, 39):
        cur = st.admission_threshold(float(mu), 15)
        assert cur >= prev
        prev = cur


def test_config_validation():
    with pytest.raises(ValueError):
        st.SelfTrainConfig(mu=0.0)
    with pytest.raises(ValueError):
        st.SelfTrainConfig(mu=1.2)
    with pytest.raises(ValueError):
        st.SelfTrainConfig(n_c=0)
    with pytest.raises(ValueError):
        st.SelfTrainConfig(rounds=0)


# ---------------------------------------------------------------------------
# Ensemble collection


def make_sentences(n, seed=0, lo=3, hi=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(lo, hi))
        out.append(tuple(f"w{int(rng.integers(0, 9))}" for _ in range(k)))
    return out


def test_collect_directory_shape(tmp_path):
    sentences = make_sentences(10)
    gold = [random_binary_tree(s, np.random.default_rng(1))
            for s in sentences]
    write_members(tmp_path, [[t, t, t] for t in gold])
    got = st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)
    assert len(got) == 10
    assert all(len(row) == 3 for row in got)


def test_collect_directory_misaligned_member(tmp_path):
    sentences = make_sentences(10)
    gold = [random_binary_tree(s, np.random.default_rng(1))
            for s in sentences]
    write_members(tmp_path, [[t, t] for t in gold])
    short = tb.Treebank(tuple(gold[:9]))
    tb.dump_trees(short, tmp_path / "member_2.trees")
    with pytest.raises(st.EnsembleError, match="9 parses for 10 sentences"):
        st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)


def test_collect_directory_skips_blank_lines(tmp_path):
    sentences = make_sentences(4, seed=4)
    rng = np.random.default_rng(5)
    rows = [[random_binary_tree(s, rng) for _ in range(2)]
            for s in sentences]
    write_members(tmp_path, rows)
    want = st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)
    lines = (tmp_path / "member_0.trees").read_text().splitlines()
    (tmp_path / "member_0.trees").write_text(
        "\n  \n".join(lines[:2]) + "\n\n" + "\n".join(lines[2:]) + "\n\n")
    got = st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)
    assert got == want
    assert [len(t) for t in got] == [2] * 4


def test_collect_directory_token_mismatch(tmp_path):
    sentences = make_sentences(4, seed=2)
    rng = np.random.default_rng(3)
    parses = [random_binary_tree(s, rng) for s in sentences]
    parses[2] = random_binary_tree(("not", "these", "words"), rng)
    write_members(tmp_path, [[t] for t in parses])
    with pytest.raises(st.EnsembleError, match="member 0, sentence 2"):
        st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)


def test_collect_directory_rejects_nonbinary(tmp_path):
    sentences = [("a", "b", "c")]
    flat = tb.Node("X", (tb.Leaf("a"), tb.Leaf("b"), tb.Leaf("c")))
    tb.dump_trees(tb.Treebank((flat,)), tmp_path / "member_0.trees")
    with pytest.raises(st.EnsembleError, match="not binary"):
        st.collect_ensemble(st.DirectoryEnsemble(tmp_path), sentences)


def test_collect_empty_directory(tmp_path):
    with pytest.raises(st.EnsembleError, match="member"):
        st.collect_ensemble(st.DirectoryEnsemble(tmp_path), [("a", "b")])


def test_collect_internal_deterministic():
    rng = np.random.default_rng(5)
    boot = [pr.TrainExample.from_tree(random_binary_tree(s, rng))
            for s in make_sentences(6, seed=5)]
    sentences = make_sentences(5, seed=6)
    source = st.InternalEnsemble(seeds=(1, 2), recipe=TINY,
                                 bootstrap=tuple(boot))
    first = st.collect_ensemble(source, sentences)
    second = st.collect_ensemble(source, sentences)
    assert [list(t.votes.items()) for t in first] == \
           [list(t.votes.items()) for t in second]
    assert [list(t.reps.values()) for t in first] == \
           [list(t.reps.values()) for t in second]
    assert all(len(row) == 2 for row in first)
    # distinct seeds should not all collapse to one parser
    assert any(len(row.votes) == 2 for row in first)


# ---------------------------------------------------------------------------
# Silver construction


def test_build_silver_all_disagree_is_empty():
    tokens = tuple("abcdefg")
    rng = np.random.default_rng(7)
    parses, seen = [], set()
    while len(parses) < 5:
        t = random_binary_tree(tokens, rng)
        if metrics.brackets(t) not in seen:
            seen.add(metrics.brackets(t))
            parses.append(t)
    cfg = st.SelfTrainConfig(n_c=5, mu=0.6)
    silver = st.build_silver(tallies([parses]), cfg)
    assert len(silver) == 0


def test_build_silver_gold_echo_majority_scores_100():
    sentences = make_sentences(20, seed=8, lo=4, hi=9)
    rng = np.random.default_rng(9)
    gold = [random_binary_tree(s, rng) for s in sentences]
    parse_lists = []
    for t in gold:
        noise = [random_binary_tree(tb.leaves(t), rng) for _ in range(5)]
        parse_lists.append([t] * 10 + noise)
    cfg = st.SelfTrainConfig(n_c=15, mu=0.6)
    silver = st.build_silver(tallies(parse_lists), cfg)
    assert len(silver) == 20  # 10 echoes always clear the threshold of 9
    for ex in silver:
        assert metrics.sentence_f1(ex.tree, gold[ex.index]) == 100.0
        assert ex.agreement >= 10
    stats = st.silver_statistics(silver, gold)
    assert stats.avg_f1 == 100.0


def test_build_silver_skips_single_word_sentences():
    cfg = st.SelfTrainConfig(n_c=3, mu=0.5)
    lists = [[tb.Leaf("a")] * 3,
             [tb.Node(None, (tb.Leaf("b"), tb.Leaf("c")))] * 3]
    silver = st.build_silver(tallies(lists), cfg)
    assert [ex.index for ex in silver] == [1]


def test_build_silver_records_encode_consensus_tree():
    sentences = make_sentences(12, seed=10, lo=2, hi=8)
    rng = np.random.default_rng(11)
    gold = [random_binary_tree(s, rng) for s in sentences]
    cfg = st.SelfTrainConfig(n_c=4, mu=0.75)
    silver = st.build_silver(tallies([[t] * 4 for t in gold]), cfg)
    assert len(silver) == 12
    for ex in silver:
        assert list(ex.record.dl) == dist.tree_to_latent(ex.tree)
        assert list(ex.record.dg) == dist.tree_to_gaps(ex.tree)
        assert dist.gaps_to_tree(ex.record.dg, ex.record.tokens) == ex.tree
        assert ex.record.agreement == 4


def test_build_silver_monotone_in_mu(toy_grammar):
    gold = [tb.binarize(t) for t in tb.gen_synthetic(toy_grammar, 80, seed=12)]
    parse_lists = simulated_ensemble(gold, 9, rate=0.3, seed=13)
    admitted_prev = None
    for mu in (0.2, 0.4, 0.6, 0.8, 1.0):
        cfg = st.SelfTrainConfig(n_c=9, mu=mu)
        got = {ex.index for ex in st.build_silver(tallies(parse_lists), cfg)}
        if admitted_prev is not None:
            assert got <= admitted_prev  # raising mu never adds sentences
        admitted_prev = got


def test_build_silver_wrong_member_count():
    cfg = st.SelfTrainConfig(n_c=4, mu=0.5)
    pair = tb.Node(None, (tb.Leaf("a"), tb.Leaf("b")))
    with pytest.raises(st.EnsembleError, match="sentence 0"):
        st.build_silver(tallies([[pair] * 3]), cfg)


def test_silver_stats_empty_set():
    stats = st.silver_statistics(st.SilverSet([], 5, 0.6))
    assert stats == st.SilverStats(0, None, None, None)


def test_silver_stats_csv_shape():
    pair = tb.Node(None, (tb.Leaf("a"), tb.Leaf("b")))
    cfg = st.SelfTrainConfig(n_c=2, mu=0.5)
    silver = st.build_silver(tallies([[pair, pair]]), cfg)
    out = io.StringIO()
    st.write_silver_stats_csv(st.silver_statistics(silver, [pair]), out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "avg_len,avg_depth,avg_f1,count"
    assert lines[1] == "2.0000,1.0000,100.0000,1"


# ---------------------------------------------------------------------------
# Run comparison


def combs(sentences):
    rb = [tb.right_branching(s) for s in sentences]
    lb = [tb.left_branching(s) for s in sentences]
    return rb, lb


def test_compare_runs_identical_predictions():
    sentences = make_sentences(30, seed=14, lo=2, hi=12)
    rb, _ = combs(sentences)
    gold = [random_binary_tree(s, np.random.default_rng(15))
            for s in sentences]
    rows = st.compare_runs(rb, rb, gold)
    for r in rows:
        if r.count:
            assert r.pct_improved == 0.0
    assert sum(r.count for r in rows) == 30


def test_compare_runs_total_improvement():
    # gold = right combs of length >= 4, baseline = left combs (never
    # perfect), self-trained = gold: strict improvement everywhere
    sentences = make_sentences(25, seed=16, lo=4, hi=14)
    gold, baseline = combs(sentences)
    rows = st.compare_runs(baseline, gold, gold)
    nonempty = [r for r in rows if r.count]
    assert nonempty
    for r in nonempty:
        assert r.pct_improved == 100.0
        assert r.avg_f1 == 100.0


def test_compare_runs_bucket_names():
    sentences = [("a", "b")]
    gold, _ = combs(sentences)
    rows = st.compare_runs(gold, gold, gold)
    assert [r.name for r in rows] == ["0-10", "10-20", "20-30", "30-40",
                                      ">40"]


def test_compare_runs_misalignment():
    pair = tb.Node(None, (tb.Leaf("a"), tb.Leaf("b")))
    with pytest.raises(ValueError, match="count"):
        st.compare_runs([pair], [pair, pair], [pair])


def test_buckets_csv_header():
    out = io.StringIO()
    st.write_buckets_csv([st.BucketComparison("0-10", 3, 87.5, 50.0)], out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "range,count,avg_f1,pct_improved"
    assert lines[1] == "0-10,3,87.5000,50.0000"


# ---------------------------------------------------------------------------
# End-to-end orchestration


def test_self_train_aborts_without_any_supervision(tmp_path):
    sentences = make_sentences(6, seed=17, lo=4, hi=8)
    rng = np.random.default_rng(18)
    parse_lists = []
    for s in sentences:
        seen, row = set(), []
        while len(row) < 3:
            t = random_binary_tree(s, rng)
            if metrics.brackets(t) not in seen:
                seen.add(metrics.brackets(t))
                row.append(t)
        parse_lists.append(row)
    write_members(tmp_path, parse_lists)
    cfg = st.SelfTrainConfig(n_c=3, mu=1.0, predictor=TINY)
    with pytest.raises(st.EnsembleError, match="nothing to train on"):
        st.self_train(sentences, st.DirectoryEnsemble(tmp_path), [], cfg)


def test_self_train_perfect_oracle_beats_untrained(tmp_path, toy_grammar):
    gold = [tb.binarize(t)
            for t in tb.gen_synthetic(toy_grammar, 40, seed=19, max_len=10)]
    sentences = [tuple(tb.leaves(t)) for t in gold]
    write_members(tmp_path, [[t] * 5 for t in gold])
    recipe = pr.TrainingConfig(l1=1, embed_dim=16, hidden_dim=32, lr=0.2,
                               epochs=40, batch_size=8, seed=4, mix_ratio=1.0)
    cfg = st.SelfTrainConfig(n_c=5, mu=0.6, predictor=recipe)
    result = st.self_train(sentences, st.DirectoryEnsemble(tmp_path), [],
                           cfg, gold_parses=gold)
    assert len(result.silver) == 40
    assert result.stats.avg_f1 == 100.0

    untrained = pr.DistancePredictor.create(
        pr.Vocab.build(sentences), recipe)

    def corpus_f1(model):
        scores = [metrics.sentence_f1(pr.predict_tree(model, s), g)
                  for s, g in zip(sentences, gold)]
        return sum(scores) / len(scores)

    assert corpus_f1(result.model) >= corpus_f1(untrained)


def test_self_train_deterministic(tmp_path, toy_grammar):
    gold = [tb.binarize(t)
            for t in tb.gen_synthetic(toy_grammar, 15, seed=20, max_len=9)]
    sentences = [tuple(tb.leaves(t)) for t in gold]
    parse_lists = simulated_ensemble(gold, 5, rate=0.2, seed=21)
    write_members(tmp_path, parse_lists)
    cfg = st.SelfTrainConfig(n_c=5, mu=0.4, predictor=TINY)
    a = st.self_train(sentences, st.DirectoryEnsemble(tmp_path), [], cfg,
                      gold_parses=gold)
    b = st.self_train(sentences, st.DirectoryEnsemble(tmp_path), [], cfg,
                      gold_parses=gold)
    assert a.trace == b.trace
    assert [ex.record for ex in a.silver] == [ex.record for ex in b.silver]
    assert a.agreement_rows == b.agreement_rows
    for (name, x), (_, y) in zip(a.model.params.blocks(),
                                 b.model.params.blocks()):
        assert np.array_equal(x, y), name


def test_self_train_extra_round_grows_ensemble(tmp_path, toy_grammar):
    gold = [tb.binarize(t)
            for t in tb.gen_synthetic(toy_grammar, 12, seed=22, max_len=8)]
    sentences = [tuple(tb.leaves(t)) for t in gold]
    write_members(tmp_path, [[t] * 3 for t in gold])
    cfg = st.SelfTrainConfig(n_c=3, mu=0.5, rounds=2, predictor=TINY)
    result = st.self_train(sentences, st.DirectoryEnsemble(tmp_path), [],
                           cfg, gold_parses=gold)
    # the retrained model joined the pool for the second round
    assert [r.n_agree for r in result.agreement_rows] == [1, 2, 3, 4]
    assert sum(r.count for r in result.agreement_rows) == len(sentences)


def test_self_train_uses_gold_when_silver_empty(tmp_path):
    # sentences need >= 4 words so three distinct bracketings exist
    sentences = make_sentences(5, seed=23, lo=4, hi=7)
    rng = np.random.default_rng(24)
    parse_lists = []
    for s in sentences:
        seen, row = set(), []
        while len(row) < 3:
            t = random_binary_tree(s, rng)
            if metrics.brackets(t) not in seen:
                seen.add(metrics.brackets(t))
                row.append(t)
        parse_lists.append(row)
    write_members(tmp_path, parse_lists)
    gold_trees = [random_binary_tree(s, rng) for s in make_sentences(
        6, seed=25, lo=2, hi=6)]
    gold = [pr.TrainExample.from_tree(t) for t in gold_trees]
    cfg = st.SelfTrainConfig(n_c=3, mu=1.0, predictor=TINY)
    result = st.self_train(sentences, st.DirectoryEnsemble(tmp_path), gold,
                           cfg)
    assert len(result.silver) == 0
    assert len(result.trace) == TINY.epochs
