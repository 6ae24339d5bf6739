"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line (visible with -s;
under plain pytest the per-test PASSED/FAILED line serves the same
purpose).  Budgets and margins are asserted inside the tests, so a slow
or degraded build fails loudly rather than quietly.

Criterion 9 needs an external treebank and is skipped unless
DISTPARSE_PTB_GOLD points at a file of gold trees.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

from distparse import distance as dist
from distparse import metrics
from distparse import predictor
from distparse import selftrain
from distparse import treebank as tb
from distparse.predictor import (DistancePredictor, TrainExample,
                                 TrainingConfig, Vocab)
from distparse.selftrain import SelfTrainConfig

from conftest import random_binary_tree, simulated_ensemble, tallies


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"criterion {num}: SKIP ({title})")
                raise
            except BaseException:
                print(f"criterion {num}: FAIL ({title})")
                raise
            print(f"criterion {num}: PASS ({title})")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Distance round-trips


@criterion(1, "distance round-trips")
def test_criterion_1_round_trips():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        tokens = [f"w{i}" for i in range(n)]
        t = random_binary_tree(tokens, rng)
        assert dist.latent_to_tree(dist.tree_to_latent(t), tokens) == t
        assert dist.gaps_to_tree(dist.tree_to_gaps(t), tokens) == t
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"round-trips took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Monotone invariance


@criterion(2, "monotone invariance of decoding")
def test_criterion_2_monotone_invariance():
    transforms = [lambda x: 2.0 * x + 3.0,
                  lambda x: x ** 3,
                  lambda x: np.exp(0.1 * x)]
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 26))
        tokens = [f"w{i}" for i in range(n)]
        t = random_binary_tree(tokens, rng)
        dl = np.array(dist.tree_to_latent(t))
        dg = np.array(dist.tree_to_gaps(t))
        base_l = dist.latent_to_tree(dl, tokens)
        base_g = dist.gaps_to_tree(dg, tokens)
        for f in transforms:
            assert dist.latent_to_tree(f(dl), tokens) == base_l
            assert dist.gaps_to_tree(f(dg), tokens) == base_g


# ---------------------------------------------------------------------------
# 3. Gradient check


def _labeled_random_tree(tokens, rng):
    if len(tokens) == 1:
        return tb.Leaf(tokens[0])
    k = int(rng.integers(1, len(tokens)))
    label = ("S", "NP", "VP")[int(rng.integers(0, 3))]
    return tb.Node(label, (_labeled_random_tree(tokens[:k], rng),
                           _labeled_random_tree(tokens[k:], rng)))


def _min_kink_margin(model, batch):
    """Distance from the nearest ReLU or hinge kink over a batch.

    Finite differences are only trustworthy when no activation or
    ranking margin sits close enough to a kink for the probe step to
    flip it."""
    margin = np.inf
    for ex in batch:
        fw = predictor.forward(model, ex.tokens)
        margin = min(margin, np.abs(fw.preact1).min(),
                     np.abs(fw.preact2).min(), np.abs(fw.gap_preact).min())
        for pred, gold in ((fw.gap, np.asarray(ex.dg)),
                           (fw.latent, np.asarray(ex.dl))):
            m = len(pred)
            if m < 2:
                continue
            sign = np.sign(gold[:, None] - gold[None, :])
            contributing = np.triu(np.ones((m, m), dtype=bool), 1) & (sign != 0)
            hinge = 1.0 - sign * (pred[:, None] - pred[None, :])
            if contributing.any():
                margin = min(margin, np.abs(hinge[contributing]).min())
    return margin


@criterion(3, "analytic gradients match finite differences")
def test_criterion_3_gradient_check():
    start = time.perf_counter()
    pool = [f"t{i}" for i in range(8)]  # vocab 10 with <pad> and <unk>
    config = TrainingConfig(l1=2, embed_dim=4, hidden_dim=6, alpha=0.5)

    model = batch = None
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cand = []
        for _ in range(3):
            n = int(rng.integers(3, 7))
            tokens = [pool[int(rng.integers(0, 8))] for _ in range(n)]
            cand.append(TrainExample.from_tree(_labeled_random_tree(tokens, rng)))
        vocab = Vocab.build([pool])
        m = DistancePredictor.create(vocab, config,
                                     labels=predictor.collect_labels(cand),
                                     )
        if _min_kink_margin(m, cand) >= 1e-3:
            model, batch = m, cand
            break
    assert model is not None, "no kink-free configuration found"
    assert len(model.vocab) == 10

    h = 1e-4
    exact, _ = predictor.gradients(model, batch, config.alpha)
    used_rows = sorted({0} | {int(i) for ex in batch
                              for i in model.vocab.encode(ex.tokens)})
    blocks = list(model.params.blocks())
    rng = np.random.default_rng(99)
    for point in range(20):
        name, arr = blocks[point % len(blocks)]
        if name == "embeddings":
            row = used_rows[int(rng.integers(0, len(used_rows)))]
            idx = row * arr.shape[1] + int(rng.integers(0, arr.shape[1]))
        else:
            idx = int(rng.integers(0, arr.size))
        old = arr.flat[idx]
        arr.flat[idx] = old + h
        _, loss_plus = predictor.gradients(model, batch, config.alpha)
        arr.flat[idx] = old - h
        _, loss_minus = predictor.gradients(model, batch, config.alpha)
        arr.flat[idx] = old
        fd = (loss_plus - loss_minus) / (2.0 * h)
        g = getattr(exact, name).flat[idx]
        rel = abs(fd - g) / max(abs(fd), abs(g), 1e-3)
        assert rel < 1e-4, f"{name}[{idx}]: fd={fd} exact={g} rel={rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_packed_batch_gradient_check():
    """Criterion 3's check on one packed batch that draws one example
    twice and holds a one-word sentence."""
    pool = [f"t{i}" for i in range(8)]
    config = TrainingConfig(l1=2, embed_dim=4, hidden_dim=6, alpha=0.5)
    vocab = Vocab.build([pool])

    model = batch = None
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cand = [TrainExample.from_tree(_labeled_random_tree(
            [pool[int(rng.integers(0, 8))] for _ in range(n)], rng))
            for n in (5, 1, 4)]
        m = DistancePredictor.create(vocab, config,
                                     labels=predictor.collect_labels(cand))
        # the one-word sentence has no gap and no ranked pair
        one = predictor.forward(m, cand[1].tokens)
        margin = min(_min_kink_margin(m, [cand[0], cand[2]]),
                     np.abs(one.preact1).min(), np.abs(one.preact2).min())
        if margin >= 1e-3:
            model, batch = m, cand + [cand[0]]
            break
    assert model is not None, "no kink-free configuration found"

    h = 1e-4
    exact, _ = predictor.gradients(model, batch, config.alpha)
    used_rows = sorted({0} | {int(i) for ex in batch
                              for i in model.vocab.encode(ex.tokens)})
    blocks = list(model.params.blocks())
    rng = np.random.default_rng(99)
    for point in range(20):
        name, arr = blocks[point % len(blocks)]
        if name == "embeddings":
            row = used_rows[int(rng.integers(0, len(used_rows)))]
            idx = row * arr.shape[1] + int(rng.integers(0, arr.shape[1]))
        else:
            idx = int(rng.integers(0, arr.size))
        old = arr.flat[idx]
        arr.flat[idx] = old + h
        _, loss_plus = predictor.gradients(model, batch, config.alpha)
        arr.flat[idx] = old - h
        _, loss_minus = predictor.gradients(model, batch, config.alpha)
        arr.flat[idx] = old
        fd = (loss_plus - loss_minus) / (2.0 * h)
        g = getattr(exact, name).flat[idx]
        rel = abs(fd - g) / max(abs(fd), abs(g), 1e-3)
        assert rel < 1e-4, f"{name}[{idx}]: fd={fd} exact={g} rel={rel}"


# ---------------------------------------------------------------------------
# 4. F1 oracle


def _oracle_spans(t):
    spans = set()

    def walk(node, start):
        if isinstance(node, tb.Leaf):
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end)
        if end - start >= 2:
            spans.add((start, end))
        return end

    walk(t, 0)
    return spans


def _oracle_f1(pred, gold):
    sp, sg = _oracle_spans(pred), _oracle_spans(gold)
    if not sp and not sg:
        return 100.0
    if not sp or not sg:
        return 0.0
    hits = len(sp & sg)
    p = hits / len(sp)
    r = hits / len(sg)
    if p + r == 0.0:
        return 0.0
    return 200.0 * p * r / (p + r)


@criterion(4, "bracket F1 against a brute-force oracle")
def test_criterion_4_f1_oracle():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(2, 16))
        tokens = [f"w{i}" for i in range(n)]
        pred = random_binary_tree(tokens, rng)
        gold = random_binary_tree(tokens, rng)
        assert metrics.sentence_f1(pred, gold) == pytest.approx(
            _oracle_f1(pred, gold), abs=1e-9)

    pred = tb.Node(None, (tb.Node(None, (tb.Leaf("a"), tb.Leaf("b"))),
                          tb.Node(None, (tb.Leaf("c"), tb.Leaf("d")))))
    gold = tb.Node(None, (tb.Leaf("a"),
                          tb.Node(None, (tb.Leaf("b"),
                                         tb.Node(None, (tb.Leaf("c"),
                                                        tb.Leaf("d")))))))
    assert metrics.sentence_f1(pred, gold) == pytest.approx(66.7, abs=0.1)


# ---------------------------------------------------------------------------
# 5. Overfit sanity


@criterion(5, "a small corpus can be memorized")
def test_criterion_5_overfit(toy_grammar):
    start = time.perf_counter()
    gold = [tb.binarize(t) for t in tb.gen_synthetic(toy_grammar, 50,
                                                     seed=7, max_len=12)]
    examples = [TrainExample.from_tree(t) for t in gold]
    config = TrainingConfig(lr=0.2, epochs=300, batch_size=16, seed=1,
                            alpha=1.0, mix_ratio=0.0)
    vocab = Vocab.build([ex.tokens for ex in examples])
    model = DistancePredictor.create(vocab, config,
                                     labels=predictor.collect_labels(examples))
    predictor.train(model, examples, [], config)

    exact = 0
    for t, ex in zip(gold, examples):
        decoded = predictor.predict_tree(model, ex.tokens, head="dg")
        if _oracle_spans(decoded) == _oracle_spans(t):
            exact += 1
    elapsed = time.perf_counter() - start
    assert exact >= 48, f"only {exact}/50 training trees reproduced"
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6 & 7. Self-training end to end (one shared run)


N_MEMBERS = 15
ST_PREDICTOR = TrainingConfig(lr=0.2, epochs=60, seed=3, alpha=0.5,
                              mix_ratio=1.0)


@pytest.fixture(scope="module")
def selftrain_run(toy_grammar, tmp_path_factory):
    train_gold = [tb.binarize(t)
                  for t in tb.gen_synthetic(toy_grammar, 1000, seed=101)]
    dev_gold = [tb.binarize(t)
                for t in tb.gen_synthetic(toy_grammar, 200, seed=202)]
    sentences = [tb.leaves(t) for t in train_gold]
    rows = simulated_ensemble(train_gold, N_MEMBERS, rate=0.3, seed=7)

    ens_dir = tmp_path_factory.mktemp("accept_ens")
    for k in range(N_MEMBERS):
        bank = tb.Treebank(tuple(row[k] for row in rows))
        tb.dump_trees(bank, ens_dir / f"member_{k}.trees")
    source = selftrain.DirectoryEnsemble(ens_dir)
    config = SelfTrainConfig(n_c=N_MEMBERS, mu=0.6, predictor=ST_PREDICTOR)

    start = time.perf_counter()
    result = selftrain.self_train(sentences, source, [], config,
                                  gold_parses=train_gold)
    elapsed = time.perf_counter() - start
    rerun = selftrain.self_train(sentences, source, [], config,
                                 gold_parses=train_gold)
    return {
        "result": result,
        "rerun": rerun,
        "elapsed": elapsed,
        "rows": rows,
        "train_gold": train_gold,
        "dev_gold": dev_gold,
        "sentences": sentences,
    }


@criterion(6, "self-training beats its inputs and its start")
def test_criterion_6_selftrain_end_to_end(selftrain_run):
    result = selftrain_run["result"]
    train_gold = selftrain_run["train_gold"]
    dev_gold = selftrain_run["dev_gold"]
    rows = selftrain_run["rows"]

    # (a) consensus filtering distills the ensemble
    member_f1 = []
    for k in range(N_MEMBERS):
        bank = tb.Treebank(tuple(row[k] for row in rows))
        member_f1.append(metrics.corpus_eval(
            bank, tb.Treebank(tuple(train_gold))).macro_f1)
    single_avg = float(np.mean(member_f1))
    assert result.silver, "silver set is empty"
    silver_f1 = float(np.mean([
        metrics.sentence_f1(ex.tree, train_gold[ex.index])
        for ex in result.silver]))
    assert silver_f1 >= single_avg + 5.0, (
        f"silver {silver_f1:.2f} vs single-member {single_avg:.2f}")

    # (b) the trained model beats an untrained one on held-out data
    untrained = DistancePredictor.create(
        Vocab.build(selftrain_run["sentences"]), ST_PREDICTOR, labels=None)

    def dev_f1(model):
        preds = [predictor.predict_tree(model, tb.leaves(t), head="dl")
                 for t in dev_gold]
        return metrics.corpus_eval(tb.Treebank(tuple(preds)),
                                   tb.Treebank(tuple(dev_gold))).macro_f1

    before, after = dev_f1(untrained), dev_f1(result.model)
    assert after >= before + 15.0, f"dev F1 {before:.2f} -> {after:.2f}"

    # determinism under the fixed seed
    rerun = selftrain_run["rerun"]
    assert [ex.record for ex in result.silver] == \
           [ex.record for ex in rerun.silver]
    for (name, a), (_, b) in zip(result.model.params.blocks(),
                                 rerun.model.params.blocks()):
        assert np.array_equal(a, b), f"parameter block {name} differs"

    assert selftrain_run["elapsed"] < 600.0, (
        f"self-training took {selftrain_run['elapsed']:.0f}s")
    print(f"  silver={silver_f1:.2f} members={single_avg:.2f} "
          f"dev {before:.2f}->{after:.2f}")


@criterion(7, "consensus F1 rises with agreement")
def test_criterion_7_agreement_trend(selftrain_run):
    rows = selftrain_run["result"].agreement_rows

    def weighted_avg(selected):
        total = sum(r.count for r in selected)
        assert total > 0, "no sentences in the selected agreement range"
        return sum(r.avg_f1 * r.count for r in selected) / total

    high = weighted_avg([r for r in rows if r.n_agree >= 12 and r.count])
    low = weighted_avg([r for r in rows if r.n_agree <= 3 and r.count])
    assert high > low, f"agreement>=12 {high:.2f} vs <=3 {low:.2f}"
    assert sum(r.count for r in rows) == 1000


# ---------------------------------------------------------------------------
# 8. Threshold arithmetic


@criterion(8, "admission threshold at the published operating point")
def test_criterion_8_threshold(toy_grammar):
    assert selftrain.admission_threshold(0.6, 15) == 9

    def all_binary(tokens):
        if len(tokens) == 1:
            yield tb.Leaf(tokens[0])
            return
        for k in range(1, len(tokens)):
            for left in all_binary(tokens[:k]):
                for right in all_binary(tokens[k:]):
                    yield tb.Node(None, (left, right))

    shapes = list(all_binary(tuple("abcde")))  # 14 distinct bracketings
    consensus, fillers = shapes[0], shapes[1:]
    config = SelfTrainConfig(n_c=15, mu=0.6)
    for n_a, admitted in ((8, False), (9, True), (10, True)):
        parses = [consensus] * n_a + fillers[:15 - n_a]
        silver = selftrain.build_silver(tallies([parses]), config)
        assert bool(len(silver)) is admitted, f"n_a={n_a}"
        if admitted:
            assert silver.examples[0].agreement == n_a


# ---------------------------------------------------------------------------
# 9. External treebank baselines (conditional)


@criterion(9, "published baseline F1 on an external treebank")
def test_criterion_9_external_treebank():
    path = os.environ.get("DISTPARSE_PTB_GOLD")
    if not path:
        pytest.skip("set DISTPARSE_PTB_GOLD to a gold tree file (WSJ test "
                    "section) to run the baseline reproduction")
    gold = tb.load_trees(path)
    rng = np.random.default_rng(0)
    expectations = (
        ("left-branching", lambda s: tb.left_branching(s), 13.1),
        ("right-branching", lambda s: tb.right_branching(s), 16.5),
        ("random", lambda s: random_binary_tree(s, rng), 21.4),
    )
    for name, build, expected in expectations:
        preds = tb.Treebank(tuple(build(tb.leaves(t)) for t in gold))
        got = metrics.corpus_eval(preds, gold).macro_f1
        print(f"  {name}: {got:.1f} (expected {expected} +- 1.0)")
        assert got == pytest.approx(expected, abs=1.0), name
