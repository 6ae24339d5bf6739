"""The distance predictor: forward pass, losses, gradients, training."""

import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from distparse import distance as dist
from distparse import predictor as pr
from distparse import treebank as tb

from conftest import random_binary_tree


# ---------------------------------------------------------------------------
# Hand-built tiny network: vocab {x, y}, embed 2, hidden 3, windows of 2.
# Every expected number below was worked out by hand from these weights.


def tiny_model(labels=None, label_w=None, label_b=None):
    vocab = pr.Vocab.build([("x", "y")])  # pad=0 unk=1 x=2 y=3
    params = pr.PredictorParams(
        embeddings=np.array([[0.5, -1.0],     # <pad>
                             [9.0, 9.0],      # <unk>, unused here
                             [1.0, 2.0],      # x
                             [-1.0, 0.5]]),   # y
        conv1_w=np.array([[0.1, 0.2, 0.3, 0.4],
                          [-0.5, 0.5, 1.0, -1.0],
                          [1.0, 0.0, 0.0, 1.0]]),
        conv1_b=np.array([0.1, -0.2, 0.3]),
        conv2_w=np.array([0.2, -0.1, 0.5, 1.0, 0.3, -0.5]),
        conv2_b=np.array([-0.05]),
        gap_w=np.array([1.0, -1.0, 0.5]),
        gap_b=np.array([0.25]),
        label_w=label_w,
        label_b=label_b,
    )
    return pr.DistancePredictor(vocab=vocab, params=params, l1=1, l2=1,
                                labels=labels)


def rand_model(seed=0, labels=None, tokens=("alpha", "beta", "gamma")):
    config = pr.TrainingConfig(l1=2, embed_dim=5, hidden_dim=7, seed=seed)
    vocab = pr.Vocab.build([tokens])
    return pr.DistancePredictor.create(vocab, config, labels=labels)


# ---------------------------------------------------------------------------
# Vocab and config


def test_vocab_reserved_ids_and_sorted_rest():
    v = pr.Vocab.build([("the", "cat"), ("a", "cat")])
    assert v.tokens == ("<pad>", "<unk>", "a", "cat", "the")
    assert list(v.encode(["cat", "never-seen", "a"])) == [3, 1, 2]


def test_vocab_requires_reserved_prefix():
    with pytest.raises(ValueError):
        pr.Vocab(("a", "b"))


def test_config_validation():
    with pytest.raises(ValueError):
        pr.TrainingConfig(alpha=1.5)
    with pytest.raises(ValueError):
        pr.TrainingConfig(mix_ratio=-0.1)
    assert pr.TrainingConfig(l1=3).l2 == 3
    assert pr.TrainingConfig(l1=3, l2=1).l2 == 1


@pytest.mark.parametrize("field, value, message", [
    ("tie_policy", "middle", "tie_policy must be 'left' or 'right'"),
    ("l1", -2, "l1 must be at least 0"),
    ("l2", -1, "l2 must be at least 0"),
    ("embed_dim", 0, "embed_dim must be at least 1"),
    ("hidden_dim", -3, "hidden_dim must be at least 1"),
    ("epochs", 0, "epochs must be at least 1"),
    ("batch_size", 0, "batch_size must be at least 1"),
    ("lr", float("nan"), "lr must be positive"),
    ("lr", 0.0, "lr must be positive"),
    ("lr", -0.5, "lr must be positive"),
])
def test_config_rejects_bad_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        pr.TrainingConfig(**{field: value})


def test_create_counts_every_parameter_against_the_limit(monkeypatch):
    vocab = pr.Vocab.build([["a", "b", "c"]])
    cfg = pr.TrainingConfig(l1=2, l2=1, embed_dim=5, hidden_dim=7)
    m = pr.DistancePredictor.create(vocab, cfg, labels=("NP", "S"))
    size = sum(arr.size for _, arr in m.params.blocks())
    monkeypatch.setattr(pr, "MAX_PARAMETERS", size)
    pr.DistancePredictor.create(vocab, cfg, labels=("NP", "S"))
    monkeypatch.setattr(pr, "MAX_PARAMETERS", size - 1)
    with pytest.raises(ValueError, match=f"model would have {size:,} "):
        pr.DistancePredictor.create(vocab, cfg, labels=("NP", "S"))


def test_create_rejects_an_oversize_model_before_allocating():
    cfg = pr.TrainingConfig(hidden_dim=100_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the limit"):
            pr.DistancePredictor.create(pr.Vocab.build([["a"]]), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_config_accepts_zero_context():
    cfg = pr.TrainingConfig(l1=0, l2=0, tie_policy="right")
    assert (cfg.l1, cfg.l2, cfg.tie_policy) == (0, 0, "right")


def test_load_config_file(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("# comment\n"
                 "alpha = 0.25\n"
                 "lr=0.1   # trailing comment\n"
                 "epochs = 7\n"
                 "l2 = none\n"
                 "tie_policy = right\n")
    got = pr.load_config(p)
    assert got == {"alpha": 0.25, "lr": 0.1, "epochs": 7, "l2": None,
                   "tie_policy": "right"}
    cfg = pr.TrainingConfig(**got)
    assert cfg.alpha == 0.25 and cfg.epochs == 7


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        pr.load_config(p)


def test_load_config_rejects_bare_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("alpha\n")
    with pytest.raises(ValueError, match="key=value"):
        pr.load_config(p)


# ---------------------------------------------------------------------------
# Forward pass


def test_forward_all_zero_params():
    m = rand_model()
    zero = pr.DistancePredictor(vocab=m.vocab,
                                params=m.params.zeros_like(),
                                l1=m.l1, l2=m.l2)
    fw = pr.forward(zero, ("alpha", "beta", "gamma"))
    assert not fw.hidden.any()
    assert not fw.latent.any()
    assert not fw.gap.any()


def test_forward_single_word_shapes():
    fw = pr.forward(rand_model(), ("alpha",))
    assert fw.latent.shape == (1,)
    assert fw.gap.shape == (0,)


def test_forward_shapes_all_lengths():
    m = rand_model()
    for n in range(1, 9):
        fw = pr.forward(m, ("alpha",) * n)
        assert fw.latent.shape == (n,)
        assert fw.gap.shape == (n - 1,)
        assert fw.hidden.shape == (n, 7)
        assert (fw.latent >= 0).all() and (fw.gap >= 0).all()


def test_forward_matches_hand_computation():
    fw = pr.forward(tiny_model(), ("x", "y"))
    # window 0 sees (<pad>, x), window 1 sees (x, y)
    assert np.allclose(fw.hidden,
                       [[1.05, 0.0, 2.8], [0.5, 0.0, 1.8]], atol=1e-12)
    assert np.allclose(fw.gap, [1.65], atol=1e-12)
    assert np.allclose(fw.preact2, [-0.4, 1.16], atol=1e-12)
    assert np.allclose(fw.latent, [0.0, 1.16], atol=1e-12)


def test_forward_third_word_window_wraps_sentence_only():
    fw = pr.forward(tiny_model(), ("x", "y", "x"))
    assert np.allclose(fw.hidden[2], [1.2, 0.0, 1.3], atol=1e-12)


def test_forward_rejects_empty_sentence():
    with pytest.raises(ValueError):
        pr.forward(tiny_model(), ())


# ---------------------------------------------------------------------------
# Ranking loss


def test_rank_loss_worked_example():
    loss, grad = pr.rank_loss_with_grad(np.array([0.1, 0.9]),
                                        np.array([2.0, 1.0]))
    assert loss == pytest.approx(1.8)
    assert np.allclose(grad, [-1.0, 1.0])


def test_rank_loss_zero_at_hinge_floor():
    assert pr.rank_loss(np.array([3.0, 1.0]), np.array([2.0, 1.0])) == 0.0


def test_rank_loss_ignores_tied_gold():
    loss, grad = pr.rank_loss_with_grad(np.array([5.0, -5.0, 0.0]),
                                        np.array([1.0, 1.0, 1.0]))
    assert loss == 0.0
    assert not grad.any()


def test_rank_loss_normalizes_by_contributing_pairs():
    # gold ties skip pair (0,1); the two live pairs each sit at margin 1
    loss = pr.rank_loss(np.array([0.0, 0.0, 0.0]),
                        np.array([1.0, 1.0, 2.0]))
    assert loss == pytest.approx(1.0)


def test_rank_loss_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        pred = rng.normal(size=n)
        gold = rng.integers(0, 4, size=n).astype(float)
        base = pr.rank_loss(pred, gold)
        assert pr.rank_loss(pred + 17.5, gold) == pytest.approx(base,
                                                                rel=1e-12)


def test_rank_loss_zero_when_ordering_matches_with_margin():
    gold = np.array([4.0, 2.0, 7.0, 2.0])
    pred = gold * 3.0  # same strict order, margins >= 1
    assert pr.rank_loss(pred, gold) == 0.0


def test_rank_loss_length_mismatch():
    with pytest.raises(ValueError):
        pr.rank_loss(np.array([1.0]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Combined distance loss


def test_distance_loss_hand_values():
    m = tiny_model()
    # latent head gives [0, 1.16]; a decreasing gold ordering puts the
    # pair at margin 1 + 1.16; the lone gap value contributes no pairs
    ex = pr.TrainExample(tokens=("x", "y"),
                         dl=np.array([100.0, 1.0]),
                         dg=np.array([5.0]))
    assert pr.distance_loss(m, ex, alpha=0.0) == pytest.approx(2.16)
    assert pr.distance_loss(m, ex, alpha=1.0) == 0.0
    assert pr.distance_loss(m, ex, alpha=0.5) == pytest.approx(1.08)


def test_distance_loss_endpoints_and_linearity():
    m = rand_model(seed=3)
    rng = np.random.default_rng(1)
    t = random_binary_tree(["alpha", "beta", "gamma", "alpha"], rng)
    ex = pr.TrainExample.from_tree(t)
    fw = pr.forward(m, ex.tokens)
    gap_l = pr.rank_loss(fw.gap, ex.dg)
    latent_l = pr.rank_loss(fw.latent, ex.dl)
    assert pr.distance_loss(m, ex, 1.0) == pytest.approx(gap_l)
    assert pr.distance_loss(m, ex, 0.0) == pytest.approx(latent_l)
    for a in (0.25, 0.5, 0.8):
        want = a * gap_l + (1 - a) * latent_l
        assert pr.distance_loss(m, ex, a) == pytest.approx(want, rel=1e-12)


def test_distance_loss_convex_combination_arithmetic():
    # components (0.4, 0.8) at alpha 0.5 must blend to 0.6
    assert 0.5 * 0.4 + (1 - 0.5) * 0.8 == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Label head


LABELS = ("<unk-label>", "NP", "S")


def labeled_tiny(label_w, label_b):
    return tiny_model(labels=LABELS, label_w=np.asarray(label_w, dtype=float),
                      label_b=np.asarray(label_b, dtype=float))


def span_tree():
    # two multi-word constituents: NP over (0,2), S over (0,3)
    return tb.Node("S", (tb.Node("NP", (tb.Leaf("x"), tb.Leaf("y"))),
                         tb.Leaf("x")))


def test_label_loss_uniform_logits():
    m = labeled_tiny(np.zeros((3, 3)), np.zeros(3))
    ex = pr.TrainExample.from_tree(span_tree())
    assert pr.label_loss(m, ex) == pytest.approx(math.log(3), abs=1e-12)


def test_label_loss_confident_one_hot():
    m = labeled_tiny(np.zeros((3, 3)), [0.0, 50.0, 0.0])
    t = tb.Node("NP", (tb.Leaf("x"), tb.Leaf("y")))
    ex = pr.TrainExample.from_tree(t)
    assert pr.label_loss(m, ex) < 1e-12


def test_label_loss_two_span_hand_computation():
    m = labeled_tiny([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.5],
                      [-0.5, 0.0, 1.0]],
                     [0.0, -1.0, 0.5])
    ex = pr.TrainExample.from_tree(span_tree())
    # span (0,2): mean h = [0.775, 0, 2.3], logits [0, 0.925, 2.4125]
    np_logits = [0.0, 0.925, 2.4125]
    ce_np = math.log(sum(math.exp(z) for z in np_logits)) - 0.925
    # span (0,3): mean h = [2.75/3, 0, 5.9/3], logits [0, 0.9, 6.025/3]
    s_logits = [0.0, 0.9, 6.025 / 3]
    ce_s = math.log(sum(math.exp(z) for z in s_logits)) - 6.025 / 3
    assert pr.label_loss(m, ex) == pytest.approx((ce_np + ce_s) / 2,
                                                 abs=1e-10)


def test_label_id_mapping():
    m = labeled_tiny(np.zeros((3, 3)), np.zeros(3))
    assert m.label_id("NP") == 1
    assert m.label_id("S") == 2
    assert m.label_id("NEVER-SEEN") == 0
    assert m.label_id(None) == 0


def test_unknown_labels_counted(caplog):
    m = labeled_tiny(np.zeros((3, 3)), np.zeros(3))
    weird = tb.Node("WEIRD", (tb.Leaf("x"), tb.Leaf("y")))
    spans, unknown = pr.gold_label_spans(m, weird)
    assert spans == [(0, 2, 0)]
    assert unknown == 1
    # train sums the same count while it encodes the gold set
    with caplog.at_level(logging.WARNING, logger=pr.log.name):
        pr.train(m, [pr.TrainExample.from_tree(weird)], [],
                 pr.TrainingConfig(epochs=1, batch_size=1))
    assert "1 gold constituents carry labels outside" in caplog.text


def test_label_loss_requires_head_and_tree():
    with pytest.raises(ValueError):
        pr.label_loss(tiny_model(), pr.TrainExample.from_tree(span_tree()))
    m = labeled_tiny(np.zeros((3, 3)), np.zeros(3))
    ex = pr.TrainExample(tokens=("x", "y"), dl=np.array([1.0, 100.0]),
                         dg=np.array([1.0]))
    with pytest.raises(ValueError):
        pr.label_loss(m, ex)


def test_collect_labels():
    trees = [tb.binarize(tb.parse_tree("(S (NP a b) (VP c d e))"))]
    examples = [pr.TrainExample.from_tree(t) for t in trees]
    # binarization marks ("VP|") normalize back to the base label
    assert pr.collect_labels(examples) == ["NP", "S", "VP"]
    bare = [pr.TrainExample(tokens=("a",), dl=np.array([1.0]),
                            dg=np.array([]))]
    assert pr.collect_labels(bare) is None


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_zero_loss_batch():
    m = tiny_model()
    # latent [0, 1.16] already orders gold [1, 100] with margin > 1
    ex = pr.TrainExample(tokens=("x", "y"), dl=np.array([1.0, 100.0]),
                         dg=np.array([1.0]))
    grads, loss = pr.gradients(m, [ex], alpha=0.5, use_labels=False)
    assert loss == 0.0
    for _name, arr in grads.blocks():
        assert not arr.any()


def test_gradients_mean_over_identical_pair():
    m = rand_model(seed=5)
    rng = np.random.default_rng(2)
    ex = pr.TrainExample.from_tree(
        random_binary_tree(["alpha", "beta", "gamma"], rng))
    one, loss_one = pr.gradients(m, [ex], alpha=0.5, use_labels=False)
    two, loss_two = pr.gradients(m, [ex, ex], alpha=0.5, use_labels=False)
    assert loss_two == loss_one
    for (name, a), (_, b) in zip(one.blocks(), two.blocks()):
        assert np.array_equal(a, b), name


def test_gradients_loss_matches_loss_functions():
    m = rand_model(seed=6, labels=("NP", "S"))
    rng = np.random.default_rng(3)
    t = random_binary_tree(["alpha", "beta", "gamma", "beta"], rng,
                           label="NP")
    ex = pr.TrainExample.from_tree(t)
    _, loss = pr.gradients(m, [ex], alpha=0.3, use_labels=False)
    assert loss == pytest.approx(pr.distance_loss(m, ex, 0.3))
    _, with_labels = pr.gradients(m, [ex], alpha=0.3, use_labels=True)
    assert with_labels == pytest.approx(
        pr.distance_loss(m, ex, 0.3) + pr.label_loss(m, ex))


def test_gradients_reject_empty_batch():
    with pytest.raises(ValueError):
        pr.gradients(tiny_model(), [], alpha=0.5)


def test_gradients_nan_names_a_block():
    m = rand_model(seed=7)
    m.params.embeddings[2, 0] = np.nan
    rng = np.random.default_rng(4)
    ex = pr.TrainExample.from_tree(
        random_binary_tree(["alpha", "beta"], rng))
    with pytest.raises(RuntimeError, match="parameter block '\\w+'"):
        pr.gradients(m, [ex], alpha=0.5, use_labels=False)


# ---------------------------------------------------------------------------
# Training loop


def small_corpus(n=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(2, 6))
        tokens = [["alpha", "beta", "gamma"][int(rng.integers(0, 3))]
                  for _ in range(k)]
        out.append(pr.TrainExample.from_tree(random_binary_tree(tokens, rng)))
    return out

TINY_TRAIN = pr.TrainingConfig(l1=1, embed_dim=4, hidden_dim=5, lr=0.05,
                               epochs=4, batch_size=3, seed=11)


def test_train_trace_shape_and_progress():
    gold = small_corpus()
    m = rand_model(seed=1)
    trace = pr.train(m, gold, [], TINY_TRAIN)
    assert len(trace) == TINY_TRAIN.epochs
    assert all(math.isfinite(x) for x in trace)


def test_train_deterministic_under_seed():
    gold = small_corpus()
    m1 = rand_model(seed=1)
    m2 = rand_model(seed=1)
    t1 = pr.train(m1, gold, [], TINY_TRAIN)
    t2 = pr.train(m2, gold, [], TINY_TRAIN)
    assert t1 == t2  # bitwise, not approx
    for (name, a), (_, b) in zip(m1.params.blocks(), m2.params.blocks()):
        assert np.array_equal(a, b), name


def test_train_seed_changes_trajectory():
    gold = small_corpus()
    m1 = rand_model(seed=1)
    m2 = rand_model(seed=1)
    pr.train(m1, gold, [], TINY_TRAIN)
    pr.train(m2, gold, [], pr.TrainingConfig(
        l1=1, embed_dim=4, hidden_dim=5, lr=0.05, epochs=4, batch_size=3,
        seed=12))
    assert any(not np.array_equal(a, b)
               for (_, a), (_, b) in zip(m1.params.blocks(),
                                         m2.params.blocks()))


def test_train_empty_silver_equals_pure_gold():
    # with no silver examples the mixing probability is irrelevant
    gold = small_corpus()
    traces = []
    models = []
    for mix in (0.0, 0.75):
        m = rand_model(seed=1)
        cfg = pr.TrainingConfig(l1=1, embed_dim=4, hidden_dim=5, lr=0.05,
                                epochs=4, batch_size=3, seed=11,
                                mix_ratio=mix)
        traces.append(pr.train(m, gold, [], cfg))
        models.append(m)
    assert traces[0] == traces[1]
    for (name, a), (_, b) in zip(models[0].params.blocks(),
                                 models[1].params.blocks()):
        assert np.array_equal(a, b), name


def test_train_silver_only():
    silver = small_corpus(seed=9)
    for ex in silver:
        ex.tree = None
    m = rand_model(seed=2)
    trace = pr.train(m, [], silver, TINY_TRAIN)
    assert len(trace) == TINY_TRAIN.epochs


def test_train_both_empty_rejected():
    with pytest.raises(ValueError):
        pr.train(rand_model(), [], [], TINY_TRAIN)


def test_train_detects_divergence():
    gold = small_corpus()
    m = rand_model(seed=1)
    cfg = pr.TrainingConfig(l1=1, embed_dim=4, hidden_dim=5,
                            lr=float("inf"), epochs=2, batch_size=3, seed=11)
    with np.errstate(invalid="ignore"):  # inf * 0 in the doomed update
        with pytest.raises(RuntimeError, match="non-finite"):
            pr.train(m, gold, [], cfg)


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_bit_exact(tmp_path):
    m = rand_model(seed=4, labels=("NP", "S"))
    path = tmp_path / "model.npz"
    m.save(path)
    back = pr.DistancePredictor.load(path)
    assert back.vocab.tokens == m.vocab.tokens
    assert (back.l1, back.l2) == (m.l1, m.l2)
    assert back.labels == ("<unk-label>", "NP", "S")
    for (name, a), (_, b) in zip(m.params.blocks(), back.params.blocks()):
        assert np.array_equal(a, b), name
    tokens = ("alpha", "gamma", "beta", "beta")
    assert pr.predict_tree(back, tokens) == pr.predict_tree(m, tokens)


def test_load_rejects_unknown_format_version(tmp_path):
    m = rand_model(seed=4)
    path = tmp_path / "model.npz"
    m.save(path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["format_version"] = 99
    arrays["meta"] = np.array(json.dumps(meta))
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="format"):
        pr.DistancePredictor.load(bad)


# ---------------------------------------------------------------------------
# Decoding


def test_predict_single_token_is_leaf():
    assert pr.predict_tree(rand_model(), ("alpha",)) == tb.Leaf("alpha")


def test_predict_untrained_model_is_total():
    m = rand_model(seed=8)
    tokens = ("alpha", "beta", "gamma", "alpha", "beta")
    for head in ("dl", "dg"):
        t = pr.predict_tree(m, tokens, head=head)
        assert tb.is_binary(t)
        assert tuple(tb.leaves(t)) == tokens


def test_predict_unknown_head_rejected():
    with pytest.raises(ValueError):
        pr.predict_tree(rand_model(), ("alpha", "beta"), head="both")


def test_predict_annotate_needs_label_head():
    with pytest.raises(ValueError):
        pr.predict_tree(rand_model(), ("alpha", "beta"), annotate=True)


def test_predict_annotate_assigns_known_labels():
    m = rand_model(seed=9, labels=("NP", "S"))
    t = pr.predict_tree(m, ("alpha", "beta", "gamma"), annotate=True)

    def labels_of(node):
        if isinstance(node, tb.Leaf):
            return
        assert node.label in m.labels
        for c in node.children:
            labels_of(c)

    labels_of(t)
