"""The packed forward and backward pass against per-sentence references.

Training runs one packed pass per minibatch and parsing runs its forward
over chunks of sentences (``predictor.forward_packed``).  The references
below are the per-sentence forward, ranking loss and backward pass they
replaced.  Packing reorders float sums, so every property compares within
a tolerance fixed from float64 rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distparse import predictor as pr
from distparse import treebank as tb

from conftest import random_binary_tree

FEW = settings(max_examples=40, deadline=None)
POOL = ("alpha", "beta", "gamma", "delta")
LABELS = ("NP", "S", "VP")


# ---------------------------------------------------------------------------
# Reference per-sentence pass


def ref_forward(model, tokens):
    p = model.params
    ids = model.vocab.encode(tokens)
    n = len(ids)
    nh = p.conv1_w.shape[0]
    x = p.embeddings[ids]
    xpad = np.vstack([np.tile(p.embeddings[0], (model.l1, 1)), x])
    win1 = np.stack([xpad[i:i + model.l1 + 1].reshape(-1) for i in range(n)])
    preact1 = win1 @ p.conv1_w.T + p.conv1_b
    hidden = np.maximum(preact1, 0.0)
    hpad = np.vstack([np.zeros((model.l2, nh)), hidden])
    win2 = np.stack([hpad[i:i + model.l2 + 1].reshape(-1) for i in range(n)])
    preact2 = win2 @ p.conv2_w + p.conv2_b[0]
    gap_preact = hidden[1:] @ p.gap_w + p.gap_b[0]
    return dict(ids=ids, win1=win1, preact1=preact1, hidden=hidden,
                win2=win2, preact2=preact2, latent=np.maximum(preact2, 0.0),
                gap_preact=gap_preact, gap=np.maximum(gap_preact, 0.0))


def ref_rank_loss_with_grad(pred, gold):
    m = len(pred)
    if m < 2:
        return 0.0, np.zeros_like(pred)
    sign = np.sign(gold[:, None] - gold[None, :])
    contributing = np.triu(np.ones((m, m), dtype=bool), k=1) & (sign != 0)
    count = int(contributing.sum())
    if count == 0:
        return 0.0, np.zeros_like(pred)
    margin = 1.0 - sign * (pred[:, None] - pred[None, :])
    active = contributing & (margin > 0)
    signed_active = np.where(active, sign, 0.0)
    grad = (signed_active.sum(axis=0) - signed_active.sum(axis=1)) / count
    return float(margin[active].sum()) / count, grad


def ref_backward(model, example, alpha, grads, use_labels):
    p = model.params
    fw = ref_forward(model, example.tokens)
    n = len(fw["ids"])
    nh = p.conv1_w.shape[0]
    de = p.embeddings.shape[1]

    gap_l, d_gap = ref_rank_loss_with_grad(fw["gap"], example.dg)
    latent_l, d_latent = ref_rank_loss_with_grad(fw["latent"], example.dl)
    loss = alpha * gap_l + (1.0 - alpha) * latent_l
    d_gap = alpha * d_gap
    d_latent = (1.0 - alpha) * d_latent
    d_hidden = np.zeros_like(fw["hidden"])

    d_gap_pre = d_gap * (fw["gap_preact"] > 0)
    if n > 1:
        grads.gap_w += fw["hidden"][1:].T @ d_gap_pre
        grads.gap_b += d_gap_pre.sum(keepdims=True)
        d_hidden[1:] += np.outer(d_gap_pre, p.gap_w)

    d_pre2 = d_latent * (fw["preact2"] > 0)
    grads.conv2_w += fw["win2"].T @ d_pre2
    grads.conv2_b += np.array([d_pre2.sum()])
    d_win2 = np.outer(d_pre2, p.conv2_w)
    d_hpad = np.zeros((n + model.l2, nh))
    for i in range(n):
        d_hpad[i:i + model.l2 + 1] += d_win2[i].reshape(model.l2 + 1, nh)
    d_hidden += d_hpad[model.l2:]

    if use_labels and model.labels is not None and example.tree is not None:
        spans, _ = pr.gold_label_spans(model, example.tree)
        if spans:
            lab_total = 0.0
            for start, end, lab in spans:
                mean_h = fw["hidden"][start:end].mean(axis=0)
                z = p.label_w @ mean_h + p.label_b
                probs = np.exp(z - z.max())
                probs /= probs.sum()
                lab_total -= math.log(max(probs[lab], 1e-300))
                d_logits = probs.copy()
                d_logits[lab] -= 1.0
                d_logits /= len(spans)
                grads.label_w += np.outer(d_logits, mean_h)
                grads.label_b += d_logits
                d_hidden[start:end] += (p.label_w.T @ d_logits) / (end - start)
            loss += lab_total / len(spans)

    d_pre1 = d_hidden * (fw["preact1"] > 0)
    grads.conv1_w += d_pre1.T @ fw["win1"]
    grads.conv1_b += d_pre1.sum(axis=0)
    d_win1 = d_pre1 @ p.conv1_w
    d_xpad = np.zeros((n + model.l1, de))
    for i in range(n):
        d_xpad[i:i + model.l1 + 1] += d_win1[i].reshape(model.l1 + 1, de)
    grads.embeddings[0] += d_xpad[:model.l1].sum(axis=0)
    np.add.at(grads.embeddings, fw["ids"], d_xpad[model.l1:])
    return loss


def ref_gradients(model, batch, alpha, use_labels):
    grads = model.params.zeros_like()
    total = sum(ref_backward(model, ex, alpha, grads, use_labels)
                for ex in batch)
    for _, arr in grads.blocks():
        arr /= len(batch)
    return grads, total / len(batch)


# ---------------------------------------------------------------------------
# Builders


def make_model(seed, l1, l2, labeled):
    config = pr.TrainingConfig(l1=l1, l2=l2, embed_dim=5, hidden_dim=7,
                               seed=seed)
    # biases away from zero so that few ReLUs sit dead at every word
    model = pr.DistancePredictor.create(pr.Vocab.build([POOL]), config,
                                        labels=LABELS if labeled else None)
    model.params.conv1_b[:] = 0.3
    model.params.conv2_b[:] = 0.2
    return model


def labeled_tree(tokens, rng):
    t = random_binary_tree(tokens, rng)
    rebuilt = {}
    for _start, _end, node in tb.spans(t):
        label = LABELS[int(rng.integers(0, len(LABELS)))]
        rebuilt[id(node)] = tb.Node(
            label, tuple(rebuilt.get(id(c), c) for c in node.children))
    return rebuilt.get(id(t), t)


def make_batch(seed, lengths, duplicates):
    """Examples of the given lengths, some without a gold tree, plus
    repeated draws of the same objects, shuffled."""
    rng = np.random.default_rng(seed)
    examples = []
    for n in lengths:
        tokens = [POOL[int(rng.integers(0, len(POOL)))] for _ in range(n)]
        ex = pr.TrainExample.from_tree(labeled_tree(tokens, rng))
        if rng.random() < 0.3:
            ex.tree = None
        examples.append(ex)
    batch = examples + [examples[int(rng.integers(0, len(examples)))]
                        for _ in range(duplicates)]
    return [batch[i] for i in rng.permutation(len(batch))]


def assert_grads_close(a, b, atol):
    for (name, x), (_, y) in zip(a.blocks(), b.blocks()):
        np.testing.assert_allclose(x, y, rtol=0, atol=atol, err_msg=name)


batches = dict(
    seed=st.integers(0, 2**16),
    l1=st.integers(0, 3),
    l2=st.integers(0, 3),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    duplicates=st.integers(0, 3),
    labeled=st.booleans(),
    use_labels=st.booleans(),
)


# ---------------------------------------------------------------------------
# Properties


@FEW
@given(alpha=st.sampled_from([0.0, 0.3, 1.0]), **batches)
def test_packed_gradients_match_reference(seed, l1, l2, lengths, duplicates,
                                          labeled, use_labels, alpha):
    model = make_model(seed, l1, l2, labeled)
    batch = make_batch(seed, lengths, duplicates)
    got, loss = pr.gradients(model, batch, alpha, use_labels)
    want, want_loss = ref_gradients(model, batch, alpha, use_labels)
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-10)
    assert_grads_close(got, want, atol=1e-10)


@FEW
@given(**batches)
def test_permuting_a_batch_moves_no_gradient(seed, l1, l2, lengths,
                                             duplicates, labeled, use_labels):
    model = make_model(seed, l1, l2, labeled)
    batch = make_batch(seed, lengths, duplicates)
    order = np.random.default_rng(seed + 1).permutation(len(batch))
    base, loss = pr.gradients(model, batch, 0.5, use_labels)
    moved, moved_loss = pr.gradients(model, [batch[i] for i in order], 0.5,
                                     use_labels)
    assert moved_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert_grads_close(moved, base, atol=1e-12)


@FEW
@given(seed=st.integers(0, 2**16), l1=st.integers(0, 3), l2=st.integers(0, 3),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_chunk_forward_equals_single_forwards(seed, l1, l2, lengths):
    model = make_model(seed, l1, l2, labeled=False)
    rng = np.random.default_rng(seed)
    sentences = [tuple(POOL[int(rng.integers(0, len(POOL)))]
                       for _ in range(n)) for n in lengths]
    chunk = pr.forward_packed(model, [model.vocab.encode(s)
                                      for s in sentences])
    for b, tokens in enumerate(sentences):
        got = chunk.sentence(b)
        single = pr.forward(model, tokens)
        ref = ref_forward(model, tokens)
        for name in ("preact1", "hidden", "preact2", "latent", "gap_preact",
                     "gap"):
            for want in (getattr(single, name), ref[name]):
                np.testing.assert_allclose(getattr(got, name), want, rtol=0,
                                           atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# Examples


def test_rank_loss_is_the_one_sentence_case():
    rng = np.random.default_rng(0)
    for n in range(0, 12):
        pred = rng.normal(size=n)
        gold = rng.integers(0, 3, size=n).astype(float)
        loss, grad = pr.rank_loss_with_grad(pred, gold)
        want_loss, want_grad = ref_rank_loss_with_grad(pred, gold)
        assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


def test_forward_rejects_empty_sentence_in_batch():
    model = make_model(0, 1, 1, labeled=False)
    with pytest.raises(ValueError, match="empty sentence"):
        pr.forward_packed(model, [model.vocab.encode(["alpha"]),
                                  model.vocab.encode([])])


def test_predict_trees_matches_one_at_a_time(monkeypatch):
    model = make_model(5, 2, 2, labeled=True)
    rng = np.random.default_rng(5)
    sentences = [tuple(POOL[int(rng.integers(0, len(POOL)))]
                       for _ in range(int(rng.integers(1, 30))))
                 for _ in range(12)]
    monkeypatch.setattr(pr, "PARSE_CHUNK_TOKENS", 40)  # several chunks
    assert len(list(pr._chunks(sentences, pr.PARSE_CHUNK_TOKENS))) > 2
    for head in ("dl", "dg"):
        got = pr.predict_trees(model, sentences, head=head, annotate=True)
        assert got == [pr.predict_tree(model, s, head=head, annotate=True)
                       for s in sentences]
