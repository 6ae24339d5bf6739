"""Trainable distance predictor.

A window convolution over word embeddings produces hidden states; a
linear head on each hidden state scores the gap to the word's left, and
a second window convolution over the hidden states scores each word's
latent distance.  An optional linear head over span-mean hidden states
classifies constituent labels.

Everything is plain numpy with hand-written reverse-mode gradients so
that every update is auditable and checkable against finite differences.
Distances are trained with a pairwise hinge ranking loss: only the
relative order of the values matters for decoding, so the loss penalizes
pairs predicted in the wrong order with margin 1.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import distance, treebank
from .treebank import Tree

log = logging.getLogger(__name__)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
UNK_LABEL = "<unk-label>"


@dataclass(frozen=True)
class Vocab:
    """Dense token -> id map with reserved padding and unknown ids."""

    tokens: tuple

    def __post_init__(self):
        if self.tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
            raise ValueError("vocab must start with the reserved tokens")
        object.__setattr__(self, "_index",
                           {tok: i for i, tok in enumerate(self.tokens)})

    @classmethod
    def build(cls, sentences) -> "Vocab":
        seen = set()
        for sent in sentences:
            seen.update(sent)
        seen.discard(PAD_TOKEN)
        seen.discard(UNK_TOKEN)
        return cls((PAD_TOKEN, UNK_TOKEN) + tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self._index[UNK_TOKEN]
        return np.array([self._index.get(t, unk) for t in tokens], dtype=np.int64)


@dataclass
class TrainingConfig:
    alpha: float = 0.5        # weight of the gap-distance ranking loss
    l1: int = 4               # first window reaches l1 words left of center
    l2: Optional[int] = None  # second window size; defaults to l1
    embed_dim: int = 100
    hidden_dim: int = 300
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0
    mix_ratio: float = 0.5    # probability of drawing a silver batch
    tie_policy: str = "left"

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in [0, 1]")
        if self.l2 is None:
            self.l2 = self.l1


def load_config(path) -> dict:
    """Read ``key=value`` lines naming TrainingConfig fields.

    Blank lines and ``#`` comments are skipped; values are coerced to
    the field's type.  Returns a plain dict so the caller can layer CLI
    overrides on top before building the config.
    """
    valid = {f.name for f in fields(TrainingConfig)}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in valid:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "tie_policy":
                out[key] = value
            elif key in ("alpha", "lr", "mix_ratio"):
                out[key] = float(value)
            elif key == "l2" and value.lower() == "none":
                out[key] = None
            else:
                out[key] = int(value)
    return out


@dataclass
class PredictorParams:
    """All trainable blocks; doubles as the gradient container."""

    embeddings: np.ndarray          # (vocab, embed)
    conv1_w: np.ndarray             # (hidden, (l1+1)*embed)
    conv1_b: np.ndarray             # (hidden,)
    conv2_w: np.ndarray             # ((l2+1)*hidden,)
    conv2_b: np.ndarray             # (1,)
    gap_w: np.ndarray               # (hidden,)
    gap_b: np.ndarray               # (1,)
    label_w: Optional[np.ndarray] = None  # (n_labels, hidden)
    label_b: Optional[np.ndarray] = None  # (n_labels,)

    def blocks(self):
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr is not None:
                yield f.name, arr

    def zeros_like(self) -> "PredictorParams":
        kw = {}
        for f in fields(self):
            arr = getattr(self, f.name)
            kw[f.name] = None if arr is None else np.zeros_like(arr)
        return PredictorParams(**kw)


@dataclass
class TrainExample:
    """Distance supervision for one sentence; ``tree`` carries gold
    labels when available for the label head."""

    tokens: tuple
    dl: np.ndarray
    dg: np.ndarray
    tree: Optional[Tree] = None

    @classmethod
    def from_tree(cls, t: Tree, max_depth: int = distance.DEFAULT_MAX_DEPTH,
                  keep_tree: bool = True) -> "TrainExample":
        ex = cls.from_record(distance.record_from_tree(t, max_depth))
        if keep_tree:
            ex.tree = t
        return ex

    @classmethod
    def from_record(cls, rec: distance.DistanceRecord) -> "TrainExample":
        return cls(tokens=rec.tokens,
                   dl=np.array(rec.dl, dtype=np.float64),
                   dg=np.array(rec.dg, dtype=np.float64))


MODEL_FORMAT_VERSION = 1


@dataclass
class DistancePredictor:
    vocab: Vocab
    params: PredictorParams
    l1: int
    l2: int
    labels: Optional[tuple] = None  # label names; index 0 is the unknown label

    def __post_init__(self):
        if self.labels is not None:
            self._label_index = {name: i for i, name in enumerate(self.labels)}

    @classmethod
    def create(cls, vocab: Vocab, config: TrainingConfig,
               labels: Optional[Sequence[str]] = None) -> "DistancePredictor":
        rng = np.random.default_rng(config.seed)
        de, nh = config.embed_dim, config.hidden_dim
        l1, l2 = config.l1, config.l2

        def uniform(shape, fan_in):
            limit = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-limit, limit, shape)

        label_names = None
        label_w = label_b = None
        if labels is not None:
            label_names = (UNK_LABEL,) + tuple(
                sorted(set(labels) - {UNK_LABEL}))
            label_w = uniform((len(label_names), nh), nh)
            label_b = np.zeros(len(label_names))
        params = PredictorParams(
            embeddings=rng.uniform(-0.1, 0.1, (len(vocab), de)),
            conv1_w=uniform((nh, (l1 + 1) * de), (l1 + 1) * de),
            conv1_b=np.zeros(nh),
            conv2_w=uniform(((l2 + 1) * nh,), (l2 + 1) * nh),
            conv2_b=np.zeros(1),
            gap_w=uniform((nh,), nh),
            gap_b=np.zeros(1),
            label_w=label_w,
            label_b=label_b,
        )
        return cls(vocab=vocab, params=params, l1=l1, l2=l2, labels=label_names)

    def label_id(self, name: Optional[str]) -> int:
        if self.labels is None:
            raise ValueError("model has no label head")
        return self._label_index.get(name or "", 0)

    # -- persistence ---------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "format_version": MODEL_FORMAT_VERSION,
            "l1": self.l1,
            "l2": self.l2,
            "vocab": list(self.vocab.tokens),
            "labels": list(self.labels) if self.labels is not None else None,
        }
        arrays = {name: arr for name, arr in self.params.blocks()}
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path) -> "DistancePredictor":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("format_version") != MODEL_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported model format: {meta.get('format_version')}")
            kw = {}
            for f in fields(PredictorParams):
                kw[f.name] = data[f.name] if f.name in data.files else None
        return cls(
            vocab=Vocab(tuple(meta["vocab"])),
            params=PredictorParams(**kw),
            l1=meta["l1"],
            l2=meta["l2"],
            labels=tuple(meta["labels"]) if meta["labels"] is not None else None,
        )


@dataclass
class Forward:
    """Activations of one forward pass, kept for the backward pass."""

    ids: np.ndarray
    win1: np.ndarray       # (n, (l1+1)*embed)
    preact1: np.ndarray    # (n, hidden)
    hidden: np.ndarray     # (n, hidden)
    win2: np.ndarray       # (n, (l2+1)*hidden)
    preact2: np.ndarray    # (n,)
    latent: np.ndarray     # (n,)  per-word distances
    gap_preact: np.ndarray  # (n-1,)
    gap: np.ndarray        # (n-1,) per-gap distances


def forward(model: DistancePredictor, tokens: Sequence[str]) -> Forward:
    """Run the network over one sentence.

    Positions before the sentence start see padding embeddings in the
    first window and zeros in the second; every output is ReLU-clamped.
    The gap head is evaluated at words 1..n-1, pairing each gap with the
    word to its right.
    """
    if len(tokens) == 0:
        raise ValueError("cannot run on an empty sentence")
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
    latent = np.maximum(preact2, 0.0)

    gap_preact = hidden[1:] @ p.gap_w + p.gap_b[0]
    gap = np.maximum(gap_preact, 0.0)

    return Forward(ids, win1, preact1, hidden, win2, preact2, latent,
                   gap_preact, gap)


# ---------------------------------------------------------------------------
# Losses


def rank_loss(pred: np.ndarray, gold: np.ndarray) -> float:
    loss, _ = rank_loss_with_grad(pred, gold)
    return loss


def rank_loss_with_grad(pred: np.ndarray, gold: np.ndarray):
    """Pairwise hinge ranking loss and its gradient in the predictions.

    Over all pairs i < j whose gold values differ, penalize
    max(0, 1 - sign(gold_i - gold_j) * (pred_i - pred_j)), normalized by
    the number of such pairs.  Tied gold pairs contribute nothing.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {gold.shape}")
    m = len(pred)
    if m < 2:
        return 0.0, np.zeros_like(pred)
    sign = np.sign(gold[:, None] - gold[None, :])
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)
    contributing = upper & (sign != 0)
    count = int(contributing.sum())
    if count == 0:
        return 0.0, np.zeros_like(pred)
    margin = 1.0 - sign * (pred[:, None] - pred[None, :])
    active = contributing & (margin > 0)
    loss = float(margin[active].sum()) / count
    signed_active = np.where(active, sign, 0.0)
    grad = (signed_active.sum(axis=0) - signed_active.sum(axis=1)) / count
    return loss, grad


def distance_loss(model: DistancePredictor, example: TrainExample,
                  alpha: float) -> float:
    """Blend of the two ranking losses: alpha weights the gap loss,
    1 - alpha the latent loss."""
    fw = forward(model, example.tokens)
    gap_l = rank_loss(fw.gap, example.dg)
    latent_l = rank_loss(fw.latent, example.dl)
    return alpha * gap_l + (1.0 - alpha) * latent_l


def gold_label_spans(model: DistancePredictor, t: Tree):
    """(start, end, label id) for each internal node of a gold tree that
    spans two words or more, in post-order.

    Labels outside the head's vocabulary map to the unknown label; the
    number of such spans is returned alongside.
    """
    spans = []
    unknown = 0
    for start, end, node in treebank.spans(t):
        if end - start >= 2:
            name = treebank.base_label(node.label) or ""
            if name not in model._label_index:
                unknown += 1
            spans.append((start, end, model.label_id(name)))
    return spans, unknown


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def label_loss(model: DistancePredictor, example: TrainExample) -> float:
    """Mean cross-entropy of the label head over the gold constituents,
    each scored from the mean hidden state of its span."""
    if model.labels is None or example.tree is None:
        raise ValueError("label loss needs a label head and a gold tree")
    fw = forward(model, example.tokens)
    spans, _ = gold_label_spans(model, example.tree)
    if not spans:
        return 0.0
    p = model.params
    total = 0.0
    for start, end, lab in spans:
        mean_h = fw.hidden[start:end].mean(axis=0)
        probs = _softmax(p.label_w @ mean_h + p.label_b)
        total -= math.log(max(probs[lab], 1e-300))
    return total / len(spans)


# ---------------------------------------------------------------------------
# Gradients


def _backward(model: DistancePredictor, example: TrainExample, alpha: float,
              grads: PredictorParams, use_labels: bool) -> float:
    """Accumulate one example's exact loss gradient into ``grads``;
    returns the example's loss."""
    p = model.params
    fw = forward(model, example.tokens)
    n = len(fw.ids)
    nh = p.conv1_w.shape[0]
    de = p.embeddings.shape[1]

    gap_l, d_gap = rank_loss_with_grad(fw.gap, example.dg)
    latent_l, d_latent = rank_loss_with_grad(fw.latent, example.dl)
    loss = alpha * gap_l + (1.0 - alpha) * latent_l
    d_gap = alpha * d_gap
    d_latent = (1.0 - alpha) * d_latent

    d_hidden = np.zeros_like(fw.hidden)

    # gap head
    d_gap_pre = d_gap * (fw.gap_preact > 0)
    if n > 1:
        grads.gap_w += fw.hidden[1:].T @ d_gap_pre
        grads.gap_b += d_gap_pre.sum(keepdims=True)
        d_hidden[1:] += np.outer(d_gap_pre, p.gap_w)

    # second convolution (latent head)
    d_pre2 = d_latent * (fw.preact2 > 0)
    grads.conv2_w += fw.win2.T @ d_pre2
    grads.conv2_b += np.array([d_pre2.sum()])
    d_win2 = np.outer(d_pre2, p.conv2_w)
    d_hpad = np.zeros((n + model.l2, nh))
    for i in range(n):
        d_hpad[i:i + model.l2 + 1] += d_win2[i].reshape(model.l2 + 1, nh)
    d_hidden += d_hpad[model.l2:]

    # label head on span-mean hidden states
    if use_labels and model.labels is not None and example.tree is not None:
        spans, _ = gold_label_spans(model, example.tree)
        if spans:
            lab_total = 0.0
            for start, end, lab in spans:
                mean_h = fw.hidden[start:end].mean(axis=0)
                probs = _softmax(p.label_w @ mean_h + p.label_b)
                lab_total -= math.log(max(probs[lab], 1e-300))
                d_logits = probs.copy()
                d_logits[lab] -= 1.0
                d_logits /= len(spans)
                grads.label_w += np.outer(d_logits, mean_h)
                grads.label_b += d_logits
                d_hidden[start:end] += (p.label_w.T @ d_logits) / (end - start)
            loss += lab_total / len(spans)

    # first convolution
    d_pre1 = d_hidden * (fw.preact1 > 0)
    grads.conv1_w += d_pre1.T @ fw.win1
    grads.conv1_b += d_pre1.sum(axis=0)
    d_win1 = d_pre1 @ p.conv1_w
    d_xpad = np.zeros((n + model.l1, de))
    for i in range(n):
        d_xpad[i:i + model.l1 + 1] += d_win1[i].reshape(model.l1 + 1, de)

    # embeddings: the l1 leading rows are the padding embedding
    grads.embeddings[0] += d_xpad[:model.l1].sum(axis=0)
    np.add.at(grads.embeddings, fw.ids, d_xpad[model.l1:])
    return loss


def gradients(model: DistancePredictor, batch: Sequence[TrainExample],
              alpha: float, use_labels: bool = True):
    """Exact mean-loss gradients over a batch.

    Returns (grads, mean loss).  Raises if any gradient block turns
    non-finite, naming the block.
    """
    if not batch:
        raise ValueError("empty batch")
    grads = model.params.zeros_like()
    total = 0.0
    for ex in batch:
        total += _backward(model, ex, alpha, grads, use_labels)
    scale = 1.0 / len(batch)
    for _, arr in grads.blocks():
        arr *= scale
    for name, arr in grads.blocks():
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"non-finite gradient in parameter block {name!r}")
    return grads, total * scale


# ---------------------------------------------------------------------------
# Training


def collect_labels(examples: Sequence[TrainExample]):
    """Sorted constituent label inventory of the examples' gold trees,
    or None when no example carries a labeled tree."""
    names = set()
    for ex in examples:
        if ex.tree is None:
            continue
        stack = [ex.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, treebank.Node):
                name = treebank.base_label(node.label)
                if name:
                    names.add(name)
                stack.extend(node.children)
    return sorted(names) if names else None


def count_unknown_labels(model: DistancePredictor,
                         examples: Sequence[TrainExample]) -> int:
    if model.labels is None:
        return 0
    total = 0
    for ex in examples:
        if ex.tree is not None:
            _, unknown = gold_label_spans(model, ex.tree)
            total += unknown
    return total


def train(model: DistancePredictor, gold: Sequence[TrainExample],
          silver: Sequence[TrainExample], config: TrainingConfig) -> list[float]:
    """Mini-batch gradient descent over a random mix of both streams.

    Each step draws a silver batch with probability ``mix_ratio``, else a
    gold batch (falling back to the non-empty stream).  Gold batches also
    train the label head when the model has one.  Returns the mean loss
    per epoch; updates the model in place.  Deterministic under the
    config seed.
    """
    gold = list(gold)
    silver = list(silver)
    if not gold and not silver:
        raise ValueError("both training sets are empty")
    unknown = count_unknown_labels(model, gold)
    if unknown:
        log.warning("%d gold constituents carry labels outside the label "
                    "vocabulary; mapped to %s", unknown, UNK_LABEL)
    rng = np.random.default_rng(config.seed)
    steps = max(1, math.ceil((len(gold) + len(silver)) / config.batch_size))
    trace = []
    for _epoch in range(config.epochs):
        epoch_loss = 0.0
        for _step in range(steps):
            from_silver = rng.random() < config.mix_ratio
            if from_silver:
                pool, use_labels = (silver, False) if silver else (gold, True)
            else:
                pool, use_labels = (gold, True) if gold else (silver, False)
            idx = rng.integers(0, len(pool), size=config.batch_size)
            batch = [pool[i] for i in idx]
            grads, loss = gradients(model, batch, config.alpha, use_labels)
            for name, arr in model.params.blocks():
                arr -= config.lr * getattr(grads, name)
                if not np.all(np.isfinite(arr)):
                    raise RuntimeError(
                        f"parameter block {name!r} became non-finite")
            epoch_loss += loss
        trace.append(epoch_loss / steps)
    return trace


# ---------------------------------------------------------------------------
# Decoding


def predict_tree(model: DistancePredictor, tokens: Sequence[str],
                 head: str = "dl", ties: str = "left",
                 annotate: bool = False) -> Tree:
    """Parse a sentence by decoding one of the two distance outputs."""
    if head not in ("dl", "dg"):
        raise ValueError(f"unknown head: {head!r}")
    fw = forward(model, tokens)
    if head == "dl":
        t = distance.latent_to_tree(list(fw.latent), tokens, ties)
    else:
        t = distance.gaps_to_tree(list(fw.gap), tokens, ties)
    if annotate:
        if model.labels is None:
            raise ValueError("model has no label head to annotate with")
        t = _annotate(model, t, fw.hidden)
    return t


def _annotate(model: DistancePredictor, t: Tree, hidden: np.ndarray) -> Tree:
    """Relabel every internal node by the label head's argmax over the
    mean hidden state of its span."""
    p = model.params
    rebuilt = {}  # id(old node) -> its relabeled copy
    for start, end, node in treebank.spans(t):
        mean_h = hidden[start:end].mean(axis=0)
        logits = p.label_w @ mean_h + p.label_b
        name = model.labels[int(np.argmax(logits))]
        rebuilt[id(node)] = treebank.Node(
            name, tuple(rebuilt.get(id(c), c) for c in node.children))
    return rebuilt.get(id(t), t)
