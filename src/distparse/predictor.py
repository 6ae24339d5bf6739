"""Trainable distance predictor.

A window convolution over word embeddings produces hidden states; a
linear head on each hidden state scores the gap to the word's left, and
a second window convolution over the hidden states scores each word's
latent distance.  An optional linear head over span-mean hidden states
classifies constituent labels.

Everything is plain numpy with hand-written reverse-mode gradients so
that every update is auditable and checkable against finite differences.
Training runs one packed forward and backward pass per minibatch, and
parsing runs the same forward over chunks of sentences.
Distances are trained with a pairwise hinge ranking loss: only the
relative order of the values matters for decoding, so the loss penalizes
pairs predicted in the wrong order with margin 1.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, not {self.lr!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in [0, 1]")
        if self.tie_policy not in ("left", "right"):
            raise ValueError(f"tie_policy must be 'left' or 'right', not "
                             f"{self.tie_policy!r}")
        if self.l2 is None:
            self.l2 = self.l1
        for name in ("l1", "l2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("embed_dim", "hidden_dim", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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

# Largest model ``DistancePredictor.create`` builds: 400 MB of float64,
# and training holds a gradient of the same size.
MAX_PARAMETERS = 50_000_000


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
        de, nh = config.embed_dim, config.hidden_dim
        l1, l2 = config.l1, config.l2
        n_labels = 0 if labels is None else len(set(labels) | {UNK_LABEL})
        size = (len(vocab) * de + nh * ((l1 + 1) * de + 1) + (l2 + 1) * nh + 1
                + nh + 1 + n_labels * (nh + 1))
        if size > MAX_PARAMETERS:
            raise ValueError(f"model would have {size:,} parameters, more "
                             f"than the limit of {MAX_PARAMETERS:,}")
        rng = np.random.default_rng(config.seed)

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
    """Activations of one packed forward pass, kept for the backward pass.

    Row arrays hold the batch's words back to back: sentence ``b`` owns
    rows ``offsets[b]:offsets[b+1]``.  Gap arrays hold each sentence's
    n-1 gaps back to back, so sentence ``b`` owns gaps
    ``offsets[b]-b:offsets[b+1]-b-1``.  A one-sentence batch holds just
    that sentence's arrays.
    """

    offsets: np.ndarray    # (B+1,) first row of each sentence, then N
    ids: np.ndarray        # (N,)
    win1: np.ndarray       # (N, (l1+1)*embed)
    preact1: np.ndarray    # (N, hidden)
    hidden: np.ndarray     # (N, hidden)
    preact2: np.ndarray    # (N,)
    latent: np.ndarray     # (N,)  per-word distances
    gap_preact: np.ndarray  # (N-B,)
    gap: np.ndarray        # (N-B,) per-gap distances

    def sentence(self, b: int) -> "Forward":
        """The activations of sentence ``b`` alone, as views."""
        s, e = int(self.offsets[b]), int(self.offsets[b + 1])
        g = slice(s - b, e - b - 1)
        return Forward(np.array([0, e - s]), self.ids[s:e], self.win1[s:e],
                       self.preact1[s:e], self.hidden[s:e], self.preact2[s:e],
                       self.latent[s:e], self.gap_preact[g], self.gap[g])


def _padded_rows(offsets: np.ndarray, pad: int) -> np.ndarray:
    """Row of each packed word once ``pad`` rows precede every sentence."""
    lens = np.diff(offsets)
    return (np.arange(offsets[-1])
            + pad * np.repeat(np.arange(1, len(lens) + 1), lens))


def _padded_ids(ids: np.ndarray, offsets: np.ndarray, pad: int):
    """The packed ids with ``pad`` padding-token rows (id 0) before every
    sentence, and the padded row of each word."""
    rows = _padded_rows(offsets, pad)
    ids_pad = np.zeros(len(ids) + pad * (len(offsets) - 1), dtype=np.int64)
    ids_pad[rows] = ids
    return ids_pad, rows


def _gap_rows(offsets: np.ndarray) -> np.ndarray:
    """Mask of the rows that have a gap to their left: all but each
    sentence's first word."""
    inner = np.ones(offsets[-1], dtype=bool)
    inner[offsets[:-1]] = False
    return inner


def forward_packed(model: DistancePredictor,
                   ids: Sequence[np.ndarray]) -> Forward:
    """Run the network over a batch of encoded sentences at once.

    The sentences are packed into one array of rows, each preceded by
    ``l1`` padding-token rows for the first window and ``l2`` zero rows
    for the second, so no window crosses a sentence boundary.  Each
    layer is one matrix multiply over the whole batch; every output is
    ReLU-clamped.  The gap head is evaluated at words 1..n-1 of each
    sentence, pairing each gap with the word to its right.
    """
    if not ids:
        raise ValueError("cannot run on an empty batch")
    if any(len(s) == 0 for s in ids):
        raise ValueError("cannot run on an empty sentence")
    p = model.params
    l1, l2 = model.l1, model.l2
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in ids], out=offsets[1:])
    n = int(offsets[-1])
    flat = np.concatenate(ids)

    # first window: one gather of the window ids, one GEMM
    ids_pad, rows = _padded_ids(flat, offsets, l1)
    win1 = p.embeddings[sliding_window_view(ids_pad, l1 + 1)[rows - l1]]
    win1 = win1.reshape(n, -1)
    preact1 = win1 @ p.conv1_w.T
    preact1 += p.conv1_b
    hidden = np.maximum(preact1, 0.0)

    # second window: one output unit, so score each hidden row against
    # every window slot and add the l2+1 slots that reach each word
    preact2 = _shift_sum(hidden @ _conv2_slots(model).T, offsets, l2)
    preact2 += p.conv2_b[0]
    latent = np.maximum(preact2, 0.0)

    gap_preact = (hidden @ p.gap_w)[_gap_rows(offsets)] + p.gap_b[0]
    gap = np.maximum(gap_preact, 0.0)

    return Forward(offsets, flat, win1, preact1, hidden, preact2, latent,
                   gap_preact, gap)


def forward(model: DistancePredictor, tokens: Sequence[str]) -> Forward:
    """Run the network over one sentence: the one-sentence case of
    ``forward_packed``.

    Positions before the sentence start see padding embeddings in the
    first window and zeros in the second.
    """
    return forward_packed(model, [model.vocab.encode(tokens)])


def _conv2_slots(model: DistancePredictor) -> np.ndarray:
    """conv2_w as one (hidden,) weight row per window slot."""
    return model.params.conv2_w.reshape(model.l2 + 1, -1)


def _shift_sum(scores: np.ndarray, offsets: np.ndarray, l: int) -> np.ndarray:
    """out[i] = sum over k of scores[i-l+k, k], where rows before word
    i's sentence start score zero."""
    rows = _padded_rows(offsets, l)
    pad = np.zeros((len(scores) + l * (len(offsets) - 1), l + 1))
    pad[rows] = scores
    out = pad[rows - l, 0]
    for k in range(1, l + 1):
        out += pad[rows - l + k, k]
    return out


def _shift_sum_grad(d_out: np.ndarray, offsets: np.ndarray, l: int) -> np.ndarray:
    """Adjoint of ``_shift_sum``: the gradient in ``scores``."""
    rows = _padded_rows(offsets, l)
    pad = np.zeros((len(d_out) + l * (len(offsets) - 1), l + 1))
    for k in range(l + 1):
        pad[rows - l + k, k] = d_out
    return pad[rows]


# ---------------------------------------------------------------------------
# Losses


def rank_loss(pred: np.ndarray, gold: np.ndarray) -> float:
    loss, _ = rank_loss_with_grad(pred, gold)
    return loss


def rank_loss_with_grad(pred: np.ndarray, gold: np.ndarray):
    """Pairwise hinge ranking loss and its gradient in the predictions.

    Over all pairs i < j whose gold values differ, penalize
    max(0, 1 - sign(gold_i - gold_j) * (pred_i - pred_j)), normalized by
    the number of such pairs.  Tied gold pairs contribute nothing.  This
    is the one-sentence case of ``_packed_rank_loss``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {gold.shape}")
    loss, grad = _packed_rank_loss(pred, gold, np.array([0, len(pred)]))
    return float(loss[0]), grad


def _packed_rank_loss(pred: np.ndarray, gold: np.ndarray,
                      offsets: np.ndarray):
    """The ranking loss of every sentence of a packed batch.

    Sentence ``b`` owns ``pred[offsets[b]:offsets[b+1]]``.  One masked
    (B, T, T) hinge covers the batch.  It sums both orders of each pair
    and halves, so it needs no triangular mask.  Returns the loss per
    sentence (B,) and the packed gradient.
    """
    lens = np.diff(offsets)
    sent = np.repeat(np.arange(len(lens)), lens)
    col = np.arange(offsets[-1]) - offsets[sent]
    shape = (len(lens), int(lens.max(initial=0)))
    pred_pad = np.zeros(shape)
    pred_pad[sent, col] = pred
    gold_pad = np.zeros(shape)
    gold_pad[sent, col] = gold
    valid = np.zeros(shape, dtype=bool)
    valid[sent, col] = True

    sign = np.sign(gold_pad[:, :, None] - gold_pad[:, None, :])
    sign *= valid[:, :, None] & valid[:, None, :]
    pairs = np.maximum(np.count_nonzero(sign, axis=(1, 2)) // 2, 1)
    margin = 1.0 - sign * (pred_pad[:, :, None] - pred_pad[:, None, :])
    live = (sign != 0) & (margin > 0)
    loss = 0.5 * np.where(live, margin, 0.0).sum(axis=(1, 2)) / pairs
    grad = -np.where(live, sign, 0.0).sum(axis=2) / pairs[:, None]
    return loss, grad[sent, col]


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


def label_loss(model: DistancePredictor, example: TrainExample) -> float:
    """Mean cross-entropy of the label head over the gold constituents,
    each scored from the mean hidden state of its span."""
    if model.labels is None or example.tree is None:
        raise ValueError("label loss needs a label head and a gold tree")
    fw = forward(model, example.tokens)
    spans, _ = gold_label_spans(model, example.tree)
    if not spans:
        return 0.0
    weights = np.full(len(spans), 1.0 / len(spans))
    loss, *_ = _label_head(model.params, fw.hidden, np.array(spans), weights)
    return loss


def _label_head(p: PredictorParams, hidden: np.ndarray, spans: np.ndarray,
                weights: np.ndarray):
    """Weighted cross-entropy of the label head over packed spans.

    ``spans`` holds (start, end, label id) rows over the rows of
    ``hidden``.  Span means come from one prefix sum.  Returns the loss
    and its gradients in label_w, label_b and hidden.
    """
    start, end, lab = spans.T
    csum = np.zeros((len(hidden) + 1, hidden.shape[1]))
    np.cumsum(hidden, axis=0, out=csum[1:])
    width = (end - start)[:, None]
    mean = (csum[end] - csum[start]) / width
    logits = mean @ p.label_w.T + p.label_b
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(len(spans))
    loss = float(weights @ -np.log(np.maximum(probs[rows, lab], 1e-300)))

    d_logits = probs
    d_logits[rows, lab] -= 1.0
    d_logits *= weights[:, None]
    # each span's gradient in its mean reaches every row it covers: the
    # cumsum of a difference array with +d at its start and -d at its end
    d_mean = (d_logits @ p.label_w) / width
    diff = np.zeros_like(csum)
    _add_rows(diff, np.concatenate([start, end]),
              np.concatenate([d_mean, -d_mean]))
    d_hidden = np.cumsum(diff[:-1], axis=0)
    return loss, d_logits.T @ mean, d_logits.sum(axis=0), d_hidden


def _add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """out[idx[i]] += rows[i] for every i, summing repeated indices.

    One stable sort and ``np.add.reduceat``; on row blocks this runs
    about twice as fast as ``np.add.at``.
    """
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    first = np.flatnonzero(np.diff(idx, prepend=-1))
    out[idx[first]] += np.add.reduceat(rows[order], first)


# ---------------------------------------------------------------------------
# Gradients


class _Encoded(NamedTuple):
    """One example as the packed pass reads it, built once per call."""

    ids: np.ndarray
    dl: np.ndarray
    dg: np.ndarray
    spans: Optional[np.ndarray]  # (S, 3) gold (start, end, label id)
    unknown: int  # gold spans whose label the head has never seen


def _encode(model: DistancePredictor, ex: TrainExample) -> _Encoded:
    ids = model.vocab.encode(ex.tokens)
    if len(ex.dl) != len(ids) or len(ex.dg) != max(len(ids) - 1, 0):
        raise ValueError(
            f"length mismatch: {len(ids)} words, {len(ex.dl)} latent "
            f"and {len(ex.dg)} gap distances")
    spans = None
    unknown = 0
    if model.labels is not None and ex.tree is not None:
        found, unknown = gold_label_spans(model, ex.tree)
        spans = np.array(found, dtype=np.int64).reshape(-1, 3)
    return _Encoded(ids, ex.dl, ex.dg, spans, unknown)


def _packed_gradients(model: DistancePredictor, batch: Sequence[_Encoded],
                      weights: np.ndarray, alpha: float, use_labels: bool):
    """Exact gradients of sum over b of weights[b] * loss of example b,
    in one packed forward and backward pass.

    Returns (grads, weighted loss).  Raises if any gradient block turns
    non-finite, naming the block.
    """
    p = model.params
    fw = forward_packed(model, [ex.ids for ex in batch])
    offsets = fw.offsets
    lens = np.diff(offsets)
    n, de = len(fw.ids), p.embeddings.shape[1]

    gap_l, d_gap = _packed_rank_loss(
        fw.gap, np.concatenate([ex.dg for ex in batch]),
        offsets - np.arange(len(batch) + 1))
    latent_l, d_latent = _packed_rank_loss(
        fw.latent, np.concatenate([ex.dl for ex in batch]), offsets)
    loss = float(weights @ (alpha * gap_l + (1.0 - alpha) * latent_l))
    d_gap *= alpha * np.repeat(weights, lens - 1)
    d_latent *= (1.0 - alpha) * np.repeat(weights, lens)

    # gap head, on every row but each sentence's first
    d_gap_pre = np.zeros(n)
    d_gap_pre[_gap_rows(offsets)] = d_gap * (fw.gap_preact > 0)
    d_hidden = np.outer(d_gap_pre, p.gap_w)

    # second convolution (latent head)
    d_pre2 = d_latent * (fw.preact2 > 0)
    d_scores = _shift_sum_grad(d_pre2, offsets, model.l2)
    d_hidden += d_scores @ _conv2_slots(model)

    # label head on span-mean hidden states; each example's spans share
    # its weight equally
    d_label_w = d_label_b = None
    if model.labels is not None:
        d_label_w = np.zeros_like(p.label_w)
        d_label_b = np.zeros_like(p.label_b)
        labeled = [b for b, ex in enumerate(batch)
                   if use_labels and ex.spans is not None and len(ex.spans)]
        if labeled:
            spans = np.concatenate(
                [batch[b].spans + [offsets[b], offsets[b], 0]
                 for b in labeled])
            span_w = np.concatenate(
                [np.full(len(batch[b].spans), weights[b] / len(batch[b].spans))
                 for b in labeled])
            lab_l, d_label_w, d_label_b, d_h = _label_head(
                p, fw.hidden, spans, span_w)
            loss += lab_l
            d_hidden += d_h

    # first convolution
    d_pre1 = d_hidden  # masked in place into the gradient in preact1
    d_pre1 *= fw.preact1 > 0
    d_conv1_w = d_pre1.T @ fw.win1
    d_conv2_w = (d_scores.T @ fw.hidden).reshape(-1)
    d_gap_w = fw.hidden.T @ d_gap_pre
    ids = fw.ids
    del fw  # the packed activations are consumed

    # embeddings: fold the l1+1 window slots back onto the padded rows,
    # then add each row to its token's embedding (padding rows to the
    # padding token's)
    d_win1 = (d_pre1 @ p.conv1_w).reshape(n, model.l1 + 1, de)
    ids_pad, rows = _padded_ids(ids, offsets, model.l1)
    d_xpad = np.zeros((len(ids_pad), de))
    for k in range(model.l1 + 1):
        d_xpad[rows - model.l1 + k] += d_win1[:, k]
    del d_win1
    d_embeddings = np.zeros_like(p.embeddings)
    _add_rows(d_embeddings, ids_pad, d_xpad)

    grads = PredictorParams(
        embeddings=d_embeddings,
        conv1_w=d_conv1_w,
        conv1_b=d_pre1.sum(axis=0),
        conv2_w=d_conv2_w,
        conv2_b=d_pre2.sum(keepdims=True),
        gap_w=d_gap_w,
        gap_b=d_gap_pre.sum(keepdims=True),
        label_w=d_label_w,
        label_b=d_label_b,
    )
    for name, arr in grads.blocks():
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"non-finite gradient in parameter block {name!r}")
    return grads, loss


def gradients(model: DistancePredictor, batch: Sequence[TrainExample],
              alpha: float, use_labels: bool = True):
    """Exact mean-loss gradients over a batch.

    A batch may hold one example several times; each distinct example
    is computed once, weighted by its share of the batch.  Returns
    (grads, mean loss).  Raises if any gradient block turns non-finite,
    naming the block.
    """
    if not batch:
        raise ValueError("empty batch")
    distinct = {}
    for ex in batch:
        distinct.setdefault(id(ex), [ex, 0])[1] += 1
    weights = np.array([k for _, k in distinct.values()]) / len(batch)
    encoded = [_encode(model, ex) for ex, _ in distinct.values()]
    return _packed_gradients(model, encoded, weights, alpha, use_labels)


# ---------------------------------------------------------------------------
# Training


def collect_labels(examples: Sequence[TrainExample]):
    """Sorted constituent label inventory of the examples' gold trees,
    or None when no example carries a labeled tree."""
    names = set()
    for ex in examples:
        if ex.tree is not None:
            for _, _, node in treebank.spans(ex.tree):
                name = treebank.base_label(node.label)
                if name:
                    names.add(name)
    return sorted(names) if names else None


def train(model: DistancePredictor, gold: Sequence[TrainExample],
          silver: Sequence[TrainExample], config: TrainingConfig) -> list[float]:
    """Mini-batch gradient descent over a random mix of both streams.

    Each step draws a silver batch with probability ``mix_ratio``, else a
    gold batch (falling back to the non-empty stream).  Gold batches also
    train the label head when the model has one.  Each step is one
    packed pass over the batch's distinct examples.  Returns the mean
    loss per epoch; updates the model in place.  Deterministic under the
    config seed.
    """
    if not gold and not silver:
        raise ValueError("both training sets are empty")
    gold = [_encode(model, ex) for ex in gold]
    unknown = sum(ex.unknown for ex in gold)
    if unknown:
        log.warning("%d gold constituents carry labels outside the label "
                    "vocabulary; mapped to %s", unknown, UNK_LABEL)
    silver = [_encode(model, ex) for ex in silver]
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
            distinct, counts = np.unique(idx, return_counts=True)
            grads, loss = _packed_gradients(
                model, [pool[i] for i in distinct],
                counts / config.batch_size, config.alpha, use_labels)
            for name, arr in model.params.blocks():
                step = getattr(grads, name)
                step *= config.lr
                arr -= step
                if not np.all(np.isfinite(arr)):
                    raise RuntimeError(
                        f"parameter block {name!r} became non-finite")
            del grads, step  # free this step's gradients before the next
            epoch_loss += loss
        trace.append(epoch_loss / steps)
    return trace


# ---------------------------------------------------------------------------
# Decoding


# Words per packed forward when parsing.  Larger chunks parsed no faster
# and raised peak RSS: a 512-word chunk's activations are about 4 MB at
# the default sizes.
PARSE_CHUNK_TOKENS = 256


def predict_trees(model: DistancePredictor, sentences: Sequence[Sequence[str]],
                  head: str = "dl", ties: str = "left",
                  annotate: bool = False) -> list[Tree]:
    """Parse sentences in order by decoding one of the two distance
    outputs.

    The forward pass runs over chunks of consecutive sentences of at most
    ``PARSE_CHUNK_TOKENS`` words (a longer sentence is a chunk of its
    own); each sentence is then decoded alone.
    """
    if head not in ("dl", "dg"):
        raise ValueError(f"unknown head: {head!r}")
    if annotate and model.labels is None:
        raise ValueError("model has no label head to annotate with")
    trees = []
    for chunk in _chunks(sentences, PARSE_CHUNK_TOKENS):
        fw = forward_packed(model, [model.vocab.encode(s) for s in chunk])
        for b, tokens in enumerate(chunk):
            sent = fw.sentence(b)
            if head == "dl":
                t = distance.latent_to_tree(list(sent.latent), tokens, ties)
            else:
                t = distance.gaps_to_tree(list(sent.gap), tokens, ties)
            trees.append(_annotate(model, t, sent.hidden) if annotate else t)
        del fw, sent  # free this chunk's activations before the next
    return trees


def _chunks(sentences, limit: int):
    """Runs of consecutive sentences of at most ``limit`` words, or one
    longer sentence."""
    chunk, size = [], 0
    for tokens in sentences:
        if chunk and size + len(tokens) > limit:
            yield chunk
            chunk, size = [], 0
        chunk.append(tokens)
        size += len(tokens)
    if chunk:
        yield chunk


def predict_tree(model: DistancePredictor, tokens: Sequence[str],
                 head: str = "dl", ties: str = "left",
                 annotate: bool = False) -> Tree:
    """Parse one sentence: the one-sentence case of ``predict_trees``."""
    return predict_trees(model, [tokens], head, ties, annotate)[0]


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
