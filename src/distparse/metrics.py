"""Bracket scoring, ensemble agreement, and analysis tables.

F1 is per-sentence and macro-averaged over the corpus, on a 0..100
scale.  Defaults follow the common convention for evaluating binary
parses: the whole-sentence span counts, single-word spans never do.
Both are convention-sensitive, so they are exposed as flags.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .treebank import Tree, Treebank, base_label, leaves, spans, tree_depth

# Sentence-length buckets used by the analysis tables: a length L falls
# into the first bucket with lo < L <= hi.
LENGTH_BUCKETS = ((0, 10), (10, 20), (20, 30), (30, 40), (40, None))


def bucket_name(lo: int, hi: Optional[int]) -> str:
    return f"{lo}-{hi}" if hi is not None else f">{lo}"


def bucket_index(length: int) -> int:
    for i, (lo, hi) in enumerate(LENGTH_BUCKETS):
        if hi is None or length <= hi:
            return i
    raise AssertionError("unreachable")


def brackets(t: Tree, include_full_span: bool = True,
             labeled: bool = False) -> frozenset:
    """Spans of the internal nodes of a binary tree.

    Spans are (start, end) word offsets, end exclusive; single-word spans
    are never included.  With ``labeled``, spans carry their base label
    (binarization marks stripped, missing labels become "").
    """
    nodes = spans(t)
    widest = nodes[-1][1] if nodes else 0  # the root, last, covers every word
    if not include_full_span:
        widest -= 1
    if labeled:
        return frozenset([(start, end, base_label(node.label) or "")
                          for start, end, node in nodes
                          if 2 <= end - start <= widest])
    return frozenset([(start, end) for start, end, _ in nodes
                      if 2 <= end - start <= widest])


def sentence_f1(pred: Tree, gold: Tree, include_full_span: bool = True,
                labeled: bool = False) -> float:
    """Bracket F1 between two trees over the same words, in [0, 100].

    Both bracket sets empty scores 100; exactly one empty scores 0.
    """
    if leaves(pred) != leaves(gold):
        raise ValueError("predicted and gold trees cover different words")
    p = brackets(pred, include_full_span, labeled)
    g = brackets(gold, include_full_span, labeled)
    if not p and not g:
        return 100.0
    if not p or not g:
        return 0.0
    hits = len(p & g)
    precision = hits / len(p)
    recall = hits / len(g)
    if precision + recall == 0:
        return 0.0
    return 200.0 * precision * recall / (precision + recall)


@dataclass
class BucketStat:
    name: str
    count: int
    avg_f1: Optional[float]


@dataclass
class EvalReport:
    per_sentence_f1: list
    macro_f1: float
    labeled_f1: Optional[float] = None
    buckets: list = field(default_factory=list)


def corpus_eval(pred: Treebank, gold: Treebank, include_full_span: bool = True,
                labeled: bool = False) -> EvalReport:
    """Macro-averaged unlabeled F1 with per-length-bucket aggregates.

    With ``labeled``, a labeled macro F1 is reported alongside (the
    per-sentence vector stays unlabeled)."""
    if len(pred) != len(gold):
        raise ValueError(
            f"treebank sizes differ: {len(pred)} predicted vs {len(gold)} gold")
    scores = []
    labeled_scores = []
    by_bucket: dict = {}
    for i, (p, g) in enumerate(zip(pred, gold)):
        try:
            f1 = sentence_f1(p, g, include_full_span, labeled=False)
        except ValueError as exc:
            raise ValueError(f"sentence {i}: {exc}") from exc
        scores.append(f1)
        if labeled:
            labeled_scores.append(
                sentence_f1(p, g, include_full_span, labeled=True))
        by_bucket.setdefault(bucket_index(len(leaves(g))), []).append(f1)
    macro = sum(scores) / len(scores)
    buckets = []
    for i, (lo, hi) in enumerate(LENGTH_BUCKETS):
        vals = by_bucket.get(i, [])
        buckets.append(BucketStat(
            name=bucket_name(lo, hi),
            count=len(vals),
            avg_f1=sum(vals) / len(vals) if vals else None,
        ))
    labeled_macro = (sum(labeled_scores) / len(labeled_scores)
                     if labeled_scores else None)
    return EvalReport(scores, macro, labeled_macro, buckets)


# ---------------------------------------------------------------------------
# Ensemble agreement


def agreement_groups(parses: Sequence[Tree]):
    """Largest group of bracket-identical parses for one sentence.

    Returns (representative tree, group size).  Ties between equal-size
    groups go to the group seen first.
    """
    if not parses:
        raise ValueError("need at least one parse")
    words = leaves(parses[0])
    groups: dict = {}
    for i, t in enumerate(parses):
        if leaves(t) != words:
            raise ValueError(f"parse {i} covers different words")
        key = brackets(t)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [t, 1]
    modal, n_a = None, 0
    for rep, count in groups.values():  # insertion order settles ties
        if count > n_a:
            modal, n_a = rep, count
    return modal, n_a


@dataclass
class AgreementRow:
    n_agree: int
    count: int
    avg_f1: Optional[float]
    avg_len: Optional[float]
    avg_depth: Optional[float]


def agreement_report(parse_lists: Sequence[Sequence[Tree]],
                     gold: Optional[Treebank] = None) -> list[AgreementRow]:
    """Bucket sentences by how many ensemble members agreed on the modal
    parse; report each bucket's size and average modal F1/length/depth.

    Every member must parse every sentence; rows cover counts 1..n_c and
    their sizes sum to the number of sentences.
    """
    if not parse_lists:
        raise ValueError("no sentences")
    n_c = len(parse_lists[0])
    if any(len(ps) != n_c for ps in parse_lists):
        raise ValueError("ensemble size varies across sentences")
    if gold is not None and len(gold) != len(parse_lists):
        raise ValueError("gold treebank does not align with the sentences")
    per_bucket: dict = {k: [] for k in range(1, n_c + 1)}
    for i, parses in enumerate(parse_lists):
        modal, n_a = agreement_groups(parses)
        f1 = (sentence_f1(modal, gold.sentences[i]) if gold is not None else None)
        per_bucket[n_a].append((f1, len(leaves(modal)), tree_depth(modal)))
    rows = []
    for k in range(1, n_c + 1):
        entries = per_bucket[k]
        if not entries:
            rows.append(AgreementRow(k, 0, None, None, None))
            continue
        f1s = [e[0] for e in entries]
        avg_f1 = sum(f1s) / len(f1s) if gold is not None else None
        avg_len = sum(e[1] for e in entries) / len(entries)
        avg_depth = sum(e[2] for e in entries) / len(entries)
        rows.append(AgreementRow(k, len(entries), avg_f1, avg_len, avg_depth))
    return rows


def fmt_cell(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.4f}"


def write_agreement_csv(rows: Sequence[AgreementRow], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["n_agree", "count", "avg_f1", "avg_len", "avg_depth"])
    for r in rows:
        writer.writerow([r.n_agree, r.count, fmt_cell(r.avg_f1), fmt_cell(r.avg_len),
                         fmt_cell(r.avg_depth)])


def write_eval_csv(buckets: Sequence[BucketStat], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["range", "count", "avg_f1"])
    for b in buckets:
        writer.writerow([b.name, b.count, fmt_cell(b.avg_f1)])
