"""Bracket scoring, ensemble agreement, and analysis tables.

F1 is per-sentence and macro-averaged over the corpus, on a 0..100
scale.  Defaults follow the common convention for evaluating binary
parses: the whole-sentence span counts, single-word spans never do.
Both are convention-sensitive, so they are exposed as flags.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .treebank import (Tree, Treebank, base_label, leaves, parse_tree, spans,
                       tree_depth, walk)

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
    return _brackets(spans(t), include_full_span, labeled)


def _brackets(nodes: list, include_full_span: bool = True,
              labeled: bool = False) -> frozenset:
    """``brackets`` of a tree from its ``walk`` nodes."""
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
    _, pred_nodes, gold_nodes = _walk_pair(pred, gold)
    return _nodes_f1(pred_nodes, gold_nodes, include_full_span, labeled)


def _walk_pair(pred: Tree, gold: Tree):
    """The words two trees share, and each tree's ``walk`` nodes."""
    words, pred_nodes = walk(pred)
    gold_words, gold_nodes = walk(gold)
    if words != gold_words:
        raise ValueError("predicted and gold trees cover different words")
    return words, pred_nodes, gold_nodes


def _nodes_f1(pred_nodes: list, gold_nodes: list, include_full_span: bool,
              labeled: bool) -> float:
    """``sentence_f1`` from the two trees' ``walk`` nodes."""
    p = _brackets(pred_nodes, include_full_span, labeled)
    g = _brackets(gold_nodes, include_full_span, labeled)
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
        # one walk per tree serves both scores and the bucket length
        try:
            words, p_nodes, g_nodes = _walk_pair(p, g)
        except ValueError as exc:
            raise ValueError(f"sentence {i}: {exc}") from exc
        f1 = _nodes_f1(p_nodes, g_nodes, include_full_span, labeled=False)
        scores.append(f1)
        if labeled:
            labeled_scores.append(
                _nodes_f1(p_nodes, g_nodes, include_full_span, labeled=True))
        by_bucket.setdefault(bucket_index(len(words)), []).append(f1)
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


def bracket_key(node_spans: Iterable, n_words: int) -> bytes:
    """Compact vote key of one parse of an ``n_words``-word sentence.

    ``node_spans`` holds the parse's ``(start, end)`` pairs, as
    ``scan_tree`` or ``brackets`` give them.  Two parses of one sentence
    share a key exactly when ``brackets`` gives them equal sets.
    """
    base = n_words + 1
    code = "H" if base * base <= 1 << 16 else "Q"
    return array(code, sorted({s * base + e for s, e in node_spans
                               if e - s >= 2})).tobytes()


@dataclass(slots=True)
class Tally:
    """The votes of one sentence's parses, grouped by bracket key.

    ``votes`` counts the parses per key in first-seen order; ``reps``
    keeps the first parse seen with each key that can still be modal,
    either a ``Tree`` or a tree line that ``as_tree`` reads only when it
    is needed.
    """

    words: tuple
    votes: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(self.votes.values())

    def add(self, key: bytes, rep) -> None:
        if key in self.votes:
            self.votes[key] += 1
        else:
            self.votes[key] = 1
            self.reps[key] = rep

    def add_tree(self, t: Tree) -> None:
        if tuple(leaves(t)) != self.words:
            raise ValueError(f"parse {len(self)} covers different words")
        self.add(bracket_key(brackets(t), len(self.words)), t)

    def prune(self, spare_votes: int = 0) -> None:
        """Drop the representatives of the groups that ``spare_votes``
        more votes could not make modal; every key keeps its count."""
        floor = max(self.votes.values()) - spare_votes
        self.reps = {key: rep for key, rep in self.reps.items()
                     if self.votes[key] >= floor}

    def modal(self):
        """(representative, votes) of the largest group; ties between
        equal-size groups go to the group seen first."""
        key = max(self.votes, key=self.votes.__getitem__)
        return self.reps[key], self.votes[key]


def as_tree(rep) -> Tree:
    """A tally representative as a ``Tree``; tree lines are read here."""
    return parse_tree(rep) if isinstance(rep, str) else rep


def tally_trees(parses: Sequence[Tree]) -> Tally:
    """One sentence's tally from a list of parse trees over one sentence."""
    if not parses:
        raise ValueError("need at least one parse")
    tally = Tally(tuple(leaves(parses[0])))
    for t in parses:
        tally.add_tree(t)
    return tally


def agreement_groups(parses: Sequence[Tree]):
    """Largest group of bracket-identical parses for one sentence.

    Returns (representative tree, group size).  Ties between equal-size
    groups go to the group seen first.
    """
    return tally_trees(parses).modal()


@dataclass
class AgreementRow:
    n_agree: int
    count: int
    avg_f1: Optional[float]
    avg_len: Optional[float]
    avg_depth: Optional[float]


def agreement_report(tallies: Sequence[Tally],
                     gold: Optional[Treebank] = None) -> list[AgreementRow]:
    """Bucket sentences by how many ensemble members agreed on the modal
    parse; report each bucket's size and average modal F1/length/depth.

    Every member must parse every sentence; rows cover counts 1..n_c and
    their sizes sum to the number of sentences.
    """
    if not tallies:
        raise ValueError("no sentences")
    n_c = len(tallies[0])
    if any(len(tally) != n_c for tally in tallies):
        raise ValueError("ensemble size varies across sentences")
    if gold is not None and len(gold) != len(tallies):
        raise ValueError("gold treebank does not align with the sentences")
    per_bucket: dict = {k: [] for k in range(1, n_c + 1)}
    for i, tally in enumerate(tallies):
        rep, n_a = tally.modal()
        modal = as_tree(rep)
        f1 = (sentence_f1(modal, gold.sentences[i]) if gold is not None else None)
        per_bucket[n_a].append((f1, len(tally.words), tree_depth(modal)))
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
