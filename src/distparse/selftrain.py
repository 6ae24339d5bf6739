"""Ensemble-consensus self-training.

The pipeline parses an unlabeled corpus with an ensemble, keeps the
sentences on which enough members produce the same bracketing, converts
the winning parses into distance supervision (the silver set), and
trains a predictor on it, optionally mixed with gold data.

Ensemble members come either from parse files on disk (one file per
member, aligned line-by-line with the sentence file) or from predictors
trained in-process with varied seeds.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from . import distance, metrics, predictor, treebank
from .distance import DistanceRecord
from .predictor import DistancePredictor, TrainExample, TrainingConfig, Vocab
from .metrics import Tally
from .treebank import Tree, TreeParseError

log = logging.getLogger(__name__)


class EnsembleError(ValueError):
    """Raised when ensemble inputs are missing, misaligned, or cover
    different words than the sentence file."""


_MEMBER_PAT = re.compile(r"member_(\d+)\.trees$")


@dataclass(frozen=True)
class DirectoryEnsemble:
    """Parses read from ``member_<k>.trees`` files in one directory."""

    path: Union[str, Path]

    def describe(self) -> str:
        return f"directory:{self.path}"


@dataclass(frozen=True)
class InternalEnsemble:
    """Members trained in-process: one predictor per seed, each trained
    on the same bootstrap examples, then decoded with ``head``."""

    seeds: tuple
    recipe: TrainingConfig
    bootstrap: tuple  # TrainExamples every member trains on
    head: str = "dl"

    def describe(self) -> str:
        return f"internal:{len(self.seeds)}-seeds"


EnsembleSource = Union[DirectoryEnsemble, InternalEnsemble]


def _member_files(path) -> list[Path]:
    found = []
    for p in Path(path).iterdir():
        m = _MEMBER_PAT.fullmatch(p.name)
        if m:
            found.append((int(m.group(1)), p))
    if not found:
        raise EnsembleError(f"no member_<k>.trees files in {path}")
    found.sort()
    return [p for _, p in found]


def collect_ensemble(source: EnsembleSource,
                     sentences: Sequence[Sequence[str]],
                     spare_votes: int = 0) -> list[Tally]:
    """One tally of the members' parses per sentence.

    Every member must produce exactly one binary tree per sentence, over
    exactly the sentence's words.  Member files are read in lockstep, one
    line of each per sentence, and each line is dropped once it is
    tallied.  ``spare_votes`` is how many more votes a sentence may get
    later; parses that many votes could not make modal are not kept.
    """
    if not sentences:
        raise EnsembleError("no sentences to parse")
    if isinstance(source, DirectoryEnsemble):
        return _scan_members(_member_files(source.path), sentences,
                             spare_votes)
    if isinstance(source, InternalEnsemble):
        if not source.bootstrap:
            raise EnsembleError("internal ensemble needs bootstrap examples")
        vocab = Vocab.build([ex.tokens for ex in source.bootstrap]
                            + [tuple(s) for s in sentences])
        tallies = [Tally(tuple(s)) for s in sentences]
        for seed in source.seeds:
            cfg = replace(source.recipe, seed=int(seed))
            model = DistancePredictor.create(vocab, cfg)
            predictor.train(model, list(source.bootstrap), [], cfg)
            parses = predictor.predict_trees(
                model, sentences, head=source.head, ties=cfg.tie_policy)
            for tally, t in zip(tallies, parses):
                tally.add_tree(t)
        for tally in tallies:
            tally.prune(spare_votes)
        return tallies
    raise TypeError(f"unknown ensemble source: {type(source).__name__}")


def _nonblank_lines(stream):
    for lineno, line in enumerate(stream, start=1):
        if line.strip():
            yield lineno, line


def _scan_members(paths: Sequence[Path], sentences: Sequence[Sequence[str]],
                  spare_votes: int) -> list[Tally]:
    n = len(sentences)
    with ExitStack() as stack:
        members = [_nonblank_lines(stack.enter_context(open(path)))
                   for path in paths]
        tallies = []
        for i, sentence in enumerate(sentences):
            expected = list(sentence)
            tally = Tally(tuple(sentence))
            for k, lines in enumerate(members):
                lineno, line = next(lines, (None, None))
                if line is None:
                    if i == 0:
                        raise TreeParseError("no trees in input")
                    raise EnsembleError(
                        f"{paths[k]}: {i} parses for {n} sentences")
                words, node_spans, binary = treebank.scan_tree(line, lineno)
                if words != expected:
                    raise EnsembleError(f"member {k}, sentence {i}: parse "
                                        f"covers different words")
                if not binary:
                    raise EnsembleError(
                        f"member {k}, sentence {i}: parse is not binary")
                tally.add(metrics.bracket_key(node_spans, len(words)), line)
            tally.prune(spare_votes)
            tallies.append(tally)
        for path, lines in zip(paths, members):
            extra = sum(1 for _ in lines)
            if extra:
                raise EnsembleError(
                    f"{path}: {n + extra} parses for {n} sentences")
    return tallies


# ---------------------------------------------------------------------------
# Consensus filtering


@dataclass
class SelfTrainConfig:
    n_c: int = 15
    mu: float = 0.60
    max_depth: int = distance.DEFAULT_MAX_DEPTH
    rounds: int = 1
    strict: bool = False      # admit on n_a > mu*n_c instead of >=
    head: str = "dl"          # decode head for re-parsing rounds
    predictor: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.n_c < 1:
            raise ValueError("n_c must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")


def admission_threshold(mu: float, n_c: int, strict: bool = False) -> int:
    """Smallest agreement count that clears mu*n_c.

    Inclusive by default (n_a >= mu*n_c); ``strict`` demands a strict
    majority beyond the product.  Guarded against float dust so that
    e.g. mu=0.6, n_c=15 yields exactly 9.
    """
    product = mu * n_c
    if strict:
        return max(1, math.floor(product + 1e-9) + 1)
    return max(1, math.ceil(product - 1e-9))


@dataclass(frozen=True)
class SilverExample:
    """A consensus parse admitted to the silver set; ``index`` is the
    sentence's position in the unlabeled corpus."""

    index: int
    tokens: tuple
    tree: Tree
    record: DistanceRecord
    agreement: int


@dataclass
class SilverSet:
    examples: list
    n_c: int
    mu: float
    source: str = ""

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def records(self) -> list[DistanceRecord]:
        return [ex.record for ex in self.examples]


def build_silver(tallies: Sequence[Tally],
                 config: SelfTrainConfig, source: str = "") -> SilverSet:
    """Filter per-sentence ensemble votes down to the confident ones.

    A sentence is admitted when the modal bracketing is shared by at
    least the admission threshold of members; one-word sentences never
    are.  Admitted parses are stored with both distance encodings and
    their agreement count.
    """
    threshold = admission_threshold(config.mu, config.n_c, config.strict)
    examples = []
    for i, tally in enumerate(tallies):
        if len(tally) != config.n_c:
            raise EnsembleError(
                f"sentence {i}: {len(tally)} parses for an ensemble of "
                f"{config.n_c}")
        rep, n_a = tally.modal()
        tokens = tally.words
        if n_a < threshold or len(tokens) < 2:
            continue
        modal = metrics.as_tree(rep)
        rec = distance.record_from_tree(modal, config.max_depth, agreement=n_a)
        examples.append(SilverExample(i, tokens, modal, rec, n_a))
    return SilverSet(examples, config.n_c, config.mu, source)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class SilverStats:
    count: int
    avg_len: Optional[float]
    avg_depth: Optional[float]
    avg_f1: Optional[float]  # only when gold parses are on hand


def silver_statistics(silver: SilverSet,
                      gold: Optional[Sequence[Tree]] = None) -> SilverStats:
    """Size, average length and depth, and (given gold trees aligned
    with the unlabeled corpus) average F1 of the admitted parses."""
    if not silver.examples:
        return SilverStats(0, None, None, None)
    lens = [len(ex.tokens) for ex in silver.examples]
    depths = [treebank.tree_depth(ex.tree) for ex in silver.examples]
    avg_f1 = None
    if gold is not None:
        f1s = [metrics.sentence_f1(ex.tree, gold[ex.index])
               for ex in silver.examples]
        avg_f1 = sum(f1s) / len(f1s)
    return SilverStats(len(silver.examples),
                       sum(lens) / len(lens),
                       sum(depths) / len(depths),
                       avg_f1)


def write_silver_stats_csv(stats: SilverStats, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["avg_len", "avg_depth", "avg_f1", "count"])
    writer.writerow([metrics.fmt_cell(stats.avg_len),
                     metrics.fmt_cell(stats.avg_depth),
                     metrics.fmt_cell(stats.avg_f1), stats.count])


@dataclass(frozen=True)
class BucketComparison:
    name: str
    count: int
    avg_f1: Optional[float]       # mean F1 of the later run in the bucket
    pct_improved: Optional[float]  # % of sentences it strictly beats the baseline


def compare_runs(baseline: Sequence[Tree], selftrained: Sequence[Tree],
                 gold: Sequence[Tree]) -> list[BucketComparison]:
    """Per length bucket, how often the self-trained predictions beat
    the baseline predictions against gold."""
    if not len(baseline) == len(selftrained) == len(gold):
        raise ValueError(
            f"prediction files disagree on sentence count: "
            f"{len(baseline)} vs {len(selftrained)} vs {len(gold)}")
    per_bucket = [[] for _ in metrics.LENGTH_BUCKETS]
    for i, g in enumerate(gold):
        f1_base = metrics.sentence_f1(baseline[i], g)
        f1_self = metrics.sentence_f1(selftrained[i], g)
        n = treebank.leaf_count(g)
        per_bucket[metrics.bucket_index(n)].append((f1_self, f1_self > f1_base))
    rows = []
    for (lo, hi), entries in zip(metrics.LENGTH_BUCKETS, per_bucket):
        name = metrics.bucket_name(lo, hi)
        if not entries:
            rows.append(BucketComparison(name, 0, None, None))
            continue
        avg = sum(e[0] for e in entries) / len(entries)
        pct = 100.0 * sum(1 for e in entries if e[1]) / len(entries)
        rows.append(BucketComparison(name, len(entries), avg, pct))
    return rows


def write_buckets_csv(rows: Sequence[BucketComparison], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(["range", "count", "avg_f1", "pct_improved"])
    for r in rows:
        writer.writerow([r.name, r.count, metrics.fmt_cell(r.avg_f1),
                         metrics.fmt_cell(r.pct_improved)])


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class SelfTrainResult:
    model: DistancePredictor
    silver: SilverSet
    trace: list
    agreement_rows: list
    stats: SilverStats


def self_train(sentences: Sequence[Sequence[str]], source: EnsembleSource,
               gold: Sequence[TrainExample], config: SelfTrainConfig,
               gold_parses: Optional[Sequence[Tree]] = None) -> SelfTrainResult:
    """Run the whole loop: ensemble -> consensus filter -> train.

    ``gold`` may be empty (pure self-training); the run aborts only if
    the silver set also comes out empty.  ``gold_parses``, if given,
    must align with ``sentences`` and is used for report F1 columns
    only, never for training.  With ``rounds`` > 1 the freshly trained
    model joins the ensemble and the filter/train steps repeat.
    """
    sentences = [tuple(s) for s in sentences]
    gold = list(gold)
    if gold_parses is not None and len(gold_parses) != len(sentences):
        raise ValueError("gold_parses does not align with the sentence list")

    # each extra round adds one re-parse to every sentence's votes
    tallies = collect_ensemble(source, sentences,
                               spare_votes=config.rounds - 1)
    cfg = config
    model = None
    for round_no in range(config.rounds):
        silver = build_silver(tallies, cfg, source=source.describe())
        if not silver.examples and not gold:
            raise EnsembleError(
                f"nothing to train on: no sentence reached agreement "
                f">= {admission_threshold(cfg.mu, cfg.n_c, cfg.strict)} "
                f"of {cfg.n_c} and no gold data was given")
        log.info("round %d: %d of %d sentences admitted to silver",
                 round_no + 1, len(silver.examples), len(sentences))
        vocab = Vocab.build([ex.tokens for ex in gold] + list(sentences))
        labels = predictor.collect_labels(gold)
        pcfg = replace(cfg.predictor, seed=cfg.predictor.seed + round_no)
        model = DistancePredictor.create(vocab, pcfg, labels=labels)
        silver_train = [TrainExample.from_record(r) for r in silver.records()]
        trace = predictor.train(model, gold, silver_train, pcfg)
        if round_no + 1 < config.rounds:
            reparse = predictor.predict_trees(model, sentences, head=cfg.head,
                                              ties=pcfg.tie_policy)
            for tally, t in zip(tallies, reparse):
                tally.add_tree(t)
            cfg = replace(cfg, n_c=cfg.n_c + 1)

    gold_bank = (treebank.Treebank(list(gold_parses))
                 if gold_parses is not None else None)
    rows = metrics.agreement_report(tallies, gold_bank)
    stats = silver_statistics(silver, gold_parses)
    return SelfTrainResult(model, silver, trace, rows, stats)
