"""Command-line entry point.

Subcommands cover the whole pipeline: converting between trees and
distance records, parsing with a trained model, scoring against gold,
training, ensemble self-training, the analysis reports, and synthetic
corpus generation.  Every run that writes an output also writes a
``run.json`` sidecar holding the fully resolved options, so any result
can be reproduced from the sidecar alone.

Exit codes: 0 success, 1 usage error, 2 bad data or failed validation,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, distance, metrics, predictor, selftrain, treebank
from .distance import RecordFormatError
from .predictor import DistancePredictor, TrainExample, TrainingConfig, Vocab
from .selftrain import DirectoryEnsemble, EnsembleError, InternalEnsemble, SelfTrainConfig
from .treebank import TreeParseError

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here
    # reserves 2 for data errors, so route usage problems to 1 instead
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="distparse",
                     description="Distance-based constituency parsing toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("convert", help="convert trees to distance records "
                                       "or decode records back to trees")
    p.add_argument("--mode", required=True,
                   choices=["tree2dl", "tree2dg", "dl2tree", "dg2tree"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-depth", type=_positive_int, default=100)
    p.add_argument("--binarize", choices=["right", "left", "none"],
                   default="right", help="binarization applied before "
                   "extracting distances (tree2* modes)")
    p.add_argument("--ties", choices=["left", "right"], default="left")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("parse", help="parse sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="one whitespace-tokenized sentence per line")
    p.add_argument("--out", required=True)
    p.add_argument("--head", choices=["dl", "dg"], default="dl")
    p.add_argument("--ties", choices=["left", "right"], default="left")
    p.add_argument("--annotate", action="store_true",
                   help="label the output trees with the label head")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="accepted for compatibility; parsing runs on one "
                        "thread")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predictions against gold trees")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--no-full-span", action="store_true",
                   help="exclude the whole-sentence bracket")
    p.add_argument("--csv", default=None, help="write per-bucket stats here")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="accepted for compatibility; scoring runs on one "
                        "thread")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="train a distance predictor")
    p.add_argument("--gold", required=True, help="gold trees (S-expressions)")
    p.add_argument("--silver", default=None,
                   help="silver distance records (JSON lines)")
    p.add_argument("--out", required=True, help="model output path (.npz)")
    p.add_argument("--binarize", choices=["right", "left"], default="right")
    p.add_argument("--no-labels", action="store_true",
                   help="skip the constituent label head")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("selftrain",
                       help="ensemble consensus filtering plus retraining")
    p.add_argument("--unlabeled", required=True,
                   help="one whitespace-tokenized sentence per line")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ensemble-dir",
                     help="directory of member_<k>.trees parse files")
    src.add_argument("--internal-members", type=_positive_int,
                     help="train this many seed-varied members on --gold")
    p.add_argument("--gold", default=None,
                   help="gold trees mixed into retraining (and the "
                        "bootstrap set for --internal-members)")
    p.add_argument("--gold-parses", default=None,
                   help="gold trees aligned with --unlabeled; report "
                        "columns only, never trained on")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mu", type=float, default=0.60)
    p.add_argument("--nc", type=_positive_int, default=15)
    p.add_argument("--strict", action="store_true",
                   help="admit only agreement strictly above mu*nc")
    p.add_argument("--rounds", type=_positive_int, default=1)
    p.add_argument("--head", choices=["dl", "dg"], default="dl")
    p.add_argument("--binarize", choices=["right", "left"], default="right")
    _add_train_flags(p)
    p.set_defaults(func=cmd_selftrain)

    p = sub.add_parser("analyze", help="agreement and length-bucket reports")
    p.add_argument("--report", required=True, choices=["agreement", "buckets"])
    p.add_argument("--out", required=True)
    p.add_argument("--ensemble-dir", help="agreement report input")
    p.add_argument("--unlabeled", help="sentence file for the agreement report")
    p.add_argument("--gold", help="gold trees (adds F1 columns; required "
                                  "for the buckets report)")
    p.add_argument("--baseline", help="baseline predictions (buckets report)")
    p.add_argument("--selftrained",
                   help="self-trained predictions (buckets report)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-synthetic",
                       help="sample a synthetic corpus from a weighted grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sentence file, one per line")
    p.add_argument("--trees-out", default=None, help="also write the trees")
    p.add_argument("--max-len", type=_positive_int, default=40)
    p.add_argument("--binarize", choices=["right", "left", "none"],
                   default="none", help="binarize the written trees")
    p.set_defaults(func=cmd_gen)

    return parser


# flag name -> TrainingConfig field; defaults live on the dataclass so a
# --config file can sit between them and explicit flags
_TRAIN_FLAG_FIELDS = {
    "alpha": "alpha", "l1": "l1", "l2": "l2", "hidden": "hidden_dim",
    "embed": "embed_dim", "lr": "lr", "epochs": "epochs",
    "batch_size": "batch_size", "mix_ratio": "mix_ratio",
    "ties": "tie_policy", "seed": "seed",
}


def _add_train_flags(p) -> None:
    p.add_argument("--config", default=None,
                   help="key=value file of training settings; explicit "
                        "flags override it")
    p.add_argument("--alpha", type=float, default=None,
                   help="weight of the gap loss vs the latent loss "
                        "(default 0.5)")
    p.add_argument("--l1", type=_positive_int, default=None,
                   help="words of left context in the first window "
                        "(default 4)")
    p.add_argument("--l2", type=_positive_int, default=None,
                   help="second window size; defaults to --l1")
    p.add_argument("--hidden", type=_positive_int, default=None,
                   help="hidden state size (default 300)")
    p.add_argument("--embed", type=_positive_int, default=None,
                   help="word embedding size (default 100)")
    p.add_argument("--lr", type=float, default=None, help="default 0.01")
    p.add_argument("--epochs", type=_positive_int, default=None,
                   help="default 100")
    p.add_argument("--batch-size", type=_positive_int, default=None,
                   help="default 16")
    p.add_argument("--mix-ratio", type=float, default=None,
                   help="probability of drawing a silver batch (default 0.5)")
    p.add_argument("--ties", choices=["left", "right"], default=None,
                   help="argmax tie policy for decoding (default left)")
    p.add_argument("--max-depth", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=None, help="default 0")


def _training_config(ns) -> TrainingConfig:
    kw = predictor.load_config(ns.config) if ns.config else {}
    for flag, field in _TRAIN_FLAG_FIELDS.items():
        value = getattr(ns, flag)
        if value is not None:
            kw[field] = value
    return TrainingConfig(**kw)


def write_run_json(path, ns, resolved=None) -> None:
    """Record the fully resolved options of a run next to its output.

    ``resolved`` supplies values for options whose flags were left at
    None and filled in elsewhere (training settings)."""
    options = {k: v for k, v in vars(ns).items() if k != "func"}
    if resolved:
        options.update(resolved)
    payload = {"tool": "distparse", "version": __version__,
               "command": options.pop("command"), "options": options}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolved_training(config: TrainingConfig) -> dict:
    return {flag: getattr(config, field)
            for flag, field in _TRAIN_FLAG_FIELDS.items()}


def _read_sentences(path) -> list:
    sentences = []
    with open(path) as f:
        for line in f:
            tokens = line.split()
            if not tokens:
                continue
            sentences.append(tuple(tokens))
    if not sentences:
        raise RecordFormatError(f"{path}: no sentences")
    return sentences


def _load_examples(path, direction, max_depth, keep_tree=True) -> list:
    bank = treebank.load_trees(path)
    out = []
    for t in bank:
        bt = treebank.binarize(t, direction)
        out.append(TrainExample.from_tree(bt, max_depth, keep_tree=keep_tree))
    return out


# ---------------------------------------------------------------------------
# Commands


def cmd_convert(ns) -> None:
    if ns.mode in ("tree2dl", "tree2dg"):
        bank = treebank.load_trees(ns.infile)
        records = []
        for t in bank:
            bt = treebank.binarize(t, ns.binarize) if ns.binarize != "none" else t
            records.append(distance.record_from_tree(bt, ns.max_depth))
        distance.dump_records(records, ns.out)
    else:
        records = distance.load_records(ns.infile)
        trees = []
        for rec in records:
            if ns.mode == "dl2tree":
                trees.append(distance.latent_to_tree(rec.dl, rec.tokens, ns.ties))
            else:
                trees.append(distance.gaps_to_tree(rec.dg, rec.tokens, ns.ties))
        treebank.dump_trees(treebank.Treebank(trees), ns.out)
    write_run_json(str(ns.out) + ".run.json", ns)


def cmd_parse(ns) -> None:
    model = DistancePredictor.load(ns.model)
    trees = predictor.predict_trees(model, _read_sentences(ns.infile),
                                    head=ns.head, ties=ns.ties,
                                    annotate=ns.annotate)
    treebank.dump_trees(treebank.Treebank(trees), ns.out)
    write_run_json(str(ns.out) + ".run.json", ns)


def cmd_eval(ns) -> None:
    pred = treebank.load_trees(ns.pred)
    gold = treebank.load_trees(ns.gold)
    report = metrics.corpus_eval(pred, gold,
                                 include_full_span=not ns.no_full_span,
                                 labeled=ns.labeled)
    print(f"sentences={len(report.per_sentence_f1)}")
    print(f"macro_f1={report.macro_f1:.4f}")
    if report.labeled_f1 is not None:
        print(f"labeled_f1={report.labeled_f1:.4f}")
    for b in report.buckets:
        if b.count:
            print(f"bucket[{b.name}] count={b.count} avg_f1={b.avg_f1:.4f}")
    if ns.csv:
        with open(ns.csv, "w", newline="") as f:
            metrics.write_eval_csv(report.buckets, f)
        write_run_json(str(ns.csv) + ".run.json", ns)


def cmd_train(ns) -> None:
    config = _training_config(ns)
    gold = _load_examples(ns.gold, ns.binarize, ns.max_depth)
    silver = []
    if ns.silver:
        silver = [TrainExample.from_record(r)
                  for r in distance.load_records(ns.silver)]
    vocab = Vocab.build([ex.tokens for ex in gold]
                        + [ex.tokens for ex in silver])
    labels = None if ns.no_labels else predictor.collect_labels(gold)
    model = DistancePredictor.create(vocab, config, labels=labels)
    trace = predictor.train(model, gold, silver, config)
    for epoch, loss in enumerate(trace, 1):
        print(f"epoch {epoch} loss {loss:.6f}")
    model.save(ns.out)
    write_run_json(str(ns.out) + ".run.json", ns, _resolved_training(config))


def cmd_selftrain(ns) -> None:
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sentences = _read_sentences(ns.unlabeled)
    gold = (_load_examples(ns.gold, ns.binarize, ns.max_depth)
            if ns.gold else [])
    gold_parses = None
    if ns.gold_parses:
        gold_parses = [treebank.binarize(t, ns.binarize)
                       for t in treebank.load_trees(ns.gold_parses)]
    config = SelfTrainConfig(n_c=ns.nc, mu=ns.mu, max_depth=ns.max_depth,
                             rounds=ns.rounds, strict=ns.strict, head=ns.head,
                             predictor=_training_config(ns))
    if ns.ensemble_dir:
        source = DirectoryEnsemble(ns.ensemble_dir)
    else:
        if not gold:
            raise EnsembleError("--internal-members needs --gold to "
                                "bootstrap the members")
        base_seed = config.predictor.seed
        seeds = tuple(base_seed + k for k in range(ns.internal_members))
        source = InternalEnsemble(seeds=seeds, recipe=config.predictor,
                                  bootstrap=tuple(gold), head=ns.head)
        config = replace(config, n_c=ns.internal_members)

    result = selftrain.self_train(sentences, source, gold, config,
                                  gold_parses=gold_parses)

    distance.dump_records(result.silver.records(), out_dir / "silver.jsonl")
    result.model.save(out_dir / "model.npz")
    with open(out_dir / "agreement.csv", "w", newline="") as f:
        metrics.write_agreement_csv(result.agreement_rows, f)
    with open(out_dir / "silver_stats.csv", "w", newline="") as f:
        selftrain.write_silver_stats_csv(result.stats, f)
    for epoch, loss in enumerate(result.trace, 1):
        print(f"epoch {epoch} loss {loss:.6f}")
    print(f"silver={len(result.silver)} of {len(sentences)} sentences")
    write_run_json(out_dir / "run.json", ns, _resolved_training(config.predictor))


def cmd_analyze(ns) -> None:
    if ns.report == "agreement":
        if not ns.ensemble_dir or not ns.unlabeled:
            raise UsageError("analyze --report agreement needs "
                             "--ensemble-dir and --unlabeled")
        sentences = _read_sentences(ns.unlabeled)
        tallies = selftrain.collect_ensemble(
            DirectoryEnsemble(ns.ensemble_dir), sentences)
        gold = treebank.load_trees(ns.gold) if ns.gold else None
        rows = metrics.agreement_report(tallies, gold)
        with open(ns.out, "w", newline="") as f:
            metrics.write_agreement_csv(rows, f)
    else:
        if not ns.baseline or not ns.selftrained or not ns.gold:
            raise UsageError("analyze --report buckets needs --baseline, "
                             "--selftrained and --gold")
        base = treebank.load_trees(ns.baseline)
        self_tb = treebank.load_trees(ns.selftrained)
        gold = treebank.load_trees(ns.gold)
        rows = selftrain.compare_runs(base.sentences, self_tb.sentences,
                                      gold.sentences)
        with open(ns.out, "w", newline="") as f:
            selftrain.write_buckets_csv(rows, f)
    write_run_json(str(ns.out) + ".run.json", ns)


def cmd_gen(ns) -> None:
    grammar = treebank.parse_grammar(Path(ns.grammar).read_text())
    trees = treebank.gen_synthetic(grammar, ns.n, ns.seed, max_len=ns.max_len)
    with open(ns.out, "w") as f:
        for t in trees:
            f.write(" ".join(treebank.leaves(t)) + "\n")
    if ns.trees_out:
        if ns.binarize != "none":
            trees = [treebank.binarize(t, ns.binarize) for t in trees]
        treebank.dump_trees(treebank.Treebank(trees), ns.trees_out)
    write_run_json(str(ns.out) + ".run.json", ns)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        ns.func(ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        code = e.code
        return int(code) if code else 0
    except (TreeParseError, RecordFormatError, EnsembleError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
