#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the distparse pipeline.

Runs the real pipeline in one process through ``distparse.cli.main``:
``train`` -> ``parse`` -> ``eval`` -> ``analyze --report agreement`` ->
``selftrain`` on seeded synthetic inputs (see ``inputs.py``), repeating
the pipeline while the next pass fits in ``--seconds`` (three passes at
least), and checks every command's output.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload toy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of every module (``tracer.py``) and reports per-layer
calls, self time and share instead.  A result file with the machine,
the seed and the input properties goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GRAMMAR = ROOT / "data" / "toy_grammar.cfg"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

SETUP_REPEATS = 3
MIN_PASSES = 3

# End-to-end metrics: name -> unit.
E2E = {
    "setup_s": "s",
    "train_sents_per_s": "sent/s",
    "parse_sents_per_s": "sent/s",
    "eval_sents_per_s": "sent/s",
    "agreement_sents_per_s": "sent/s",
    "selftrain_sents_per_s": "sent/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "macro_f1": "f1",
    "silver_f1": "f1",
    "success_rate": "ratio",
}

# Traced functions per module.
LAYERS = {
    "treebank": ("read_trees", "format_tree", "binarize", "leaves",
                 "gen_synthetic"),
    "distance": ("tree_to_latent", "tree_to_gaps", "latent_to_tree",
                 "gaps_to_tree"),
    "predictor": ("forward", "rank_loss_with_grad", "gradients", "train",
                  "predict_tree"),
    "metrics": ("brackets", "corpus_eval", "agreement_groups",
                "agreement_report"),
    "selftrain": ("collect_ensemble", "build_silver", "self_train"),
}
COMMANDS = ("gen-synthetic", "train", "parse", "eval", "analyze", "selftrain")
# Spans that only set-up produces; their share is over traced set-up wall.
SETUP_SPANS = ("treebank.gen_synthetic", "cli.main.gen-synthetic")


def layer_names() -> list:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"cli.main.{cmd}" for cmd in COMMANDS]


def per_layer_metrics() -> dict:
    """Per-layer metric name -> unit, in report order."""
    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.share"] = "ratio"
    out["predictor.cpu_per_wall"] = "ratio"
    out["selftrain.admit_ratio"] = "ratio"
    out["trace_overhead"] = "ratio"
    return out


def _workloads():
    from inputs import Workload

    return {
        "toy": Workload(
            name="toy",
            why="~6-word grammar sentences: per-sentence Python and small "
                "numpy calls in forward/backward/decode dominate",
            grammar=str(GRAMMAR), lengths=None,
            n_train=600, n_test=12000, n_unlabeled=1200,
            train_flags=("--epochs", "6", "--lr", "0.2"),
            selftrain_flags=("--internal-members", "3", "--head", "dg",
                             "--epochs", "1", "--lr", "0.2")),
        "long": Workload(
            name="long",
            why="10-40-word random binary trees: matmul size, the O(n^2) "
                "pairwise hinge, recursive decode and tree walkers dominate",
            grammar=None, lengths=(10, 40),
            n_train=300, n_test=4000, n_unlabeled=400,
            train_flags=("--epochs", "3", "--lr", "0.2"),
            # members trained on random trees agree on nothing, and their
            # silver F1 is bimodal over seeds, so the member files vote
            selftrain_flags=("--ensemble-dir", "--epochs", "1")),
        "consensus": Workload(
            name="consensus",
            why="15 member parse files over many sentences: tree reading, "
                "leaves checks, bracket voting and silver encoding dominate",
            grammar=None, lengths=(8, 30),
            n_train=800, n_test=8000, n_unlabeled=1000,
            train_flags=("--epochs", "3", "--lr", "0.2",
                         "--hidden", "16", "--embed", "8"),
            selftrain_flags=("--ensemble-dir", "--epochs", "1",
                             "--hidden", "16", "--embed", "8")),
    }


# ---------------------------------------------------------------------------
# Environment


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "config": None, "threads": None}
    try:
        info["name"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        info["threads"] = get_threads()
        info["config"] = get_config().decode()
    return info


def environment(args) -> dict:
    import numpy as np

    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Output checks (independent of the program's own readers)


def _tree_words(line: str) -> list:
    toks = line.replace("(", " ( ").replace(")", " ) ").split()
    return [t for i, t in enumerate(toks)
            if t not in ("(", ")") and toks[i - 1] != "("]


def _read_sentences(path: Path) -> list:
    return [line.split() for line in path.read_text().splitlines()
            if line.strip()]


def _leaves(t) -> list:
    from distparse.treebank import Leaf

    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.token)
        else:
            stack.extend(reversed(node.children))
    return out


def _stdout_value(text: str, key: str):
    for line in text.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1].split()[0]
    return None


class Runner:
    """Runs CLI commands, checks their outputs and keeps the tallies."""

    def __init__(self, tracer=None):
        from distparse import cli

        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.reference = {}   # values that must repeat across passes
        self.cpu = {}         # command -> process CPU seconds of its last run

    def command(self, argv, check=None):
        """Run one command; returns (passed, wall seconds, stdout).

        A command passes when it exits 0 and ``check(stdout)`` returns
        no problems.  Failures are recorded, never raised."""
        gc.collect()
        out = io.StringIO()
        span = (self.tracer.span(f"cli.main.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), span:
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a stop
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.cpu[argv[0]] = time.process_time() - cpu_start
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not problems and check is not None:
            try:
                problems = check(out.getvalue())
            except Exception as exc:  # unreadable output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{argv[0]}: " + "; ".join(problems))
        return not problems, wall, out.getvalue()

    def repeat(self, key, value) -> list:
        """Problems if ``value`` differs from the first one seen."""
        first = self.reference.setdefault(key, value)
        return [] if first == value else [f"{key} {value} != {first}"]


def _epochs(spec) -> int:
    return int(spec.train_flags[spec.train_flags.index("--epochs") + 1])


def run_pipeline(runner: Runner, spec, inp, out: Path) -> dict:
    """One pass of every command; returns stage -> wall seconds."""
    import inputs
    from distparse import distance

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    w = inp.root
    epochs = _epochs(spec)
    test_words = _read_sentences(w / "test.txt")
    walls = {}

    def check_train(text):
        done = sum(line.startswith("epoch ") for line in text.splitlines())
        problems = [] if done == epochs else [f"{done} epochs of {epochs}"]
        if not (out / "model.npz").is_file():
            problems.append("no model written")
        return problems

    def check_parse(text):
        lines = (out / "pred.trees").read_text().splitlines()
        if len(lines) != len(test_words):
            return [f"{len(lines)} trees for {len(test_words)} sentences"]
        bad = sum(_tree_words(a) != b for a, b in zip(lines, test_words))
        return [f"{bad} trees over the wrong words"] if bad else []

    def check_eval(text):
        n = _stdout_value(text, "sentences")
        if n != str(len(test_words)):
            return [f"scored {n} of {len(test_words)} sentences"]
        return runner.repeat("macro_f1", _stdout_value(text, "macro_f1"))

    def check_agreement(text):
        with open(out / "agreement.csv") as fh:
            hist = {int(r["n_agree"]): int(r["count"])
                    for r in csv.DictReader(fh)}
        if sum(hist.values()) != spec.n_unlabeled:
            return [f"agreement rows cover {sum(hist.values())} sentences"]
        return runner.repeat("agreement_histogram", hist)

    def check_selftrain(text):
        problems = []
        records = [json.loads(line) for line in
                   (out / "st" / "silver.jsonl").read_text().splitlines()]
        ensemble = "--ensemble-dir" in spec.selftrain_flags
        if ensemble and inp.expected_silver is None:
            problems.append("expected silver set unknown: member files "
                            "lack distinct perturbations")
        expected = inp.expected_silver[0] if ensemble and inp.expected_silver \
            else None
        for i, rec in enumerate(records):
            # both encodings decode exactly to the admitted tree
            tree = distance.latent_to_tree(rec["dl"], rec["tokens"])
            gaps = distance.gaps_to_tree(rec["dg"], rec["tokens"])
            if _leaves(tree) != rec["tokens"]:
                problems.append(f"silver record {i} decodes to other words")
            elif inputs.spans(tree) != inputs.spans(gaps):
                problems.append(f"silver record {i}: dl and dg decode to "
                                f"different trees")
            elif expected is not None and i < len(expected) and (
                    rec["tokens"] != _leaves(expected[i])
                    or inputs.spans(tree) != inputs.spans(expected[i])):
                problems.append(f"silver record {i} is not the consensus "
                                f"tree of admitted sentence {i}")
            if problems:
                break
        with open(out / "st" / "silver_stats.csv") as fh:
            stats = next(csv.DictReader(fh))
        if int(stats["count"]) != len(records) or not stats["avg_f1"]:
            problems.append(f"silver stats {stats} for {len(records)} records")
            return problems
        problems += runner.repeat("silver_f1", stats["avg_f1"])
        problems += runner.repeat("silver_count", len(records))
        if expected is not None:
            f1 = inp.expected_silver[1]
            if len(records) != len(expected) or \
                    abs(float(stats["avg_f1"]) - f1) > 6e-5:
                problems.append(f"silver {len(records)} at F1 "
                                f"{stats['avg_f1']}, expected {len(expected)} "
                                f"at {f1:.4f}")
        return problems

    _, walls["train"], _ = runner.command(
        ["train", "--gold", str(w / "train.trees"),
         "--out", str(out / "model.npz"), *spec.train_flags], check_train)
    _, walls["parse"], _ = runner.command(
        ["parse", "--model", str(out / "model.npz"),
         "--in", str(w / "test.txt"), "--out", str(out / "pred.trees")],
        check_parse)
    _, walls["eval"], _ = runner.command(
        ["eval", "--pred", str(out / "pred.trees"),
         "--gold", str(w / "test.trees")], check_eval)
    _, walls["agreement"], _ = runner.command(
        ["analyze", "--report", "agreement",
         "--ensemble-dir", str(w / "members"),
         "--unlabeled", str(w / "unlabeled.txt"),
         "--gold", str(w / "unlabeled.trees"),
         "--out", str(out / "agreement.csv")], check_agreement)
    # members come from the member files or are trained on the gold trees
    flags = list(spec.selftrain_flags)
    if "--ensemble-dir" in flags:
        flags.insert(flags.index("--ensemble-dir") + 1, str(w / "members"))
    else:
        flags += ["--gold", str(w / "train.trees")]
    _, walls["selftrain"], _ = runner.command(
        ["selftrain", "--unlabeled", str(w / "unlabeled.txt"),
         "--gold-parses", str(w / "unlabeled.trees"),
         "--out-dir", str(out / "st"), *flags], check_selftrain)
    return walls


# ---------------------------------------------------------------------------
# Measurement


def _setup(runner: Runner, spec, seed: int, root: Path):
    import inputs

    gc.collect()
    start = time.perf_counter()
    inp = inputs.build(spec, seed, root,
                       lambda argv: runner.command(argv)[0])
    return inp, time.perf_counter() - start


def _rates(spec, passes: list) -> dict:
    """Total work over total stage wall across ``passes``, so one slow
    pass weighs by its length, not by a vote."""
    wall = {stage: sum(p[stage] for p in passes) for stage in passes[0]}
    n = len(passes)
    return {
        "train_sents_per_s": n * spec.n_train * _epochs(spec) / wall["train"],
        "parse_sents_per_s": n * spec.n_test / wall["parse"],
        "eval_sents_per_s": n * spec.n_test / wall["eval"],
        "agreement_sents_per_s": n * spec.n_unlabeled / wall["agreement"],
        "selftrain_sents_per_s": n * spec.n_unlabeled / wall["selftrain"],
        "total_s": sum(wall.values()) / n,
    }


def measure(args, work: Path) -> dict:
    spec = _workloads()[args.workload]
    tracer = None
    if args.trace:
        import distparse.cli  # loads every module, so install sees each binding
        from tracer import Tracer

        tracer = Tracer()
        for mod, names in LAYERS.items():
            tracer.install(importlib.import_module(f"distparse.{mod}"), names)
    runner = Runner(tracer)

    # untimed warm-up of the in-process imports on a tiny input set
    tiny = replace(spec, n_train=20, n_test=20, n_unlabeled=20)
    warm = Runner(tracer)
    tiny_inp, _ = _setup(warm, tiny, args.seed, work / "warmup")
    run_pipeline(warm, tiny, tiny_inp, work / "warmup-out")
    runner.attempted += warm.attempted
    runner.failures += [f"warm-up {f}" for f in warm.failures]

    setup_walls, digests = [], set()
    for k in range(SETUP_REPEATS):
        inp, wall = _setup(runner, spec, args.seed, work / f"inputs{k}")
        setup_walls.append(wall)
        digests.add(inp.digest)
    if len(digests) != 1:
        runner.failures.append("set-up: one seed gave different inputs")

    result = {"inputs": inp.properties, "setup_walls": setup_walls,
              "passes": []}
    traced_setup_wall = None
    if tracer:
        tracer.enabled = True
        inp, traced_setup_wall = _setup(runner, spec, args.seed,
                                        work / "inputs-traced")
        tracer.enabled = False
        setup_stats = tracer.stats()
        tracer.reset()

    # passes until the next one would end past --seconds
    start = time.perf_counter()
    n, last = 0, 0.0
    while n < MIN_PASSES * (2 if tracer else 1) or (
            time.perf_counter() - start + last <= args.seconds):
        traced = bool(tracer) and n % 2 == 1
        pass_start = time.perf_counter()
        if tracer:
            tracer.enabled = traced
        walls = run_pipeline(runner, spec, inp, work / "out")
        if tracer:
            tracer.enabled = False
        if traced:
            tracer.keep_spans = False   # raw spans of the first traced pass
        last = time.perf_counter() - pass_start
        result["passes"].append({"traced": traced, "walls": walls,
                                 "cpu": dict(runner.cpu)})
        n += 1

    untraced = [it["walls"] for it in result["passes"]
                 if not it["traced"]]
    metrics = {"setup_s": statistics.median(setup_walls)}
    metrics.update(_rates(spec, untraced))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics["macro_f1"] = float(runner.reference.get("macro_f1") or 0.0)
    metrics["silver_f1"] = float(runner.reference.get("silver_f1") or 0.0)
    failed = len(runner.failures)
    metrics["success_rate"] = (runner.attempted - failed) / runner.attempted
    result["agreement_histogram"] = runner.reference.get(
        "agreement_histogram")
    result["silver_count"] = runner.reference.get("silver_count")

    if tracer:
        traced_totals = [sum(it["walls"].values())
                         for it in result["passes"] if it["traced"]]
        result["layers"] = layer_report(
            tracer, setup_stats, traced_setup_wall, traced_totals)
        result["layers"]["predictor.cpu_per_wall"] = (
            tracer.cpu_s / tracer.cpu_wall_s if tracer.cpu_wall_s else 0.0)
        result["layers"]["selftrain.admit_ratio"] = (
            (result["silver_count"] or 0) / spec.n_unlabeled)
        result["layers"]["trace_overhead"] = (
            sum(traced_totals) / len(traced_totals) / metrics["total_s"])
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans_written"] = tracer.write_spans(spans)
        if not result["spans_written"]:
            runner.failures.append("tracer: no spans written")
        tracer.uninstall()

    result["metrics"] = metrics
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    return result


def layer_report(tracer, setup_stats: dict, setup_wall: float,
                 traced_totals: list) -> dict:
    """calls and self seconds per traced pass, and self time's share of
    the traced pass wall; set-up-only spans report the traced set-up."""
    stats = tracer.stats()
    passes, wall = len(traced_totals), sum(traced_totals)
    out = {}
    for name in layer_names():
        if name in SETUP_SPANS:
            calls, self_s = setup_stats.get(name, (0, 0.0))
            share = self_s / setup_wall
        else:
            calls, self_s = stats.get(name, (0, 0.0))
            share = self_s / wall
            calls, self_s = calls / passes, self_s / passes
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = share
    return out


# ---------------------------------------------------------------------------
# Entry points


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = environment(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    if args.trace:
        values, units = result["layers"], per_layer_metrics()
    else:
        values, units = result["metrics"], E2E
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                 values, units)
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each table and one
    summary line with workload-prefixed metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _workloads():
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["toy", "long", "consensus", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distparse" / "__init__.py").is_file() or not GRAMMAR.is_file():
        print(f"error: {SRC / 'distparse'} or {GRAMMAR} is missing; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
