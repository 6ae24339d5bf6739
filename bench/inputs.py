"""Seeded inputs for the benchmark workloads.

Every file the pipeline reads is built here from the benchmark seed; the
program under test receives only these files.  A workload directory
holds:

* ``train.trees`` – gold trees the predictor trains on
* ``test.txt`` / ``test.trees`` – sentences to parse and their gold trees
* ``unlabeled.txt`` / ``unlabeled.trees`` – the self-training corpus and
  its gold trees (report columns only)
* ``members/member_<k>.trees`` – ensemble parses of ``unlabeled.txt``,
  made as seeded perturbations of its gold trees

Grammar corpora are sampled by the program's own ``gen-synthetic``
command; random corpora use ``treebank.random_binary`` over a fixed
Zipf-weighted vocabulary, with sentence lengths spread evenly over the
workload's range so every seed sees the same length profile.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from distparse import treebank
from distparse.treebank import Leaf, Node

N_MEMBERS = 15
ADMIT_AT = 9           # selftrain's default threshold: ceil(0.60 * 15)
VOCAB_SIZE = 2000
_VOCAB = tuple(f"w{i:04d}" for i in range(VOCAB_SIZE))
_VOCAB_CUM = tuple(itertools.accumulate(1.0 / (i + 1)
                                        for i in range(VOCAB_SIZE)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grammar: Optional[str]     # grammar file for gen-synthetic corpora
    lengths: Optional[tuple]   # (lo, hi) words of random corpora
    n_train: int
    n_test: int
    n_unlabeled: int
    train_flags: tuple
    selftrain_flags: tuple     # a bare --ensemble-dir means the member files


@dataclass
class Inputs:
    root: Path
    properties: dict
    expected_silver: Optional[tuple]  # (admitted trees, mean F1); see _members
    digest: str


# ---------------------------------------------------------------------------
# Corpora


def _random_corpus(rng: random.Random, n: int, lo: int, hi: int) -> list:
    span = hi - lo + 1
    lengths = [lo + i % span for i in range(n)]
    rng.shuffle(lengths)
    trees = []
    for length in lengths:
        tokens = rng.choices(_VOCAB, cum_weights=_VOCAB_CUM, k=length)
        trees.append(treebank.random_binary(tokens, rng))
    return trees


def _write_corpus(trees, txt: Optional[Path], tree_path: Path) -> None:
    treebank.dump_trees(treebank.Treebank(list(trees)), tree_path)
    if txt is not None:
        with open(txt, "w") as fh:
            for t in trees:
                fh.write(" ".join(treebank.leaves(t)) + "\n")


# ---------------------------------------------------------------------------
# Ensemble members


def _rotate(t, rng: random.Random, rate: float):
    """Local rotations ((A B) C) <-> (A (B C)) at a ``rate`` of the
    internal nodes; leaf order is kept."""
    if isinstance(t, Leaf):
        return t
    left, right = (_rotate(c, rng, rate) for c in t.children)
    if rng.random() < rate:
        if isinstance(left, Node) and (not isinstance(right, Node)
                                       or rng.random() < 0.5):
            a, b = left.children
            return Node(None, (a, Node(None, (b, right))))
        if isinstance(right, Node):
            b, c = right.children
            return Node(None, (Node(None, (left, b)), c))
    return Node(t.label, (left, right))


def spans(t) -> frozenset:
    """Unlabeled (start, end) spans of the internal nodes."""
    out = []

    def walk(node, start):
        if isinstance(node, Leaf):
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end)
        out.append((start, end))
        return end

    walk(t, 0)
    return frozenset(out)


def f1(pred, gold) -> float:
    p, g = spans(pred), spans(gold)
    if not p and not g:
        return 100.0
    hits = len(p & g)
    if not hits:
        return 0.0
    return 200.0 * hits / (len(p) + len(g))


def _members(gold_trees, rng: random.Random):
    """Member parses per sentence plus the expected silver outcome.

    Each sentence gets an agreement count k, spread evenly over 1..15
    in seeded order, and a consensus tree: the gold tree or a perturbed
    copy.  k members emit the consensus tree and the others emit
    distinct perturbations of it.
    When every perturbation is distinct, exactly the sentences with
    k >= ADMIT_AT are admitted, with the consensus tree as the modal
    parse, so the silver set is known in advance: the expected outcome
    is the consensus trees of the admitted sentences, in corpus order,
    and their mean F1 against gold.  It is None when some sentence ran
    out of distinct perturbations.
    """
    rows, admitted, admitted_f1, exact = [], [], [], True
    ks = [1 + i % N_MEMBERS for i in range(len(gold_trees))]
    rng.shuffle(ks)
    for gold, k in zip(gold_trees, ks):
        consensus = gold if rng.random() < 0.5 else _rotate(gold, rng, 0.2)
        seen = {spans(consensus)}
        others = []
        while len(others) < N_MEMBERS - k:
            # a random walk of rotations, so repeats lead further away
            t = consensus
            for _attempt in range(50):
                t = _rotate(t, rng, 0.3)
                key = spans(t)
                if key not in seen:
                    break
            else:
                exact = False  # too few distinct trees over this sentence
            seen.add(key)
            others.append(t)
        row = [consensus] * k + others
        rng.shuffle(row)
        rows.append(row)
        if k >= ADMIT_AT and len(treebank.leaves(gold)) >= 2:
            admitted.append(consensus)
            admitted_f1.append(f1(consensus, gold))
    expected = None
    if exact and admitted:
        expected = (admitted, sum(admitted_f1) / len(admitted_f1))
    return rows, expected


# ---------------------------------------------------------------------------
# Properties


def _depth(t) -> int:
    if isinstance(t, Leaf):
        return 0
    return 1 + max(_depth(c) for c in t.children)


def _corpus_properties(trees) -> dict:
    lengths = [len(treebank.leaves(t)) for t in trees]
    return {
        "sentences": len(trees),
        "mean_len": sum(lengths) / len(lengths),
        "max_len": max(lengths),
        "mean_depth": sum(_depth(t) for t in trees) / len(trees),
    }


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.name.endswith(".run.json"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up


def build(spec: Workload, seed: int, root: Path, run_command) -> Inputs:
    """Write every input file of ``spec`` under ``root``.

    ``run_command(argv)`` runs one CLI command and returns whether it
    succeeded; grammar corpora are sampled through it.
    """
    root.mkdir(parents=True)
    (root / "members").mkdir()
    rng = random.Random(seed)
    sizes = {"train": spec.n_train, "test": spec.n_test,
             "unlabeled": spec.n_unlabeled}
    corpora = {}
    for k, (part, n) in enumerate(sizes.items()):
        txt, trees = root / f"{part}.txt", root / f"{part}.trees"
        if spec.grammar is not None:
            run_command(["gen-synthetic", "--grammar", spec.grammar,
                         "--n", str(n), "--seed", str(seed * 10 + k),
                         "--out", str(txt), "--trees-out", str(trees),
                         "--binarize", "right"])
            corpora[part] = list(treebank.load_trees(trees))
        else:
            corpora[part] = _random_corpus(rng, n, *spec.lengths)
            _write_corpus(corpora[part], txt, trees)

    rows, expected = _members(corpora["unlabeled"], rng)
    for m in range(N_MEMBERS):
        _write_corpus([row[m] for row in rows], None,
                      root / "members" / f"member_{m}.trees")

    vocab = {w for t in corpora["train"] for w in treebank.leaves(t)}
    test_tokens = [w for t in corpora["test"] for w in treebank.leaves(t)]
    properties = {part: _corpus_properties(trees)
                  for part, trees in corpora.items()}
    properties["train"]["vocab_size"] = len(vocab)
    properties["test"]["oov_share"] = (
        sum(w not in vocab for w in test_tokens) / len(test_tokens))
    return Inputs(root, properties, expected, _digest(root))
