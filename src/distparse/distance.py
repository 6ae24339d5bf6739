"""Conversions between binary trees and syntactic distances.

Two encodings are supported, both reading a binary tree off the relative
ranking of real values (larger value = higher split):

* latent distances ("dl"): one value per word; the value at word k marks
  how high the constituent opened by word k attaches.  Word 0 is fixed
  at 1 and every split boundary receives ``max_depth`` minus the depth
  of its node.
* gap distances ("dg"): one value per adjacent-word gap, equal to the
  height of the lowest common ancestor of the two words.

Both encoders derive from ``treebank.walk``.  There is one decoder, a
monotone stack: a span splits at its maximal gap value, ties breaking
leftmost by default; a dl vector decodes as the gap vector ``dl[1:]``.
Nothing here recurses.
The module also defines the JSON-lines record format used to store
distance supervision on disk.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .treebank import Leaf, Node, Tree, walk

DEFAULT_MAX_DEPTH = 100


class RecordFormatError(ValueError):
    """Malformed distance-record line; carries the 1-based line number."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def _walk_splits(t: Tree):
    """Split order, depths and heights of a binary tree from its walk.

    Split k is the internal node whose right child starts at word k.  A
    node's right child, when internal, is the node just before it in
    post-order, so its split is that node's start, else ``end - 1``.  A
    split's depth is the number of other nodes whose spans cover its
    gap.  Returns the tokens, each split's depth (the root's is 0) and
    height as a float, in gap order, and the root's height.
    """
    tokens, nodes = walk(t)
    cover = [0] * len(tokens)  # per gap, the change in covering spans
    cover[0] = -1              # a split's own span does not count
    heights = [0.0] * (len(tokens) - 1)
    height = [0] * len(nodes)  # per node, in post-order
    for i, (start, end, node) in enumerate(nodes):
        if len(node.children) != 2:
            raise ValueError(
                f"tree is not binary: node with {len(node.children)} children")
        left, right = node.children
        if isinstance(right, Leaf):
            split, h = end - 1, 1
        else:
            split, h = nodes[i - 1][0], height[i - 1] + 1
        if not isinstance(left, Leaf):
            # before the right subtree's end - split - 1 nodes
            h = max(h, height[i - (end - split)] + 1)
        height[i] = h
        heights[split - 1] = float(h)
        cover[start] += 1
        cover[end - 1] -= 1
    depths = list(accumulate(cover[:-1]))
    return tokens, depths, heights, height[-1] if nodes else 0


def _latent(depths: list[int], height: int, max_depth: int) -> list[float]:
    if height >= max_depth:
        raise ValueError(f"tree depth {height} >= max_depth {max_depth}")
    return [1.0] + [float(max_depth - depth) for depth in depths]


def tree_to_latent(t: Tree, max_depth: int = DEFAULT_MAX_DEPTH) -> list[float]:
    """Per-word latent distances of a binary tree.

    Position 0 is 1; the first word of each internal node's right
    subtree holds ``max_depth`` minus that node's depth, so the root's
    split holds ``max_depth``.  Trees at least ``max_depth`` deep are
    rejected.
    """
    _, depths, _, height = _walk_splits(t)
    return _latent(depths, height, max_depth)


def tree_to_gaps(t: Tree) -> list[float]:
    """Per-gap distances: gap value = height of the two words' lowest
    common ancestor, which is the split between them."""
    _, _, heights, _ = _walk_splits(t)
    return heights


def latent_to_tree(d: Sequence[float], tokens: Sequence[str],
                   ties: str = "left") -> Tree:
    """Decode per-word distances.  Position 0 never splits and position
    k > 0 marks the gap before word k, so this is the gap decoder on
    ``d[1:]``."""
    if len(d) != len(tokens):
        raise ValueError(f"got {len(d)} distances for {len(tokens)} tokens")
    if not tokens:
        raise ValueError("cannot decode an empty sentence")
    return gaps_to_tree(d[1:], tokens, ties)


def gaps_to_tree(d: Sequence[float], tokens: Sequence[str],
                 ties: str = "left") -> Tree:
    """Decode per-gap distances: the tree that splits every span at its
    maximal gap, the leftmost of equal ones under ``ties="left"`` and
    the rightmost under ``"right"``.

    A monotone stack holds the open splits, each with its finished left
    subtree, in falling order.  A gap closes every open split lower than
    itself, and under ``"right"`` the equal ones too, into its own left
    subtree.  A NaN gap has no place in that order and is rejected.
    """
    if len(d) != len(tokens) - 1:
        raise ValueError(f"got {len(d)} gap distances for {len(tokens)} tokens")
    if not tokens:
        raise ValueError("cannot decode an empty sentence")
    if ties not in ("left", "right"):
        raise ValueError(f"unknown tie policy: {ties!r}")
    right_ties = ties == "right"
    values: list = []  # the open splits' gap values
    lefts: list = []   # and their left subtrees
    tree: Tree = Leaf(tokens[0])
    for k, v in enumerate(d, 1):
        if v != v:
            raise ValueError(f"cannot decode a NaN distance at gap {k - 1}")
        while values and (values[-1] < v or right_ties and values[-1] == v):
            values.pop()
            tree = Node(None, (lefts.pop(), tree))
        values.append(v)
        lefts.append(tree)
        tree = Leaf(tokens[k])
    while lefts:
        tree = Node(None, (lefts.pop(), tree))
    return tree


# ---------------------------------------------------------------------------
# Distance records (JSON lines)


@dataclass(frozen=True)
class DistanceRecord:
    """One sentence with both distance vectors and an optional count of
    ensemble members that agreed on its parse."""

    tokens: tuple
    dl: tuple
    dg: tuple
    agreement: Optional[int] = None

    def __post_init__(self):
        if len(self.dl) != len(self.tokens):
            raise ValueError("dl length must equal token count")
        if len(self.dg) != len(self.tokens) - 1:
            raise ValueError("dg length must equal token count - 1")


def record_from_tree(t: Tree, max_depth: int = DEFAULT_MAX_DEPTH,
                     agreement: Optional[int] = None) -> DistanceRecord:
    """Both encodings of a binary tree from one walk."""
    tokens, depths, heights, height = _walk_splits(t)
    return DistanceRecord(
        tokens=tuple(tokens),
        dl=tuple(_latent(depths, height, max_depth)),
        dg=tuple(heights),
        agreement=agreement,
    )


def write_records(records: Iterable[DistanceRecord], stream) -> None:
    for rec in records:
        obj = {"tokens": list(rec.tokens), "dl": list(rec.dl), "dg": list(rec.dg)}
        if rec.agreement is not None:
            obj["agreement"] = rec.agreement
        stream.write(json.dumps(obj) + "\n")


def read_records(stream: Union[str, Iterable[str]]) -> list[DistanceRecord]:
    if isinstance(stream, str):
        stream = stream.splitlines()
    records = []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(f"bad JSON: {exc}", lineno)
        if not isinstance(obj, dict):
            raise RecordFormatError("record must be a JSON object", lineno)
        for field in ("tokens", "dl", "dg"):
            if field not in obj:
                raise RecordFormatError(f"missing field {field!r}", lineno)
            if not isinstance(obj[field], list):
                raise RecordFormatError(f"field {field!r} must be an array", lineno)
        tokens = obj["tokens"]
        if not all(isinstance(tok, str) for tok in tokens):
            raise RecordFormatError("tokens must be strings", lineno)
        try:
            dl = tuple(float(x) for x in obj["dl"])
            dg = tuple(float(x) for x in obj["dg"])
        except (TypeError, ValueError):
            raise RecordFormatError("distances must be numbers", lineno)
        if not all(map(math.isfinite, dl + dg)):
            raise RecordFormatError("distances must be finite", lineno)
        agreement = obj.get("agreement")
        if agreement is not None and not isinstance(agreement, int):
            raise RecordFormatError("agreement must be an integer", lineno)
        try:
            rec = DistanceRecord(tuple(tokens), dl, dg, agreement)
        except ValueError as exc:
            raise RecordFormatError(str(exc), lineno)
        records.append(rec)
    return records


def load_records(path) -> list[DistanceRecord]:
    with open(path, encoding="utf-8") as fh:
        return read_records(fh)


def dump_records(records: Iterable[DistanceRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh)
