"""Constituency trees: bracketed-file IO, binarization, statistics, and a
weighted-CFG sampler for generating synthetic treebanks.

Trees are immutable. A tree is either a ``Leaf`` carrying a token or a
``Node`` carrying an optional label and an ordered tuple of children.
Files hold one S-expression per line, e.g.::

    (S (NP (DT the) (NN cat)) (VP (VBD sat)))

Part-of-speech preterminals are dropped at read time: the innermost
``(TAG token)`` pairs become bare leaves.  One iterative reader,
``_read_line``, reads every line of every tree file: ``parse_tree``
builds nodes from its spans and ``scan_tree`` returns the spans alone.
One explicit-stack walk, ``walk``, gives a tree's words and post-order
spans, and every reader of tree shape (``leaves``, ``spans``,
``tree_depth``, ``format_tree``, ...) derives from it.  No function here
recurses, so tree depth is bounded only by memory; the generated ``==``,
``hash`` and ``repr`` of ``Leaf`` and ``Node`` still do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

# Labels invented during binarization end with this mark so labeled
# scoring can map them back to the base label.
BINARIZE_MARK = "|"

# Placeholder written for nodes that carry no label.
UNLABELED = "X"


class TreeParseError(ValueError):
    """Malformed bracketed input; carries the 1-based line number."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Leaf:
    token: str


@dataclass(frozen=True)
class Node:
    label: Optional[str]
    children: tuple


Tree = Union[Leaf, Node]


@dataclass
class Treebank:
    sentences: list
    source: str = ""

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


def walk(t: Tree):
    """The one walk over a tree, with an explicit stack.

    Returns ``(words, nodes)``: the leaf tokens left to right, and
    ``(start, end, node)`` for every internal node in post-order.
    Offsets count words, end exclusive.  Children come before their
    parent and left before right, so the root is last; unary nodes are
    included, so widths may be 1 and spans may repeat.  Every other
    reader of tree shape derives from this walk.
    """
    words: list = []
    nodes: list = []
    stack = [t]
    while stack:
        item = stack.pop()
        cls = item.__class__
        if cls is Leaf:
            words.append(item.token)
        elif cls is tuple:  # a node whose words are all read
            nodes.append((item[0], len(words), item[1]))
        else:
            stack.append((len(words), item))
            stack += item.children[::-1]
    return words, nodes


def leaves(t: Tree) -> list[str]:
    """Leaf tokens in left-to-right order."""
    return walk(t)[0]


def leaf_count(t: Tree) -> int:
    return len(walk(t)[0])


def tree_depth(t: Tree) -> int:
    """Longest root-to-leaf path, counted in edges: the largest number of
    internal nodes whose spans cover one word."""
    words, nodes = walk(t)
    change = [0] * (len(words) + 1)  # per word, the change in covering spans
    for start, end, _ in nodes:
        change[start] += 1
        change[end] -= 1
    return max(accumulate(change))


def is_binary(t: Tree) -> bool:
    return all(len(node.children) == 2 for _, _, node in walk(t)[1])


def spans(t: Tree) -> list:
    """(start, end, node) for every internal node, in post-order, as
    ``walk`` gives them."""
    return walk(t)[1]


def base_label(label: Optional[str]) -> Optional[str]:
    """Strip the binarization mark; artificial labels map to their base."""
    if label is None:
        return None
    stripped = label.rstrip(BINARIZE_MARK)
    return stripped if stripped else None


# ---------------------------------------------------------------------------
# Bracketed-text reading and writing


def parse_tree(line: str, lineno: Optional[int] = None) -> Tree:
    """Parse one S-expression tree in labeled notation.

    The first atom inside a group is the node's label, and a
    ``(TAG token)`` preterminal collapses to a bare leaf.  Nodes are
    built from ``_read_line``'s spans with no recursion, so depth is
    bounded only by memory.
    """
    words, node_spans, labels, _ = _read_line(line, lineno)
    sub: list = [Leaf(w) for w in words]  # the subtree starting at each word
    after = list(range(1, len(words) + 1))  # the word just after that subtree
    for (start, end), label in zip(node_spans, labels):
        children = []
        i = start
        while i < end:
            children.append(sub[i])
            i = after[i]
        sub[start] = Node(label, tuple(children))
        after[start] = end
    return sub[0]


def scan_tree(line: str, lineno: Optional[int] = None):
    """What ``parse_tree`` would give for a line, with no nodes built.

    Returns ``(words, node_spans, binary)``: the leaf tokens,
    ``(start, end)`` of every internal node in the order ``spans`` lists
    them, and whether every internal node has exactly two children.  A
    malformed line raises ``TreeParseError``.
    """
    words, node_spans, _, binary = _read_line(line, lineno)
    return words, node_spans, binary


def _read_line(line: str, lineno: Optional[int] = None):
    """The one reader of a bracketed line, an iterative state machine.

    Returns ``(words, node_spans, labels, binary)``: ``scan_tree``'s
    result plus the label of each node in ``node_spans``.  A malformed
    line raises ``TreeParseError``, reporting the first fault from the
    left.
    """
    toks = line.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise TreeParseError("empty input", lineno)
    if toks[0] != "(":
        if len(toks) != 1 or toks[0] == ")":
            raise TreeParseError("unbalanced parentheses", lineno)
        return toks, [], [], True  # a bare word reads as one leaf
    words: list = []
    out: list = []
    labels: list = []
    binary = True
    # the innermost open group: its first word, children so far, whether
    # its first child is a word, and its label; ``stack`` holds the
    # enclosing ones, and at its bottom the top level
    start = count = 0
    bare = False
    label = None
    stack: list = []
    rest = iter(toks)
    for tok in rest:
        if tok == ")":
            if count != 1 or not bare:  # a (TAG word) group is its word
                if not count:
                    raise TreeParseError("empty node", lineno)
                out.append((start, len(words)))
                labels.append(label)
                if count != 2:
                    binary = False
            start, count, bare, label = stack.pop()
            if not stack:
                break  # the root is closed
        elif tok == "(":
            stack.append((start, count + 1, bare, label))
            label = next(rest, None)
            if label is None:
                raise TreeParseError("unbalanced parentheses", lineno)
            if label == "(" or label == ")":
                raise TreeParseError("node without a label", lineno)
            start, count, bare = len(words), 0, False
        else:
            if not count:
                bare = True
            count += 1
            words.append(tok)
    else:
        raise TreeParseError("unbalanced parentheses", lineno)  # left open
    if next(rest, None) is not None:
        raise TreeParseError("unbalanced parentheses", lineno)
    return words, out, labels, binary


def read_trees(stream: Union[str, Iterable[str]],
               source: str = "") -> Treebank:
    """Read a treebank, one S-expression per non-empty line."""
    if isinstance(stream, str):
        stream = stream.splitlines()
    sentences = []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        sentences.append(parse_tree(line, lineno))
    if not sentences:
        raise TreeParseError("no trees in input")
    return Treebank(sentences, source=source)


def load_trees(path) -> Treebank:
    with open(path, encoding="utf-8") as fh:
        return read_trees(fh, source=str(path))


def format_tree(t: Tree) -> str:
    """Serialize a tree to one line; leaves are written bare.

    Each node's bracket opens before its first word and closes after its
    last, outer brackets outside inner ones.
    """
    if isinstance(t, Leaf):
        # a bare token is not a tree expression on its own
        return f"({UNLABELED} {t.token})"
    words, nodes = walk(t)
    opens: list = [[] for _ in words]  # per word, outermost first
    shuts = [0] * len(words)
    for start, end, node in reversed(nodes):
        label = node.label
        opens[start].append("(" + (UNLABELED if label is None else label) + " ")
        shuts[end - 1] += 1
    return " ".join(["".join(o) + w + ")" * k
                     for o, w, k in zip(opens, words, shuts)])


def write_trees(tb: Treebank, stream) -> None:
    if not tb.sentences:
        raise ValueError("refusing to write an empty treebank")
    for t in tb.sentences:
        stream.write(format_tree(t) + "\n")


def dump_trees(tb: Treebank, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_trees(tb, fh)


# ---------------------------------------------------------------------------
# Binarization


def binarize(t: Tree, direction: str = "right") -> Tree:
    """Collapse unary chains and binarize n-ary nodes.

    ``right`` rebrackets children c1..ck as (c1, (c2, ... ck)); ``left``
    as ((c1 ... c_{k-1}), ck).  Artificial nodes reuse the parent label
    with a trailing mark.  A unary chain keeps its outermost label; a
    chain ending directly in a leaf reduces to that leaf.

    An explicit stack plans the output tree in pre-order and
    ``_build`` assembles it bottom-up.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"unknown binarize direction: {direction!r}")
    plan: list = []
    todo = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, Node):
            label, children = item.label, item.children
            while len(children) == 1 and isinstance(children[0], Node):
                children = children[0].children
            if len(children) == 1:
                item = children[0]  # a chain ending in a leaf
        if isinstance(item, Leaf):
            plan.append(item)
            continue
        plan.append((label, 2))
        if len(children) == 2:
            left, right = children
        elif direction == "right":
            left, right = children[0], Node(_artificial_label(label), children[1:])
        else:
            left, right = Node(_artificial_label(label), children[:-1]), children[-1]
        todo.append(right)
        todo.append(left)
    return _build(plan)


def _build(plan: list) -> Tree:
    """The tree whose pre-order is ``plan``, built bottom-up.

    Each entry is a ``Leaf``, or a ``(label, k)`` pair for a node over
    the k >= 1 subtrees that follow it.
    """
    built: list = []  # finished subtrees, the leftmost on top
    for item in reversed(plan):
        if isinstance(item, Leaf):
            built.append(item)
            continue
        label, k = item
        children = tuple(built[:-k - 1:-1])
        del built[-k:]
        built.append(Node(label, children))
    return built[0]


def _artificial_label(label: Optional[str]) -> str:
    if label is None:
        return BINARIZE_MARK
    if label.endswith(BINARIZE_MARK):
        return label
    return label + BINARIZE_MARK


# ---------------------------------------------------------------------------
# Baseline tree builders


def right_branching(tokens: Sequence[str]) -> Tree:
    if not tokens:
        raise ValueError("cannot build a tree over zero tokens")
    tree: Tree = Leaf(tokens[-1])
    for i in range(len(tokens) - 2, -1, -1):
        tree = Node(None, (Leaf(tokens[i]), tree))
    return tree


def left_branching(tokens: Sequence[str]) -> Tree:
    if not tokens:
        raise ValueError("cannot build a tree over zero tokens")
    tree: Tree = Leaf(tokens[0])
    for i in range(1, len(tokens)):
        tree = Node(None, (tree, Leaf(tokens[i])))
    return tree


def random_binary(tokens: Sequence[str], rng: random.Random) -> Tree:
    """Uniformly random split point at every level, drawn in pre-order."""
    if not tokens:
        raise ValueError("cannot build a tree over zero tokens")
    plan: list = []
    todo = [(0, len(tokens))]
    while todo:
        i, j = todo.pop()
        if j - i == 1:
            plan.append(Leaf(tokens[i]))
            continue
        k = i + rng.randrange(1, j - i)
        plan.append((None, 2))
        todo.append((k, j))
        todo.append((i, k))
    return _build(plan)


# ---------------------------------------------------------------------------
# Synthetic treebank generation from a weighted CFG


@dataclass
class Grammar:
    start: str
    rules: dict  # lhs -> list of (rhs tuple, weight)


def parse_grammar(text: str) -> Grammar:
    """Parse rules of the form ``LHS -> RHS1 RHS2 : weight``.

    ``#`` starts a comment.  The start symbol is the first rule's LHS.
    Symbols never appearing on a left-hand side are terminals and must be
    lowercase.
    """
    rules: dict = {}
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line or ":" not in line:
            raise ValueError(f"grammar line {lineno}: expected 'LHS -> RHS : weight'")
        head, tail = line.split("->", 1)
        body, weight_s = tail.rsplit(":", 1)
        lhs = head.strip()
        rhs = tuple(body.split())
        if not lhs or not rhs:
            raise ValueError(f"grammar line {lineno}: empty rule side")
        try:
            weight = float(weight_s)
        except ValueError:
            raise ValueError(f"grammar line {lineno}: bad weight {weight_s.strip()!r}")
        if not weight > 0:
            raise ValueError(f"grammar line {lineno}: weights must be positive")
        rules.setdefault(lhs, []).append((rhs, weight))
        if start is None:
            start = lhs
    if start is None:
        raise ValueError("grammar has no rules")
    for lhs, expansions in rules.items():
        for rhs, _ in expansions:
            for sym in rhs:
                if sym not in rules and sym.lower() != sym:
                    raise ValueError(
                        f"symbol {sym!r} has no rules and is not a lowercase terminal")
    return Grammar(start=start, rules=rules)


# Resampling bound for grammars whose start symbol is productive but whose
# derivations still run away or exceed ``max_len``: a grammar that cannot
# produce an admissible sentence within this many attempts is rejected.
_MAX_ATTEMPTS = 10000


def gen_synthetic(grammar: Union[str, Grammar], n: int, seed: int,
                  max_len: int = 40) -> Treebank:
    """Sample ``n`` trees top-down; deterministic for a fixed seed.

    Sentences longer than ``max_len`` words are rejected and resampled.
    """
    if isinstance(grammar, str):
        grammar = parse_grammar(grammar)
    if n < 1:
        raise ValueError("need n >= 1")
    _require_productive_start(grammar)
    rng = random.Random(seed)
    budget_cap = max(50, 20 * max_len)
    sentences = []
    for _ in range(n):
        tree = None
        for _attempt in range(_MAX_ATTEMPTS):
            tree = _sample(grammar, rng, budget_cap)
            if tree is not None and leaf_count(tree) <= max_len:
                break
            tree = None
        if tree is None:
            raise ValueError(
                f"grammar produced no derivation within {max_len} words "
                f"after {_MAX_ATTEMPTS} attempts")
        sentences.append(tree)
    return Treebank(sentences, source=f"synthetic(seed={seed})")


def _require_productive_start(grammar: Grammar) -> None:
    """Reject a grammar whose start symbol derives no finite sentence.

    Fixpoint over productive nonterminals: a nonterminal is productive
    once one of its expansions holds only terminals and productive
    nonterminals.  Draws nothing from any random stream.
    """
    productive: set = set()
    changed = True
    while changed:
        changed = False
        for lhs, expansions in grammar.rules.items():
            if lhs not in productive and any(
                    all(sym in productive or sym not in grammar.rules
                        for sym in rhs)
                    for rhs, _ in expansions):
                productive.add(lhs)
                changed = True
    if grammar.start not in productive:
        raise ValueError(
            f"start symbol {grammar.start!r} derives no finite sentence")


def _sample(grammar: Grammar, rng: random.Random,
            budget: int) -> Optional[Tree]:
    """One derivation from the start symbol, expanded in pre-order; None
    once more than ``budget`` nonterminals would be expanded."""
    plan: list = []
    todo = [grammar.start]
    while todo:
        symbol = todo.pop()
        if symbol not in grammar.rules:
            plan.append(Leaf(symbol))
            continue
        if budget <= 0:
            return None  # runaway derivation; abort this attempt
        budget -= 1
        expansions = grammar.rules[symbol]
        weights = [w for _, w in expansions]
        rhs, _ = rng.choices(expansions, weights=weights, k=1)[0]
        plan.append((symbol, len(rhs)))
        todo.extend(reversed(rhs))
    return _build(plan)
