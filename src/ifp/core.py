"""Cirquent data model and structural operations.

A cirquent is a propositional formula in negation normal form together with
a partition of its disjunction occurrences into clusters.  The partition is
carried syntactically: every disjunction node holds a positive-integer
cluster ID, and two disjunctions belong to the same cluster exactly when
they hold the same ID.  Conjunctions and literals carry nothing extra.

Positions inside a cirquent are addressed by paths: tuples of "L"/"R" steps
from the root.  A path may end at any node, literals included, but may not
step through a literal.

Every node has a ``summary``: how many disjunctions of each cluster lie
beneath it (itself included) and whether it is free of same-cluster
nesting.  A connective computes its summary on first use and keeps it;
nodes are immutable and a rewrite shares every subtree it leaves alone,
so a rebuilt cirquent computes summaries only along the rebuilt spine.
Summaries are shared between nodes and must never be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Union

LEFT_STEP = "L"
RIGHT_STEP = "R"

Path = tuple[str, ...]  # "L"/"R" steps from the root
ROOT: Path = ()


class InvalidPathError(Exception):
    """The path does not address a node of the cirquent."""


class Summary(NamedTuple):
    """What a node knows about the disjunctions beneath it, itself included.

    ``counts`` maps each cluster ID present to its number of disjunctions;
    ``nesting_free`` is False when some disjunction sits inside another of
    the same cluster.
    """

    counts: Mapping[int, int]
    nesting_free: bool


@dataclass(frozen=True)
class Literal:
    atom: str
    positive: bool = True

    summary = Summary(MappingProxyType({}), True)

    def __str__(self) -> str:
        return self.atom if self.positive else "~" + self.atom


class _Connective:
    """Base of And and Or: the summary is computed on first use, then kept."""

    @cached_property
    def summary(self) -> Summary:
        return _summarize(self)


@dataclass(frozen=True)
class And(_Connective):
    left: "Cirquent"
    right: "Cirquent"

    def __str__(self) -> str:
        return f"({self.left}&{self.right})"


@dataclass(frozen=True)
class Or(_Connective):
    cluster: int
    left: "Cirquent"
    right: "Cirquent"

    def __post_init__(self) -> None:
        if not isinstance(self.cluster, int) or self.cluster < 1:
            raise ValueError(f"cluster IDs must be positive integers, got {self.cluster!r}")

    def __str__(self) -> str:
        return f"({self.left}|{self.cluster}{self.right})"


Cirquent = Union[Literal, And, Or]


def _summarize(root: Cirquent) -> Summary:
    """Store the summary of ``root`` and of every connective beneath it lacking one.

    Children go before their parents, and no call recurses, so a deep
    tree costs no stack.
    """
    order = []
    pending = [root]
    while pending:
        node = pending.pop()
        order.append(node)
        for child in (node.left, node.right):
            if not isinstance(child, Literal) and "summary" not in child.__dict__:
                pending.append(child)
    for node in reversed(order):
        left, right = node.left.summary, node.right.summary
        small, large = left.counts, right.counts
        if len(small) > len(large):
            small, large = large, small
        free = left.nesting_free and right.nesting_free
        if isinstance(node, Or):
            k = node.cluster
            free = free and k not in small and k not in large
            counts = dict(large)
            counts[k] = counts.get(k, 0) + 1
        elif small:
            counts = dict(large)
        else:
            counts = large
        for k, n in small.items():
            counts[k] = counts.get(k, 0) + n
        node.__dict__["summary"] = Summary(counts, free)
    return root.__dict__["summary"]


def subcirquent_at(c: Cirquent, path: Path) -> Cirquent:
    """Return the subcirquent rooted at ``path``."""
    node = c
    for step in path:
        if isinstance(node, Literal):
            raise InvalidPathError(f"path {_fmt(path)} steps through the literal {node}")
        if step == LEFT_STEP:
            node = node.left
        elif step == RIGHT_STEP:
            node = node.right
        else:
            raise InvalidPathError(f"bad path step {step!r}")
    return node


def replace_at(c: Cirquent, path: Path, replacement: Cirquent) -> Cirquent:
    """Return a copy of ``c`` with the subcirquent at ``path`` swapped out."""
    if not path:
        return replacement
    if isinstance(c, Literal):
        raise InvalidPathError(f"path {_fmt(path)} steps through the literal {c}")
    step = path[0]
    if step == LEFT_STEP:
        left, right = replace_at(c.left, path[1:], replacement), c.right
    elif step == RIGHT_STEP:
        left, right = c.left, replace_at(c.right, path[1:], replacement)
    else:
        raise InvalidPathError(f"bad path step {step!r}")
    if isinstance(c, Or):
        return Or(c.cluster, left, right)
    return And(left, right)


def walk(c: Cirquent) -> Iterator[tuple[Path, Cirquent]]:
    """Yield (path, node) for every node, root first, left subtree before right."""
    stack = [(ROOT, c)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if not isinstance(node, Literal):
            stack.append((path + (RIGHT_STEP,), node.right))
            stack.append((path + (LEFT_STEP,), node.left))


def positions(c: Cirquent) -> list[Path]:
    """All node positions, in path order (which is depth-first, left first)."""
    return [p for p, _ in walk(c)]


def or_positions(c: Cirquent) -> list[Path]:
    """Positions of every disjunction node, in path order."""
    return [p for p, node in walk(c) if isinstance(node, Or)]


def clusters(c: Cirquent) -> dict[int, frozenset]:
    """The cluster table: each cluster ID mapped to its set of disjunction positions."""
    table: dict[int, set] = {}
    for path, node in walk(c):
        if isinstance(node, Or):
            table.setdefault(node.cluster, set()).add(path)
    return {k: frozenset(v) for k, v in table.items()}


def members(c: Cirquent, k: int) -> list[Path]:
    """Positions of cluster ``k``'s disjunctions, in path order.

    Only subtrees whose summary counts ``k`` are entered.
    """
    found = []
    stack = [(ROOT, c)]
    while stack:
        path, node = stack.pop()
        if k not in node.summary.counts:
            continue
        if isinstance(node, Or) and node.cluster == k:
            found.append(path)
        stack.append((path + (RIGHT_STEP,), node.right))
        stack.append((path + (LEFT_STEP,), node.left))
    return found


def singleton_clusters(c: Cirquent) -> set[int]:
    """IDs of the clusters with exactly one member."""
    return {k for k, n in c.summary.counts.items() if n == 1}


def is_classical(c: Cirquent) -> bool:
    """True when every cluster is a singleton, i.e. the cirquent is an ordinary formula."""
    return all(n == 1 for n in c.summary.counts.values())


def atoms(c: Cirquent) -> set[str]:
    """The set of atom names occurring in the cirquent."""
    return {node.atom for _, node in walk(c) if isinstance(node, Literal)}


def node_count(c: Cirquent) -> int:
    """Total number of nodes, literals and connectives alike."""
    return sum(1 for _ in walk(c))


def level(c: Cirquent, path: Path) -> int:
    """Number of connectives strictly above the connective at ``path``.

    Every strict ancestor of a connective node is itself a connective, so
    this is the path length; the walk is still performed to validate the
    path and reject literal positions.
    """
    node = subcirquent_at(c, path)
    if isinstance(node, Literal):
        raise InvalidPathError(f"{_fmt(path)} addresses the literal {node}, not a connective")
    return len(path)


def nearest_common_ancestor(c: Cirquent, a: Path, b: Path) -> Path:
    """Path of the deepest node that lies on both paths.

    When one path is a prefix of the other, the shorter path is returned.
    The two paths must be distinct and valid for ``c``.
    """
    if a == b:
        raise InvalidPathError("nearest common ancestor needs two distinct positions")
    subcirquent_at(c, a)
    subcirquent_at(c, b)
    common = []
    for x, y in zip(a, b):
        if x != y:
            break
        common.append(x)
    return tuple(common)


def same_shape(c: Cirquent, d: Cirquent) -> bool:
    """True when the two cirquents agree on everything except cluster IDs."""
    if isinstance(c, Literal):
        return c == d
    if type(c) is not type(d):
        return False
    return same_shape(c.left, d.left) and same_shape(c.right, d.right)


def cluster_iso(c: Cirquent, d: Cirquent) -> bool:
    """Equality up to a bijective renaming of cluster IDs.

    Holds exactly when the trees match literal for literal and the two
    cluster partitions group the same position sets together.
    """
    if not same_shape(c, d):
        return False
    return frozenset(clusters(c).values()) == frozenset(clusters(d).values())


def canonicalize_ids(c: Cirquent) -> Cirquent:
    """Renumber clusters 1, 2, ... in order of first textual occurrence.

    Textual order is in-order tree position, matching where each
    disjunction sign sits in the printed formula.  The result is
    cluster-isomorphic to the input and identical across the whole
    isomorphism class, which pins down a canonical printed form.
    """
    mapping: dict[int, int] = {}

    def number(node: Cirquent) -> None:
        if isinstance(node, Literal):
            return
        number(node.left)
        if isinstance(node, Or) and node.cluster not in mapping:
            mapping[node.cluster] = len(mapping) + 1
        number(node.right)

    def rebuild(node: Cirquent) -> Cirquent:
        if isinstance(node, Literal):
            return node
        if isinstance(node, And):
            return And(rebuild(node.left), rebuild(node.right))
        return Or(mapping[node.cluster], rebuild(node.left), rebuild(node.right))

    number(c)
    return rebuild(c)


def _fmt(path: Path) -> str:
    return "".join(path) or "."
