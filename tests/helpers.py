"""Shared generators, enumeration utilities and references for the test suite.

Everything here is deterministic: the exhaustive enumerator has a fixed
iteration order and the random builders take an explicit ``random.Random``.
The ``*_reference`` functions are slow, obviously correct versions that
library code is compared against.
"""

from __future__ import annotations

import collections
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from hypothesis import assume, strategies as st

import ifp.calculus as calculus
import ifp.core as core
from ifp import (
    And,
    Literal,
    Or,
    ParseError,
    RuleApp,
    RuleError,
    apply_rule_backward,
    apply_rule_forward,
    cluster_ids,
    cluster_size,
    cluster_struct_match,
    clusters,
    first_nested,
    members,
    multi_member,
    parse,
    print_cirquent,
    replace_at,
    subcirquent_at,
    valid,
)
from ifp.calculus import CopyMismatchError, ShapeMismatchError
from ifp.core import Cirquent, InvalidPathError, Path, format_path, is_classical, map_clusters, node_count, walk
from ifp.prover import (
    PreconditionError,
    ReductionInvariantError,
    ReductionStep,
    _lift_once,
    _require_decreasing,
    state_tuple,
)
from ifp.semantics import (
    DEFAULT_MAX_ATOMS,
    MissingAtomError,
    MissingClusterError,
    _false_rows,
    _within_bounds,
)
from ifp.syntax import RULES, NegatedIndexedDisjunctionError, NonpositiveClusterIdError, RuleHint

ATOMS3 = ("p", "q", "r")
ATOMS4 = ("p", "q", "r", "s")


def shapes(n_connectives: int) -> tuple:
    """Every binary tree shape with the given number of internal nodes.

    A shape is ``None`` for a leaf or a ``(left, right)`` pair of shapes.
    """
    if n_connectives == 0:
        return (None,)
    out = []
    for left_size in range(n_connectives):
        for left in shapes(left_size):
            for right in shapes(n_connectives - 1 - left_size):
                out.append((left, right))
    return tuple(out)


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of ``items`` into nonempty blocks, in a fixed order."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            grown = [block[:] for block in partition]
            grown[i].insert(0, first)
            out.append(grown)
        out.append([[first]] + [block[:] for block in partition])
    return out


def _build(shape, kinds, ids, leaves) -> Cirquent:
    """Assemble a cirquent, consuming the iterators in preorder."""
    if shape is None:
        return next(leaves)
    kind = next(kinds)
    cluster = next(ids) if kind == "or" else None
    left = _build(shape[0], kinds, ids, leaves)
    right = _build(shape[1], kinds, ids, leaves)
    if kind == "and":
        return And(left, right)
    return Or(cluster, left, right)


def all_cirquents(max_connectives: int, atom_names=ATOMS3):
    """Every cirquent with at most ``max_connectives`` connectives.

    Atoms range over ``atom_names`` (positive and negated), connectives
    over both kinds at every internal position, and the disjunction
    occurrences over every partition into clusters, with IDs numbered
    1, 2, ... by first occurrence.
    """
    literals = tuple(
        Literal(name, positive)
        for name in atom_names
        for positive in (True, False)
    )
    for n in range(max_connectives + 1):
        for shape in shapes(n):
            for kinds in itertools.product(("and", "or"), repeat=n):
                n_ors = sum(1 for kind in kinds if kind == "or")
                for partition in set_partitions(list(range(n_ors))):
                    blocks = sorted(partition, key=min)
                    id_of = {}
                    for cluster, block in enumerate(blocks, start=1):
                        for member in block:
                            id_of[member] = cluster
                    ids = tuple(id_of[i] for i in range(n_ors))
                    for leaves in itertools.product(literals, repeat=n + 1):
                        yield _build(shape, iter(kinds), iter(ids), iter(leaves))


def rand_cirquent(rng, n_connectives: int, atom_names=ATOMS4, max_cluster: int = 4) -> Cirquent:
    """A random cirquent with exactly ``n_connectives`` connectives.

    Cluster IDs are drawn from a small pool, so multi-member clusters
    and same-cluster nesting both occur.
    """

    def build(n: int) -> Cirquent:
        if n == 0:
            return Literal(rng.choice(atom_names), rng.random() < 0.5)
        left_size = rng.randrange(n)
        left = build(left_size)
        right = build(n - 1 - left_size)
        if rng.random() < 0.5:
            return And(left, right)
        return Or(rng.randint(1, max_cluster), left, right)

    return build(n_connectives)


def rand_classical(rng, n_connectives: int, atom_names=ATOMS4) -> Cirquent:
    """A random cirquent in which every disjunction is alone in its cluster."""
    counter = itertools.count(1)

    def build(n: int) -> Cirquent:
        if n == 0:
            return Literal(rng.choice(atom_names), rng.random() < 0.5)
        left_size = rng.randrange(n)
        left = build(left_size)
        right = build(n - 1 - left_size)
        if rng.random() < 0.5:
            return And(left, right)
        return Or(next(counter), left, right)

    return build(n_connectives)


def cirquents(max_leaves: int = 6, atom_names=ATOMS3, max_cluster: int = 3):
    """A hypothesis strategy producing arbitrary cirquents."""
    literals = st.builds(
        Literal, st.sampled_from(atom_names), st.booleans()
    )
    return st.recursive(
        literals,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, st.integers(1, max_cluster), children, children),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def nested_cirquents(draw, max_leaves: int = 10, max_cluster: int = 3):
    """A hypothesis strategy producing cirquents with shared and nested clusters.

    A drawn cirquent gets up to three more disjunctions, each put
    somewhere beneath a disjunction, in that disjunction's cluster, with
    a small drawn cirquent as its other operand.
    """
    c = draw(cirquents(max_leaves, max_cluster=max_cluster))
    for _ in range(draw(st.integers(0, 3))):
        hosts = or_positions(c)
        if not hosts:
            break
        host = draw(st.sampled_from(hosts))
        below = [p for p in positions(c) if len(p) > len(host) and p[: len(host)] == host]
        target = draw(st.sampled_from(below))
        node, extra = subcirquent_at(c, target), draw(cirquents(2, max_cluster=max_cluster))
        operands = (node, extra) if draw(st.booleans()) else (extra, node)
        c = replace_at(c, target, Or(subcirquent_at(c, host).cluster, *operands))
    return c


@st.composite
def valid_cirquents(draw, max_leaves: int = 5, max_cluster: int = 4):
    """A hypothesis strategy producing valid cirquents.

    Each is ``A | ~A`` in either order, where the negation's disjunctions
    and the top one draw their IDs from the same small pool as A's, so
    clusters span both sides; the draws that come out invalid, about a
    quarter, are discarded.
    """
    a = draw(cirquents(max_leaves, ("p", "q"), max_cluster))
    ids = st.integers(1, max_cluster)

    def negate(c: Cirquent) -> Cirquent:
        if isinstance(c, Literal):
            return Literal(c.atom, not c.positive)
        if isinstance(c, Or):
            return And(negate(c.left), negate(c.right))
        return Or(draw(ids), negate(c.left), negate(c.right))

    sides = (a, negate(a))
    goal = Or(draw(ids), *(sides if draw(st.booleans()) else sides[::-1]))
    assume(valid(goal))
    return goal


# Every (rule, connective-kind) family a rule application can belong to.
RULE_FAMILIES = (
    ("I-left", None),
    ("I-right", None),
    ("II-left", "and"),
    ("II-left", "or-in-cluster"),
    ("II-left", "singleton-or"),
    ("II-right", "and"),
    ("II-right", "or-in-cluster"),
    ("II-right", "singleton-or"),
    ("III", "and"),
    ("III", "or-in-cluster"),
    ("III", "singleton-or"),
)

# Cluster ID ranges that keep the generated families unambiguous: small
# IDs for incidental disjunctions, 5-6 for the key, 7-8 for a shared
# connective that must have a second member, 9 for one that must not.
_PIECE_IDS = 5
_SOLO_ID = 9


def _piece(rng):
    return rand_cirquent(rng, rng.randint(0, 2), ATOMS3, max_cluster=_PIECE_IDS)


def _wrap(rng, core, depth):
    """Embed ``core`` under ``depth`` extra connectives; return (tree, path)."""
    node, path = core, ()
    for _ in range(depth):
        filler = _piece(rng)
        core_left = rng.random() < 0.5
        left, right = (node, filler) if core_left else (filler, node)
        if rng.random() < 0.5:
            node = And(left, right)
        else:
            node = Or(rng.randint(1, 4), left, right)
        path = (("L",) if core_left else ("R",)) + path
    return node, path


def rand_rule_instance(rng, rule: str, kind):
    """A random conclusion shaped for one backward application of ``rule``.

    Returns ``(conclusion, app)``; for rules II and III, ``kind`` picks
    how the shared connective presents: a conjunction, a disjunction
    with another cluster member, or a disjunction alone in its cluster.
    """
    k = rng.randint(5, 6)
    if rule in ("I-left", "I-right"):
        grown = Or(k, _piece(rng), _piece(rng))
        host, inner = _wrap(rng, grown, rng.randint(0, 2))
        other = _piece(rng)
        if rule == "I-left":
            key = Or(k, host, other)
        else:
            key = Or(k, other, host)
        conclusion, hole = _wrap(rng, key, rng.randint(0, 2))
        return conclusion, RuleApp(rule, hole, k, inner_path=inner)

    key_in = Or(k, _piece(rng), _piece(rng))
    if rule == "III":
        operands = (key_in, Or(k, _piece(rng), _piece(rng)))
    elif rule == "II-left":
        operands = (key_in, _piece(rng))
    else:
        operands = (_piece(rng), key_in)
    if kind == "and":
        pattern = And(*operands)
        conclusion, hole = _wrap(rng, pattern, rng.randint(0, 2))
    elif kind == "singleton-or":
        pattern = Or(_SOLO_ID, *operands)
        conclusion, hole = _wrap(rng, pattern, rng.randint(0, 2))
    else:
        shared = rng.randint(7, 8)
        pattern = Or(shared, *operands)
        filler = _piece(rng)
        if rng.random() < 0.5:
            sibling, step = Or(shared, pattern, filler), ("L",)
        else:
            sibling, step = Or(shared, filler, pattern), ("R",)
        conclusion, prefix = _wrap(rng, sibling, rng.randint(0, 1))
        hole = prefix + step
    return conclusion, RuleApp(rule, hole, k)


def nested_family(d: int, valid: bool) -> Cirquent:
    """A cluster-1 member at depth ``d`` on both sides of a disjunction.

    Each level conjoins a cluster shared by both sides:
    ``(y|k z)&(~y|k ~z)``, or ``(y|k ~y)|(~y|k y)`` in the valid form,
    whose right side mirrors the cluster-1 member so the goal holds.
    """

    def side(mirror: bool) -> str:
        text = "~a|1 a" if mirror else "a|1 ~a"
        for k in range(2, d + 2):
            level = f"(y|{k} ~y)|(~y|{k} y)" if valid else f"(y|{k} z)&(~y|{k} ~z)"
            text = f"({text})&({level})"
        return text

    return parse(f"({side(False)})|({side(valid)})")


def or_positions(c: Cirquent) -> list[Path]:
    """Positions of every disjunction node, in path order."""
    return [p for p, node in walk(c) if isinstance(node, Or)]


def nested_pairs_reference(c: Cirquent) -> list:
    """Every pair of same-cluster disjunctions, one inside the other, by a double loop."""
    occurrences = [(p, subcirquent_at(c, p).cluster) for p in or_positions(c)]
    pairs = []
    for outer, outer_cluster in occurrences:
        for inner, inner_cluster in occurrences:
            if (
                inner_cluster == outer_cluster
                and len(inner) > len(outer)
                and inner[: len(outer)] == outer
            ):
                pairs.append((outer, inner))
    pairs.sort()
    return pairs


class SummaryFields(NamedTuple):
    present: int
    counts: dict
    nesting_free: bool
    size: int


def summary_fields(summary: tuple) -> SummaryFields:
    """A node's cached summary, field by field, with ``counts`` as a dict.

    The summary must be a plain tuple, which the cycle collector can
    stop tracking, whose ``counts`` is None or a non-empty dict.
    """
    assert type(summary) is tuple
    present, counts, nesting_free, size = summary
    assert counts is None or (type(counts) is dict and counts)
    return SummaryFields(present, dict(counts or {}), nesting_free, size)


def assert_summary_matches_walk(c: Cirquent) -> None:
    """The cached summary and the cluster queries agree with a fresh full walk."""
    table = clusters(c)
    sizes = {k: len(v) for k, v in table.items()}
    multi = {k: n for k, n in sizes.items() if n > 1}
    pairs = nested_pairs_reference(c)
    summary = summary_fields(c.summary or core._summarize(c))  # the cached one, if a query made it
    assert summary.present == sum(1 << core._bit(k) for k in sizes)
    assert summary.counts == multi
    assert summary.nesting_free == (not pairs)
    assert cluster_ids(c) == frozenset(sizes)
    assert multi_member(c) == multi
    assert is_classical(c) == (not multi)
    singles = {k for k in cluster_ids(c) if cluster_size(c, k) == 1}
    assert singles == {k for k, n in sizes.items() if n == 1}
    assert first_nested(c) == (pairs[0] if pairs else None)
    assert cluster_size(c, max(sizes, default=0) + 1) == 0
    assert node_count(c) == len(positions(c))
    for k, positions_of_k in table.items():
        assert cluster_size(c, k) == len(positions_of_k)
        assert members(c, k) == sorted(positions_of_k)
    assert list(itertools.islice(core._unused_ids(c), 3)) == unused_ids_reference(c, 3)


class OperandReads:
    """Counts the reads of each connective's ``left`` and ``right`` while it is installed.

    A walk reads both operands of a connective each time it visits it, so
    ``reads`` equals ``visits_once(c)`` exactly when every node of ``c``
    was visited once.  Summaries are filled by reading operands, so fill
    them before counting; nothing is counted inside a call wrapped by
    ``uncounted``.
    """

    def __init__(self, monkeypatch) -> None:
        self.reads = collections.Counter()
        self.paused = False
        for side in ("left", "right"):
            slot = core._Connective.__dict__[side]
            monkeypatch.setattr(core._Connective, side, property(self._reader(side, slot)))

    def _reader(self, side: str, slot):
        def read(node):
            if not self.paused:
                self.reads[id(node), side] += 1
            return slot.__get__(node)

        return read

    def uncounted(self, function):
        """``function``, with the count paused while it runs."""

        def call(*args):
            paused, self.paused = self.paused, True
            try:
                return function(*args)
            finally:
                self.paused = paused

        return call


def visits_once(c: Cirquent) -> collections.Counter:
    """The operand reads of one visit to every node of ``c``, as ``OperandReads`` counts them.

    Call it before installing ``OperandReads``, whose count would include its own walk.
    """
    return collections.Counter(
        (id(node), side) for _, node in walk(c) if not isinstance(node, Literal) for side in ("left", "right")
    )


def unused_ids_reference(c: Cirquent, n: int) -> list[int]:
    """The ``n`` lowest IDs no disjunction of ``c`` holds, by scanning up from 1."""
    taken = set(clusters(c))
    return list(itertools.islice((k for k in itertools.count(1) if k not in taken), n))


def with_large_ids(c: Cirquent) -> Cirquent:
    """``c`` with clusters 2, 3 and 4 renamed to IDs at and far above ``core._BOUND``, 2**16.

    Cluster 1 keeps its ID, so small and large IDs meet in one tree.
    """
    large = {2: 2**16, 3: 10**9, 4: 10**4000}
    return map_clusters(c, lambda k: large.get(k, k))


def positions(c: Cirquent) -> list[Path]:
    """All node positions, in path order (which is depth-first, left first)."""
    return [p for p, _ in walk(c)]


def deep_chain(depth: int, cluster: int = 1) -> Cirquent:
    """``p`` under ``depth - 1`` disjunctions with ``q``, then one with ``~p``, all in one cluster.

    Built without recursion.  All left, the chain resolves to ``p``; all
    right, to ``~p``: valid.
    """
    c = Literal("p")
    for _ in range(depth - 1):
        c = Or(cluster, c, Literal("q"))
    return Or(cluster, c, Literal("p", positive=False))


def rename_clusters(c: Cirquent, mapping) -> Cirquent:
    """``c`` with every disjunction's cluster ID sent through ``mapping``."""
    if isinstance(c, Literal):
        return c
    left, right = rename_clusters(c.left, mapping), rename_clusters(c.right, mapping)
    if isinstance(c, And):
        return And(left, right)
    return Or(mapping[c.cluster], left, right)


def same_shape_reference(c: Cirquent, d: Cirquent) -> bool:
    """True when the two cirquents agree on everything except cluster IDs (recursive)."""
    if isinstance(c, Literal):
        return c == d
    if type(c) is not type(d):
        return False
    return same_shape_reference(c.left, d.left) and same_shape_reference(c.right, d.right)


def cluster_map_reference(c: Cirquent, d: Cirquent) -> dict[int, int] | None:
    """``cluster_map`` as a full walk of both trees, shared subtrees included."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    stack = [(c, d)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return None
        if isinstance(x, Literal):
            if x != y:
                return None
            continue
        if isinstance(x, Or):
            k, m = x.cluster, y.cluster
            if forward.setdefault(k, m) != m or backward.setdefault(m, k) != k:
                return None
        stack += ((x.right, y.right), (x.left, y.left))
    return forward


def cluster_iso_reference(c: Cirquent, d: Cirquent) -> bool:
    """Same shape, and the two cluster tables group the same position sets."""
    if not same_shape_reference(c, d):
        return False
    return frozenset(clusters(c).values()) == frozenset(clusters(d).values())


def cluster_struct_match_reference(c: Cirquent, d: Cirquent) -> bool:
    """Same shape and grouping, multi-member clusters under the same ID, by inverse tables."""
    if not same_shape_reference(c, d):
        return False
    inv_c = {block: k for k, block in clusters(c).items()}
    inv_d = {block: k for k, block in clusters(d).items()}
    if set(inv_c) != set(inv_d):
        return False
    return all(len(block) == 1 or inv_d[block] == k for block, k in inv_c.items())


def require_copies_reference(c: Cirquent, c1: Cirquent, c2: Cirquent) -> None:
    """CopyMismatchError unless c1 and c2 agree node for node, IDs differing only between singletons of c."""
    singles = _singles_reference(c)

    def matches(x: Cirquent, y: Cirquent) -> bool:
        if isinstance(x, Literal) or isinstance(y, Literal):
            return x == y
        if type(x) is not type(y):
            return False
        if isinstance(x, Or) and x.cluster != y.cluster:
            if x.cluster not in singles or y.cluster not in singles:
                return False
        return matches(x.left, y.left) and matches(x.right, y.right)

    if not matches(c1, c2):
        raise CopyMismatchError("the two copies of the shared operand disagree")


def eliminate_nested_reference(c: Cirquent):
    """Rule I backward on the first pair ``nested_pairs_reference`` lists, recomputed after each step."""
    steps = []
    current = c
    while True:
        pairs = nested_pairs_reference(current)
        if not pairs:
            return current, tuple(steps)
        outer, inner = pairs[0]
        key = subcirquent_at(current, outer)
        rule = "I-left" if inner[len(outer)] == "L" else "I-right"
        app = RuleApp(rule, outer, key.cluster, inner_path=inner[len(outer) + 1 :])
        current, completed = apply_rule_backward(current, app)
        steps.append(ReductionStep(completed, current))


def resolve_cluster_reference(c: Cirquent, k: int):
    """``resolve_cluster`` listing the members of ``k`` afresh before every merge.

    The pair is picked by ``_pick_pair_reference`` from a new ``members``
    walk each round; the lifts, the merge, the invariant checks and the
    state tuples are the library's.
    """
    if first_nested(c) is not None:
        raise PreconditionError("same-cluster nesting must be eliminated first")
    if cluster_size(c, k) < 2:
        raise PreconditionError(f"cluster {k} already has a single member")
    steps: list[ReductionStep] = []
    trace: list = []
    current = c
    while cluster_size(current, k) > 1:
        a, b, meet = _pick_pair_reference(current, k)
        trace.append(state_tuple(current, k, a, b))
        while len(a) > len(meet) + 1:
            current, a = _lift_once(current, k, a, steps)
            trace.append(state_tuple(current, k, a, b))
        while len(b) > len(meet) + 1:
            current, b = _lift_once(current, k, b, steps)
            trace.append(state_tuple(current, k, a, b))
        size_before = cluster_size(current, k)
        current, completed = apply_rule_backward(current, RuleApp("III", meet, k))
        steps.append(ReductionStep(completed, current))
        if cluster_size(current, k) != size_before - 1:
            raise ReductionInvariantError("merging must shrink the cluster by one")
        if first_nested(current) is not None:
            raise ReductionInvariantError("merging re-introduced same-cluster nesting")
        trace.append(state_tuple(current, k, meet))
    _require_decreasing(trace)
    return current, tuple(steps), tuple(trace)


def _pick_pair_reference(c: Cirquent, k: int):
    """The members of ``k`` that meet deepest, and their meet, from a fresh ``members`` walk."""
    found = members(c, k)
    best = None
    for a, b in zip(found, found[1:]):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        if best is None or n > best[0]:
            best = (n, a, b)
    n, a, b = best
    return a, b, a[:n]


def strictly_decreasing(trace) -> bool:
    """True when consecutive state tuples drop in lexicographic order."""
    return all(a.measure > b.measure for a, b in zip(trace, trace[1:]))


def rand_context_instance(rng):
    """A random cirquent displaying one disjunction, plus both resolutions.

    Returns ``(whole, with_left, with_right, k)`` where ``whole`` holds
    a cluster-``k`` disjunction of two subcirquents at some position and
    the other two cirquents put one operand there instead.
    """
    context = rand_cirquent(rng, rng.randint(1, 4), ATOMS3, max_cluster=3)
    hole = rng.choice(positions(context))
    left_side = rand_cirquent(rng, rng.randint(0, 2), ATOMS3, max_cluster=3)
    right_side = rand_cirquent(rng, rng.randint(0, 2), ATOMS3, max_cluster=3)
    k = rng.randint(1, 4)
    whole = replace_at(context, hole, Or(k, left_side, right_side))
    return (
        whole,
        replace_at(context, hole, left_side),
        replace_at(context, hole, right_side),
        k,
    )


def _conclusion_key_id(conclusion: Cirquent, rule: str, hole) -> int | None:
    if rule in ("I-left", "I-right"):
        probe = hole
    elif rule == "II-right":
        probe = hole + ("R",)
    else:
        probe = hole + ("L",)
    try:
        node = subcirquent_at(conclusion, probe)
    except InvalidPathError:
        return None
    return node.cluster if isinstance(node, Or) else None


def _conclusion_new_disjunct(conclusion: Cirquent, rule: str, hole, inner) -> Cirquent | None:
    side = "L" if rule == "I-left" else "R"
    try:
        node = subcirquent_at(conclusion, hole + (side,) + inner)
    except InvalidPathError:
        return None
    if not isinstance(node, Or):
        return None
    return node.right if rule == "I-left" else node.left


def match_step_reference(premise: Cirquent, conclusion: Cirquent, hint=None):
    """The premise-driven matcher that ``match_step`` replaced, kept as its reference.

    Keys are the premise's disjunctions in path order, each under its
    own ID and, when it is alone in its cluster, under the ID the
    conclusion shows there if the premise does not use it.  Rule I tries
    every position of the grown operand, reading the new disjunct off
    the conclusion.  A candidate fits when replaying it forward gives the
    conclusion up to renaming of single-member clusters.  Returns the
    candidate, or None.
    """
    for rule in RULES:
        if hint is not None and hint.rule is not None and hint.rule != rule:
            continue
        for hole in or_positions(premise):
            if hint is not None and hint.hole_path is not None and hint.hole_path != hole:
                continue
            kp = subcirquent_at(premise, hole).cluster
            ks = [kp]
            if cluster_size(premise, kp) == 1:
                kc = _conclusion_key_id(conclusion, rule, hole)
                if kc is not None and kc != kp and not cluster_size(premise, kc):
                    ks = sorted({kp, kc})
            for k in ks:
                if hint is not None and hint.k is not None and hint.k != k:
                    continue
                if rule in ("I-left", "I-right"):
                    host = subcirquent_at(premise, hole + ("L" if rule == "I-left" else "R",))
                    apps = []
                    for inner in positions(host):
                        if hint is not None and hint.inner_path not in (None, inner):
                            continue
                        grown = _conclusion_new_disjunct(conclusion, rule, hole, inner)
                        if grown is not None:
                            apps.append(RuleApp(rule, hole, k, inner, grown))
                else:
                    apps = [RuleApp(rule, hole, k)]
                for app in apps:
                    try:
                        result = apply_rule_forward(premise, app)
                    except (RuleError, InvalidPathError):
                        continue
                    if cluster_struct_match(result, conclusion):
                        return app
    return None


def candidates_reference(conclusion: Cirquent, hint) -> Iterator[RuleApp]:
    """The candidate list ``match_step`` tried before it localized the hole.

    Every connective of the conclusion is a hole and every disjunction
    of the key's cluster in the grown operand an inner position, in the
    order ``match_step`` tries them: rules as in RULES, holes in path
    order, inner positions in path order.
    """
    if hint.hole_path is None:
        nodes = [(hole, node) for hole, node in walk(conclusion) if not isinstance(node, Literal)]
    else:
        node = calculus._at(conclusion, hint.hole_path)
        nodes = [] if node is None or isinstance(node, Literal) else [(hint.hole_path, node)]
    for rule in RULES:
        if hint.rule not in (None, rule) or (hint.inner_path is not None and rule in calculus._MERGED):
            continue
        left_merged, right_merged = calculus._MERGED.get(rule, (None, None))
        for hole, node in nodes:
            if left_merged is None:
                if not isinstance(node, Or):
                    continue
                k = node.cluster
                host = node.left if rule == "I-left" else node.right
                if hint.inner_path is None:
                    inners = members(host, k)
                else:
                    inner = calculus._at(host, hint.inner_path)
                    held = isinstance(inner, Or) and inner.cluster == k
                    inners = [hint.inner_path] if held else []
            else:
                key = node.left if left_merged else node.right
                if not isinstance(key, Or):
                    continue
                k = key.cluster
                if left_merged and right_merged and not (
                    isinstance(node.right, Or) and node.right.cluster == k
                ):
                    continue
                inners = [None]
            if hint.k not in (None, k) and cluster_size(conclusion, k) > 1:
                continue
            for inner in inners:
                yield RuleApp(rule, hole, k, inner_path=inner)


def first_match_reference(premise: Cirquent, conclusion: Cirquent, hint=None):
    """What ``match_step`` returns when it tries every candidate of ``candidates_reference``."""
    for app in candidates_reference(conclusion, hint or RuleHint()):
        try:
            if app.rule in ("I-left", "I-right"):
                restored, completed = apply_rule_backward(conclusion, app)
                if cluster_struct_match(restored, premise):
                    return completed
            elif cluster_struct_match(apply_rule_forward(premise, app), conclusion):
                return app
        except RuleError:
            continue
    return None


def rand_step_premise(rng) -> Cirquent:
    """A random premise for forward rule applications.

    Half are arbitrary.  The others display a key ``(A o C) | (B o C')``
    whose copies C and C' are mostly equal, so each cluster in C has a
    member in both copies, and whose connective o is a conjunction, a
    disjunction in one two-member cluster, or two single-member
    disjunctions.
    """
    if rng.random() < 0.5:
        return rand_cirquent(rng, rng.randint(1, 5), ATOMS3, max_cluster=_PIECE_IDS)
    shared = _piece(rng)
    ids = rng.choice(((None, None), (7, 7), (8, 9)))
    shared_left = rng.random() < 0.5

    def operand(cluster):
        copy = shared if rng.random() < 0.8 else _piece(rng)
        pair = (copy, _piece(rng)) if shared_left else (_piece(rng), copy)
        return And(*pair) if cluster is None else Or(cluster, *pair)

    key = Or(rng.randint(1, 6), operand(ids[0]), operand(ids[1]))
    return _wrap(rng, key, rng.randint(0, 2))[0]


def forward_steps(rng, premise: Cirquent):
    """Yield ``(conclusion, app)`` for every rule application forward-applicable to ``premise``.

    Every key is tried under every ID the premise uses and one it does
    not; rule I tries every inner position, each with a random new
    disjunct whose IDs may coincide with the premise's.
    """
    ids = sorted(cluster_ids(premise))
    ids.append(max(ids, default=0) + 1)
    for hole in or_positions(premise):
        key = subcirquent_at(premise, hole)
        for rule in RULES:
            host = key.left if rule == "I-left" else key.right
            inners = positions(host) if rule in ("I-left", "I-right") else [None]
            for k in ids:
                for inner in inners:
                    new = None if inner is None else _piece(rng)
                    app = RuleApp(rule, hole, k, inner, new)
                    try:
                        conclusion = apply_rule_forward(premise, app)
                    except RuleError:
                        continue
                    yield conclusion, app


def apply_rule_forward_reference(premise: Cirquent, app: RuleApp):
    """Rules forward as written one function per rule; returns the conclusion.

    Kept as the reference for the table that defines rules II and III
    once; it shares the key alignment, the connective check and the copy
    check with the library.
    """
    if app.rule in ("I-left", "I-right"):
        return _forward_one_reference(premise, app)
    if app.rule in ("II-left", "II-right"):
        return _forward_two_reference(premise, app)
    return _forward_three_reference(premise, app)


def apply_rule_backward_reference(conclusion: Cirquent, app: RuleApp):
    """Rules backward as written one function per rule; returns ``(premise, completed)``."""
    if app.rule in ("I-left", "I-right"):
        return _backward_one_reference(conclusion, app)
    if app.rule in ("II-left", "II-right"):
        return _backward_two_reference(conclusion, app)
    return _backward_three_reference(conclusion, app)


def _forward_one_reference(premise: Cirquent, app: RuleApp):
    if app.inner_path is None:
        raise RuleError("rule I needs an inner position")
    if app.new_subcirquent is None:
        raise RuleError("rule I needs the disjunct being introduced")
    aligned, key = calculus._align_key(premise, app)
    left_form = app.rule == "I-left"
    host = key.left if left_form else key.right
    try:
        target = subcirquent_at(host, app.inner_path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None
    if left_form:
        grown = Or(app.k, target, app.new_subcirquent)
    else:
        grown = Or(app.k, app.new_subcirquent, target)
    new_host = replace_at(host, app.inner_path, grown)
    if left_form:
        new_key = Or(app.k, new_host, key.right)
    else:
        new_key = Or(app.k, key.left, new_host)
    return replace_at(aligned, app.hole_path, new_key)


def _like_reference(template: Cirquent, left: Cirquent, right: Cirquent) -> Cirquent:
    """A connective node of the template's type (and ID), with new operands."""
    if isinstance(template, And):
        return And(left, right)
    return Or(template.cluster, left, right)


def _forward_two_reference(premise: Cirquent, app: RuleApp):
    aligned, key = calculus._align_key(premise, app)
    n1, n2 = key.left, key.right
    calculus._require_same_connective(aligned, n1, n2)
    if app.rule == "II-left":
        a, c1 = n1.left, n1.right
        b, c2 = n2.left, n2.right
        calculus._require_copies(aligned, c1, c2)
        merged = _like_reference(n1, Or(app.k, a, b), c1)
    else:
        c1, a = n1.left, n1.right
        c2, b = n2.left, n2.right
        calculus._require_copies(aligned, c1, c2)
        merged = _like_reference(n1, c1, Or(app.k, a, b))
    return replace_at(aligned, app.hole_path, merged)


def _forward_three_reference(premise: Cirquent, app: RuleApp):
    aligned, key = calculus._align_key(premise, app)
    n1, n2 = key.left, key.right
    calculus._require_same_connective(aligned, n1, n2)
    a, c = n1.left, n1.right
    b, d = n2.left, n2.right
    merged = _like_reference(n1, Or(app.k, a, b), Or(app.k, c, d))
    return replace_at(aligned, app.hole_path, merged)


def _backward_one_reference(conclusion: Cirquent, app: RuleApp):
    if app.inner_path is None:
        raise RuleError("rule I needs an inner position")
    try:
        key = subcirquent_at(conclusion, app.hole_path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None
    if not isinstance(key, Or):
        raise RuleError(f"no disjunction at {format_path(app.hole_path)}")
    if key.cluster != app.k:
        raise RuleError(f"key at {app.hole_path} is in cluster {key.cluster}, not {app.k}")
    left_form = app.rule == "I-left"
    host = key.left if left_form else key.right
    try:
        inner = subcirquent_at(host, app.inner_path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None
    if not isinstance(inner, Or) or inner.cluster != app.k:
        raise RuleError("the inner position must hold a disjunction in the key's cluster")
    kept = inner.left if left_form else inner.right
    dropped = inner.right if left_form else inner.left
    new_host = replace_at(host, app.inner_path, kept)
    if left_form:
        new_key = Or(app.k, new_host, key.right)
    else:
        new_key = Or(app.k, key.left, new_host)
    premise = replace_at(conclusion, app.hole_path, new_key)
    return premise, RuleApp(app.rule, app.hole_path, app.k, app.inner_path, dropped)


class MintReference:
    """Hands out fresh cluster IDs against a conclusion's ID budget.

    Each call to ``fresh`` returns the smallest positive integer not yet
    in use; the used set only grows, so each scan resumes where the last
    one stopped.  ``freshen`` copies a subcirquent, renaming every
    disjunction whose cluster is a singleton of the conclusion, in the
    order the disjunction signs appear in the text.
    """

    def __init__(self, conclusion: Cirquent):
        self.used = set(cluster_ids(conclusion))
        self.singles = _singles_reference(conclusion)
        self.lowest = 1  # no ID below this one is free

    def fresh(self) -> int:
        n = self.lowest
        while n in self.used:
            n += 1
        self.used.add(n)
        self.lowest = n + 1
        return n

    def freshen(self, c: Cirquent) -> Cirquent:
        return map_clusters(c, lambda k: self.fresh() if k in self.singles else k)


def _singles_reference(c: Cirquent) -> set[int]:
    """IDs of the clusters with exactly one member, from the full cluster table."""
    return {k for k, block in clusters(c).items() if len(block) == 1}


def _connective_reference(conclusion: Cirquent, app: RuleApp) -> Cirquent:
    """The connective at the hole; RuleError when there is none."""
    try:
        node = subcirquent_at(conclusion, app.hole_path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None
    if isinstance(node, Literal):
        raise ShapeMismatchError(f"no connective at {app.hole_path}")
    return node


def _backward_two_reference(conclusion: Cirquent, app: RuleApp):
    node = _connective_reference(conclusion, app)
    mint = MintReference(conclusion)
    left_form = app.rule == "II-left"
    key_in = node.left if left_form else node.right
    if not isinstance(key_in, Or) or key_in.cluster != app.k:
        raise RuleError(f"rule {app.rule} needs the key disjunction as its operand")
    a, b = key_in.left, key_in.right
    shared = node.right if left_form else node.left
    if isinstance(node, And):
        if left_form:
            parts = And(a, shared), And(b, mint.freshen(shared))
        else:
            parts = And(shared, a), And(mint.freshen(shared), b)
    else:
        fresh_second = node.cluster in mint.singles
        if left_form:
            # Second copy reads "B o C": its connective ID precedes C's.
            second_id = mint.fresh() if fresh_second else node.cluster
            parts = Or(node.cluster, a, shared), Or(second_id, b, mint.freshen(shared))
        else:
            # Second copy reads "C o B": C's IDs precede its connective ID.
            copy = mint.freshen(shared)
            second_id = mint.fresh() if fresh_second else node.cluster
            parts = Or(node.cluster, shared, a), Or(second_id, copy, b)
    premise = replace_at(conclusion, app.hole_path, Or(app.k, parts[0], parts[1]))
    return premise, app


def _backward_three_reference(conclusion: Cirquent, app: RuleApp):
    node = _connective_reference(conclusion, app)
    left_or, right_or = node.left, node.right
    if (
        not isinstance(left_or, Or)
        or left_or.cluster != app.k
        or not isinstance(right_or, Or)
        or right_or.cluster != app.k
    ):
        raise RuleError("rule III needs both operands to be disjunctions in the key's cluster")
    a, b = left_or.left, left_or.right
    c, d = right_or.left, right_or.right
    if isinstance(node, And):
        parts = And(a, c), And(b, d)
    else:
        mint = MintReference(conclusion)
        if node.cluster in mint.singles:
            first, second = mint.fresh(), mint.fresh()
            parts = Or(first, a, c), Or(second, b, d)
        else:
            parts = Or(node.cluster, a, c), Or(node.cluster, b, d)
    premise = replace_at(conclusion, app.hole_path, Or(app.k, parts[0], parts[1]))
    return premise, app


def atoms(c: Cirquent) -> set[str]:
    """The set of atom names occurring in the cirquent."""
    return {node.atom for _, node in walk(c) if isinstance(node, Literal)}


def ensure_within_bounds(c: Cirquent, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[str]:
    """The sorted atoms of ``c``; TooLargeError for too many atoms or multi-member clusters."""
    return _within_bounds(c, max_atoms)[1]


def interpretations(names):
    """All assignments over the given atoms, in lexicographic order (false first)."""
    ordered = sorted(names)
    for values in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, values))


def metaselections(ids):
    """All metaselections over the given cluster IDs ("left" before "right")."""
    ordered = sorted(ids)
    for sides in itertools.product(("left", "right"), repeat=len(ordered)):
        yield dict(zip(ordered, sides))


def metatrue_reference(c: Cirquent, interpretation, metaselection) -> bool:
    """Recursive evaluation with every disjunction resolved by the metaselection.

    It stops at the first operand that settles a conjunction, so a
    missing atom or cluster goes unnoticed when it is never reached.
    """
    if isinstance(c, Literal):
        try:
            value = interpretation[c.atom]
        except KeyError:
            raise MissingAtomError(f"no value for atom {c.atom!r}") from None
        return value if c.positive else not value
    if isinstance(c, And):
        return metatrue_reference(c.left, interpretation, metaselection) and metatrue_reference(
            c.right, interpretation, metaselection
        )
    try:
        side = metaselection[c.cluster]
    except KeyError:
        raise MissingClusterError(f"no side for cluster {c.cluster}") from None
    resolvent = c.left if side == "left" else c.right
    return metatrue_reference(resolvent, interpretation, metaselection)


def true_under_reference(c: Cirquent, interpretation) -> bool:
    """Some metaselection over every cluster, single-member ones too, is metatrue."""
    return any(metatrue_reference(c, interpretation, f) for f in metaselections(clusters(c)))


def valid_reference(c: Cirquent) -> bool:
    """Every interpretation makes ``c`` true."""
    return all(true_under_reference(c, i) for i in interpretations(atoms(c)))


def countermodel_reference(c: Cirquent):
    """The first interpretation, in lexicographic order, that falsifies ``c``."""
    for i in interpretations(atoms(c)):
        if not true_under_reference(c, i):
            return i
    return None


@dataclass(frozen=True)
class TruthTable:
    """A truth table: ``rows`` maps each full assignment tuple, in ``atoms`` order, to a bool."""

    atoms: tuple[str, ...]
    rows: dict

    def __post_init__(self) -> None:
        if len(self.rows) != 2 ** len(self.atoms):
            raise ValueError("a truth table needs one row per assignment")


def truth_table(c: Cirquent) -> TruthTable:
    """The evaluator's table: ``_false_rows``' bit for every assignment of the atoms."""
    order, names = _within_bounds(c)
    false, shift = _false_rows(order, names, {}, {})
    assignments = itertools.product((False, True), repeat=len(names))
    rows = {values: not (false >> (i << shift)) & 1 for i, values in enumerate(assignments)}
    return TruthTable(tuple(names), rows)


def compile_classical(table: TruthTable) -> Cirquent | None:
    """The DNF tree that ``semantics.dnf_text`` prints, built node by node; None when no row is true.

    Every minterm mentions every atom, conjunctions and the disjunction
    spine both associate to the left, and the singleton cluster IDs come
    out already canonical.
    """
    minterms = []
    for values, result in table.rows.items():
        if not result:
            continue
        term: Cirquent | None = None
        for name, value in zip(table.atoms, values):
            lit = Literal(name, positive=value)
            term = lit if term is None else And(term, lit)
        minterms.append(term)
    if not minterms:
        return None
    dnf = minterms[0]
    for i, term in enumerate(minterms[1:], start=1):
        dnf = Or(i, dnf, term)
    return dnf


def truth_table_reference(c: Cirquent) -> TruthTable:
    """``true_under_reference`` at every assignment of the atoms, in lexicographic order."""
    ordered = tuple(sorted(atoms(c)))
    rows = {}
    for values in itertools.product((False, True), repeat=len(ordered)):
        rows[values] = true_under_reference(c, dict(zip(ordered, values)))
    return TruthTable(ordered, rows)


def dnf_reference(table: TruthTable) -> tuple[int, str]:
    """The node count and printed text of ``compile_classical(table)``; (0, "") when no row is true."""
    tree = compile_classical(table)
    return (0, "") if tree is None else (node_count(tree), print_cirquent(tree))


def eval_classical_reference(c: Cirquent, interpretation) -> bool:
    """Plain boolean evaluation, reading every disjunction as ordinary ``or``."""
    if isinstance(c, Literal):
        try:
            value = interpretation[c.atom]
        except KeyError:
            raise MissingAtomError(f"no value for atom {c.atom!r}") from None
        return value if c.positive else not value
    if isinstance(c, And):
        return eval_classical_reference(c.left, interpretation) and eval_classical_reference(
            c.right, interpretation
        )
    return eval_classical_reference(c.left, interpretation) or eval_classical_reference(
        c.right, interpretation
    )


def classical_tautology_reference(c: Cirquent) -> bool:
    """``c`` holds under every interpretation when every disjunction is ``or``."""
    return all(eval_classical_reference(c, i) for i in interpretations(atoms(c)))


def classical_countermodel_reference(c: Cirquent):
    """The first interpretation falsifying ``c`` when every disjunction is ``or``."""
    for i in interpretations(atoms(c)):
        if not eval_classical_reference(c, i):
            return i
    return None


# The recursive-descent parser the one-pass parser in ``ifp.syntax``
# replaced: tokens, a raw tuple tree, negation normal form, then IDs.

_REFERENCE_TOKEN = re.compile(
    r"\s+|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<sym>->|[()&|~])"
)


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str  # "name" | "num" | "sym" | "end"
    text: str
    position: int


def _reference_tokenize(text: str, partial: bool):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            if partial:
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append(_ReferenceToken(m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(_ReferenceToken("end", "", pos))
    return tokens, pos


class _ReferenceParser:
    """Raw nodes: ("lit", name), ("not", sub, pos), ("and", l, r),
    ("or", id_or_None, l, r, pos) and ("imp", l, r, pos)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.max_id = 0

    def peek(self):
        return self.tokens[self.index]

    def take(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_symbol(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text == text

    def impl(self):
        left = self.or_()
        if self.at_symbol("->"):
            arrow = self.take()
            return ("imp", left, self.impl(), arrow.position)
        return left

    def or_(self):
        node = self.and_()
        while self.at_symbol("|"):
            bar = self.take()
            cluster = None
            if self.peek().kind == "num":
                cluster = self.cluster_id(self.take())
            node = ("or", cluster, node, self.and_(), bar.position)
        return node

    def and_(self):
        node = self.unary()
        while self.at_symbol("&"):
            self.take()
            node = ("and", node, self.unary())
        return node

    def unary(self):
        token = self.peek()
        if token.kind == "sym" and token.text == "~":
            self.take()
            return ("not", self.unary(), token.position)
        if token.kind == "name":
            self.take()
            return ("lit", token.text)
        if token.kind == "sym" and token.text == "(":
            self.take()
            node = self.impl()
            if not self.at_symbol(")"):
                raise ParseError("expected a closing parenthesis", self.peek().position)
            self.take()
            return node
        raise ParseError(
            f"expected a formula, found {token.text!r}" if token.text
            else "expected a formula, found the end of the input",
            token.position,
        )

    def cluster_id(self, token) -> int:
        value = int(token.text)
        if token.text != str(value):
            raise ParseError("cluster IDs may not have leading zeros", token.position)
        if value < 1:
            raise NonpositiveClusterIdError("cluster IDs start at 1", token.position)
        self.max_id = max(self.max_id, value)
        return value


def parse_reference(text: str) -> Cirquent:
    """``ifp.parse`` as the recursive-descent parser computed it."""
    tokens, _ = _reference_tokenize(text, partial=False)
    parser = _ReferenceParser(tokens)
    raw = parser.impl()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r} after the formula", trailing.position)
    return _reference_finish(raw, parser.max_id)


def parse_prefix_reference(text: str, literals=None) -> tuple[Cirquent, int]:
    """``ifp.syntax._parse_prefix`` as the recursive-descent parser computed it.

    ``literals``, the parser's shared literal table, is accepted and ignored.
    """
    tokens, scanned = _reference_tokenize(text, partial=True)
    parser = _ReferenceParser(tokens)
    raw = parser.impl()
    trailing = parser.peek()
    stop = scanned if trailing.kind == "end" else trailing.position
    return _reference_finish(raw, parser.max_id), stop


def _reference_finish(raw, max_id: int) -> Cirquent:
    return _reference_assign_ids(_reference_nnf(raw, True), itertools.count(max_id + 1))


def _reference_nnf(node, positive: bool):
    tag = node[0]
    if tag == "lit":
        return ("lit", node[1], positive)
    if tag == "not":
        return _reference_nnf(node[1], not positive)
    if tag == "and":
        _, left, right = node
        if positive:
            return ("and", _reference_nnf(left, True), _reference_nnf(right, True))
        return ("or", None, _reference_nnf(left, False), _reference_nnf(right, False))
    if tag == "or":
        _, cluster, left, right, position = node
        if positive:
            return ("or", cluster, _reference_nnf(left, True), _reference_nnf(right, True))
        if cluster is not None:
            raise NegatedIndexedDisjunctionError(
                "negation cannot apply over a disjunction with an explicit cluster ID",
                position,
            )
        return ("and", _reference_nnf(left, False), _reference_nnf(right, False))
    _, left, right, _position = node  # "imp"
    if positive:
        return ("or", None, _reference_nnf(left, False), _reference_nnf(right, True))
    return ("and", _reference_nnf(left, True), _reference_nnf(right, False))


def _reference_assign_ids(shaped, counter) -> Cirquent:
    if shaped[0] == "lit":
        return Literal(shaped[1], shaped[2])
    if shaped[0] == "and":
        return And(
            _reference_assign_ids(shaped[1], counter), _reference_assign_ids(shaped[2], counter)
        )
    _, cluster, left, right = shaped
    built_left = _reference_assign_ids(left, counter)
    if cluster is None:
        cluster = next(counter)
    return Or(cluster, built_left, _reference_assign_ids(right, counter))
