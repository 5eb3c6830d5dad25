"""Shared generators and enumeration utilities for the test suite.

Everything here is deterministic: the exhaustive enumerator has a fixed
iteration order and the random builders take an explicit ``random.Random``.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from ifp import (
    And,
    Cirquent,
    Literal,
    Or,
    RuleApp,
    clusters,
    members,
    nested_pairs,
    parse,
    positions,
    replace_at,
)

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


def assert_summary_matches_walk(c: Cirquent) -> None:
    """The cached summary and ``members`` agree with a fresh full walk."""
    table = clusters(c)
    assert dict(c.summary.counts) == {k: len(v) for k, v in table.items()}
    assert c.summary.nesting_free == (not nested_pairs(c))
    for k, positions_of_k in table.items():
        assert members(c, k) == sorted(positions_of_k)


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
