"""Seeded goal corpora, built with the standard library alone.

Goals are plain tuples, so that neither the generators nor the reference
oracle depend on ifp's own data model:

    ("p", True), ("p", False)    the literals p and ~p
    ("&", left, right)           a conjunction
    ("|", k, left, right)        a disjunction in cluster k

Every goal is handed to ifp as text with every cluster ID written out
(see ``to_text``), so ifp parses exactly the tree the oracle labels.
"""

from __future__ import annotations

import bisect
import itertools
import random

ATOMS = ("p", "q", "r")


def conj(left, right):
    return ("&", left, right)


def disj(k, left, right):
    return ("|", k, left, right)


def to_text(goal) -> str:
    """Fully parenthesised text in ifp's syntax, every cluster ID explicit."""
    if goal[0] == "&":
        return f"({to_text(goal[1])}&{to_text(goal[2])})"
    if goal[0] == "|":
        return f"({to_text(goal[2])}|{goal[1]} {to_text(goal[3])})"
    return goal[0] if goal[1] else "~" + goal[0]


def size(goal) -> int:
    """Number of nodes, literals and connectives alike."""
    if goal[0] == "&":
        return 1 + size(goal[1]) + size(goal[2])
    if goal[0] == "|":
        return 1 + size(goal[2]) + size(goal[3])
    return 1


# --- sweep3: a uniform sample of every cirquent with at most 3 connectives ---


def _shapes(n: int) -> tuple:
    """Every binary tree shape with ``n`` internal nodes (None is a leaf)."""
    if n == 0:
        return (None,)
    return tuple(
        (left, right)
        for left_size in range(n)
        for left in _shapes(left_size)
        for right in _shapes(n - 1 - left_size)
    )


def _partitions(m: int) -> list[tuple[int, ...]]:
    """Every partition of ``m`` disjunctions into clusters, as ID tuples.

    IDs are numbered 1, 2, ... by first occurrence (restricted growth
    strings), so each partition appears exactly once.
    """
    out = [()]
    for _ in range(m):
        out = [ids + (k,) for ids in out for k in range(1, max(ids, default=0) + 2)]
    return out


_LITERALS = tuple((name, positive) for name in ATOMS for positive in (True, False))


def _sweep_blocks(max_connectives: int = 3):
    """(shape, kinds, ids) blocks of the enumeration and their start offsets.

    Each block stands for every choice of leaves, ``len(_LITERALS) **
    leaves`` cirquents, so the enumeration is never materialised.
    """
    blocks, starts, total = [], [], 0
    for n in range(max_connectives + 1):
        for shape in _shapes(n):
            for kinds in itertools.product("&|", repeat=n):
                for ids in _partitions(kinds.count("|")):
                    blocks.append((shape, kinds, ids, n + 1))
                    starts.append(total)
                    total += len(_LITERALS) ** (n + 1)
    return blocks, starts, total


def _build(shape, kinds, ids, leaves):
    """Assemble a goal, consuming the three iterators in preorder."""
    if shape is None:
        return next(leaves)
    kind = next(kinds)
    k = next(ids) if kind == "|" else None
    left = _build(shape[0], kinds, ids, leaves)
    right = _build(shape[1], kinds, ids, leaves)
    return conj(left, right) if kind == "&" else disj(k, left, right)


def sweep3(seed: int, count: int) -> list:
    """``count`` distinct goals drawn uniformly from the <=3-connective sweep.

    The sweep covers p, q, r and their negations at the leaves, both
    connectives at every internal node and every partition of the
    disjunctions into clusters: 99,438 cirquents.  Indices are drawn
    without replacement and decoded one by one.
    """
    blocks, starts, total = _sweep_blocks()
    rng = random.Random(seed)
    goals = []
    for index in rng.sample(range(total), count):
        b = bisect.bisect_right(starts, index) - 1
        shape, kinds, ids, n_leaves = blocks[b]
        rank = index - starts[b]
        digits = []
        for _ in range(n_leaves):
            rank, d = divmod(rank, len(_LITERALS))
            digits.append(_LITERALS[d])
        goals.append(_build(shape, iter(kinds), iter(ids), iter(digits)))
    return goals



# --- proofs: random valid goals of 12-20 connectives ---


def random_goal(rng: random.Random, n: int, pool: int = 4):
    """A random goal with ``n`` connectives over p, q, r and clusters 1..pool."""
    if n == 0:
        return (rng.choice(ATOMS), rng.random() < 0.5)
    left_size = rng.randrange(n)
    left = random_goal(rng, left_size, pool)
    right = random_goal(rng, n - 1 - left_size, pool)
    if rng.random() < 0.5:
        return conj(left, right)
    return disj(rng.randint(1, pool), left, right)


def proofs(seed: int, count: int, population: int, is_valid) -> list:
    """``count`` goals drawn from a fixed population of random valid goals.

    The population is the first ``population`` random goals of 12-20
    connectives that ``is_valid`` accepts, from a fixed generator seed;
    the seed draws the sample and its order.  Goal costs vary over two
    orders of magnitude, so sampling from a fixed population keeps the
    figures of different seeds comparable while their corpora differ.
    """
    rng = random.Random(0)
    goals = []
    while len(goals) < population:
        goal = random_goal(rng, rng.randint(12, 20))
        if is_valid(goal):
            goals.append(goal)
    return random.Random(seed).sample(goals, count)


# --- nested: the shared-cluster family whose residue grows with depth ---


def nested_goal(d: int, valid: bool, names=ATOMS, swap: bool = False):
    """A cluster-1 member at depth ``d`` on both sides of a disjunction.

    Each level conjoins a two-member cluster: ``(y|k z)&(~y|k ~z)`` in the
    always-invalid form, ``(y|k ~y)|(~y|k y)`` in the valid variant, whose
    other side mirrors the cluster-1 member so that the goal is valid.
    Level clusters are shared by both sides; every other disjunction is
    alone in a fresh cluster, as the parser would number it.  ``names``
    gives the atoms a, y, z; ``swap`` exchanges the two sides.
    """
    a, y, z = names
    fresh = itertools.count(d + 2)

    def level(k):
        if valid:
            return disj(next(fresh), disj(k, (y, True), (y, False)), disj(k, (y, False), (y, True)))
        return conj(disj(k, (y, True), (z, True)), disj(k, (y, False), (z, False)))

    def side(mirror):
        node = disj(1, (a, False), (a, True)) if mirror else disj(1, (a, True), (a, False))
        for j in range(1, d + 1):
            node = conj(node, level(j + 1))
        return node

    left, right = side(False), side(valid)
    if swap:
        left, right = right, left
    return disj(next(fresh), left, right)


# The family members decide answers within its bounds.  Deeper members
# make decide refuse with TooLargeError (see defects.py), so they are
# not in the timed workload.
NESTED_REFUSED = ((3, False), (4, False), (2, True), (3, True), (4, True))


def nested(seed: int) -> list:
    """The members decide answers, in a seeded order: 20 goals.

    The invalid form at d = 2 under every naming of the atoms and with
    its two sides in either order, at d = 1 under every naming, and the
    valid form at d = 1 with its sides in either order, whose proofs are
    checked.  Checking without hints costs ten times the valid goal's
    reduction, so two valid goals keep the reducer the main cost.  With
    d = 1 in one side order, the medians fall inside the d = 2 goals,
    not on the step between the two depths.
    """
    goals = [
        nested_goal(2, False, names, swap)
        for names in itertools.permutations(ATOMS)
        for swap in (False, True)
    ]
    goals += [nested_goal(1, False, names) for names in itertools.permutations(ATOMS)]
    goals += [nested_goal(1, True, ATOMS, swap) for swap in (False, True)]
    random.Random(seed).shuffle(goals)
    return goals


# --- cli: a fixed goal set, the same for every seed ---

# A valid goal whose emitted proof is rejected after print and re-parse.
ROUND_TRIP_REJECTED = disj(
    2,
    conj(
        disj(3, conj(("q", False), ("q", True)), conj(conj(("p", True), ("p", True)), disj(3, ("p", True), ("p", False)))),
        conj(conj(("q", False), ("q", True)), conj(("q", True), ("q", True))),
    ),
    disj(1, ("p", True), conj(("p", False), ("p", False))),
)

# The goal of the six-step worked proof.
WORKED_GOAL = disj(
    1,
    conj(disj(1, ("q", True), ("r", True)), disj(2, ("p", True), ("p", False))),
    conj(disj(2, ("p", True), ("p", False)), disj(1, ("s", True), ("q", False))),
)

# Clustered exclusive-or: false everywhere.
CLUSTERED_XOR = conj(disj(1, ("p", True), ("q", True)), disj(1, ("p", False), ("q", False)))


def cli_goals(seed: int, is_valid) -> list:
    """The fixed CLI goal set, seven valid and three invalid, in a seeded order."""
    goals = [
        ROUND_TRIP_REJECTED,
        WORKED_GOAL,
        CLUSTERED_XOR,
        nested_goal(1, True),
        nested_goal(1, False),
        nested_goal(2, False),
    ]
    goals += proofs(0, 4, 4, is_valid)
    random.Random(seed).shuffle(goals)
    return goals
