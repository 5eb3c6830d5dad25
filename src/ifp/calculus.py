"""Rewriting rules on cirquents, rule matching, and proof checking.

A proof is a list of cirquents: the first must be an axiom (a classical
cirquent that holds under every interpretation) and each later entry must
follow from its predecessor by one of five rules.  Every rule acts at a
designated disjunction occurrence, the key, named by its position (the
hole) and its cluster ID k.

Rule I grows a disjunct of the key: some subcirquent A inside the key's
left operand (I-left) or right operand (I-right) is replaced by "A | k B"
(respectively "B | k A") for an arbitrary new subcirquent B.  Rule II
pulls the key out of a shared connective: a premise whose key operands
are "A o C" and "B o C", for the same connective o and matching copies of
C, concludes "(A | k B) o C"; II-right is the mirror image with C on the
left.  Rule III merges two keys: operands "A o C" and "B o D" conclude
"(A | k B) o (C | k D)".

For rules II and III the displayed connective o must be the same on both
sides: both conjunctions, or both disjunctions in one cluster, or two
disjunctions that are each alone in their clusters.  The conclusion's o
keeps the left occurrence's cluster ID.

Applied backward (conclusion to premise), rule I deletes a disjunct,
rule II duplicates the shared operand, and rule III splits the two
merged disjunctions apart.  Duplication and splitting give single-member
clusters fresh IDs, smallest unused first, in the order the disjunction
signs appear in the new text; multi-member clusters keep their IDs, so
the grouping structure is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .core import (
    And,
    Cirquent,
    InvalidPathError,
    LEFT_STEP,
    Literal,
    Or,
    Path,
    RIGHT_STEP,
    clusters,
    is_classical,
    or_positions,
    positions,
    replace_at,
    same_shape,
    singleton_clusters,
    subcirquent_at,
)
from .semantics import classical_tautology

RULES = ("I-left", "I-right", "II-left", "II-right", "III")
AXIOM = "axiom"

AND_KIND = "and"
SINGLETON_OR_KIND = "singleton-or"
CLUSTER_OR_KIND = "or-in-cluster"


class RuleError(Exception):
    """The rule application does not fit the given cirquent."""


class ShapeMismatchError(RuleError):
    """A displayed operand is a literal where the rule needs a connective."""


class CopyMismatchError(RuleError):
    """The two displayed copies of the shared operand disagree."""


class ConnectiveConstraintError(RuleError):
    """The two displayed connectives do not count as the same connective."""


@dataclass(frozen=True)
class RuleApp:
    """One rule application, pinned to a position.

    ``hole_path`` addresses the key disjunction in the premise (equally:
    the rewritten node in the conclusion) and ``k`` is the key's cluster.
    Rule I also needs ``inner_path``, the position of the grown
    subcirquent inside the key's operand, and ``new_subcirquent``, the
    disjunct being introduced; applying the rule backward fills the
    latter in.  ``circ`` records how the shared connective of rules II
    and III was classified, once known.
    """

    rule: str
    hole_path: Path
    k: int
    inner_path: Optional[Path] = None
    new_subcirquent: Optional[Cirquent] = None
    circ: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"cluster IDs must be positive integers, got {self.k!r}")


@dataclass(frozen=True)
class RuleHint:
    """Partial information about a step; None fields are unconstrained."""

    rule: Optional[str] = None
    hole_path: Optional[Path] = None
    k: Optional[int] = None
    inner_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.rule is not None and self.rule not in RULES + (AXIOM,):
            raise ValueError(f"unknown rule {self.rule!r}")


@dataclass(frozen=True)
class ProofEntry:
    cirquent: Cirquent
    hint: Optional[RuleHint] = None


@dataclass(frozen=True)
class ProofScript:
    """A proof candidate: axiom first, goal last."""

    entries: tuple[ProofEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a proof needs at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ProofEntry]:
        return iter(self.entries)

    @property
    def conclusion(self) -> Cirquent:
        return self.entries[-1].cirquent


@dataclass(frozen=True)
class CheckFailure:
    """Why a proof was rejected: the offending entry and a reason code."""

    line: int
    reason: str


def is_axiom(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> bool:
    """True for a classical cirquent that holds under every interpretation."""
    return is_classical(c) and classical_tautology(
        c, max_atoms=max_atoms, max_clusters=max_clusters
    )


def apply_rule_forward(premise: Cirquent, app: RuleApp) -> Cirquent:
    """Apply a rule premise-to-conclusion.

    The key's own cluster ID always qualifies as ``app.k``.  When the key
    is alone in its cluster it may also be addressed by any ID unused in
    the premise; the key is then renamed first, which changes nothing up
    to cluster isomorphism.
    """
    return _apply_forward(premise, app)[0]


def apply_rule_backward(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    """Undo a rule conclusion-to-premise.  ``app.k`` must match exactly.

    Returns ``(premise, completed)`` where ``completed`` is the
    application enriched with everything needed to replay it forward:
    the deleted disjunct for rule I, the connective classification for
    rules II and III.
    """
    if app.rule in ("I-left", "I-right"):
        return _backward_one(conclusion, app)
    if app.rule in ("II-left", "II-right"):
        return _backward_two(conclusion, app)
    return _backward_three(conclusion, app)


def cluster_struct_match(c: Cirquent, d: Cirquent) -> bool:
    """Same tree and same grouping, comparing IDs only where they matter.

    The two cirquents must group the same position sets into clusters,
    and clusters with more than one member must carry the same ID on
    both sides.  Single-member clusters match regardless of their IDs,
    which is exactly the freedom the printed form exercises when it
    omits them.
    """
    if not same_shape(c, d):
        return False
    inv_c = {block: k for k, block in clusters(c).items()}
    inv_d = {block: k for k, block in clusters(d).items()}
    if set(inv_c) != set(inv_d):
        return False
    return all(len(block) == 1 or inv_d[block] == k for block, k in inv_c.items())


def match_step(
    premise: Cirquent, conclusion: Cirquent, hint: Optional[RuleHint] = None
) -> Optional[RuleApp]:
    """The first rule application carrying the premise to the conclusion.

    Candidates are tried in a fixed order: rules as listed in RULES, key
    positions in path order, cluster IDs ascending, inner positions in
    path order.  A candidate fits when applying it forward reproduces
    the conclusion up to renaming of single-member clusters.  A hint
    restricts the candidates field by field.  Returns None when nothing
    fits.
    """
    for app in _candidates(premise, conclusion, hint):
        try:
            result, kind = _apply_forward(premise, app)
        except (RuleError, InvalidPathError):
            continue
        if cluster_struct_match(result, conclusion):
            return replace(app, circ=kind)
    return None


def check_proof(
    script: ProofScript, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> Optional[CheckFailure]:
    """Verify a proof; None means it checks out.

    The first entry must be an axiom and each later entry must follow
    from its predecessor by one rule, honoring that entry's hint when
    present.  On failure, the returned value names the first bad entry:
    reason "not-an-axiom" for entry 1, "no-rule-matches" otherwise.
    """
    first = script.entries[0].cirquent
    if not is_axiom(first, max_atoms=max_atoms, max_clusters=max_clusters):
        return CheckFailure(1, "not-an-axiom")
    for i in range(1, len(script.entries)):
        prev = script.entries[i - 1].cirquent
        entry = script.entries[i]
        if match_step(prev, entry.cirquent, entry.hint) is None:
            return CheckFailure(i + 1, "no-rule-matches")
    return None


def _show(path: Path) -> str:
    return "".join(path) or "."


def _key_or(c: Cirquent, hole_path: Path) -> Or:
    try:
        node = subcirquent_at(c, hole_path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None
    if not isinstance(node, Or):
        raise RuleError(f"no disjunction at {_show(hole_path)}")
    return node


def _align_key(premise: Cirquent, app: RuleApp) -> tuple[Cirquent, Or]:
    """Rename the key to ``app.k`` when that is allowed, or fail."""
    key = _key_or(premise, app.hole_path)
    if key.cluster == app.k:
        return premise, key
    counts = premise.summary.counts
    if counts[key.cluster] == 1 and app.k not in counts:
        renamed = Or(app.k, key.left, key.right)
        return replace_at(premise, app.hole_path, renamed), renamed
    raise RuleError(
        f"key at {_show(app.hole_path)} is in cluster {key.cluster}, not {app.k}"
    )


def _apply_forward(premise: Cirquent, app: RuleApp) -> tuple[Cirquent, Optional[str]]:
    if app.rule in ("I-left", "I-right"):
        return _forward_one(premise, app)
    if app.rule in ("II-left", "II-right"):
        return _forward_two(premise, app)
    return _forward_three(premise, app)


def _forward_one(premise: Cirquent, app: RuleApp) -> tuple[Cirquent, None]:
    if app.inner_path is None:
        raise RuleError("rule I needs an inner position")
    if app.new_subcirquent is None:
        raise RuleError("rule I needs the disjunct being introduced")
    aligned, key = _align_key(premise, app)
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
    return replace_at(aligned, app.hole_path, new_key), None


def _circ_kind(c: Cirquent, n1: Cirquent, n2: Cirquent) -> str:
    """Classify the two displayed connectives, or reject them."""
    if isinstance(n1, Literal) or isinstance(n2, Literal):
        raise ShapeMismatchError("both operands of the key must be compound")
    if isinstance(n1, And) and isinstance(n2, And):
        return AND_KIND
    if isinstance(n1, And) or isinstance(n2, And):
        raise ConnectiveConstraintError("the displayed connectives differ")
    if n1.cluster == n2.cluster:
        return CLUSTER_OR_KIND
    singles = singleton_clusters(c)
    if n1.cluster in singles and n2.cluster in singles:
        return SINGLETON_OR_KIND
    raise ConnectiveConstraintError(
        "two disjunctions play the shared connective only when they are in "
        "one cluster or each alone in theirs"
    )


def _require_copies(c: Cirquent, c1: Cirquent, c2: Cirquent) -> None:
    """Check that c1 and c2 are copies of the same operand.

    Copies must agree node for node; disjunctions may differ in cluster
    ID only when both are alone in their clusters, since such IDs carry
    no grouping information.
    """
    singles = singleton_clusters(c)

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


def _like(template: Cirquent, left: Cirquent, right: Cirquent) -> Cirquent:
    """A connective node of the template's type (and ID), with new operands."""
    if isinstance(template, And):
        return And(left, right)
    return Or(template.cluster, left, right)


def _forward_two(premise: Cirquent, app: RuleApp) -> tuple[Cirquent, str]:
    aligned, key = _align_key(premise, app)
    n1, n2 = key.left, key.right
    kind = _circ_kind(aligned, n1, n2)
    if app.rule == "II-left":
        a, c1 = n1.left, n1.right
        b, c2 = n2.left, n2.right
        _require_copies(aligned, c1, c2)
        merged = _like(n1, Or(app.k, a, b), c1)
    else:
        c1, a = n1.left, n1.right
        c2, b = n2.left, n2.right
        _require_copies(aligned, c1, c2)
        merged = _like(n1, c1, Or(app.k, a, b))
    return replace_at(aligned, app.hole_path, merged), kind


def _forward_three(premise: Cirquent, app: RuleApp) -> tuple[Cirquent, str]:
    aligned, key = _align_key(premise, app)
    n1, n2 = key.left, key.right
    kind = _circ_kind(aligned, n1, n2)
    a, c = n1.left, n1.right
    b, d = n2.left, n2.right
    merged = _like(n1, Or(app.k, a, b), Or(app.k, c, d))
    return replace_at(aligned, app.hole_path, merged), kind


class _Mint:
    """Hands out fresh cluster IDs against a conclusion's ID budget.

    Each call to ``fresh`` returns the smallest positive integer not yet
    in use; ``freshen`` copies a subcirquent, renaming every disjunction
    whose cluster is a singleton of the conclusion, in the order the
    disjunction signs appear in the text.
    """

    def __init__(self, conclusion: Cirquent):
        self.used = set(conclusion.summary.counts)
        self.singles = singleton_clusters(conclusion)

    def fresh(self) -> int:
        n = 1
        while n in self.used:
            n += 1
        self.used.add(n)
        return n

    def freshen(self, c: Cirquent) -> Cirquent:
        if isinstance(c, Literal):
            return c
        left = self.freshen(c.left)
        if isinstance(c, And):
            return And(left, self.freshen(c.right))
        cluster = self.fresh() if c.cluster in self.singles else c.cluster
        return Or(cluster, left, self.freshen(c.right))


def _backward_one(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    if app.inner_path is None:
        raise RuleError("rule I needs an inner position")
    key = _key_or(conclusion, app.hole_path)
    if key.cluster != app.k:
        raise RuleError(
            f"key at {_show(app.hole_path)} is in cluster {key.cluster}, not {app.k}"
        )
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
    return premise, replace(app, new_subcirquent=dropped)


def _backward_two(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    node = subcirquent_at(conclusion, app.hole_path)
    if isinstance(node, Literal):
        raise ShapeMismatchError(f"no connective at {_show(app.hole_path)}")
    mint = _Mint(conclusion)
    left_form = app.rule == "II-left"
    key_in = node.left if left_form else node.right
    if not isinstance(key_in, Or) or key_in.cluster != app.k:
        side = "left" if left_form else "right"
        raise RuleError(
            f"rule {app.rule} needs the key disjunction as the {side} operand"
        )
    a, b = key_in.left, key_in.right
    shared = node.right if left_form else node.left
    if isinstance(node, And):
        kind = AND_KIND
        if left_form:
            parts = And(a, shared), And(b, mint.freshen(shared))
        else:
            parts = And(shared, a), And(mint.freshen(shared), b)
    else:
        fresh_second = node.cluster in mint.singles
        kind = SINGLETON_OR_KIND if fresh_second else CLUSTER_OR_KIND
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
    return premise, replace(app, circ=kind)


def _backward_three(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    node = subcirquent_at(conclusion, app.hole_path)
    if isinstance(node, Literal):
        raise ShapeMismatchError(f"no connective at {_show(app.hole_path)}")
    left_or, right_or = node.left, node.right
    if (
        not isinstance(left_or, Or)
        or left_or.cluster != app.k
        or not isinstance(right_or, Or)
        or right_or.cluster != app.k
    ):
        raise RuleError(
            "rule III needs both operands to be disjunctions in the key's cluster"
        )
    a, b = left_or.left, left_or.right
    c, d = right_or.left, right_or.right
    if isinstance(node, And):
        kind = AND_KIND
        parts = And(a, c), And(b, d)
    else:
        mint = _Mint(conclusion)
        if node.cluster in mint.singles:
            kind = SINGLETON_OR_KIND
            first, second = mint.fresh(), mint.fresh()
            parts = Or(first, a, c), Or(second, b, d)
        else:
            kind = CLUSTER_OR_KIND
            parts = Or(node.cluster, a, c), Or(node.cluster, b, d)
    premise = replace_at(conclusion, app.hole_path, Or(app.k, parts[0], parts[1]))
    return premise, replace(app, circ=kind)


def _conclusion_key_id(conclusion: Cirquent, rule: str, hole: Path) -> Optional[int]:
    """Read the cluster ID the conclusion suggests for the key, if any."""
    if rule in ("I-left", "I-right"):
        probe = hole
    elif rule == "II-right":
        probe = hole + (RIGHT_STEP,)
    else:
        probe = hole + (LEFT_STEP,)
    try:
        node = subcirquent_at(conclusion, probe)
    except InvalidPathError:
        return None
    return node.cluster if isinstance(node, Or) else None


def _conclusion_new_disjunct(
    conclusion: Cirquent, rule: str, hole: Path, inner: Path
) -> Optional[Cirquent]:
    """Read the disjunct a rule I candidate would have introduced."""
    side = LEFT_STEP if rule == "I-left" else RIGHT_STEP
    try:
        node = subcirquent_at(conclusion, hole + (side,) + inner)
    except InvalidPathError:
        return None
    if not isinstance(node, Or):
        return None
    return node.right if rule == "I-left" else node.left


def _candidates(
    premise: Cirquent, conclusion: Cirquent, hint: Optional[RuleHint]
) -> Iterator[RuleApp]:
    counts = premise.summary.counts
    for rule in RULES:
        if hint is not None and hint.rule is not None and hint.rule != rule:
            continue
        for hole in or_positions(premise):
            if hint is not None and hint.hole_path is not None and hint.hole_path != hole:
                continue
            kp = subcirquent_at(premise, hole).cluster
            ks = [kp]
            if counts[kp] == 1:
                kc = _conclusion_key_id(conclusion, rule, hole)
                if kc is not None and kc != kp and kc not in counts:
                    ks = sorted({kp, kc})
            for k in ks:
                if hint is not None and hint.k is not None and hint.k != k:
                    continue
                if rule in ("I-left", "I-right"):
                    side = LEFT_STEP if rule == "I-left" else RIGHT_STEP
                    host = subcirquent_at(premise, hole + (side,))
                    for inner in positions(host):
                        if (
                            hint is not None
                            and hint.inner_path is not None
                            and hint.inner_path != inner
                        ):
                            continue
                        grown = _conclusion_new_disjunct(conclusion, rule, hole, inner)
                        if grown is None:
                            continue
                        yield RuleApp(
                            rule, hole, k, inner_path=inner, new_subcirquent=grown
                        )
                else:
                    yield RuleApp(rule, hole, k)
