"""Decision procedure: reduce a cirquent to a classical one, then test it.

Working backward from the goal, the reducer first clears away nesting
(rule I backward deletes any disjunction sitting inside another of the
same cluster), then repeatedly shrinks multi-member clusters: two
members are lifted to a common point with rule II backward and merged
with rule III backward.  Every rule preserves truth under every
interpretation, so the goal is valid exactly when the classical residue
is a tautology; reading the steps in reverse order then gives a proof
of the goal from that residue as its axiom, and a falsifier of the
residue falsifies the goal.

The reducer instruments itself.  Around every step of a cluster
resolution it records a state tuple whose first four components must
decrease strictly in lexicographic order, and after every step it
requires the cirquent to be free of same-cluster nesting and the
resolved cluster's size to account exactly for the step taken (rule II
leaves it unchanged, rule III shrinks it by one).  Violations raise
ReductionInvariantError rather than producing a bad proof.  These checks
read the cluster counts and nesting flag cached on each node, so a
step's cost follows the depth of the spine it rebuilt, not the size of
the residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .calculus import (
    AXIOM,
    ProofEntry,
    ProofScript,
    RuleApp,
    RuleHint,
    apply_rule_backward,
)
from .core import (
    Cirquent,
    LEFT_STEP,
    Literal,
    Or,
    Path,
    RIGHT_STEP,
    ROOT,
    atoms,
    is_classical,
    level,
    members,
    subcirquent_at,
)
from .semantics import (
    Interpretation,
    classical_countermodel,
    ensure_within_bounds,
    true_under,
)


class PreconditionError(Exception):
    """The cirquent is not in the form this stage requires."""


class ReductionInvariantError(Exception):
    """An internal invariant of the reduction failed to hold."""


@dataclass(frozen=True)
class StateTuple:
    """Progress measure for resolving one cluster.

    While two members are tracked (``tracked`` is 2), ``depth_weight``
    is the sum of their levels; once they are merged (``tracked`` is 1),
    it is the merged member's level minus one, which is -1 when the
    merge landed on the root.  ``pending`` is the cluster size minus the
    tracked count, and ``outside_load`` is the total membership of every
    other multi-member cluster.  Steps must decrease ``measure``
    strictly in lexicographic order.
    """

    cluster_size: int
    pending: int
    depth_weight: int
    outside_load: int
    tracked: int

    @property
    def measure(self) -> tuple[int, int, int, int]:
        return (self.cluster_size, self.pending, self.depth_weight, self.outside_load)

    def as_line(self) -> str:
        return (
            f"{self.cluster_size} {self.pending} {self.depth_weight} "
            f"{self.outside_load} {self.tracked}"
        )


def state_tuple(
    c: Cirquent, k: int, tracked: int, a: Path, b: Optional[Path] = None
) -> StateTuple:
    """The progress measure of ``c`` while resolving cluster ``k``."""
    counts = c.summary.counts
    size = counts.get(k, 0)
    if tracked == 2:
        if b is None:
            raise ValueError("tracking two members needs both positions")
        depth = level(c, a) + level(c, b)
    else:
        depth = level(c, a) - 1
    outside = sum(n for kid, n in counts.items() if kid != k and n > 1)
    return StateTuple(size, size - tracked, depth, outside, tracked)


@dataclass(frozen=True)
class ReductionStep:
    """One backward rule application and the premise it produced."""

    app: RuleApp
    result: Cirquent


@dataclass(frozen=True)
class Derivation:
    """A complete reduction: the goal, every step, and the classical residue.

    ``steps[:lead_in]`` cleared same-cluster nesting; the rest resolved
    multi-member clusters, one trace of state tuples per cluster
    resolution, in order.
    """

    goal: Cirquent
    steps: tuple[ReductionStep, ...]
    final: Cirquent
    traces: tuple[tuple[StateTuple, ...], ...]
    lead_in: int


@dataclass(frozen=True)
class Valid:
    proof: ProofScript
    derivation: Derivation


@dataclass(frozen=True)
class Invalid:
    countermodel: Interpretation
    derivation: Derivation


Decision = Union[Valid, Invalid]


def nested_pairs(c: Cirquent) -> list[tuple[Path, Path]]:
    """Same-cluster (ancestor, descendant) disjunction pairs, in path order.

    One depth-first pass; ``above`` holds the (cluster, path) of every
    disjunction enclosing the current node, and a None on the work stack
    marks where the innermost of them is left behind.
    """
    pairs = []
    above: list[tuple[int, Path]] = []
    todo: list = [(ROOT, c)]
    while todo:
        item = todo.pop()
        if item is None:
            above.pop()
            continue
        path, node = item
        if isinstance(node, Literal):
            continue
        if isinstance(node, Or):
            pairs.extend((outer, path) for k, outer in above if k == node.cluster)
            above.append((node.cluster, path))
            todo.append(None)
        todo.append((path + (RIGHT_STEP,), node.right))
        todo.append((path + (LEFT_STEP,), node.left))
    pairs.sort()
    return pairs


def eliminate_nested(c: Cirquent) -> tuple[Cirquent, tuple[ReductionStep, ...]]:
    """Rule I backward until no cluster member sits inside another.

    The lexicographically first (ancestor, descendant) pair goes first;
    the nested disjunction keeps the operand on the side where it sits
    (left under the ancestor's left operand, right under its right) and
    the other disjunct is deleted, recorded on the step for replay.
    """
    steps: list[ReductionStep] = []
    current = c
    while True:
        pairs = nested_pairs(current)
        if not pairs:
            return current, tuple(steps)
        outer, inner = pairs[0]
        key = subcirquent_at(current, outer)
        side = inner[len(outer)]
        rule = "I-left" if side == LEFT_STEP else "I-right"
        app = RuleApp(rule, outer, key.cluster, inner_path=inner[len(outer) + 1 :])
        current, completed = apply_rule_backward(current, app)
        steps.append(ReductionStep(completed, current))


def resolve_cluster(
    c: Cirquent, k: int
) -> tuple[Cirquent, tuple[ReductionStep, ...], tuple[StateTuple, ...]]:
    """Shrink cluster ``k`` to a single member by rules II and III backward.

    Repeatedly: pick the pair of members whose common ancestor sits
    deepest (ties broken by position), lift each to sit directly under
    that ancestor with rule II, and merge the two with rule III.  The
    cirquent must contain no same-cluster nesting and ``k`` must have at
    least two members.  Returns the result, the steps, and the recorded
    state-tuple trace.
    """
    if not c.summary.nesting_free:
        raise PreconditionError("same-cluster nesting must be eliminated first")
    if c.summary.counts.get(k, 0) < 2:
        raise PreconditionError(f"cluster {k} already has a single member")
    steps: list[ReductionStep] = []
    trace: list[StateTuple] = []
    current = c
    while current.summary.counts.get(k, 0) > 1:
        a, b, meet = _pick_pair(current, k)
        trace.append(state_tuple(current, k, 2, a, b))
        while len(a) > len(meet) + 1:
            current, a = _lift_once(current, k, a, steps)
            trace.append(state_tuple(current, k, 2, a, b))
        while len(b) > len(meet) + 1:
            current, b = _lift_once(current, k, b, steps)
            trace.append(state_tuple(current, k, 2, a, b))
        size_before = current.summary.counts[k]
        current, completed = apply_rule_backward(current, RuleApp("III", meet, k))
        steps.append(ReductionStep(completed, current))
        if current.summary.counts.get(k, 0) != size_before - 1:
            raise ReductionInvariantError("merging must shrink the cluster by one")
        if not current.summary.nesting_free:
            raise ReductionInvariantError("merging re-introduced same-cluster nesting")
        trace.append(state_tuple(current, k, 1, meet))
    _require_decreasing(trace)
    return current, tuple(steps), tuple(trace)


def _pick_pair(c: Cirquent, k: int) -> tuple[Path, Path, Path]:
    """The pair of members of ``k`` that meet deepest, and their meeting point.

    Ties go to the smallest (meet, a, b) by path order.  The returned
    ``a`` is the member on the left branch below the meet.

    Members come in path order, so two of them share no longer a prefix
    than any adjacent pair between them, and the meets of equally deep
    adjacent pairs never decrease along the list.  The first adjacent
    pair meeting deepest is therefore the answer.
    """
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


def _lift_once(
    current: Cirquent, k: int, member: Path, steps: list[ReductionStep]
) -> tuple[Cirquent, Path]:
    """Move the key at ``member`` one level up by rule II backward."""
    parent = member[:-1]
    side = member[-1]
    other = RIGHT_STEP if side == LEFT_STEP else LEFT_STEP
    sibling = subcirquent_at(current, parent + (other,))
    if k in sibling.summary.counts:
        raise ReductionInvariantError(
            "the operand being duplicated holds a member of the cluster"
        )
    rule = "II-left" if side == LEFT_STEP else "II-right"
    size_before = current.summary.counts[k]
    result, completed = apply_rule_backward(current, RuleApp(rule, parent, k))
    steps.append(ReductionStep(completed, result))
    if result.summary.counts.get(k, 0) != size_before:
        raise ReductionInvariantError("lifting must leave the cluster size unchanged")
    if not result.summary.nesting_free:
        raise ReductionInvariantError("lifting re-introduced same-cluster nesting")
    return result, parent


def _require_decreasing(trace: list[StateTuple]) -> None:
    for previous, following in zip(trace, trace[1:]):
        if not following.measure < previous.measure:
            raise ReductionInvariantError("the resolution measure failed to decrease")


def reduce_to_classical(c: Cirquent) -> Derivation:
    """Reduce to a classical cirquent, recording steps and progress traces.

    Nesting is cleared first; then the multi-member cluster with the
    smallest ID is resolved, recomputing the choice each round because a
    resolution can grow other multi-member clusters (never a
    single-member one, whose copies get fresh IDs).
    """
    current, nested_steps = eliminate_nested(c)
    steps = list(nested_steps)
    traces = []
    while True:
        k = min((kid for kid, n in current.summary.counts.items() if n > 1), default=None)
        if k is None:
            break
        current, more, trace = resolve_cluster(current, k)
        steps.extend(more)
        traces.append(trace)
    if not is_classical(current):
        raise ReductionInvariantError("reduction ended on a non-classical cirquent")
    return Derivation(c, tuple(steps), current, tuple(traces), len(nested_steps))


def _script(derivation: Derivation) -> ProofScript:
    """Read a reduction in reverse as a proof of its goal."""
    chain = [derivation.goal] + [step.result for step in derivation.steps]
    entries = [ProofEntry(derivation.final, RuleHint(rule=AXIOM))]
    for i in range(len(derivation.steps) - 1, -1, -1):
        app = derivation.steps[i].app
        hint = RuleHint(app.rule, app.hole_path, app.k, app.inner_path)
        entries.append(ProofEntry(chain[i], hint))
    return ProofScript(tuple(entries))


def prove(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> Optional[ProofScript]:
    """A checkable proof of ``c``, or None when there is none.

    The emitted script carries a full hint on every entry, so checking
    it never has to search.
    """
    decision = decide(c, max_atoms=max_atoms, max_clusters=max_clusters)
    if isinstance(decision, Valid):
        return decision.proof
    return None


def decide(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> Decision:
    """Prove ``c`` or produce a falsifying interpretation.

    The countermodel is found against the classical residue, extended
    with False on any atom the reduction deleted, and re-verified
    against the goal before being returned.
    """
    ensure_within_bounds(c, max_atoms, max_clusters)
    derivation = reduce_to_classical(c)
    model = classical_countermodel(
        derivation.final, max_atoms=max_atoms, max_clusters=max_clusters
    )
    if model is None:
        return Valid(_script(derivation), derivation)
    for name in sorted(atoms(c)):
        model.setdefault(name, False)
    if true_under(c, model):
        raise ReductionInvariantError(
            "the residue's countermodel does not falsify the goal"
        )
    return Invalid(model, derivation)
