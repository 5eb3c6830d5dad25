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
ask ``core``'s cluster queries, which read summaries cached on each
node, so a step's cost follows the depth of the spine it rebuilt, not
the size of the residue.  A cluster resolution lists the cluster's
members, and the depths where adjacent ones meet, once, and keeps both
lists up to date as it merges them.
"""

from __future__ import annotations

from typing import Optional, Union

from .calculus import _BOTH_SIDES, _ONE_SIDE, RuleApp, apply_rule_backward
from .core import (
    Cirquent,
    LEFT_STEP,
    Path,
    RIGHT_STEP,
    _Value,
    _common_prefix,
    cluster_size,
    first_nested,
    is_classical,
    members,
    multi_member,
    subcirquent_at,
)
from .semantics import Interpretation, _falsifier, _true_under, _within_bounds, countermodel
from .syntax import AXIOM, ProofEntry, ProofScript, RuleHint


class PreconditionError(Exception):
    """The cirquent is not in the form this stage requires."""


class ReductionInvariantError(Exception):
    """An internal invariant of the reduction failed to hold."""


class StateTuple(_Value):
    """Progress measure for resolving one cluster.

    While two members are tracked (``tracked`` is 2), ``depth_weight``
    is the sum of their path lengths; once they are merged (``tracked``
    is 1), it is the merged member's path length minus one, which is -1
    when the merge landed on the root.  ``pending`` is the cluster size
    minus the tracked count, and ``outside_load`` is the total
    membership of every other multi-member cluster.  Steps must decrease
    ``measure`` strictly in lexicographic order.
    """

    __match_args__ = ("cluster_size", "pending", "depth_weight", "outside_load", "tracked")

    def __init__(
        self, cluster_size: int, pending: int, depth_weight: int, outside_load: int, tracked: int
    ) -> None:
        fields = self.__dict__
        fields["cluster_size"], fields["pending"] = cluster_size, pending
        fields["depth_weight"], fields["outside_load"] = depth_weight, outside_load
        fields["tracked"] = tracked

    @property
    def measure(self) -> tuple[int, int, int, int]:
        return (self.cluster_size, self.pending, self.depth_weight, self.outside_load)

    def as_line(self) -> str:
        return " ".join(map(str, self._values()))


def state_tuple(c: Cirquent, k: int, a: Path, b: Optional[Path] = None) -> StateTuple:
    """The progress measure of ``c`` while resolving cluster ``k``.

    ``a`` and ``b`` are the paths of the two tracked members; ``b`` is
    None once they are merged and ``a`` is the merged member's path.
    """
    size = cluster_size(c, k)
    tracked, depth = (1, len(a) - 1) if b is None else (2, len(a) + len(b))
    multi = multi_member(c)
    outside = sum(multi.values()) - multi.get(k, 0)
    return StateTuple(size, size - tracked, depth, outside, tracked)


class ReductionStep(_Value):
    """One backward rule application and the premise it produced."""

    __match_args__ = ("app", "result")

    def __init__(self, app: RuleApp, result: Cirquent) -> None:
        fields = self.__dict__
        fields["app"], fields["result"] = app, result


class Derivation(_Value):
    """A complete reduction: the goal, every step, and the classical residue.

    ``steps[:lead_in]`` cleared same-cluster nesting; the rest resolved
    multi-member clusters, one trace of state tuples per cluster
    resolution, in order.
    """

    __match_args__ = ("goal", "steps", "final", "traces", "lead_in")

    def __init__(
        self,
        goal: Cirquent,
        steps: tuple[ReductionStep, ...],
        final: Cirquent,
        traces: tuple[tuple[StateTuple, ...], ...],
        lead_in: int,
    ) -> None:
        fields = self.__dict__
        fields["goal"], fields["steps"], fields["final"] = goal, steps, final
        fields["traces"], fields["lead_in"] = traces, lead_in


class Valid(_Value):
    __match_args__ = ("proof", "derivation")

    def __init__(self, proof: ProofScript, derivation: Derivation) -> None:
        fields = self.__dict__
        fields["proof"], fields["derivation"] = proof, derivation


class Invalid(_Value):
    __match_args__ = ("countermodel", "derivation")

    def __init__(self, countermodel: Interpretation, derivation: Derivation) -> None:
        fields = self.__dict__
        fields["countermodel"], fields["derivation"] = countermodel, derivation


Decision = Union[Valid, Invalid]


def eliminate_nested(c: Cirquent) -> tuple[Cirquent, tuple[ReductionStep, ...]]:
    """Rule I backward until no cluster member sits inside another.

    Each step takes the pair ``first_nested`` returns.  The nested
    disjunction keeps the operand on the side where it sits (left under
    the ancestor's left operand, right under its right) and the other
    disjunct is deleted, recorded on the step for replay.
    """
    steps: list[ReductionStep] = []
    current = c
    while (pair := first_nested(current)) is not None:
        outer, inner = pair
        k = subcirquent_at(current, outer).cluster
        app = RuleApp(_ONE_SIDE[inner[len(outer)]][0], outer, k, inner_path=inner[len(outer) + 1 :])
        current, completed = apply_rule_backward(current, app)
        steps.append(ReductionStep(completed, current))
    return current, tuple(steps)


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

    The members are listed once, in path order, with the length n of
    each adjacent pair's common prefix.  Two members share no longer a
    prefix than any adjacent pair between them, and the meets of equally
    deep adjacent pairs never decrease along the list.  So the first
    adjacent pair of largest n meets deepest, ties going to the smallest
    (meet, a, b) by path order; ``a = found[i]`` is on the meet's left.

    The merge puts one member at the meet, which replaces
    ``found[i:i + 2]`` in path order: a member at or above the meet
    would have ``a`` nested inside, and a third one below it would make
    an adjacent pair that meets deeper.  Lifting moves no other member,
    because rule II backward duplicates only a sibling holding no
    member.  Only entry i leaves the lengths: the meet is ``a[:n]``,
    which is ``b[:n]``, so each neighbour's common prefix with it is the
    one it had with ``a`` or ``b``, already no longer than n.
    """
    if first_nested(c) is not None:
        raise PreconditionError("same-cluster nesting must be eliminated first")
    if cluster_size(c, k) < 2:
        raise PreconditionError(f"cluster {k} already has a single member")
    steps: list[ReductionStep] = []
    trace: list[StateTuple] = []
    current = c
    found = members(current, k)
    depths = [_common_prefix(a, b) for a, b in zip(found, found[1:])]
    while depths:
        i = depths.index(max(depths))
        a, b = found[i], found[i + 1]
        meet = a[: depths.pop(i)]
        trace.append(state_tuple(current, k, a, b))
        while len(a) > len(meet) + 1:
            current, a = _lift_once(current, k, a, steps)
            trace.append(state_tuple(current, k, a, b))
        while len(b) > len(meet) + 1:
            current, b = _lift_once(current, k, b, steps)
            trace.append(state_tuple(current, k, a, b))
        size_before = cluster_size(current, k)
        current, completed = apply_rule_backward(current, RuleApp(_BOTH_SIDES, meet, k))
        steps.append(ReductionStep(completed, current))
        if cluster_size(current, k) != size_before - 1:
            raise ReductionInvariantError("merging must shrink the cluster by one")
        if first_nested(current) is not None:
            raise ReductionInvariantError("merging re-introduced same-cluster nesting")
        found[i : i + 2] = [meet]
        trace.append(state_tuple(current, k, meet))
    _require_decreasing(trace)
    return current, tuple(steps), tuple(trace)


def _lift_once(
    current: Cirquent, k: int, member: Path, steps: list[ReductionStep]
) -> tuple[Cirquent, Path]:
    """Move the key at ``member`` one level up by rule II backward."""
    parent = member[:-1]
    side = member[-1]
    other = RIGHT_STEP if side == LEFT_STEP else LEFT_STEP
    sibling = subcirquent_at(current, parent + (other,))
    if cluster_size(sibling, k):
        raise ReductionInvariantError(
            "the operand being duplicated holds a member of the cluster"
        )
    size_before = cluster_size(current, k)
    result, completed = apply_rule_backward(current, RuleApp(_ONE_SIDE[side][1], parent, k))
    steps.append(ReductionStep(completed, result))
    if cluster_size(result, k) != size_before:
        raise ReductionInvariantError("lifting must leave the cluster size unchanged")
    if first_nested(result) is not None:
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
        k = min(multi_member(current), default=None)
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


def prove(c: Cirquent) -> Optional[ProofScript]:
    """A checkable proof of ``c``, or None when there is none.

    The emitted script carries a full hint on every entry, so checking
    it never has to search.
    """
    decision = decide(c)
    if isinstance(decision, Valid):
        return decision.proof
    return None


def decide(c: Cirquent) -> Decision:
    """Prove ``c`` or produce a falsifying interpretation.

    The countermodel is found against the classical residue, extended
    with False on any atom the reduction deleted, and re-verified
    against the goal before being returned; the goal's one walk serves
    both its bounds check and that verification.  When no step changed
    the goal (the reduction hands back ``c`` itself), the goal is its
    own residue, and its truth table is read off that same walk.
    """
    order, names = _within_bounds(c)
    derivation = reduce_to_classical(c)
    model = _falsifier(order, names) if derivation.final is c else countermodel(derivation.final)
    if model is None:
        return Valid(_script(derivation), derivation)
    model = dict.fromkeys(names, False) | model
    if _true_under(order, model):
        raise ReductionInvariantError(
            "the residue's countermodel does not falsify the goal"
        )
    return Invalid(model, derivation)
