"""Rewriting rules on cirquents, rule matching, and proof checking.

A proof is a list of cirquents: the first must be an axiom (a classical
cirquent that holds under every interpretation) and each later entry must
follow from its predecessor by one of five rules.  Every rule acts at a
designated disjunction occurrence, the key, named by its position (the
hole) and its cluster ID k.  Only ``syntax.RULES`` spells a rule's name;
this module unpacks its names from there.

Rule I grows a disjunct of the key: some subcirquent A inside the key's
left operand (``I-left``) or right operand (``I-right``) is replaced by
"A | k B" (respectively "B | k A") for an arbitrary new subcirquent B.

Rules ``II-left``, ``II-right`` and ``III`` are one rewrite of a key
whose operands are "A o C" and "B o D": the conclusion is one o whose
left operand is either merged into the key ("A | k B") or kept as a
shared copy (A, which B must copy), and likewise its right operand.
``II-left`` merges the left and copies the right, concluding
"(A | k B) o C"; ``II-right`` copies the left and merges the right;
``III`` merges both, concluding "(A | k B) o (C | k D)".  ``_MERGED``
says which, and ``_ONE_SIDE`` which operand rule I grows and rule II
merges.  The displayed connective o must be the same on both sides: both
conjunctions, or both disjunctions in one cluster, or two disjunctions
that are each alone in their clusters (``_one_cluster``).  The
conclusion's o keeps the left occurrence's cluster ID.

Applied backward (conclusion to premise), rule I deletes a disjunct,
and rules II and III split each merged operand apart and duplicate each
copied one.  Duplication and splitting give single-member clusters
fresh IDs, smallest unused first, in the order the disjunction signs
appear in the new text; multi-member clusters keep their IDs, so the
grouping structure is preserved.

The checker reads each step's candidates off its conclusion and checks
rule I by its inverse, rules II and III forward (``match_step`` says
why).  Single-member IDs are not printed, so no check compares them.
Unless a hint names the hole, only the connectives on the path to where
premise and conclusion differ are tried as holes, O(depth) candidates
rather than one per connective (``_candidates_in``); node counts,
cached in each node's summary, rule out any candidate before it is
built (``_growth``).  Each candidate that is built is compared with its
proof entry by ``cluster_map``, which skips the subtrees both sides share,
checks soundly that the rest of the walk moved none of their IDs, and
lists only the IDs it met.  A rewrite rebuilds only the path to what it
changes, so a proof that ``decide`` or ``prove`` builds in memory shares
every other subtree between neighbouring entries, and both the walk and
each comparison cover the rebuilt paths, not the whole tree.  Parsed
proofs share nothing: there the walk and each candidate's comparison
cover both whole trees.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .core import (
    And,
    Cirquent,
    InvalidPathError,
    LEFT_STEP,
    Literal,
    Or,
    Path,
    RIGHT_STEP,
    ROOT,
    RuleError,
    _Value,
    _common_prefix,
    _descend,
    _require_id,
    _unused_ids,
    cluster_map,
    cluster_size,
    format_path,
    is_classical,
    map_clusters,
    members,
    multi_member,
    node_count,
    replace_at,
    subcirquent_at,
    walk,
)
from .semantics import valid
from .syntax import RULES, ProofEntry, RuleHint

# Each side's rule I and rule II, which grow the key's operand and merge o's
# operand on that side; rule III merges both.
_I_LEFT, _I_RIGHT, _II_LEFT, _II_RIGHT, _BOTH_SIDES = RULES
_ONE_SIDE = {LEFT_STEP: (_I_LEFT, _II_LEFT), RIGHT_STEP: (_I_RIGHT, _II_RIGHT)}
# Rules II and III, by which operands of the displayed connective o the
# conclusion merges into the key ("A |k B") rather than keeps as one
# shared copy: (left operand merged, right operand merged).
_MERGED = {_II_LEFT: (True, False), _II_RIGHT: (False, True), _BOTH_SIDES: (True, True)}


class ShapeMismatchError(RuleError):
    """A displayed operand is a literal where the rule needs a connective."""


class CopyMismatchError(RuleError):
    """The two displayed copies of the shared operand disagree."""


class ConnectiveConstraintError(RuleError):
    """The two displayed connectives do not count as the same connective."""


class RuleApp(_Value):
    """One rule application, pinned to a position.

    ``hole_path`` addresses the key disjunction in the premise (equally:
    the rewritten node in the conclusion) and ``k`` is the key's cluster.
    Rule I also needs ``inner_path``, the position of the grown
    subcirquent inside the key's operand, and ``new_subcirquent``, the
    disjunct being introduced; applying the rule backward fills the
    latter in.  A bad rule or ID, or a path that is not a tuple, is a
    ValueError; a path's steps are checked where it is used.
    """

    __match_args__ = ("rule", "hole_path", "k", "inner_path", "new_subcirquent")

    def __init__(
        self,
        rule: str,
        hole_path: Path,
        k: int,
        inner_path: Optional[Path] = None,
        new_subcirquent: Optional[Cirquent] = None,
    ) -> None:
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        _require_id(k)
        if hole_path.__class__ is not tuple:
            raise ValueError(f"paths must be tuples of steps, got {hole_path!r}")
        if inner_path is not None and inner_path.__class__ is not tuple:
            raise ValueError(f"paths must be tuples of steps, got {inner_path!r}")
        fields = self.__dict__
        fields["rule"], fields["hole_path"], fields["k"] = rule, hole_path, k
        fields["inner_path"], fields["new_subcirquent"] = inner_path, new_subcirquent


class CheckFailure(_Value):
    """Why a proof was rejected: the offending entry and a reason code."""

    __match_args__ = ("line", "reason")

    def __init__(self, line: int, reason: str) -> None:
        fields = self.__dict__
        fields["line"], fields["reason"] = line, reason


def is_axiom(c: Cirquent) -> bool:
    """True for a classical cirquent that holds under every interpretation."""
    return is_classical(c) and valid(c)


def apply_rule_forward(premise: Cirquent, app: RuleApp) -> Cirquent:
    """Apply a rule premise-to-conclusion.

    The key's own cluster ID always qualifies as ``app.k``.  When the key
    is alone in its cluster it may also be addressed by any ID that no
    multi-member cluster of the premise holds; the key is then renamed
    first, after moving a single-member disjunction that holds the ID to
    an unused one, which changes nothing up to cluster isomorphism.
    """
    if app.rule in _MERGED:
        return _merge_forward(premise, app)
    if app.new_subcirquent is None:
        raise RuleError("rule I needs the disjunct being introduced")
    aligned, key = _align_key(premise, app)
    inner, target = _grown_position(key, app)
    grown = Or(app.k, *_grown_first(app.rule, target, app.new_subcirquent))
    return replace_at(aligned, inner, grown)


def apply_rule_backward(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    """Undo a rule conclusion-to-premise.  ``app.k`` must match exactly.

    Returns ``(premise, completed)`` where ``completed`` is the
    application with everything needed to replay it forward: for rule I
    it records the deleted disjunct; rules II and III need nothing more,
    so for them it is ``app`` itself.  A position that addresses no node
    is a RuleError under every rule.
    """
    if app.rule in _MERGED:
        return _merge_backward(conclusion, app)
    _, key = _align_key(conclusion, app, renames=False)
    _, grown = _grown_position(key, app)
    if not isinstance(grown, Or) or grown.cluster != app.k:
        raise RuleError("the inner position must hold a disjunction in the key's cluster")
    return _ungrow(conclusion, app, grown)


def cluster_struct_match(c: Cirquent, d: Cirquent) -> bool:
    """Same tree and same grouping, comparing IDs only where they matter.

    The two cirquents must group the same position sets into clusters,
    and clusters with more than one member must carry the same ID on
    both sides.  Single-member clusters match regardless of their IDs,
    which is exactly the freedom the printed form exercises when it
    omits them.

    The clusters are read off ``d``, which the checker passes as the
    proof entry: its summary is cached and serves the next step too,
    while ``c``, the cirquent rebuilt for the comparison, then needs
    none.  The map is a bijection that keeps cluster sizes, so reading
    them off either side gives the same answer.  Only the IDs the map
    lists are asked about; the others lie in shared subtrees and map to
    themselves.
    """
    mapping = cluster_map(d, c)
    return mapping is not None and all(
        k == m or cluster_size(d, k) == 1 for k, m in mapping.items()
    )


def match_step(
    premise: Cirquent, conclusion: Cirquent, hint: Optional[RuleHint] = None
) -> Optional[RuleApp]:
    """The first rule application carrying the premise to the conclusion.

    Candidates are read off the conclusion, which fixes the key's ID k,
    in a fixed order: rules as listed in ``syntax.RULES``, keys in path
    order, inner positions in path order.  Rule I's key is any
    disjunction, its inner position any disjunction of the key's cluster
    in the grown operand; rule II's key is the left (``II-left``) or
    right (``II-right``) operand of a connective, rule III's the two
    operands, both in one cluster.

    Rule I is checked backward: deleting the new disjunct, read from the
    conclusion, must leave the premise up to renaming of single-member
    clusters.  Only this sees a disjunct join a cluster that had one
    member in the premise.  Rules II and III are checked forward, since
    their forward form also accepts copies, and connectives, whose two
    sides share a two-member cluster; backward application gives those
    fresh IDs and so cannot produce such premises.

    ``_candidates_in`` drops the candidates that cannot match, by node
    count and, without a hinted hole, by where premise and conclusion
    differ; the others keep their order, so the first that matches is
    the one trying every candidate gives.

    A hint restricts the candidates field by field; its k is compared
    only when the key's cluster has more than one member in the
    conclusion, since single-member IDs are not printed.  Only rule I
    has an inner position, so a hint with an inner path admits only
    rule I candidates, whether or not it names a rule.  Returns None
    when nothing fits.
    """
    for app, grown in _candidates_in(premise, conclusion, hint or RuleHint()):
        try:
            if grown is not None:  # rule I, undone from the disjunction the candidate found
                restored, completed = _ungrow(conclusion, app, grown)
                if cluster_struct_match(restored, premise):
                    return completed
            elif cluster_struct_match(apply_rule_forward(premise, app), conclusion):
                return app
        except RuleError:
            continue
    return None


def check_proof(entries: Iterable[ProofEntry]) -> Optional[CheckFailure]:
    """Verify a proof, given as any iterable of its entries; None means it checks out.

    The first entry must be an axiom and each later entry must follow
    from its predecessor by one rule, honoring that entry's hint when
    present.  On failure, the returned value names the first bad entry:
    reason "not-an-axiom" for entry 1, "no-rule-matches" otherwise.
    Only the previous entry's cirquent is kept, so a stream of entries,
    such as ``syntax.proof_entries`` reads, is checked as it is read; no
    entry past the first bad one is asked for.  No entry at all is a
    ValueError.
    """
    premise = None
    for line, entry in enumerate(entries, start=1):
        if premise is None:
            if not is_axiom(entry.cirquent):
                return CheckFailure(1, "not-an-axiom")
        elif match_step(premise, entry.cirquent, entry.hint) is None:
            return CheckFailure(line, "no-rule-matches")
        premise = entry.cirquent
    if premise is None:
        raise ValueError("a proof needs at least one entry")
    return None


def _node_at(c: Cirquent, path: Path) -> Cirquent:
    """The node at ``path``; a path that addresses none is a RuleError."""
    try:
        return subcirquent_at(c, path)
    except InvalidPathError as e:
        raise RuleError(str(e)) from None


def _align_key(premise: Cirquent, app: RuleApp, renames: bool = True) -> tuple[Cirquent, Or]:
    """Rename the key to ``app.k`` as ``apply_rule_forward`` allows (only with ``renames``), or fail."""
    key = _node_at(premise, app.hole_path)
    if not isinstance(key, Or):
        raise RuleError(f"no disjunction at {format_path(app.hole_path)}")
    if key.cluster == app.k:
        return premise, key
    holders = cluster_size(premise, app.k)
    if not renames or holders > 1 or cluster_size(premise, key.cluster) > 1:
        raise RuleError(f"key at {format_path(app.hole_path)} is in cluster {key.cluster}, not {app.k}")
    if holders:
        (holder,) = members(premise, app.k)
        moved = subcirquent_at(premise, holder)
        premise = replace_at(premise, holder, Or(next(_unused_ids(premise)), moved.left, moved.right))
        key = subcirquent_at(premise, app.hole_path)
    renamed = Or(app.k, key.left, key.right)
    return replace_at(premise, app.hole_path, renamed), renamed


def _grown_position(key: Or, app: RuleApp) -> tuple[Path, Cirquent]:
    """Rule I's inner position, from the root, and the node there.

    ``key`` is the node at ``app.hole_path``; the inner path runs inside
    its left operand for ``I-left``, its right one for ``I-right``.
    Replacing the node at the returned path rebuilds the key and the
    spine above.
    """
    if app.inner_path is None:
        raise RuleError("rule I needs an inner position")
    (side, host), _ = _grown_first(app.rule, (LEFT_STEP, key.left), (RIGHT_STEP, key.right))
    node = _node_at(host, app.inner_path)
    return app.hole_path + (side,) + app.inner_path, node


def _ungrow(conclusion: Cirquent, app: RuleApp, grown: Or) -> tuple[Cirquent, RuleApp]:
    """``apply_rule_backward`` for rule I, given ``grown``: the checked disjunction at the inner position."""
    (side, kept), (_, dropped) = _grown_first(app.rule, (LEFT_STEP, grown.left), (RIGHT_STEP, grown.right))
    completed = RuleApp(app.rule, app.hole_path, app.k, app.inner_path, dropped)
    return replace_at(conclusion, app.hole_path + (side,) + app.inner_path, kept), completed


def _grown_first(rule: str, left: object, right: object) -> tuple:
    """The side rule I grows first: ``(left, right)`` for ``I-left``, else ``(right, left)``."""
    return (left, right) if rule == _I_LEFT else (right, left)


def _one_cluster(c: Cirquent, k: int, m: int) -> bool:
    """Whether IDs k and m of ``c`` count as one cluster: equal, or each alone in its cluster.

    A single-member cluster's ID carries no grouping information.
    """
    return k == m or (cluster_size(c, k) == 1 and cluster_size(c, m) == 1)


def _require_same_connective(c: Cirquent, n1: Cirquent, n2: Cirquent) -> None:
    """Check that the two displayed connectives count as one, or reject them."""
    if isinstance(n1, Literal) or isinstance(n2, Literal):
        raise ShapeMismatchError("both operands of the key must be compound")
    if isinstance(n1, And) != isinstance(n2, And):
        raise ConnectiveConstraintError("the displayed connectives differ")
    if isinstance(n1, Or) and not _one_cluster(c, n1.cluster, n2.cluster):
        raise ConnectiveConstraintError(
            "two disjunctions play the shared connective only when they are in "
            "one cluster or each alone in theirs"
        )


def _require_copies(c: Cirquent, c1: Cirquent, c2: Cirquent) -> None:
    """Check that c1 and c2 are copies of one operand: node for node, IDs as ``_one_cluster`` allows."""
    mapping = cluster_map(c1, c2)
    if mapping is None or not all(_one_cluster(c, k, m) for k, m in mapping.items()):
        raise CopyMismatchError("the two copies of the shared operand disagree")


def _merge_forward(premise: Cirquent, app: RuleApp) -> Cirquent:
    """Rules II and III forward: one o of the merged operands and the checked copies."""
    aligned, key = _align_key(premise, app)
    n1, n2 = key.left, key.right
    _require_same_connective(aligned, n1, n2)
    pieces = []
    for merged, x, y in zip(_MERGED[app.rule], (n1.left, n1.right), (n2.left, n2.right)):
        if merged:
            pieces.append(Or(app.k, x, y))
        else:
            _require_copies(aligned, x, y)
            pieces.append(x)
    joined = And(*pieces) if isinstance(n1, And) else Or(n1.cluster, *pieces)
    return replace_at(aligned, app.hole_path, joined)


def _merge_backward(conclusion: Cirquent, app: RuleApp) -> tuple[Cirquent, RuleApp]:
    """Rules II and III backward: split o's merged operands and duplicate its copied one.

    The first copy takes each merged operand's left side and the copied
    operand itself; the second takes the right sides and a freshened
    copy.  Each copy is built left operand, connective, right operand,
    so fresh IDs follow the text.  Rule II's first copy keeps the node's
    ID; rule III gives both copies fresh IDs when the node is alone in
    its cluster.
    """
    node = _node_at(conclusion, app.hole_path)
    if isinstance(node, Literal):
        raise ShapeMismatchError(f"no connective at {format_path(app.hole_path)}")
    left_merged, right_merged = _MERGED[app.rule]
    left, right = node.left, node.right
    for merged, operand in ((left_merged, left), (right_merged, right)):
        if merged and not (isinstance(operand, Or) and operand.cluster == app.k):
            raise RuleError(f"rule {app.rule} merges only disjunctions of cluster {app.k}")
    unused = _unused_ids(conclusion)
    multi = multi_member(conclusion)  # every other cluster of the conclusion has one member

    def second_of(merged: bool, operand: Cirquent) -> Cirquent:
        """A merged operand's right side, or a copied operand with fresh IDs."""
        return operand.right if merged else map_clusters(operand, lambda k: k if k in multi else next(unused))

    first_left = left.left if left_merged else left
    first_right = right.left if right_merged else right
    if isinstance(node, And):
        first = And(first_left, first_right)
        second = And(second_of(left_merged, left), second_of(right_merged, right))
    else:
        fresh_ids = node.cluster not in multi
        first_id = next(unused) if fresh_ids and left_merged and right_merged else node.cluster
        first = Or(first_id, first_left, first_right)
        second_left = second_of(left_merged, left)  # its fresh IDs come before second_id's in the text
        second_id = next(unused) if fresh_ids else node.cluster
        second = Or(second_id, second_left, second_of(right_merged, right))
    premise = replace_at(conclusion, app.hole_path, Or(app.k, first, second))
    return premise, app


def _candidates_in(
    premise: Cirquent, conclusion: Cirquent, hint: RuleHint
) -> Iterator[tuple[RuleApp, Optional[Or]]]:
    """The applications ``match_step`` tries, read off the conclusion in its order.

    Each comes with the node rule I grew, the disjunction of the key's
    cluster at its inner position, or None for rules II and III, so
    ``match_step`` undoes rule I without looking the node up again.  A
    hinted hole or inner position is looked up by its path, not found
    by a walk.  Without a hinted hole, only the connectives above what
    the step changed are tried: a rule at hole h leaves everything
    outside h's subtree as it was, up to what ``cluster_struct_match``
    forgives.  So a hole must lie at or above every difference
    ``_meets`` finds that counts for its rule, on the path to their
    meet, their longest common prefix:

    - Rules II and III are checked by ``cluster_map(conclusion,
      forward)``, which must keep the conclusion's multi-member IDs.
      Outside h the forward result holds the premise's nodes and IDs,
      except that ``_align_key`` may move the single-member holder of k
      to an unused ID; the map keeps cluster sizes, so the conclusion's
      cluster there has one member too.  So shape and conclusion-ID
      differences count.  When neither occurs, no hole is ruled out and
      every connective is tried.
    - Rule I is checked by ``cluster_map(premise, restored)``, which
      must keep the premise's multi-member IDs.  ``restored`` is the
      conclusion with the grown disjunction g replaced by its kept
      operand; it differs from the conclusion only at g and keeps the
      conclusion's IDs on the path above.  So shape and premise-ID
      differences count, and all must lie at or below g.  The
      conclusion's subtree at g has more nodes than the premise's, so a
      shape difference lies there: without one, rule I has no candidate;
      otherwise g lies on the path to the meet, below h, and the inner
      positions are read off that path.

    Every candidate is also dropped before it is built when ``_growth``
    rules it out.  Holes and inner positions keep the path order a full
    walk gives, so the first that matches is the one the full list would
    give.
    """
    grows = node_count(conclusion) - node_count(premise)  # nodes the step adds
    if hint.hole_path is None:
        meet_one, meet_two = _meets(premise, conclusion)
        grown = [] if meet_one is None else _spine(conclusion, meet_one)
        if meet_two is None:
            keyed = [(hole, node) for hole, node in walk(conclusion) if not isinstance(node, Literal)]
        else:
            keyed = grown if meet_two == meet_one else _spine(conclusion, meet_two)
    else:
        node = _at(conclusion, hint.hole_path)
        grown = keyed = [] if node is None or isinstance(node, Literal) else [(hint.hole_path, node)]
    for rule in RULES:
        if hint.rule not in (None, rule):
            continue
        if rule not in _MERGED:  # rule I: the key is a disjunction, g one of its cluster
            side = _grown_first(rule, LEFT_STEP, RIGHT_STEP)[0]  # the operand rule I grows
            for hole, node in grown:
                if not isinstance(node, Or):
                    continue
                k = node.cluster
                if hint.k not in (None, k) and cluster_size(conclusion, k) > 1:
                    continue
                host = node.left if side == LEFT_STEP else node.right
                if hint.inner_path is not None:
                    held = [(hint.inner_path, _at(host, hint.inner_path))]
                elif hint.hole_path is not None:
                    held = [(inner, subcirquent_at(host, inner)) for inner in members(host, k)]
                else:  # on the path to the meet, inside the grown operand
                    depth = len(hole) + 1
                    if meet_one[depth - 1 : depth] != (side,):
                        continue
                    held = [(path[depth:], below) for path, below in grown[depth:]]
                for inner, below in held:
                    if isinstance(below, Or) and below.cluster == k and grows == _growth(rule, below):
                        yield RuleApp(rule, hole, k, inner_path=inner), below
        elif hint.inner_path is None:  # rules II and III: k is the merged operands' cluster
            left_merged, right_merged = _MERGED[rule]
            for hole, node in keyed:
                key = node.left if left_merged else node.right
                if not isinstance(key, Or):
                    continue
                k = key.cluster
                if left_merged and right_merged and not (
                    isinstance(node.right, Or) and node.right.cluster == k
                ):
                    continue
                if grows == _growth(rule, node) and (hint.k in (None, k) or cluster_size(conclusion, k) == 1):
                    yield RuleApp(rule, hole, k), None


def _growth(rule: str, node: Cirquent) -> int:
    """How many nodes ``rule`` adds, read off the conclusion's node it rewrote.

    Both checks, and ``_require_copies``, compare by ``cluster_map``,
    which accepts only trees that match node for node, so a candidate
    that adds other than the conclusion's node count less the premise's
    cannot match.  For rule I, ``node`` is the grown disjunction, "A |k B"
    or "B |k A" in place of A: the rule adds it and B.  For rules II and
    III it is the connective o in place of "(A o C) |k (B o D)":
    ``III``'s "(A |k B) o (C |k D)" has as many nodes; ``II-left``'s
    "(A |k B) o C" has one connective fewer and lacks D, the copy of C,
    o's right operand; ``II-right``'s lacks B, the copy of A, o's left
    operand, likewise.
    """
    merged = _MERGED.get(rule)
    if merged is None:
        return 1 + node_count(_grown_first(rule, node.left, node.right)[1])
    left_merged, right_merged = merged
    if left_merged and right_merged:
        return 0
    return -1 - node_count(node.left if right_merged else node.right)  # the copied operand


def _meets(premise: Cirquent, conclusion: Cirquent) -> tuple[Optional[Path], Optional[Path]]:
    """The meet of the differences that count for rule I and that of those for rules II and III.

    Premise and conclusion differ at a position in one of three kinds: a
    shape difference, two nodes of different types or two unequal
    literals; a premise-ID difference, two disjunctions whose IDs differ
    where the premise's cluster has more than one member; a
    conclusion-ID difference, the same where the conclusion's cluster
    has.  Shape and premise-ID differences count for rule I, shape and
    conclusion-ID ones for rules II and III (``_candidates_in`` says
    why).  The first meet is None when there is no shape difference, the
    second when nothing counts for rules II and III.  One walk over both
    trees finds the differences; a pair that is one object holds none
    and is not entered.  The walk meets positions in path order, which
    sorts paths as strings, so the meet of all differences is that of
    the first and the last.
    """
    shaped = False
    first_one = last_one = first_two = last_two = None  # "one": rule I; "two": rules II and III
    pairs = [] if premise is conclusion else [(premise, conclusion, ROOT)]
    while pairs:
        x, y, path = pairs.pop()
        if type(x) is not type(y) or isinstance(x, Literal):
            if x == y:
                continue
            shaped = one = two = True
        else:
            if x.right is not y.right:
                pairs.append((x.right, y.right, path + (RIGHT_STEP,)))
            if x.left is not y.left:
                pairs.append((x.left, y.left, path + (LEFT_STEP,)))
            if not isinstance(x, Or) or x.cluster == y.cluster:
                continue
            one = cluster_size(premise, x.cluster) > 1
            two = cluster_size(conclusion, y.cluster) > 1
        if one:
            if first_one is None:
                first_one = path
            last_one = path
        if two:
            if first_two is None:
                first_two = path
            last_two = path
    meet_one = first_one[: _common_prefix(first_one, last_one)] if shaped else None
    meet_two = None if first_two is None else first_two[: _common_prefix(first_two, last_two)]
    return meet_one, meet_two


def _spine(c: Cirquent, meet: Path) -> list[tuple[Path, Cirquent]]:
    """(path, node) for each connective on the way from the root of ``c`` to ``meet``."""
    spine = _descend(c, meet)
    if isinstance(spine[-1], Literal):
        spine.pop()
    for depth, node in enumerate(spine):  # in place: cheaper than a comprehension, once per step
        spine[depth] = (meet[:depth], node)
    return spine


def _at(c: Cirquent, path: Path) -> Optional[Cirquent]:
    """The node at ``path``, or None when the path addresses none."""
    try:
        return subcirquent_at(c, path)
    except InvalidPathError:
        return None
