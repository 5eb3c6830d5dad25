"""Cirquent data model and structural operations.

A cirquent is a propositional formula in negation normal form together with
a partition of its disjunction occurrences into clusters.  The partition is
carried syntactically: every disjunction node holds a positive-integer
cluster ID, and two disjunctions belong to the same cluster exactly when
they hold the same ID.  Conjunctions and literals carry nothing extra.

Positions inside a cirquent are addressed by paths: tuples of "L"/"R" steps
from the root.  A path may end at any node, literals included, but may not
step through a literal.

Every node caches a ``summary`` of the disjunctions beneath it, itself
included: the plain tuple ``(present, counts, nesting_free, size)``.
``present`` is a bit mask of the clusters there; ``counts`` maps
exactly the clusters with at least two members there to their numbers
of members, and is None when there is none; ``nesting_free`` says
whether the subtree is free of same-cluster nesting; ``size`` is how
many nodes it has.  A summary without counts holds only ints, bools
and None, so CPython's cycle collector stops tracking it after its
first pass; a tuple subclass, or a tuple holding a dict, even an empty
one, stays tracked and is walked on every full collection.

Cluster k's bit is ``_bit(k)``: k itself below a fixed bound,
``_BOUND``, and above it the next bit from the bound up, handed out by
``Or``'s constructor as disjunctions are first built with them, never
by a query, so a mask never grows with an ID's size.  A single-member
cluster costs each node above it one bit, and a reducer step, whose
copies give single-member clusters fresh IDs by the thousand, touches
counts only for the few clusters with more than one member.  A
connective's ``summary`` is None until the first query needs it; then
``_summarize`` fills it, once.  Nodes are immutable and a rewrite
shares every subtree it leaves alone, so a rebuilt cirquent computes
summaries only along the rebuilt spine.  The summary is this module's
private cache: other modules ask ``cluster_size``, ``cluster_ids``,
``multi_member``, ``is_classical``, ``members``, ``first_nested`` and
``node_count`` instead of reading it, and each of those reads
``node.summary or _summarize(node)``.  The reducer lists a cluster's
``members`` once per resolution and keeps the list.

A connective keeps its operands and ID in slots and its summary as an
ordinary attribute, and nothing ever asks for its ``__dict__``: CPython
(3.11 on) then keeps the attribute inline, and reads every attribute
about three times as fast as it does once a ``__dict__`` exists.
"""

from __future__ import annotations

import re
import sys
from itertools import count
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Union

LEFT_STEP = "L"
RIGHT_STEP = "R"

Path = tuple[str, ...]  # "L"/"R" steps from the root
ROOT: Path = ()
_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# str() and int() refuse an int with more digits than this (0: no limit), so
# a cluster ID below _ID_LIMIT is one that prints and parses back.
_ID_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_ID_LIMIT = 10**_ID_DIGITS if _ID_DIGITS else float("inf")


class InvalidPathError(Exception):
    """The path does not address a node of the cirquent."""


class RuleError(Exception):
    """The rule application does not fit the given cirquent.

    Defined here, not in ``ifp.calculus`` where the rules raise it, so
    that the command line can report it without loading the calculus.
    """


# Cluster k's bit in the summary masks is k below _BOUND.  An ID at or
# above it takes the next bit from _BOUND up when the first disjunction
# holding it is built (in Or's constructor), so a mask has one bit per
# cluster ID in use and none for an ID's size: indexed by raw ID, the
# mask of p|1000000000 q would take 125 MB.  The bound sits above the
# IDs a residue draws, so drawing a fresh ID is one operation on a mask.
_BOUND = 1 << 16
_interned_bits: dict[int, int] = {}  # each ID at or above _BOUND a disjunction was built with: its bit
_interned_ids: dict[int, int] = {}  # the reverse
_next_bit = count(_BOUND)


def _bit(k: int) -> int:
    """Cluster ``k``'s bit in the summary masks; 0, which no mask sets, for an ID no disjunction holds."""
    return k if 0 <= k < _BOUND else _interned_bits.get(k, 0)


def _ids_in(mask: int) -> list[int]:
    """The IDs whose bits ``mask`` sets, lowest bit first."""
    found = []
    while mask:
        low = mask & -mask
        bit = low.bit_length() - 1
        found.append(bit if bit < _BOUND else _interned_ids[bit])
        mask ^= low
    return found


_NO_COUNTS: Mapping[int, int] = MappingProxyType({})  # a summary's counts of None, read as a mapping


class _Value:
    """Base of the immutable nodes and records: equal when their fields are.

    Each subclass lists its fields in ``__match_args__``.  A record's
    ``__init__`` stores them straight into ``__dict__``, which then holds
    exactly the fields.  The nodes never ask for their ``__dict__`` and
    compare their own way: ``Literal`` stores its fields as a plain class
    does, and the connectives keep theirs in slots.
    Assignment and deletion raise AttributeError.  Pickling and copying
    call the class on the fields, so they leave any cache behind.
    """

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set_attribute = object.__setattr__


class Literal(_Value):
    __match_args__ = ("atom", "positive")
    summary = (0, None, True, 1)

    def __init__(self, atom: str, positive: bool = True) -> None:
        if not (isinstance(atom, str) and _ATOM_NAME.fullmatch(atom)):
            raise ValueError(f"atom names are a letter, then letters, digits and underscores, got {atom!r}")
        if positive.__class__ is not bool:
            raise ValueError(f"polarities are True or False, got {positive!r}")
        # Literals are read far more often than built, and CPython reads
        # an object's attributes faster while its __dict__ has never been
        # asked for, so they are stored the way a plain class stores them;
        # the connectives use slots for the same reason.
        _set_attribute(self, "atom", atom)
        _set_attribute(self, "positive", positive)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        return self.atom == other.atom and self.positive == other.positive

    __hash__ = _Value.__hash__  # a class that defines __eq__ loses the hash it inherits

    def __str__(self) -> str:
        return self.atom if self.positive else "~" + self.atom


class _Connective(_Value):
    """Base of And and Or: ``summary`` is None until ``_summarize`` fills it, once.

    The operands sit in slots.  Equality goes through ``cluster_map``;
    nothing recurses, so depth costs no stack.
    """

    __slots__ = ("left", "right")
    summary = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mapping = cluster_map(self, other)
        return mapping is not None and all(k == m for k, m in mapping.items())

    def __hash__(self) -> int:
        """Hashes the nodes in ``_postorder``: each literal, each cluster ID, 0 for each ``&``."""
        nodes = _postorder(self)
        return hash(tuple([n if isinstance(n, Literal) else getattr(n, "cluster", 0) for n in nodes]))

    def __repr__(self) -> str:
        """The formula with every cluster ID, built without recursion or summaries."""
        from .syntax import print_cirquent  # syntax imports this module

        return print_cirquent(self, show_singleton_ids=True)

    def __reduce__(self) -> tuple:
        from .syntax import parse

        return parse, (repr(self),)


# The slots' own setters, bound once: _Value.__setattr__ refuses assignment,
# and object.__setattr__ costs about a third more per node.
_set_left = _Connective.left.__set__
_set_right = _Connective.right.__set__


class And(_Connective):
    __match_args__ = ("left", "right")
    __slots__ = ()

    def __init__(self, left: Cirquent, right: Cirquent) -> None:
        _set_left(self, left)
        _set_right(self, right)


class Or(_Connective):
    __match_args__ = ("cluster", "left", "right")
    __slots__ = ("cluster",)

    def __init__(self, cluster: int, left: Cirquent, right: Cirquent) -> None:
        # _require_id's test, inlined: Or is the constructor decide calls most.
        if cluster.__class__ is not int or not 0 < cluster < _BOUND:
            _require_id(cluster)
            if cluster not in _interned_bits:
                # next() and setdefault() are atomic, so threads building a new
                # ID at once agree on its bit; the loser's draw stays unused.
                bit = next(_next_bit)
                _interned_ids[bit] = cluster
                _interned_bits.setdefault(cluster, bit)
        _set_cluster(self, cluster)
        _set_left(self, left)
        _set_right(self, right)


_set_cluster = Or.cluster.__set__


def _require_id(k: object) -> None:
    """Raise ValueError unless ``k`` is a cluster ID: a positive ``int`` that prints and parses back.

    A bool is refused, since it prints as True.
    """
    if k.__class__ is not int or k < 1:
        raise ValueError(f"cluster IDs must be positive integers, got {k!r}")
    if k >= _ID_LIMIT:
        raise ValueError(f"cluster IDs have at most {_ID_DIGITS} digits")


Cirquent = Union[Literal, And, Or]


def _summarize(root: Cirquent) -> tuple:
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
            if child.summary is None:  # a literal's never is
                pending.append(child)
    for node in reversed(order):
        present, counts, free, size = node.left.summary
        right_present, right_counts, right_free, right_size = node.right.summary
        shared = present & right_present
        if right_present:  # "0 | x" would copy x
            present = present | right_present if present else right_present
        free = free and right_free
        if shared:  # on both sides: a side without a count holds one
            left_counts, right_counts = counts or _NO_COUNTS, right_counts or _NO_COUNTS
            counts = {**left_counts, **right_counts}
            for k in _ids_in(shared):
                counts[k] = left_counts.get(k, 1) + right_counts.get(k, 1)
        elif counts is None:
            counts = right_counts
        elif right_counts is not None:
            counts = {**counts, **right_counts}
        if isinstance(node, Or):
            k = node.cluster
            bit = 1 << _bit(k)
            if present & bit:
                free = False
                counts = {**counts, k: counts.get(k, 1) + 1} if counts else {k: 2}
            else:
                present |= bit
        _set_attribute(node, "summary", (present, counts, free, size + right_size + 1))
    return root.summary


def subcirquent_at(c: Cirquent, path: Path) -> Cirquent:
    """Return the subcirquent rooted at ``path``: ``_descend(c, path)[-1]``, without the list."""
    node = c
    for step in path:
        if isinstance(node, Literal):
            raise InvalidPathError(f"path {format_path(path)} steps through the literal {node}")
        if step == LEFT_STEP:
            node = node.left
        elif step == RIGHT_STEP:
            node = node.right
        else:
            raise InvalidPathError(f"bad path step {step!r}")
    return node


def _descend(c: Cirquent, path: Path) -> list[Cirquent]:
    """The nodes from the root of ``c`` down to the one at ``path``, root first."""
    node = c
    nodes = [node]
    for step in path:
        if isinstance(node, Literal):
            raise InvalidPathError(f"path {format_path(path)} steps through the literal {node}")
        if step == LEFT_STEP:
            node = node.left
        elif step == RIGHT_STEP:
            node = node.right
        else:
            raise InvalidPathError(f"bad path step {step!r}")
        nodes.append(node)
    return nodes


def _common_prefix(first: Path, last: Path) -> int:
    """The length of two paths' longest common prefix, ``first`` sorting no later than ``last``."""
    if first is last:
        return len(first)
    n = 0
    while n < len(first) and first[n] == last[n]:
        n += 1
    return n


def replace_at(c: Cirquent, path: Path, replacement: Cirquent) -> Cirquent:
    """Return a copy of ``c`` with the subcirquent at ``path`` swapped out."""
    spine = _descend(c, path)
    spine.pop()
    while spine:  # rebuild the spine, bottom up
        parent = spine.pop()
        if path[len(spine)] == LEFT_STEP:
            left, right = replacement, parent.right
        else:
            left, right = parent.left, replacement
        if isinstance(parent, Or):
            replacement = Or(parent.cluster, left, right)
        else:
            replacement = And(left, right)
    return replacement


def walk(c: Cirquent) -> Iterator[tuple[Path, Cirquent]]:
    """Yield (path, node) for every node, root first, left subtree before right."""
    stack = [(ROOT, c)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if not isinstance(node, Literal):
            stack.append((path + (RIGHT_STEP,), node.right))
            stack.append((path + (LEFT_STEP,), node.left))


def clusters(c: Cirquent) -> dict[int, frozenset]:
    """The cluster table: each cluster ID mapped to its set of disjunction positions."""
    table: dict[int, set] = {}
    for path, node in walk(c):
        if isinstance(node, Or):
            table.setdefault(node.cluster, set()).add(path)
    return {k: frozenset(v) for k, v in table.items()}


def members(c: Cirquent, k: int) -> list[Path]:
    """Positions of cluster ``k``'s disjunctions, in path order.

    Only subtrees whose summary has ``k``'s bit are entered.
    """
    bit = 1 << _bit(k)
    found = []
    stack = [(ROOT, c)]
    while stack:
        path, node = stack.pop()
        if not (node.summary or _summarize(node))[0] & bit:
            continue
        if isinstance(node, Or) and node.cluster == k:
            found.append(path)
        stack.append((path + (RIGHT_STEP,), node.right))
        stack.append((path + (LEFT_STEP,), node.left))
    return found


def cluster_size(c: Cirquent, k: int) -> int:
    """How many disjunctions of cluster ``k`` ``c`` holds; 0 when none."""
    present, counts, _, _ = c.summary or _summarize(c)
    return counts and counts.get(k) or present >> _bit(k) & 1


def cluster_ids(c: Cirquent) -> frozenset[int]:
    """The IDs of every cluster of ``c``."""
    return frozenset(_ids_in((c.summary or _summarize(c))[0]))


def multi_member(c: Cirquent) -> Mapping[int, int]:
    """Each cluster with more than one member, mapped to its size, as a read-only view."""
    counts = (c.summary or _summarize(c))[1]
    return _NO_COUNTS if counts is None else MappingProxyType(counts)


def is_classical(c: Cirquent) -> bool:
    """True when every cluster is a singleton, i.e. the cirquent is an ordinary formula."""
    return (c.summary or _summarize(c))[1] is None


def _unused_ids(c: Cirquent) -> Iterator[int]:
    """The IDs no disjunction of ``c`` holds, lowest first.

    Below ``_BOUND`` each is the lowest bit that neither ``c``'s mask
    nor an earlier draw sets; only once every ID below is in use are the
    IDs above tried one by one.
    """
    present = (c.summary or _summarize(c))[0]
    taken = present | 1  # bit 0 is no ID
    while True:
        low = ~taken & (taken + 1)
        k = low.bit_length() - 1
        if k >= _BOUND:
            break
        taken |= low
        yield k
    for k in count(_BOUND):
        if not present >> _bit(k) & 1:
            yield k


def first_nested(c: Cirquent) -> tuple[Path, Path] | None:
    """The first same-cluster (outer, inner) disjunction pair in path order, or None.

    Pairs are ordered by the outer position, then the inner one.  The
    descent follows the cached nesting flags from the root to the first
    disjunction with a member of its own cluster beneath it, then the
    cached cluster bits to the first such member, so it costs O(depth),
    and nothing when the root is nesting-free.
    """
    if (c.summary or _summarize(c))[2]:  # which fills every summary beneath
        return None
    outer, node = [], c
    while not (isinstance(node, Or) and node.cluster in node.summary[1]):  # a nesting node has counts
        outer.append(RIGHT_STEP if node.left.summary[2] else LEFT_STEP)
        node = node.right if outer[-1] == RIGHT_STEP else node.left
    k, inner, below = node.cluster, [], node
    bit = 1 << _bit(k)
    while not inner or not (isinstance(below, Or) and below.cluster == k):
        inner.append(LEFT_STEP if below.left.summary[0] & bit else RIGHT_STEP)
        below = below.left if inner[-1] == LEFT_STEP else below.right
    return tuple(outer), tuple(outer + inner)


def node_count(c: Cirquent) -> int:
    """Total number of nodes, literals and connectives alike, read off the summary."""
    return (c.summary or _summarize(c))[3]


def _postorder(c: Cirquent) -> list[Cirquent]:
    """Every node of ``c``, children first and the left subtree before the right.

    One walk with its own stack, so depth costs no recursion.
    """
    order, stack = [], [c]
    while stack:  # each node, then its right subtree, then its left: the list reversed
        node = stack.pop()
        while node.__class__ is not Literal:
            order.append(node)
            stack.append(node.left)
            node = node.right
        order.append(node)
    order.reverse()
    return order


def cluster_map(c: Cirquent, d: Cirquent) -> dict[int, int] | None:
    """``c``'s cluster IDs mapped to ``d``'s, or None when no renaming fits.

    The trees must match node for node (equal literals, the same
    connective at every position), and the IDs of corresponding
    disjunctions must pair off one to one.  The walk keeps a stack of
    node pairs, so depth costs no recursion.

    A subtree that both sides share (the same object, as a rewrite
    leaves it) matches itself without being entered.  Walked, it would
    map each of its IDs to itself, so it fits unless the rest of the
    walk moved one of its IDs (sent it elsewhere, or sent another ID to
    it); its summary, read only once the walk moved an ID, says which
    IDs it holds.  The result lists only the ID pairs the walk met: an
    ID of ``c`` it does not list lies only in shared subtrees and maps
    to itself.  So comparing a rewrite with its source costs the
    rebuilt spine, not the whole tree.
    """
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    shared = []
    stack = [(c, d)]
    while stack:
        x, y = stack.pop()
        if x is y:
            if not isinstance(x, Literal):
                shared.append(x)
            continue
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
    if shared:
        moved = 0  # the bits of every ID the walk moved, and of every ID it moved one to
        for k, m in forward.items():
            if k != m:
                moved |= 1 << _bit(k) | 1 << _bit(m)
        if moved and any((node.summary or _summarize(node))[0] & moved for node in shared):
            return None
    return forward


def canonicalize_ids(c: Cirquent) -> Cirquent:
    """Renumber clusters 1, 2, ... in order of first textual occurrence.

    Textual order is in-order tree position, matching where each
    disjunction sign sits in the printed formula.  The result is
    cluster-isomorphic to the input and identical across the whole
    isomorphism class, which pins down a canonical printed form.
    """
    mapping: dict[int, int] = {}
    return map_clusters(c, lambda k: mapping.setdefault(k, len(mapping) + 1))


def map_clusters(c: Cirquent, rename: Callable[[int], int]) -> Cirquent:
    """A copy of ``c`` whose disjunctions of cluster k are in cluster ``rename(k)``.

    ``rename`` is called once per disjunction, in textual order.  The
    copy is built in order along left spines, with the connectives
    waiting for an operand on a stack, so depth costs no recursion.
    """
    waiting = []  # [connective, its built left operand or None, its new ID]
    node = c
    while True:
        while not isinstance(node, Literal):
            waiting.append([node, None, 0])
            node = node.left
        built = node
        while waiting and waiting[-1][1] is not None:  # a right operand is built
            parent, left, k = waiting.pop()
            built = And(left, built) if isinstance(parent, And) else Or(k, left, built)
        if not waiting:
            return built
        entry = waiting[-1]
        entry[1] = built
        if isinstance(entry[0], Or):
            entry[2] = rename(entry[0].cluster)
        node = entry[0].right


def format_path(path: Path) -> str:
    """Render a path; the empty path is a single dot."""
    return "".join(path) or "."
