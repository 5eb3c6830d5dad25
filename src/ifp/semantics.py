"""Truth for cirquents: metaselections, validity, and a truth table's DNF.

An interpretation assigns every atom a boolean.  A metaselection assigns
every cluster a side, "left" or "right"; all disjunctions in a cluster are
resolved to that same side at once, which is what makes clustered
disjunction different from the ordinary connective.  A cirquent is true
under an interpretation when some metaselection makes it metatrue, and
valid when it is true under every interpretation.

One evaluator computes all truth as a Python int with a bit for each
interpretation and metaselection of the multi-member clusters; truth is
monotone, so a single-member cluster's choice is just ``|``.  Order is
fixed: atoms sorted by name (the first is the most significant bit),
cluster IDs ascending, false before true, "left" before "right", so
countermodels are deterministic.

Each query walks the cirquent once, into a list of its nodes with the
children first (``core._postorder``); the atoms, the bounds check and the
truth vector are read off that list, and when the rows or clusters
overflow one vector, every block they are enumerated in reuses it.
A query builds its tables of atom values and cluster sides only from
what it is given: nothing for an empty interpretation or metaselection,
and no masks for a cirquent without multi-member clusters.  A column
table is built the first time its width is asked for and kept for the
process (``_columns``), so every block and every later query shares it;
widths run from 0 to ``_VECTOR_BITS``, and the 20-bit table holds
2.8 MB, all 21 tables 5.3 MB.
The prover alone shares a walk through ``_within_bounds``, which also
checks the bounds, and reads it with ``_true_under`` and ``_falsifier``.

Brute force needs fixed bounds: at most 20 atoms and 20 multi-member
clusters, or TooLargeError.  ``valid(c, max_atoms=N)`` is the only
override, and only of the atom bound.  ``true_under`` checks only the
cluster bound, since its atoms are the interpretation's, and
``metatrue``, which enumerates nothing, checks neither.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product, repeat
from typing import Iterator, Mapping, Sequence

from .core import And, Cirquent, Literal, _postorder, cluster_ids, multi_member

LEFT = "left"
RIGHT = "right"

DEFAULT_MAX_ATOMS = 20
MAX_CLUSTERS = 20
_VECTOR_BITS = 20  # a vector holds at most 2**20 bits

Interpretation = dict[str, bool]


class MissingAtomError(Exception):
    """The interpretation gives no value for an atom of the cirquent."""


class MissingClusterError(Exception):
    """The metaselection gives no side for a cluster of the cirquent."""


class TooLargeError(Exception):
    """The cirquent exceeds a brute-force size bound."""


def metatrue(c: Cirquent, interpretation: Mapping[str, bool], metaselection: Mapping[int, str]) -> bool:
    """Evaluate with every clustered disjunction resolved by the metaselection.

    Each atom and cluster of ``c`` needs a value, even one the outcome does not depend
    on, and each cluster's side must be "left" or "right" (else ValueError);
    extra keys in either mapping are ignored.
    """
    ids = cluster_ids(c)
    missing = ids - metaselection.keys()
    if missing:
        raise MissingClusterError(f"no side for cluster {min(missing)}")
    for k in sorted(ids):
        if metaselection[k] not in (LEFT, RIGHT):
            raise ValueError(f"cluster {k}'s side must be 'left' or 'right', got {metaselection[k]!r}")
    return not _false_rows(_postorder(c), (), interpretation, metaselection)[0]


def true_under(c: Cirquent, interpretation: Mapping[str, bool]) -> bool:
    """True when some metaselection makes the cirquent metatrue; every atom needs a value.

    The metaselections are enumerated, so the cluster bound holds; the atoms
    are the interpretation's, so the atom bound does not.
    """
    _require_few_clusters(c)
    return _true_under(_postorder(c), interpretation)


def valid(c: Cirquent, *, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """True when the cirquent is true under every interpretation of its atoms.

    ``max_atoms`` is a nonnegative ``int``, not a ``bool``, else ValueError.
    """
    if max_atoms.__class__ is not int or max_atoms < 0:
        raise ValueError(f"max_atoms must be a nonnegative int, got {max_atoms!r}")
    order, names = _within_bounds(c, max_atoms)
    return not _false_rows(order, names, {}, {})[0]


def countermodel(c: Cirquent) -> Interpretation | None:
    """The lexicographically first falsifying interpretation, or None when valid."""
    return _falsifier(*_within_bounds(c))


def dnf_text(c: Cirquent) -> tuple[int, Iterator[str]]:
    """The node count and the printed text, in pieces, of the DNF with ``c``'s truth table.

    The DNF has one minterm per true row, in lexicographic row order, each
    a left-nested conjunction of every atom in sorted order; the minterms
    hang off a left-nested disjunction spine whose clusters are all single.
    The text is print_cirquent's: compound operands parenthesized, the root
    bare, no IDs.  With m true rows of n atoms there are m(2n-1) + (m-1)
    nodes; with none, 0 nodes and no text.
    """
    order, names = _within_bounds(c)
    false, shift = _false_rows(order, names, {}, {})
    rows = f"{false:0{1 << (len(names) + shift)}b}"[:: -(1 << shift)]  # row i: "0" when true
    m, n = rows.count("0"), len(names)
    if not m:
        return 0, iter(())
    wrap = n > 1 and m > 1  # a minterm is a compound operand of the spine
    joints = ["(" * (n - 2 + wrap), "&"] + [")&"] * (n - 2)  # the text before each literal
    literals = [(f"{joint}~{name}", joint + name) for joint, name in zip(joints, names)]
    minterms = ("".join(term) + ")" * wrap for row, term in zip(rows, product(*literals)) if row == "0")
    spine = chain(("(" * (m - 2), "|"), repeat(")|"))
    return m * (2 * n - 1) + m - 1, map(str.__add__, spine, minterms)


def _within_bounds(c: Cirquent, max_atoms: int = DEFAULT_MAX_ATOMS) -> tuple[list, list[str]]:
    """``(order, names)``: ``c``'s ``_postorder`` and sorted atoms; TooLargeError past a size bound."""
    order = _postorder(c)
    names = sorted({node.atom for node in order if node.__class__ is Literal})
    if len(names) > max_atoms:
        raise TooLargeError(f"{len(names)} atoms exceeds the bound of {max_atoms}")
    _require_few_clusters(c)
    return order, names


def _require_few_clusters(c: Cirquent) -> None:
    """TooLargeError past ``MAX_CLUSTERS`` multi-member clusters."""
    n_multi = len(multi_member(c))
    if n_multi > MAX_CLUSTERS:
        raise TooLargeError(f"{n_multi} multi-member clusters exceeds the bound of {MAX_CLUSTERS}")


def _falsifier(order: list[Cirquent], names: Sequence[str]) -> Interpretation | None:
    """``countermodel`` of the cirquent whose ``_postorder`` and atoms are ``order`` and ``names``."""
    false, shift = _false_rows(order, names, {}, {})
    if not false:
        return None
    row = ((false & -false).bit_length() - 1) >> shift
    return {name: bool(row >> (len(names) - 1 - j) & 1) for j, name in enumerate(names)}


def _true_under(order: list[Cirquent], interpretation: Mapping[str, bool]) -> bool:
    """``true_under`` of the cirquent whose ``_postorder`` is ``order``."""
    return not _false_rows(order, (), interpretation, {})[0]


def _false_rows(order: list[Cirquent], names: Sequence[str], values: Mapping, fixed: Mapping) -> tuple:
    """``(bits, shift)``, with bit ``i << shift`` set for each falsifying assignment ``i``.

    ``order`` is the cirquent's ``_postorder``, read again for every block.
    ``i`` numbers assignments to ``names`` lexicographically; other atoms take ``values``,
    clusters in ``fixed`` their sides, and other multi-member ones are enumerated.
    """
    extra = len(names) - _VECTOR_BITS
    if extra > 0:  # enumerate the first atoms: each assignment to them is one block of rows
        head, tail = names[:extra], names[extra:]
        false = 0
        for i, head_values in enumerate(product((False, True), repeat=extra)):
            block, shift = _false_rows(order, tail, {**values, **dict(zip(head, head_values))}, fixed)
            false |= block << (i << (len(tail) + shift))
        return false, shift
    multi = multi_member(order[-1]).keys()
    multi = sorted(multi - fixed.keys() if fixed else multi)
    cut = len(multi) + extra  # at most len(multi), since extra <= 0 here
    if cut > 0:  # enumerate the first clusters: a row is false if no choice makes it true
        false = -1
        for choice in product((LEFT, RIGHT), repeat=cut):
            block, shift = _false_rows(order, names, values, {**fixed, **dict(zip(multi, choice))})
            false &= block
            if not false:
                break
        return false, shift
    width = len(names) + len(multi)
    columns = _columns(width)
    full = false = (1 << (1 << width)) - 1  # false: then only the first bit of each interpretation's block
    literals = {name: full if value else 0 for name, value in values.items()} if values else {}
    literals.update(zip(names, columns))
    sides = {k: 0 if side == LEFT else -1 for k, side in fixed.items()} if fixed else {}
    if multi:
        for k, mask in zip(multi, columns[len(names) :]):
            sides[k] = mask
            false &= ~mask
    vector = _truth(order, literals, sides, full)
    for j in range(len(multi)):
        vector |= vector >> (1 << j)
    return false & ~vector, len(multi)


def _truth(order: list[Cirquent], literals: Mapping[str, int], sides: Mapping[int, int], full: int) -> int:
    """The truth vector of the cirquent whose ``_postorder`` is ``order``.

    A literal pushes its column and a connective combines the top two
    vectors; a disjunction's mask in ``sides`` picks its right operand.
    """
    vectors = []
    for node in order:
        kind = node.__class__
        if kind is Literal:
            vector = literals.get(node.atom)
            if vector is None:
                raise MissingAtomError(f"no value for atom {node.atom!r}")
            vectors.append(vector if node.positive else full ^ vector)
        else:
            right = vectors.pop()
            if kind is And:
                vectors[-1] &= right
            else:
                mask = sides.get(node.cluster)
                left = vectors[-1]
                vectors[-1] = left | right if mask is None else left & ~mask | right & mask
    return vectors[0]


@cache
def _columns(width: int) -> tuple:
    """Per bit of a ``width``-bit index, top bit first: the vector of the indices with it set."""
    columns, size = [], 1
    for _ in range(width):
        columns = [((1 << size) - 1) << size] + [column | column << size for column in columns]
        size <<= 1
    return tuple(columns)
