"""Truth for cirquents: metaselections, validity, truth tables, classical compilation.

An interpretation assigns every atom a boolean.  A metaselection assigns
every cluster a side, "left" or "right"; all disjunctions in a cluster are
resolved to that same side at once, which is what makes clustered
disjunction different from the ordinary connective.  A cirquent is true
under an interpretation when some metaselection makes it metatrue, and
valid when it is true under every interpretation.

Enumeration order is fixed everywhere: atoms sorted by name, cluster IDs
ascending, false before true, "left" before "right".  Functions that
report a first witness or countermodel are therefore deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .core import And, Cirquent, Literal, Or, atoms, is_classical

LEFT = "left"
RIGHT = "right"

DEFAULT_MAX_ATOMS = 20
DEFAULT_MAX_CLUSTERS = 20

Interpretation = dict[str, bool]
Metaselection = dict[int, str]


class MissingAtomError(Exception):
    """The interpretation gives no value for an atom of the cirquent."""


class MissingClusterError(Exception):
    """The metaselection gives no side for a cluster of the cirquent."""


class NotClassicalError(Exception):
    """A classical-only operation was handed a cirquent with a non-singleton cluster."""


class TooLargeError(Exception):
    """The cirquent exceeds the configured brute-force size bound."""


def ensure_within_bounds(
    c: Cirquent,
    max_atoms: int | None = None,
    max_clusters: int | None = None,
) -> None:
    """Raise TooLargeError when ``c`` exceeds the enumeration bounds."""
    atom_bound = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    cluster_bound = DEFAULT_MAX_CLUSTERS if max_clusters is None else max_clusters
    n_atoms = len(atoms(c))
    n_clusters = len(c.summary.counts)
    if n_atoms > atom_bound:
        raise TooLargeError(f"{n_atoms} atoms exceeds the bound of {atom_bound}")
    if n_clusters > cluster_bound:
        raise TooLargeError(f"{n_clusters} clusters exceeds the bound of {cluster_bound}")


def metatrue(c: Cirquent, interpretation: Mapping[str, bool], metaselection: Mapping[int, str]) -> bool:
    """Evaluate with every clustered disjunction resolved by the metaselection.

    Extra keys in either mapping are ignored, so restricting them to the
    atoms and clusters actually present never changes the outcome.
    """
    if isinstance(c, Literal):
        try:
            value = interpretation[c.atom]
        except KeyError:
            raise MissingAtomError(f"no value for atom {c.atom!r}") from None
        return value if c.positive else not value
    if isinstance(c, And):
        return metatrue(c.left, interpretation, metaselection) and metatrue(
            c.right, interpretation, metaselection
        )
    try:
        side = metaselection[c.cluster]
    except KeyError:
        raise MissingClusterError(f"no side for cluster {c.cluster}") from None
    resolvent = c.left if side == LEFT else c.right
    return metatrue(resolvent, interpretation, metaselection)


def interpretations(names) -> Iterator[Interpretation]:
    """All assignments over the given atoms, in lexicographic order (false first)."""
    ordered = sorted(names)
    for values in product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, values))


def metaselections(ids) -> Iterator[Metaselection]:
    """All metaselections over the given cluster IDs ("left" before "right")."""
    ordered = sorted(ids)
    for sides in product((LEFT, RIGHT), repeat=len(ordered)):
        yield dict(zip(ordered, sides))


def true_under(c: Cirquent, interpretation: Mapping[str, bool]) -> bool:
    """True when some metaselection makes the cirquent metatrue."""
    return any(metatrue(c, interpretation, f) for f in metaselections(c.summary.counts))


def witness_metaselection(c: Cirquent, interpretation: Mapping[str, bool]) -> Metaselection | None:
    """The lexicographically first metaselection making ``c`` metatrue, if any."""
    for f in metaselections(c.summary.counts):
        if metatrue(c, interpretation, f):
            return f
    return None


def valid(c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None) -> bool:
    """True when the cirquent is true under every interpretation of its atoms."""
    ensure_within_bounds(c, max_atoms, max_clusters)
    return all(true_under(c, i) for i in interpretations(atoms(c)))


def countermodel(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> Interpretation | None:
    """The lexicographically first falsifying interpretation, or None when valid."""
    ensure_within_bounds(c, max_atoms, max_clusters)
    for i in interpretations(atoms(c)):
        if not true_under(c, i):
            return i
    return None


@dataclass(frozen=True)
class TruthTable:
    atoms: tuple[str, ...]
    rows: dict  # full assignment tuple (in atom order) -> bool

    def __post_init__(self) -> None:
        if len(self.rows) != 2 ** len(self.atoms):
            raise ValueError("a truth table needs one row per assignment")


def truth_table(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> TruthTable:
    """Tabulate true_under over every assignment of the cirquent's atoms."""
    ensure_within_bounds(c, max_atoms, max_clusters)
    ordered = tuple(sorted(atoms(c)))
    rows = {}
    for values in product((False, True), repeat=len(ordered)):
        rows[values] = true_under(c, dict(zip(ordered, values)))
    return TruthTable(ordered, rows)


def compile_classical(table: TruthTable) -> Cirquent | None:
    """A classical cirquent in disjunctive normal form with the given table.

    Returns None when no row is true.  Every minterm mentions every atom,
    conjunctions and the disjunction spine both associate to the left, and
    the singleton cluster IDs come out already canonical.
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


def eval_classical(c: Cirquent, interpretation: Mapping[str, bool]) -> bool:
    """Plain boolean evaluation, reading every disjunction as ordinary ``or``.

    On classical cirquents this agrees with true_under but costs nothing
    exponential, which matters when a reduction has multiplied the number
    of singleton clusters.
    """
    if isinstance(c, Literal):
        try:
            value = interpretation[c.atom]
        except KeyError:
            raise MissingAtomError(f"no value for atom {c.atom!r}") from None
        return value if c.positive else not value
    if isinstance(c, And):
        return eval_classical(c.left, interpretation) and eval_classical(c.right, interpretation)
    return eval_classical(c.left, interpretation) or eval_classical(c.right, interpretation)


def classical_tautology(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> bool:
    """True when a classical cirquent holds under every interpretation."""
    if not is_classical(c):
        raise NotClassicalError("classical_tautology needs every cluster to be a singleton")
    ensure_within_bounds(c, max_atoms, max_clusters)
    return all(eval_classical(c, i) for i in interpretations(atoms(c)))


def classical_countermodel(
    c: Cirquent, *, max_atoms: int | None = None, max_clusters: int | None = None
) -> Interpretation | None:
    """First falsifier of a classical cirquent under plain boolean evaluation."""
    if not is_classical(c):
        raise NotClassicalError("classical_countermodel needs every cluster to be a singleton")
    ensure_within_bounds(c, max_atoms, max_clusters)
    for i in interpretations(atoms(c)):
        if not eval_classical(c, i):
            return i
    return None
