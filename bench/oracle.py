"""Reference oracle: brute force over interpretations x metaselections.

Independent of ``ifp.semantics``.  For every metaselection (each cluster
resolved to one side) the goal is evaluated on all interpretations at
once: an atom's column is an integer whose bit ``x`` is the atom's value
in interpretation ``x``.  Interpretations are numbered as ifp lists them,
atoms sorted by name with the first atom as the most significant bit.
A goal is true under interpretation ``x`` when bit ``x`` is set in the
OR of its truth vectors over all metaselections.
"""

from __future__ import annotations

from dataclasses import dataclass


def _atoms(goal, out: set) -> set:
    if goal[0] == "&":
        _atoms(goal[1], out)
        _atoms(goal[2], out)
    elif goal[0] == "|":
        _atoms(goal[2], out)
        _atoms(goal[3], out)
    else:
        out.add(goal[0])
    return out


def _clusters(goal, out: set) -> set:
    if goal[0] == "&":
        _clusters(goal[1], out)
        _clusters(goal[2], out)
    elif goal[0] == "|":
        out.add(goal[1])
        _clusters(goal[2], out)
        _clusters(goal[3], out)
    return out


def _evaluate(goal, columns, full, right_sides) -> int:
    if goal[0] == "&":
        return _evaluate(goal[1], columns, full, right_sides) & _evaluate(
            goal[2], columns, full, right_sides
        )
    if goal[0] == "|":
        side = goal[3] if goal[1] in right_sides else goal[2]
        return _evaluate(side, columns, full, right_sides)
    column = columns[goal[0]]
    return column if goal[1] else full ^ column


@dataclass(frozen=True)
class Label:
    """What the oracle knows about one goal."""

    atoms: tuple[str, ...]
    truth: int  # bit x set when the goal is true under interpretation x
    full: int

    @property
    def valid(self) -> bool:
        return self.truth == self.full

    def falsified_by(self, model: dict) -> bool:
        """True when ``model`` assigns exactly the goal's atoms and falsifies it."""
        if set(model) != set(self.atoms):
            return False
        x = 0
        for name in self.atoms:
            x = (x << 1) | bool(model[name])
        return not (self.truth >> x) & 1


def label(goal) -> Label:
    """Enumerate every metaselection; OR the truth vectors together."""
    names = tuple(sorted(_atoms(goal, set())))
    n = len(names)
    rows = 1 << n
    full = (1 << rows) - 1
    columns = {}
    for i, name in enumerate(names):
        bit = 1 << (n - 1 - i)
        columns[name] = sum(1 << x for x in range(rows) if x & bit)
    ids = sorted(_clusters(goal, set()))
    truth = 0
    for mask in range(1 << len(ids)):
        right_sides = {k for j, k in enumerate(ids) if mask >> j & 1}
        truth |= _evaluate(goal, columns, full, right_sides)
        if truth == full:
            break
    return Label(names, truth, full)
