"""Concrete syntax: formulas, proof files and their records, interpretations, paths.

Formula grammar, loosest binding first ("->" is right-associative, "&"
and "|" are left-associative, "~" binds tightest):

    impl  ::= or ("->" impl)?
    or    ::= and ("|" digits? and)*
    and   ::= unary ("&" unary)*
    unary ::= "~" unary | name | "(" impl ")"

A digit run directly after "|" names that disjunction's cluster; cluster
IDs start at 1 and may not have leading zeros.  Atom names start with a
letter and continue with letters, digits, and underscores.  Whitespace
is free between tokens.

Parsed formulas are brought to negation normal form: "A -> B" unfolds to
"~A | B" and negation is pushed down to the atoms.  Negation cannot be
pushed through a disjunction that carries an explicit cluster ID, since
no meaning is defined for that; such input is rejected.  Disjunctions
written without an ID each get a fresh single-member cluster, numbered
upward from the largest explicit ID in the order the "|" signs appear.
One regular-expression scan and one pass over the tokens with an
explicit operator stack build these nodes directly.

The printer parenthesizes every compound operand, leaves the root bare,
and omits the IDs of single-member clusters (unless asked not to): any
reassignment of those IDs on re-parse leaves the cirquent the same up to
cluster isomorphism.  Neither it nor the parser recurses.

A proof file holds one entry per line; ``proof_entries`` reads them one
line at a time, as a checker asks for them, and ``parse_proof`` keeps
them all.  The records a proof is made of, ``ProofEntry``,
``ProofScript`` and the ``RuleHint`` an annotation gives, are defined
here, with the rule names an annotation may carry; the calculus
imports them.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    And,
    Cirquent,
    LEFT_STEP,
    Literal,
    Or,
    Path,
    RIGHT_STEP,
    _ATOM_NAME,
    _ID_DIGITS,
    _ID_LIMIT,
    _Value,
    _require_id,
    format_path,
    multi_member,
)


class ParseError(Exception):
    """The text is not well-formed."""

    def __init__(
        self, message: str, position: Optional[int] = None, line: Optional[int] = None
    ):
        suffix = ""
        if line is not None:
            suffix += f" on line {line}"
        if position is not None:
            suffix += f" at column {position + 1}"
        super().__init__(message + suffix)
        self.message = message
        self.position = position
        self.line = line


class NonpositiveClusterIdError(ParseError):
    """Cluster IDs start at 1."""


class NegatedIndexedDisjunctionError(ParseError):
    """Negation cannot apply over a disjunction with an explicit cluster ID."""


class DuplicateKeyError(ParseError):
    """The same key is assigned twice in one mapping."""


_TOKEN = re.compile(_ATOM_NAME.pattern + r"|[0-9]+|->|[()&|~]")
# One match per token; the first unexpected character takes the rest of the text.
_SCAN = re.compile(_TOKEN.pattern + r"|\S.*", re.S)
_EXPLICIT_ID = re.compile(r"\|\s*([0-9]+)")

# Operator state: reduce the stacked operators binding at least this tightly.
_REDUCE_FROM = {"&": 3, "|": 2, "->": 2, ")": 1}


def _number(digits: str, position: Optional[int] = None, line: Optional[int] = None) -> int:
    """The value of a run of decimal digits.

    Python refuses to convert a run longer than its integer string
    limit (4,300 digits by default); that is a ParseError here too.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits)} digits is too long", position, line) from None


def parse(text: str) -> Cirquent:
    """Parse one formula into a cirquent."""
    return _read(text, partial=False)[0]


def _parse_prefix(text: str, literals: Optional[tuple[dict, dict]] = None) -> tuple[Cirquent, int]:
    """Parse the longest formula prefix; also report where it stopped."""
    return _read(text, partial=True, literals=literals)


def _read(text: str, partial: bool, literals: Optional[tuple[dict, dict]] = None) -> tuple[Cirquent, int]:
    """Scan once, then build; in partial mode, stop quietly at the first alien character.

    ``literals`` is the table ``_build`` shares literals through; a fresh one when None.
    """
    if literals is None:
        literals = ({}, {})
    tokens = _SCAN.findall(text)
    scanned = len(text)
    if tokens and not _TOKEN.fullmatch(tokens[-1]):
        scanned -= len(tokens.pop())
        if not partial:
            raise ParseError(f"unexpected character {text[scanned]!r}", scanned)

    def where(i: int) -> int:  # the position of token i, for errors
        return scanned if i >= len(tokens) else next(islice(_SCAN.finditer(text), i, None)).start()

    try:
        base = max(map(int, _EXPLICIT_ID.findall(text, 0, scanned)), default=0)
    except ValueError:  # report the first ID too long to convert, with its position
        for m in _EXPLICIT_ID.finditer(text, 0, scanned):
            _number(m[1], m.start(1))
        raise
    if base + len(tokens) >= _ID_LIMIT:  # the largest may lie past the formula: leave room for fresh IDs
        base = _ID_LIMIT - 1 - len(tokens)
    lefts = _arrow_lefts(tokens) if "->" in text else set()
    c, used, top = _build(tokens, base, lefts, partial, where, literals)
    if top != base:  # the formula's largest explicit ID is another: number again from it
        c, used, top = _build(tokens[:used], top, lefts, partial, where, literals)
    stop = scanned
    for token in reversed(tokens[used:]):
        stop = text.rfind(token, 0, stop)
    return c, stop


def _build(
    tokens: list[str],
    base: int,
    lefts: set[int],
    partial: bool,
    where: Callable[[int], int],
    literals: tuple[dict, dict],
) -> tuple[Cirquent, int, int]:
    """The formula heading ``tokens``, the tokens it used, and its largest explicit ID.

    An operator waits on the stack as (binding, ID of the node it becomes):
    None for a conjunction, ~j for a "|k" at token j under negation.  "("
    waits as (0, group polarity, operand polarity); an operand's polarity
    is its group's, flipped on a left operand of "->".  The n-th
    disjunction written without an ID in the normal form gets ``base + n``,
    or a ParseError when that ID is too long to print.  Literals come from
    ``literals``, negative then positive by name, and new ones go into it.
    """
    n = len(tokens)
    tokens = tokens + [""]  # the end
    values: list[Cirquent] = []
    ops: list[tuple] = [(0, True, True)]
    group = True
    positive = 0 not in lefts
    fresh = base
    top = depth = i = 0
    negated: dict[int, int] = {}  # id() of a stand-in node -> its "|k" token index
    while True:
        sign = positive
        token = tokens[i]
        while token == "~":
            sign = not sign
            i += 1
            token = tokens[i]
        if token == "(":
            ops.append((0, group, positive))
            depth += 1
            i += 1
            group = sign
            positive = sign != (i in lefts)
            continue
        literal = literals[sign].get(token)
        if literal is None:
            if not token[:1].isalpha():
                found = f"found {token!r}" if token else "found the end of the input"
                raise ParseError(f"expected a formula, {found}", where(i))
            literal = literals[sign][token] = Literal(token, sign)
        values.append(literal)
        i += 1
        while True:  # operator state
            token = tokens[i]
            reduce_from = _REDUCE_FROM.get(token, 1)
            while ops[-1][0] >= reduce_from:
                cluster = ops.pop()[1]
                right = values.pop()
                if cluster is None:
                    values[-1] = And(values[-1], right)
                elif cluster > 0:
                    values[-1] = Or(cluster, values[-1], right)
                else:  # "|k" under negation: reported once the text has parsed
                    values[-1] = stand_in = And(values[-1], right)
                    negated[id(stand_in)] = ~cluster
            if token != ")" or not depth:
                break
            _, group, positive = ops.pop()
            depth -= 1
            i += 1
        if token == "|" and tokens[i + 1].isdecimal():
            i += 1
            cluster = int(tokens[i])  # not too long: _read converted it first
            if tokens[i] != str(cluster):
                raise ParseError("cluster IDs may not have leading zeros", where(i))
            if cluster < 1:
                raise NonpositiveClusterIdError("cluster IDs start at 1", where(i))
            top = max(top, cluster)
            ops.append((2, cluster if positive else ~(i - 1)))
        else:
            if token == "&":
                binding, bare_or = 3, not positive
            elif token == "|":
                binding, bare_or = 2, positive
            elif token == "->":
                binding, bare_or = 1, group
                positive = group != (i + 1 in lefts)
            else:
                break
            if bare_or:
                fresh += 1
                if fresh >= _ID_LIMIT:
                    message = f"no cluster ID of at most {_ID_DIGITS} digits is left for this disjunction"
                    raise ParseError(message, where(i))
            ops.append((binding, fresh if bare_or else None))
        i += 1
    if depth:
        raise ParseError("expected a closing parenthesis", where(i))
    if i < n and not partial:
        raise ParseError(f"unexpected {token!r} after the formula", where(i))
    c = values[0]
    if negated:  # report the first in pre-order, where negation normal form meets it
        todo = [c]
        while id(todo[-1]) not in negated:
            node = todo.pop()
            if not isinstance(node, Literal):
                todo += (node.right, node.left)
        message = "negation cannot apply over a disjunction with an explicit cluster ID"
        raise NegatedIndexedDisjunctionError(message, where(negated[id(todo[-1])]))
    return c, i, top


def _arrow_lefts(tokens: list[str]) -> set[int]:
    """Where the left operands of "->" start, as token indices.

    The scan follows the parser's two states and stops where the formula
    must end, so tokens past it mark nothing."""
    lefts = set()
    starts = [0]  # where the current operand of "->" began, one per open group
    after_operand = False
    for i, token in enumerate(tokens):
        if (token in _REDUCE_FROM) != after_operand or token == ")" and len(starts) == 1:
            break
        if token == "(":
            starts.append(i + 1)
        elif token == ")":
            starts.pop()
        elif token == "->":
            lefts.add(starts[-1])
            starts[-1] = i + 1
        after_operand = token == ")" or token[0].isalpha()
    return lefts


def print_cirquent(c: Cirquent, *, show_singleton_ids: bool = False) -> str:
    """Render a cirquent so that parse() maps the text back to it.

    Compound operands are always parenthesized and the root never is.
    IDs of single-member clusters are left out unless requested; the
    fresh IDs a re-parse assigns change nothing up to cluster
    isomorphism.
    """
    shown = None if show_singleton_ids else multi_member(c)
    pieces = []
    todo: list = [c]  # text, and nodes to render bare; the next one last
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            pieces.append(node)
            continue
        while not isinstance(node, Literal):  # the left operand now, the rest later
            right = node.right
            bare = isinstance(right, Literal)
            if isinstance(node, And):
                op = "&"
            elif shown is not None and node.cluster not in shown:
                op = "|"
            else:
                op = f"|{node.cluster} " if bare else f"|{node.cluster}"
            todo += (op + str(right),) if bare else (")", right, op + "(")
            node = node.left
            if not isinstance(node, Literal):
                pieces.append("(")
                todo.append(")")
        pieces.append(str(node))
    return "".join(pieces)


def parse_path(text: str) -> Path:
    """Parse a path: "." for the root, otherwise "L"/"R" steps.

    Dots between steps are tolerated, so "RL" and "R.L" both work.
    """
    if text == ".":
        return ()
    steps = tuple(ch for ch in text if ch != ".")
    if not steps or any(step not in (LEFT_STEP, RIGHT_STEP) for step in steps):
        raise ParseError(f"bad path {text!r}")
    return steps


def parse_interpretation(text: str) -> dict[str, bool]:
    """Parse "p=1,q=0" (whitespace is free) into an interpretation."""
    result: dict[str, bool] = {}
    for name, value in _assignments(text):
        if not _ATOM_NAME.fullmatch(name):
            raise ParseError(f"bad atom name {name!r}")
        if value not in ("0", "1"):
            raise ParseError(f"atom values are 0 or 1, got {value!r}")
        if name in result:
            raise DuplicateKeyError(f"atom {name} is assigned twice")
        result[name] = value == "1"
    return result


def format_interpretation(interpretation: dict[str, bool]) -> str:
    return ",".join(
        f"{name}={'1' if value else '0'}" for name, value in sorted(interpretation.items())
    )


def parse_metaselection(text: str) -> dict[int, str]:
    """Parse "1=left,2=right" into a metaselection."""
    result: dict[int, str] = {}
    for key, value in _assignments(text):
        cluster = _cluster_id(key)
        if value not in ("left", "right"):
            raise ParseError(f"sides are left or right, got {value!r}")
        if cluster in result:
            raise DuplicateKeyError(f"cluster {cluster} is assigned twice")
        result[cluster] = value
    return result


def _cluster_id(text: str) -> int:
    """The cluster ID ``text`` spells: decimal digits, no leading zero, at least 1."""
    k = _number(text) if text.isdecimal() else 0
    if text != str(k) or k < 1:
        raise ParseError(f"bad cluster ID {text!r}")
    return k


def _assignments(text: str) -> list[tuple[str, str]]:
    if not text.strip():
        return []
    pairs = []
    for part in text.split(","):
        part = part.strip()
        name, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"expected name=value, got {part!r}")
        pairs.append((name.strip(), value.strip()))
    return pairs


RULES = ("I-left", "I-right", "II-left", "II-right", "III")
_RULE_I = RULES[:2]  # the rules with an inner position
AXIOM = "axiom"


class RuleHint(_Value):
    """Partial information about a step: None leaves a field open; others are checked as in ``RuleApp``.

    An inner path is for rule I only and an axiom hint has no other field, else ValueError.
    """

    __match_args__ = ("rule", "hole_path", "k", "inner_path")

    def __init__(
        self,
        rule: Optional[str] = None,
        hole_path: Optional[Path] = None,
        k: Optional[int] = None,
        inner_path: Optional[Path] = None,
    ) -> None:
        if rule is not None and rule not in RULES + (AXIOM,):
            raise ValueError(f"unknown rule {rule!r}")
        if k is not None:
            _require_id(k)
        for path in (hole_path, inner_path):
            if path is not None and path.__class__ is not tuple:
                raise ValueError(f"paths must be tuples of steps, got {path!r}")
        if rule == AXIOM and (hole_path, k, inner_path) != (None, None, None):
            raise ValueError("an axiom hint has no path, k or inner path")
        if inner_path is not None and rule is not None and rule not in _RULE_I:
            raise ValueError(f"inner= is for rule I only, not rule {rule}")
        fields = self.__dict__
        fields["rule"], fields["hole_path"] = rule, hole_path
        fields["k"], fields["inner_path"] = k, inner_path


class ProofEntry(_Value):
    __match_args__ = ("cirquent", "hint")

    def __init__(self, cirquent: Cirquent, hint: Optional[RuleHint] = None) -> None:
        fields = self.__dict__
        fields["cirquent"], fields["hint"] = cirquent, hint


class ProofScript(_Value):
    """A proof candidate: axiom first, goal last.  The entries are kept as a tuple."""

    __match_args__ = ("entries",)

    def __init__(self, entries: Iterable[ProofEntry]) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a proof needs at least one entry")
        self.__dict__["entries"] = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ProofEntry]:
        return iter(self.entries)

    @property
    def conclusion(self) -> Cirquent:
        return self.entries[-1].cirquent


# One match per line, without its line break: those of open()'s universal
# newlines, so a file and stdin read alike.  After the last line comes one
# empty match, which, like any blank line, is skipped.
_LINE = re.compile(r"([^\r\n]*)(?:\r\n?|\n|\Z)")
_ENTRY_NUMBER = re.compile(r"(\d+)\.")
_ANNOTATION = re.compile(
    re.escape(AXIOM) + r"|rule=(?P<rule>" + "|".join(re.escape(r) for r in RULES) + r")"
    r"(?: +path=(?P<path>\S+))?(?: +k=(?P<k>\d+))?(?: +inner=(?P<inner>\S+))?"
)


def parse_proof(text: str) -> ProofScript:
    """Parse a proof file into a script of all its entries (see ``proof_entries``)."""
    return ProofScript(proof_entries(text))


def proof_entries(text: str) -> Iterator[ProofEntry]:
    """A proof file's entries, each parsed from its line as it is asked for.

    One entry per line: the entry number, a dot, the cirquent, and an
    optional annotation.  Entry 1 may be annotated "axiom"; later
    entries may carry "rule=NAME" with optional "path=", "k=" and (for
    rule I only) "inner=" fields, in that order.  Entries must be
    numbered 1, 2, 3, ... in order.  Blank lines and lines starting with "#" are skipped.
    A line ends only at "\\n", "\\r\\n" or a lone "\\r"; other control
    characters, such as a form feed, stay inside the line.  The file
    must be 7-bit ASCII throughout, skipped lines included.  A file
    without entries is a ParseError once the last line is read.
    """
    literals: tuple[dict, dict] = ({}, {})  # one table for every line: literals are immutable
    number = 0  # of the last entry
    for lineno, match in enumerate(_LINE.finditer(text), start=1):
        line = match[1]
        if not line.isascii():  # before anything is skipped
            raise ParseError("proof files are 7-bit ASCII", line=lineno)
        indent = len(line) - len(line.lstrip())
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTRY_NUMBER.match(line)
        if m is None:
            raise ParseError("an entry starts with its number and a dot", line=lineno)
        found = _number(m.group(1), line=lineno)
        if m.group(1) != str(found):
            raise ParseError("entry numbers may not have leading zeros", line=lineno)
        number += 1
        if found != number:
            raise ParseError(f"expected entry {number}, found {found}", line=lineno)
        rest = line[m.end():]
        try:
            cirquent, stop = _parse_prefix(rest, literals)
            hint = _parse_annotation(rest[stop:].strip(), number)
        except ParseError as e:  # a column counts from the start of the physical line
            column = None if e.position is None else indent + m.end() + e.position
            raise ParseError(e.message, column, line=lineno) from None
        yield ProofEntry(cirquent, hint)
    if not number:
        raise ParseError("the proof has no entries")


def _parse_annotation(text: str, number: int) -> Optional[RuleHint]:
    """The hint an entry's annotation gives."""
    if not text:
        return None
    m = _ANNOTATION.fullmatch(text)
    if m is None:
        raise ParseError(f"bad annotation {text!r}")
    rule, path, k, inner = m.group("rule", "path", "k", "inner")
    if rule is None:
        if number != 1:
            raise ParseError("only the first entry can be marked axiom")
        return RuleHint(rule=AXIOM)
    if number == 1:
        raise ParseError("the first entry is an axiom, not a rule application")
    fields = path and parse_path(path), k and _cluster_id(k), inner and parse_path(inner)
    try:
        return RuleHint(rule, *fields)
    except ValueError as e:  # inner= on rule II or III
        raise ParseError(str(e)) from None


def print_proof(script: ProofScript) -> str:
    """Render a proof script; parse_proof() maps the text back to it.

    A hint no annotation of its entry can give is a ValueError naming the
    entry: fields without a rule, a rule on entry 1, an axiom after it, or
    a path step other than "L" and "R".
    """
    return "".join(_proof_lines(script))


def _proof_lines(script: ProofScript) -> Iterator[str]:
    """``print_proof``'s text one numbered line at a time, each with its newline."""
    for number, entry in enumerate(script.entries, start=1):
        cirquent = print_cirquent(entry.cirquent)
        annotation = _format_hint(entry.hint, number)
        yield f"{number}. {cirquent} {annotation}\n" if annotation else f"{number}. {cirquent}\n"


def _format_hint(hint: Optional[RuleHint], number: int) -> str:
    """Entry ``number``'s annotation, or ``print_proof``'s ValueError."""
    if hint is None or hint.rule is None and hint == RuleHint():
        return ""
    steps = set((hint.hole_path or ()) + (hint.inner_path or ()))
    if hint.rule is None or (hint.rule == AXIOM) != (number == 1) or not steps <= {LEFT_STEP, RIGHT_STEP}:
        raise ValueError(f"entry {number}: no annotation there gives {hint!r}")
    if hint.rule == AXIOM:
        return AXIOM
    parts = [f"rule={hint.rule}"]
    if hint.hole_path is not None:
        parts.append(f"path={format_path(hint.hole_path)}")
    if hint.k is not None:
        parts.append(f"k={hint.k}")
    if hint.inner_path is not None:
        parts.append(f"inner={format_path(hint.inner_path)}")
    return " ".join(parts)
