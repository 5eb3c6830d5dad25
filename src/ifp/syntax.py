"""Concrete syntax: formulas, proof files, interpretations, paths.

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

The printer parenthesizes every compound operand, leaves the root bare,
and omits the IDs of single-member clusters (unless asked not to): any
reassignment of those IDs on re-parse leaves the cirquent the same up to
cluster isomorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Optional

from .calculus import AXIOM, ProofEntry, ProofScript, RULES, RuleHint
from .core import (
    And,
    Cirquent,
    LEFT_STEP,
    Literal,
    Or,
    Path,
    RIGHT_STEP,
    singleton_clusters,
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


_TOKEN = re.compile(
    r"\s+|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<sym>->|[()&|~])"
)
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "num" | "sym" | "end"
    text: str
    position: int


def _tokenize(text: str, partial: bool) -> tuple[list[_Token], int]:
    """Scan tokens; in partial mode, stop quietly at the first alien character."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if partial:
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(_Token("end", "", pos))
    return tokens, pos


class _Parser:
    """Recursive descent over the token list, building a raw tree.

    Raw nodes are tuples: ("lit", name), ("not", sub, pos),
    ("and", left, right), ("or", id_or_None, left, right, pos), and
    ("imp", left, right, pos).
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.max_id = 0  # the largest explicit cluster ID read so far

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_symbol(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text == text

    def impl(self):
        left = self.or_()
        if self.at_symbol("->"):
            arrow = self.take()
            return ("imp", left, self.impl(), arrow.position)
        return left

    def or_(self):
        node = self.and_()
        while self.at_symbol("|"):
            bar = self.take()
            cluster = None
            if self.peek().kind == "num":
                cluster = self.cluster_id(self.take())
            node = ("or", cluster, node, self.and_(), bar.position)
        return node

    def and_(self):
        node = self.unary()
        while self.at_symbol("&"):
            self.take()
            node = ("and", node, self.unary())
        return node

    def unary(self):
        token = self.peek()
        if token.kind == "sym" and token.text == "~":
            self.take()
            return ("not", self.unary(), token.position)
        if token.kind == "name":
            self.take()
            return ("lit", token.text)
        if token.kind == "sym" and token.text == "(":
            self.take()
            node = self.impl()
            if not self.at_symbol(")"):
                bad = self.peek()
                raise ParseError("expected a closing parenthesis", bad.position)
            self.take()
            return node
        raise ParseError(
            f"expected a formula, found {token.text!r}" if token.text
            else "expected a formula, found the end of the input",
            token.position,
        )

    def cluster_id(self, token: _Token) -> int:
        value = int(token.text)
        if token.text != str(value):
            raise ParseError("cluster IDs may not have leading zeros", token.position)
        if value < 1:
            raise NonpositiveClusterIdError("cluster IDs start at 1", token.position)
        self.max_id = max(self.max_id, value)
        return value


def parse(text: str) -> Cirquent:
    """Parse one formula into a cirquent."""
    tokens, _ = _tokenize(text, partial=False)
    parser = _Parser(tokens)
    raw = parser.impl()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r} after the formula", trailing.position)
    return _finish(raw, parser.max_id)


def _parse_prefix(text: str) -> tuple[Cirquent, int]:
    """Parse the longest formula prefix; also report where it stopped."""
    tokens, scanned = _tokenize(text, partial=True)
    parser = _Parser(tokens)
    raw = parser.impl()
    trailing = parser.peek()
    stop = scanned if trailing.kind == "end" else trailing.position
    return _finish(raw, parser.max_id), stop


def _finish(raw, max_id: int) -> Cirquent:
    return _assign_ids(_nnf(raw, True), count(max_id + 1))


def _nnf(node, positive: bool):
    tag = node[0]
    if tag == "lit":
        return ("lit", node[1], positive)
    if tag == "not":
        return _nnf(node[1], not positive)
    if tag == "and":
        _, left, right = node
        if positive:
            return ("and", _nnf(left, True), _nnf(right, True))
        return ("or", None, _nnf(left, False), _nnf(right, False))
    if tag == "or":
        _, cluster, left, right, position = node
        if positive:
            return ("or", cluster, _nnf(left, True), _nnf(right, True))
        if cluster is not None:
            raise NegatedIndexedDisjunctionError(
                "negation cannot apply over a disjunction with an explicit cluster ID",
                position,
            )
        return ("and", _nnf(left, False), _nnf(right, False))
    _, left, right, _position = node  # "imp"
    if positive:
        return ("or", None, _nnf(left, False), _nnf(right, True))
    return ("and", _nnf(left, True), _nnf(right, False))


def _assign_ids(shaped, counter) -> Cirquent:
    if shaped[0] == "lit":
        return Literal(shaped[1], shaped[2])
    if shaped[0] == "and":
        return And(_assign_ids(shaped[1], counter), _assign_ids(shaped[2], counter))
    _, cluster, left, right = shaped
    built_left = _assign_ids(left, counter)
    if cluster is None:
        cluster = next(counter)
    return Or(cluster, built_left, _assign_ids(right, counter))


def print_cirquent(c: Cirquent, *, show_singleton_ids: bool = False) -> str:
    """Render a cirquent so that parse() maps the text back to it.

    Compound operands are always parenthesized and the root never is.
    IDs of single-member clusters are left out unless requested; the
    fresh IDs a re-parse assigns change nothing up to cluster
    isomorphism.
    """
    singles = singleton_clusters(c)

    def operand(node: Cirquent) -> str:
        if isinstance(node, Literal):
            return render(node)
        return "(" + render(node) + ")"

    def render(node: Cirquent) -> str:
        if isinstance(node, Literal):
            return node.atom if node.positive else "~" + node.atom
        if isinstance(node, And):
            return operand(node.left) + "&" + operand(node.right)
        right = operand(node.right)
        if node.cluster in singles and not show_singleton_ids:
            return operand(node.left) + "|" + right
        separator = "" if right.startswith("(") else " "
        return operand(node.left) + "|" + str(node.cluster) + separator + right

    return render(c)


def format_path(path: Path) -> str:
    """Render a path; the empty path is a single dot."""
    return "".join(path) or "."


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
        if not _NAME.fullmatch(name):
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
        if not key.isdigit() or key != str(int(key)) or int(key) < 1:
            raise ParseError(f"bad cluster ID {key!r}")
        if value not in ("left", "right"):
            raise ParseError(f"sides are left or right, got {value!r}")
        cluster = int(key)
        if cluster in result:
            raise DuplicateKeyError(f"cluster {cluster} is assigned twice")
        result[cluster] = value
    return result


def format_metaselection(metaselection: dict[int, str]) -> str:
    return ",".join(f"{k}={side}" for k, side in sorted(metaselection.items()))


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


_ENTRY_NUMBER = re.compile(r"(\d+)\.")
_ANNOTATION = re.compile(
    r"axiom|rule=(?P<rule>" + "|".join(re.escape(r) for r in RULES) + r")"
    r"(?: +path=(?P<path>\S+))?(?: +k=(?P<k>\d+))?(?: +inner=(?P<inner>\S+))?"
)


def parse_proof(text: str) -> ProofScript:
    """Parse a proof file.

    One entry per line: the entry number, a dot, the cirquent, and an
    optional annotation.  Entry 1 may be annotated "axiom"; later
    entries may carry "rule=NAME" with optional "path=", "k=" and
    "inner=" fields, in that order.  Entries must be numbered 1, 2, 3,
    ... in order.  Blank lines and lines starting with "#" are skipped,
    and the file must be 7-bit ASCII.
    """
    entries: list[ProofEntry] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.isascii():
            raise ParseError("proof files are 7-bit ASCII", line=lineno)
        m = _ENTRY_NUMBER.match(line)
        if m is None:
            raise ParseError("an entry starts with its number and a dot", line=lineno)
        if m.group(1) != str(int(m.group(1))):
            raise ParseError("entry numbers may not have leading zeros", line=lineno)
        number = int(m.group(1))
        if number != len(entries) + 1:
            raise ParseError(
                f"expected entry {len(entries) + 1}, found {number}", line=lineno
            )
        rest = line[m.end():]
        try:
            cirquent, stop = _parse_prefix(rest)
            hint = _parse_annotation(rest[stop:].strip(), number)
        except ParseError as e:
            raise ParseError(e.message, e.position, line=lineno) from None
        entries.append(ProofEntry(cirquent, hint))
    if not entries:
        raise ParseError("the proof has no entries")
    return ProofScript(tuple(entries))


def _parse_annotation(text: str, number: int) -> Optional[RuleHint]:
    if not text:
        return None
    m = _ANNOTATION.fullmatch(text)
    if m is None:
        raise ParseError(f"bad annotation {text!r}")
    if m.group("rule") is None:
        if number != 1:
            raise ParseError("only the first entry can be marked axiom")
        return RuleHint(rule=AXIOM)
    if number == 1:
        raise ParseError("the first entry is an axiom, not a rule application")
    k = None
    if m.group("k") is not None:
        if m.group("k") != str(int(m.group("k"))) or int(m.group("k")) < 1:
            raise ParseError(f"bad cluster ID {m.group('k')!r}")
        k = int(m.group("k"))
    return RuleHint(
        rule=m.group("rule"),
        hole_path=parse_path(m.group("path")) if m.group("path") else None,
        k=k,
        inner_path=parse_path(m.group("inner")) if m.group("inner") else None,
    )


def print_proof(script: ProofScript) -> str:
    """Render a proof script; parse_proof() maps the text back to it."""
    lines = []
    for number, entry in enumerate(script.entries, start=1):
        line = f"{number}. {print_cirquent(entry.cirquent)}"
        annotation = _format_hint(entry.hint)
        if annotation:
            line += " " + annotation
        lines.append(line)
    return "\n".join(lines) + "\n"


def _format_hint(hint: Optional[RuleHint]) -> str:
    if hint is None or hint.rule is None:
        return ""
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
