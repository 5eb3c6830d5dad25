"""Tests for parsing, printing, and the textual value formats."""

import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import E1_TEXT, GOAL_TEXT
from helpers import cirquents, parse_prefix_reference, parse_reference, valid_cirquents
import ifp
from ifp import (
    And,
    Invalid,
    Literal,
    Or,
    ParseError,
    ProofEntry,
    ProofScript,
    canonicalize_ids,
    cluster_map,
    clusters,
    decide,
    parse,
    parse_proof,
    print_cirquent,
    print_proof,
    prove,
    syntax,
    valid,
)
from ifp.core import format_path, walk
from ifp.syntax import (
    AXIOM,
    RULES,
    DuplicateKeyError,
    NegatedIndexedDisjunctionError,
    NonpositiveClusterIdError,
    RuleHint,
    format_interpretation,
    parse_interpretation,
    parse_metaselection,
    parse_path,
)

P = Literal("p")
Q = Literal("q")
NOT_P = Literal("p", positive=False)
NOT_Q = Literal("q", positive=False)


class TestParse:
    def test_literal(self):
        assert parse("p") == P
        assert parse("~p") == NOT_P

    def test_explicit_cluster_ids(self):
        assert parse("p|3 q") == Or(3, P, Q)
        assert parse("p |3 q") == Or(3, P, Q)

    def test_bare_disjunctions_get_fresh_ids_in_order(self):
        c = parse("(p|q)|(r|3 s)")
        assert c == Or(
            5, Or(4, P, Q), Or(3, Literal("r"), Literal("s"))
        )

    def test_and_binds_tighter_than_or(self):
        assert parse("p&q|1 r") == Or(1, And(P, Q), Literal("r"))

    def test_and_and_or_associate_left(self):
        assert parse("p&q&r") == And(And(P, Q), Literal("r"))
        assert parse("p|1 q|2 r") == Or(2, Or(1, P, Q), Literal("r"))

    def test_negation_binds_tightest(self):
        assert parse("~p&q") == And(NOT_P, Q)

    def test_implication_is_right_associative_sugar(self):
        assert parse("p->q") == parse("~p|q")
        assert parse("p->q->r") == parse("~p|(~q|r)")

    def test_double_negation_cancels(self):
        assert parse("~~p") == P

    def test_negated_conjunction_becomes_a_bare_disjunction(self):
        assert parse("~(p&q)") == parse("~p|~q")

    def test_negated_bare_disjunction_becomes_a_conjunction(self):
        assert parse("~(p|q)") == And(NOT_P, NOT_Q)

    def test_negated_implication(self):
        assert parse("~(p->q)") == And(P, NOT_Q)

    def test_whitespace_is_free(self):
        assert parse("  p |1\tq ") == Or(1, P, Q)

    def test_fixture_texts_round_trip(self, goal, e1):
        assert parse(GOAL_TEXT) == goal
        assert parse(E1_TEXT) == e1


class TestParseErrors:
    def test_negation_over_an_indexed_disjunction(self):
        with pytest.raises(NegatedIndexedDisjunctionError):
            parse("~(p|1 q)")

    def test_negation_over_a_nested_indexed_disjunction(self):
        with pytest.raises(NegatedIndexedDisjunctionError):
            parse("~((p|1 q)&r)")

    def test_cluster_id_zero(self):
        with pytest.raises(NonpositiveClusterIdError):
            parse("p|0 q")

    def test_leading_zero_cluster_id(self):
        with pytest.raises(ParseError):
            parse("p|01 q")

    @pytest.mark.parametrize(
        "text",
        ["", "p q", "(p", "p)", "p|", "p&", "->p", "p->", "p?q", "1", "p|1"],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_errors_carry_the_offset(self):
        with pytest.raises(ParseError) as info:
            parse("p?q")
        assert info.value.position == 1

    def test_an_id_too_long_to_convert_is_reported_where_it_starts(self):
        big = "1" * 5000
        with pytest.raises(ParseError) as info:
            parse(f"(p|2 q)&(r|{big} s)")
        assert info.value.position == 11
        assert info.value.message == "a number of 5000 digits is too long"

    def test_no_fresh_id_past_the_largest_is_reported_at_its_disjunction(self):
        largest = "9" * 4300  # the largest ID that prints; the bare "|" would need one more
        text = f"(p|{largest} q)|r"
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == text.rindex("|")
        assert info.value.message == "no cluster ID of at most 4300 digits is left for this disjunction"
        assert parse(f"(p|{largest} q)|1 r").left.cluster == 10**4300 - 1
        # An ID past the formula leaves its fresh IDs alone.
        with pytest.raises(ParseError, match="unexpected 'x' after the formula"):
            parse(f"(p|q) x|{largest} y")
        with pytest.raises(ParseError, match="bad annotation 'x"):
            parse_proof(f"1. (p|q) x|{largest} y\n")


def _formulas():
    """Well-formed text: every operator, with and without IDs, spaces and groups."""
    atoms = st.sampled_from(["p", "q", "~p", "r1", "s_2"])
    operators = st.sampled_from(["&", "|", "->", "|1", "|2 ", "| 3", " & ", " -> "])
    return st.recursive(
        atoms,
        lambda inner: st.tuples(
            st.sampled_from(["{}", "({})", "~({})"]), inner, operators, inner
        ).map(lambda t: t[0].format(t[1] + t[2] + t[3])),
        max_leaves=10,
    )


def _spliced(parts):
    text, piece, at = parts
    return text[:at] + piece + text[at:]


_TEXTS = st.one_of(
    _formulas(),
    # Negated as a whole: every "|k" inside is an error, the first in pre-order reported.
    _formulas().map(lambda t: f"~({t})"),
    # Two formulas side by side: a prefix ends where the second begins.
    st.tuples(_formulas(), st.sampled_from(["", " ", " = "]), _formulas()).map("".join),
    # A formula with something out of place.
    st.tuples(
        _formulas(), st.sampled_from(["", ")", "(", "3", "|0", "|01", "?", "-", "~"]), st.integers(0, 60)
    ).map(_spliced),
    # Tokens, whitespace, a non-ASCII digit and letter, and characters no token starts with.
    st.text(alphabet="pq1_~()&|->= 0\t\u0663\u00e9?", max_size=24),
)


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as e:
        return type(e), e.message, e.position


class TestOnePassParser:
    """The one-pass parser agrees with the recursive-descent reference on any text."""

    @settings(max_examples=400)
    @given(_TEXTS)
    def test_parse_matches_the_reference(self, text):
        assert _outcome(parse, text) == _outcome(parse_reference, text)

    @settings(max_examples=400)
    @given(_TEXTS)
    def test_prefix_matches_the_reference(self, text):
        assert _outcome(syntax._parse_prefix, text) == _outcome(parse_prefix_reference, text)

    @given(valid_cirquents())
    def test_parse_proof_matches_the_reference(self, goal):
        text = print_proof(prove(goal))
        with mock.patch.object(syntax, "_parse_prefix", parse_prefix_reference):
            expected = parse_proof(text)
        assert parse_proof(text) == expected

    @pytest.mark.parametrize(
        "text, error, position",
        [
            ("(p q?", "unexpected character '?'", 4),  # before the syntax error at q
            ("~((p|1 q)|2 r)", "negation cannot apply over a disjunction with an explicit cluster ID", 9),
            ("(p|1 q)->(r|2 s)->~(t|3 u)", "negation cannot apply over a disjunction with an explicit cluster ID", 2),
            ("~(p|1 q) ?", "unexpected character '?'", 9),
            ("~(p|1 q) r", "unexpected 'r' after the formula", 9),
        ],
        ids=["alien-first", "pre-order", "arrow-operands", "alien-last", "trailing"],
    )
    def test_which_error_comes_first(self, text, error, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.message, info.value.position) == (error, position)

    def test_where_a_prefix_stops(self):
        assert syntax._parse_prefix("p|q rule=III |9 r") == (Or(1, P, Q), 4)
        assert syntax._parse_prefix("p -> q = r -> s") == (Or(1, NOT_P, Q), 7)
        assert syntax._parse_prefix("p|q r|9 s") == (Or(1, P, Q), 4)
        assert syntax._parse_prefix("p|q p") == (Or(1, P, Q), 4)
        assert syntax._parse_prefix("p -> q r -> s") == (Or(1, NOT_P, Q), 7)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(" * 100_000 + "p" + ")" * 100_000, "p"),
            ("&".join(["p"] * 100_000), "(" * 99_998 + "p&p" + ")&p" * 99_998),
        ],
        ids=["parens", "conjuncts"],
    )
    def test_deep_input_needs_no_recursion(self, text, printed):
        c = parse(text)
        assert print_cirquent(c) == printed
        assert not valid(c)
        decision = decide(c)
        assert isinstance(decision, Invalid) and decision.countermodel == {"p": False}


class TestPrint:
    def test_root_is_bare_and_operands_are_parenthesized(self):
        assert print_cirquent(parse("p|~p")) == "p|~p"
        assert print_cirquent(parse("(p&q)|(r&s)")) == "(p&q)|(r&s)"

    def test_singleton_ids_are_omitted_by_default(self):
        assert print_cirquent(parse("p|5 q")) == "p|q"

    def test_singleton_ids_on_request(self):
        c = parse("p|5 q")
        assert print_cirquent(c, show_singleton_ids=True) == "p|5 q"
        assert c.summary is None  # printing every ID asks no cluster query

    def test_multi_member_ids_always_show(self, goal):
        assert print_cirquent(goal) == GOAL_TEXT

    def test_id_is_followed_by_a_space_only_before_a_bare_operand(self, e1):
        text = print_cirquent(e1, show_singleton_ids=True)
        assert text == E1_TEXT
        assert "|2(" in text
        assert "|3 r" in text

    def test_default_print_drops_only_the_singleton_root_id(self, e1):
        assert print_cirquent(e1) == "((p|1 ~p)&(p|1 ~p))|((q|3 r)&(p|3 ~q))"

    @given(cirquents())
    def test_round_trip_is_cluster_isomorphic(self, c):
        assert cluster_map(parse(print_cirquent(c)), c) is not None
        reparsed = parse(print_cirquent(c, show_singleton_ids=True))
        assert reparsed == c

    @given(cirquents())
    def test_canonical_printing_is_one_string_per_iso_class(self, c):
        canonical = canonicalize_ids(c)
        again = canonicalize_ids(parse(print_cirquent(c)))
        assert print_cirquent(again) == print_cirquent(canonical)


class TestValueFormats:
    def test_paths(self):
        assert parse_path(".") == ()
        assert parse_path("LRL") == ("L", "R", "L")
        assert parse_path("R.L") == ("R", "L")
        assert format_path(()) == "."
        assert format_path(("L", "R")) == "LR"

    @pytest.mark.parametrize("text", ["", "x", "Lx", ".."])
    def test_bad_paths(self, text):
        with pytest.raises(ParseError):
            parse_path(text)

    def test_interpretations(self):
        assert parse_interpretation("p=1,q=0") == {"p": True, "q": False}
        assert parse_interpretation(" q = 0 , p = 1 ") == {"p": True, "q": False}
        assert parse_interpretation("") == {}
        assert format_interpretation({"q": False, "p": True}) == "p=1,q=0"

    def test_interpretation_values_are_bits(self):
        with pytest.raises(ParseError):
            parse_interpretation("p=2")

    def test_interpretation_atom_names_follow_the_grammar(self):
        with pytest.raises(ParseError, match="bad atom name '1p'"):
            parse_interpretation("1p=1")

    def test_interpretation_duplicate_atom(self):
        with pytest.raises(DuplicateKeyError):
            parse_interpretation("p=1,p=1")

    def test_metaselections(self):
        assert parse_metaselection("1=left,2=right") == {1: "left", 2: "right"}

    @pytest.mark.parametrize("text", ["0=left", "1=up", "x=left", "1 left"])
    def test_bad_metaselections(self, text):
        with pytest.raises(ParseError):
            parse_metaselection(text)

    def test_a_superscript_digit_is_no_cluster_id(self):
        with pytest.raises(ParseError, match="bad cluster ID"):
            parse_metaselection("\u00b2=left")

    def test_metaselection_duplicate_cluster(self):
        with pytest.raises(DuplicateKeyError):
            parse_metaselection("1=left,1=right")


class TestProofFiles:
    def test_worked_proof_parses(self, worked_proof_text):
        script = parse_proof(worked_proof_text)
        assert len(script) == 6
        assert [entry.hint.rule for entry in script] == [
            AXIOM, "III", "II-left", "II-right", "I-right", "I-left",
        ]
        assert script.entries[1].hint.hole_path == ()
        assert script.entries[1].hint.k == 2
        assert script.entries[4].hint.inner_path == ("R",)
        assert script.conclusion == parse(GOAL_TEXT)

    def test_comments_and_blank_lines_are_skipped(self):
        script = parse_proof("# header\n\n1. p|~p\n")
        assert len(script) == 1
        assert script.entries[0].hint is None

    def test_annotations_are_optional(self):
        script = parse_proof("1. p|~p\n2. p|1(q|1 ~p)\n")
        assert script.entries[0].hint is None
        assert script.entries[1].hint is None

    def test_entry_numbers_must_be_sequential(self):
        with pytest.raises(ParseError) as info:
            parse_proof("1. p|~p\n3. p|~p\n")
        assert info.value.line == 2

    def test_entry_numbers_reject_leading_zeros(self):
        with pytest.raises(ParseError):
            parse_proof("01. p|~p\n")

    def test_axiom_annotation_only_on_the_first_entry(self):
        with pytest.raises(ParseError):
            parse_proof("1. p|~p\n2. p|~p axiom\n")

    def test_rule_annotation_not_on_the_first_entry(self):
        with pytest.raises(ParseError):
            parse_proof("1. p|~p rule=III path=. k=1\n")

    def test_non_ascii_is_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("1. p|~p # axiöm\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1. p|~p axiom\u20282. (p|~p)|q\n", 1),  # a Unicode line separator
            ("1. p|~p axiom\n2. (p|~p)|q\u0085", 2),  # a C1 next-line control
            ("# caf\u00e9\n1. p|~p\n", 1),  # in a comment
            ("1. p|~p\n\u00a0\n", 2),  # a line holding only a no-break space
            ("1. p|~p\n\n\u3000\n", 3),  # an ideographic space
        ],
    )
    def test_non_ascii_is_rejected_before_lines_are_split_or_skipped(self, text, line):
        with pytest.raises(ParseError, match="ASCII") as info:
            parse_proof(text)
        assert info.value.line == line

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_ascii_line_breaks_read_as_before(self, newline):
        text = newline.join(["# proof", "", "1. p|~p axiom", "2. (p|~p)|q", ""])
        script = parse_proof(text)
        assert [entry.cirquent for entry in script] == [parse("p|~p"), parse("(p|~p)|q")]

    @pytest.mark.parametrize("control", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
    def test_other_ascii_controls_do_not_end_an_entry(self, control):
        with pytest.raises(ParseError) as info:
            parse_proof(f"1. p|~p axiom{control}2. (p|~p)|q\n")
        assert info.value.line == 1

    def test_a_lone_carriage_return_ends_an_entry(self):
        script = parse_proof("# proof\r\r1. p|~p axiom\r2. (p|~p)|q\r")
        assert [entry.cirquent for entry in script] == [parse("p|~p"), parse("(p|~p)|q")]
        with pytest.raises(ParseError) as info:
            parse_proof("1. p|~p\r\n\r2. p|0 q")
        assert info.value.line == 3

    def test_bad_annotation_is_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("1. p|~p lemma\n")

    @pytest.mark.parametrize("k", ["0", "01"])
    def test_annotation_cluster_ids_start_at_one_without_a_leading_zero(self, k):
        with pytest.raises(ParseError, match=f"bad cluster ID '{k}' on line 2") as info:
            parse_proof(f"1. p|~p axiom\n2. (p|~p)|q rule=I-left path=. k={k}\n")
        assert info.value.line == 2

    def test_annotation_fields_have_a_fixed_order(self):
        with pytest.raises(ParseError):
            parse_proof("1. p|~p\n2. p|1(q|1 ~p) rule=I-right k=1 path=.\n")

    @pytest.mark.parametrize("rule", ["II-left", "II-right", "III"])
    def test_inner_path_is_for_rule_one_only(self, rule, worked_proof_text):
        lines = worked_proof_text.splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if f" rule={rule} " in line)
        lines[lineno - 1] += " inner=LLLL"
        with pytest.raises(ParseError, match=f"inner= is for rule I only, not rule {rule} on line") as info:
            parse_proof("\n".join(lines))
        assert info.value.line == lineno

    def test_formula_errors_carry_the_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_proof("1. p|~p\n2. p|0 q\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "line, column",
        [
            ("  1.  p&(q", 11),  # one past the line's end, indent and spaces included
            ("1. p&&q", 6),  # the second "&"
            ("\t1.\tp|0 q", 7),  # the "0"
        ],
    )
    def test_formula_error_columns_count_from_the_start_of_the_line(self, line, column):
        with pytest.raises(ParseError, match=f"on line 2 at column {column}$") as info:
            parse_proof(f"# proof\n{line}\n")
        assert info.value.position == column - 1

    def test_empty_proof_is_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("# nothing here\n")

    def test_entries_share_one_literal_table(self, worked_proof_text):
        script = parse_proof(worked_proof_text)
        first, second = (
            {id(node) for _, node in walk(entry.cirquent) if node == Literal("p")} for entry in script.entries[:2]
        )
        assert len(first) == 1
        assert first == second

    def test_print_proof_round_trips(self, worked_proof_text):
        script = parse_proof(worked_proof_text)
        printed = print_proof(script)
        assert parse_proof(printed) == script
        assert printed.endswith("\n")

    def test_print_proof_formats_hints(self):
        script = ProofScript(
            (
                ProofEntry(parse("p|~p"), RuleHint(rule=AXIOM)),
                ProofEntry(
                    parse("p|1(q|1 ~p)"),
                    RuleHint(rule="I-right", hole_path=(), k=1, inner_path=("R",)),
                ),
            )
        )
        assert print_proof(script) == (
            "1. p|~p axiom\n2. p|1(q|1 ~p) rule=I-right path=. k=1 inner=R\n"
        )

    @pytest.mark.parametrize(
        "number, hint",
        [
            (2, RuleHint(hole_path=(), k=1)),  # was printed bare: no hint reads back
            (1, RuleHint("I-left", (), 1, ())),  # "rule=I-left path=. k=1 inner=.", refused on entry 1
            (2, RuleHint(rule=AXIOM)),  # "axiom", refused after entry 1
            (2, RuleHint("I-left", ("LR",), 1)),  # "path=LR", which reads back as ("L", "R")
        ],
        ids=["fields-without-a-rule", "rule-on-entry-1", "axiom-on-entry-2", "step-LR"],
    )
    def test_print_proof_refuses_a_hint_no_annotation_there_gives(self, number, hint):
        entries = [ProofEntry(parse("p|~p")), ProofEntry(parse("(p|~p)|q"))]
        entries[number - 1] = ProofEntry(entries[number - 1].cirquent, hint)
        with pytest.raises(ValueError, match=f"^entry {number}: no annotation there gives "):
            print_proof(ProofScript(entries))

    @settings(max_examples=300)
    @given(
        st.sampled_from((None, AXIOM) + RULES),
        st.none() | st.lists(st.sampled_from(("L", "R", "LR", "")), max_size=3).map(tuple),
        st.none() | st.integers(1, 10**6),
        st.none() | st.lists(st.sampled_from(("L", "R", "LR", "")), max_size=3).map(tuple),
        st.sampled_from((1, 2)),
    )
    def test_a_hint_is_refused_or_printed_as_text_that_reads_back(self, rule, hole_path, k, inner_path, number):
        try:
            hint = RuleHint(rule, hole_path, k, inner_path)
        except ValueError:
            return
        entries = [ProofEntry(parse("p|~p")), ProofEntry(parse("(p|~p)|q"))]
        entries[number - 1] = ProofEntry(entries[number - 1].cirquent, hint)
        try:
            text = print_proof(ProofScript(entries))
        except ValueError:
            return
        back = parse_proof(text)
        # A hint that leaves every field open says what no hint says, and prints as none.
        assert [entry.hint for entry in back] == [None if e.hint == RuleHint() else e.hint for e in entries]
        assert print_proof(back) == text

    def test_printed_proofs_omit_singleton_ids(self):
        script = ProofScript((ProofEntry(parse("p|7 q"), None),))
        assert print_proof(script) == "1. p|q\n"

    def test_a_script_keeps_any_iterable_of_entries_as_a_tuple(self):
        entries = (ProofEntry(parse("p|~p"), RuleHint(rule=AXIOM)), ProofEntry(parse("(p|~p)|q")))
        script = ProofScript(entries)
        for given_entries in (list(entries), (entry for entry in entries)):
            built = ProofScript(given_entries)
            assert type(built.entries) is tuple
            assert built == script and hash(built) == hash(script)

    def test_entries_are_read_one_line_at_a_time(self):
        # Each entry comes out before a later line is read, so a syntax error waits its turn.
        stream = syntax.proof_entries("1. p|~p axiom\n2. (p|~p)|q\n3. p&&q\n")
        assert next(stream) == ProofEntry(parse("p|~p"), RuleHint(rule=AXIOM))
        assert next(stream) == ProofEntry(parse("(p|~p)|q"))
        with pytest.raises(ParseError, match="on line 3 at column 6$"):
            next(stream)

    def test_reading_a_proof_loads_only_the_syntax(self):
        src = str(pathlib.Path(ifp.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, ifp.syntax\n"
            "ifp.syntax.parse_proof('1. p|~p axiom\\n2. (p|~p)|q rule=I-left path=. k=1 inner=.\\n')\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ifp'))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout.split()) == (0, ["ifp", "ifp.core", "ifp.syntax"])
