"""Tests for evaluation: metatruth, validity, and the classical special case."""

import random
import re
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import ifp.semantics
from helpers import (
    OperandReads,
    TruthTable,
    atoms,
    cirquents,
    classical_countermodel_reference,
    classical_tautology_reference,
    compile_classical,
    countermodel_reference,
    deep_chain,
    dnf_reference,
    ensure_within_bounds,
    eval_classical_reference,
    interpretations,
    metaselections,
    metatrue_reference,
    rand_classical,
    true_under_reference,
    truth_table,
    truth_table_reference,
    valid_reference,
    visits_once,
)
from ifp import (
    And,
    Literal,
    Or,
    TooLargeError,
    clusters,
    countermodel,
    metatrue,
    parse,
    true_under,
    valid,
)
from ifp.calculus import is_axiom
from ifp.core import node_count
from ifp.semantics import MissingAtomError, MissingClusterError, dnf_text

P = Literal("p")
Q = Literal("q")


class TestMetatrue:
    def test_one_choice_per_cluster(self, x_pair):
        # Both disjunctions sit in cluster 1, so one side serves both.
        assert metatrue(x_pair, {"p": True, "q": False}, {1: "left"}) is False
        assert metatrue(x_pair, {"p": True, "q": False}, {1: "right"}) is False

    def test_independent_clusters_choose_separately(self):
        c = parse("(p|1 q)&(~p|2 ~q)")
        assert metatrue(c, {"p": True, "q": False}, {1: "left", 2: "right"})

    def test_extra_keys_are_ignored(self):
        assert metatrue(P, {"p": True, "q": False}, {9: "left"})

    def test_a_side_is_left_or_right(self):
        # "up" counted as "right" before, so this was True.
        with pytest.raises(ValueError, match="cluster 1's side must be 'left' or 'right', got 'up'"):
            metatrue(parse("p|1 q"), {"p": False, "q": True}, {1: "up"})
        assert metatrue(parse("p|1 q"), {"p": False, "q": True}, {1: "right", 2: "up"})

    def test_missing_atom(self):
        with pytest.raises(MissingAtomError):
            metatrue(And(P, Q), {"p": True}, {})

    def test_missing_cluster(self):
        with pytest.raises(MissingClusterError):
            metatrue(Or(1, P, Q), {"p": True, "q": True}, {2: "left"})

    def test_enumeration_is_lexicographic(self):
        assert list(interpretations(["q", "p"]))[:2] == [
            {"p": False, "q": False},
            {"p": False, "q": True},
        ]
        assert list(metaselections([2, 1]))[:2] == [
            {1: "left", 2: "left"},
            {1: "left", 2: "right"},
        ]

    def test_true_under_and_witness(self, e4):
        i = {"p": False, "q": True, "r": True, "s": True}
        assert true_under(e4, i)
        assert metatrue(e4, i, {1: "right"})


class TestValidity:
    def test_shared_cluster_fixture_is_never_true(self, x_pair):
        for i in interpretations(["p", "q"]):
            assert not true_under(x_pair, i)

    def test_singleton_variant_is_true_exactly_on_disagreement(self, x_free):
        for i in interpretations(["p", "q"]):
            assert true_under(x_free, i) == (i["p"] != i["q"])

    def test_valid_fixtures(self, goal, e1, x_pair, e4):
        assert valid(goal)
        assert valid(e1)
        assert not valid(x_pair)
        assert not valid(e4)

    def test_countermodel_is_the_first_falsifier(self, x_pair, e4):
        assert countermodel(x_pair) == {"p": False, "q": False}
        assert countermodel(e4) == {"p": False, "q": False, "r": False, "s": False}

    def test_countermodel_of_a_valid_cirquent_is_none(self, e1):
        assert countermodel(e1) is None


class TestBounds:
    def test_too_many_atoms(self):
        wide = parse("&".join(f"a{i}" for i in range(21)))
        with pytest.raises(TooLargeError):
            ensure_within_bounds(wide)
        with pytest.raises(TooLargeError):
            valid(wide)

    def test_too_many_clusters(self):
        crowded = parse("&".join(f"(p|{k} q)&(q|{k} p)" for k in range(1, 22)))
        with pytest.raises(TooLargeError, match="21 multi-member clusters exceeds the bound of 20"):
            ensure_within_bounds(crowded)
        full = parse("&".join(f"(p|{k} q)&(q|{k} p)" for k in range(1, 21)))
        assert ensure_within_bounds(full) == ["p", "q"]

    def test_true_under_checks_the_cluster_bound_but_not_the_atom_bound(self):
        # It enumerates metaselections, but its atoms are the interpretation's.
        crowded = parse("&".join(f"(p|{k} q)&(q|{k} p)" for k in range(1, 22)))
        with pytest.raises(TooLargeError, match="21 multi-member clusters exceeds the bound of 20"):
            true_under(crowded, {"p": True, "q": True})
        full = parse("&".join(f"(p|{k} q)&(q|{k} p)" for k in range(1, 21)))
        assert true_under(full, {"p": True, "q": True})
        assert not true_under(full, {"p": True, "q": False})
        wide = parse("|".join(f"a{i}" for i in range(25)))
        assert not true_under(wide, {f"a{i}": False for i in range(25)})
        assert true_under(wide, {f"a{i}": i == 24 for i in range(25)})

    def test_single_member_clusters_are_not_counted(self):
        tautology = parse("|".join(["p"] * 21 + ["~p"]))
        assert ensure_within_bounds(tautology) == ["p"]
        assert valid(tautology)

    def test_overrides(self):
        c = parse("p&q&r")
        with pytest.raises(TooLargeError):
            ensure_within_bounds(c, 2)
        with pytest.raises(TooLargeError, match="3 atoms exceeds the bound of 2"):
            valid(c, max_atoms=2)
        assert ensure_within_bounds(c, 3) == ["p", "q", "r"]

    @pytest.mark.parametrize("bound", [-1, True, 2.5, "3"], ids=["negative", "bool", "float", "str"])
    def test_an_atom_bound_that_is_no_nonnegative_int_is_refused(self, bound):
        with pytest.raises(ValueError, match=f"max_atoms must be a nonnegative int, got {re.escape(repr(bound))}"):
            valid(parse("p|~p"), max_atoms=bound)


class TestClassical:
    def test_tautology(self, a0):
        assert valid(a0) and classical_tautology_reference(a0)
        p_or_q = parse("p|q")
        assert not valid(p_or_q) and not classical_tautology_reference(p_or_q)

    def test_classical_countermodel(self):
        for text, expected in (("p|q", {"p": False, "q": False}), ("p|~p", None)):
            c = parse(text)
            assert countermodel(c) == classical_countermodel_reference(c) == expected

    def test_clustered_input_is_rejected(self, e1):
        # Read with plain "or", e1 is a tautology; it is still no axiom.
        assert classical_tautology_reference(e1)
        assert not is_axiom(e1)

    def test_plain_evaluation_agrees_on_classical_cirquents(self):
        rng = random.Random(7)
        for _ in range(25):
            classical = rand_classical(rng, 5)
            for i in interpretations("pqrs"):
                assert eval_classical_reference(classical, i) == true_under(classical, i)

    def test_eval_classical_missing_atom(self):
        with pytest.raises(MissingAtomError):
            eval_classical_reference(P, {})
        with pytest.raises(MissingAtomError):
            true_under(P, {})


class TestTruthTables:
    def test_rows_cover_every_assignment(self, x_pair):
        table = truth_table(x_pair)
        assert table.atoms == ("p", "q")
        assert table.rows == {
            (False, False): False,
            (False, True): False,
            (True, False): False,
            (True, True): False,
        }

    def test_row_count_is_enforced(self):
        with pytest.raises(ValueError):
            TruthTable(("p",), {(False,): True})

    def test_dnf_of_exclusive_or(self):
        nodes, pieces = dnf_text(parse("(p|q)&(~p|~q)"))
        assert (nodes, "".join(pieces)) == (7, "(~p&q)|(p&~q)")

    def test_dnf_of_an_unsatisfiable_input_is_empty(self, x_pair):
        nodes, pieces = dnf_text(x_pair)
        assert (nodes, list(pieces)) == (0, [])

    def test_dnf_preserves_the_table(self, goal):
        assert truth_table(parse("".join(dnf_text(goal)[1]))) == truth_table(goal)

    def test_dnf_text_parses_to_the_reference_tree_with_its_ids(self):
        # The parser numbers the bare "|"s 1, 2, ... as the reference spine does.
        c = parse("p|q")
        assert parse("".join(dnf_text(c)[1])) == compile_classical(truth_table_reference(c))


class TestTruthAgainstBruteForce:
    @given(cirquents(max_leaves=5))
    def test_true_under_is_an_existential_over_metaselections(self, c):
        i = dict.fromkeys("pqr", True)
        expected = any(metatrue(c, i, f) for f in metaselections(clusters(c)))
        assert true_under(c, i) == expected


@st.composite
def shared_cirquents(draw, min_leaves=8, max_leaves=10, names="pqr"):
    """Cirquents with 8 to 10 leaves (by default) over ``names`` whose disjunctions share clusters 1-3."""
    nodes = [
        Literal(draw(st.sampled_from(names)), draw(st.booleans()))
        for _ in range(draw(st.integers(min_leaves, max_leaves)))
    ]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        left, right = nodes[i], nodes.pop(i + 1)
        if draw(st.booleans()):
            nodes[i] = And(left, right)
        else:
            nodes[i] = Or(draw(st.integers(1, 3)), left, right)
    return nodes[0]


class TestEvaluator:
    def test_deep_cirquents_need_no_recursion(self):
        c = deep_chain(5000)
        assert valid(c)
        assert countermodel(c) is None
        assert countermodel(And(c, Q)) == {"p": False, "q": False}
        assert true_under(c, {"p": True, "q": False})
        assert not metatrue(c, {"p": False, "q": True}, {1: "left"})
        assert metatrue(c, {"p": False, "q": True}, {1: "right"})

    def test_missing_atoms_are_reported_whatever_the_values(self):
        with pytest.raises(MissingAtomError):
            metatrue(Or(1, P, Q), {"p": True}, {1: "left"})
        with pytest.raises(MissingAtomError):
            metatrue(And(Literal("p", False), Q), {"p": True}, {})
        with pytest.raises(MissingAtomError):
            true_under(Or(1, P, Q), {"p": True})

    def test_missing_clusters_are_reported_whatever_the_values(self):
        c = Or(1, P, Or(2, Q, Q))
        with pytest.raises(MissingClusterError):
            metatrue(c, {"p": True, "q": True}, {1: "left"})

    # Two atoms and 20 clusters need 2**22 bits, two more than a vector holds.
    FREE = "&".join(f"({x}|{k} ~{x})&({x}|{k} ~{x})" for k, x in zip(range(1, 21), "ab" * 10))
    PINNED = FREE + "&(a|1 ~a)&(~a|1 a)"  # cluster 1 is false either way

    def test_clusters_beyond_one_vector_are_enumerated_in_a_loop(self):
        # The first two clusters are enumerated, four blocks of one vector each.
        assert valid(parse(self.FREE))
        pinned = parse(self.PINNED)
        with mock.patch.object(ifp.semantics, "_false_rows", wraps=ifp.semantics._false_rows) as calls:
            assert countermodel(pinned) == {"a": False, "b": False}
        assert calls.call_count == 5

    def test_a_column_table_is_built_once_per_width_and_kept(self):
        # 21 atoms are two blocks of 20, and the pinned goal four: each block is 20 bits wide.
        atoms21 = parse("|".join(["a0", "~a0"] + [f"a{i}" for i in range(1, 21)]))
        pinned = parse(self.PINNED)
        ifp.semantics._columns.cache_clear()
        assert valid(atoms21, max_atoms=21)
        assert countermodel(pinned) == {"a": False, "b": False}
        assert ifp.semantics._columns.cache_info().misses == 1  # one 20-bit table, which the second query reuses

    @given(shared_cirquents(), st.randoms(use_true_random=False), st.sampled_from((20, 1, 0)))
    def test_agrees_with_the_reference(self, c, rng, vector_bits):
        # Narrower vectors send clusters through the enumeration loop.
        with mock.patch.object(ifp.semantics, "_VECTOR_BITS", vector_bits):
            assert valid(c) == valid_reference(c)
            assert countermodel(c) == countermodel_reference(c)
            table = truth_table_reference(c)
            assert truth_table(c) == table
            nodes, pieces = dnf_text(c)
            assert (nodes, "".join(pieces)) == dnf_reference(table)
            for i in interpretations(atoms(c)):
                assert true_under(c, i) == true_under_reference(c, i)
                f = {k: rng.choice(("left", "right")) for k in clusters(c)}
                assert metatrue(c, i, f) == metatrue_reference(c, i, f)

    @given(shared_cirquents(min_leaves=6, max_leaves=8, names="pqrstu"))
    def test_atoms_beyond_one_vector_are_enumerated_in_blocks(self, c):
        # With 4 to 6 atoms, a 2-bit vector holds only the last two atoms' rows.
        assume(len(atoms(c)) >= 4)
        with mock.patch.object(ifp.semantics, "_VECTOR_BITS", 2):
            assert valid(c) == valid_reference(c)
            assert countermodel(c) == countermodel_reference(c)
            table = truth_table_reference(c)
            assert truth_table(c) == table
            nodes, pieces = dnf_text(c)
            assert (nodes, "".join(pieces)) == dnf_reference(table)


class TestOneWalkPerQuery:
    """Each query walks its input once, whatever it then reads off the walk."""

    QUERIES = {  # each called with the cirquent, an interpretation and a metaselection
        "valid": lambda c, i, f: valid(c),
        "countermodel": lambda c, i, f: countermodel(c),
        "dnf_text": lambda c, i, f: "".join(dnf_text(c)[1]),  # the text is read off the table, not the nodes
        "true_under": lambda c, i, f: true_under(c, i),
        "metatrue": metatrue,
    }

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("text", ["((q|1 r)&(p|2 ~p))|1((p|2 ~p)&(s|1 ~q))", "(p|1 q)&(~p|1 ~q)", "p"])
    def test_every_node_is_visited_once(self, query, text, monkeypatch):
        c = parse(text)
        i, f = dict.fromkeys(atoms(c), True), dict.fromkeys(clusters(c), "right")
        once, _ = visits_once(c), node_count(c)  # node_count fills the summaries
        reads = OperandReads(monkeypatch)
        answer = self.QUERIES[query](c, i, f)
        assert reads.reads == once
        # Read-only views with extra keys give the same answer, also in one walk.
        reads.reads.clear()
        i, f = MappingProxyType({**i, "z": False}), MappingProxyType({**f, 99: "left"})
        assert self.QUERIES[query](c, i, f) == answer
        assert reads.reads == once

    def test_blocks_past_the_vector_width_reuse_the_walk(self, monkeypatch):
        # Six atoms and two multi-member clusters in 2-bit vectors: 16 atom blocks,
        # each enumerating clusters, all read off one walk.
        c = parse("((p|1 q)&(~p|1 ~q))|((r|2 s)&(~t|2 u))|((p&~r)|(s&t))")
        once, _ = visits_once(c), node_count(c)
        reads = OperandReads(monkeypatch)
        calls = mock.patch.object(ifp.semantics, "_false_rows", wraps=ifp.semantics._false_rows)
        with mock.patch.object(ifp.semantics, "_VECTOR_BITS", 2), calls as false_rows:
            for query, expected in ((valid, valid_reference(c)), (countermodel, countermodel_reference(c))):
                reads.reads.clear()
                assert query(c) == expected
                assert reads.reads == once
        assert false_rows.call_count > 2 * 16

    def test_the_leftmost_missing_atom_is_named(self):
        for c in (parse("(r&p)|q"), parse("(p&(r|~q))&s")):
            with pytest.raises(MissingAtomError, match="^no value for atom 'r'$"):
                true_under(c, {"p": True})
            with pytest.raises(MissingAtomError, match="^no value for atom 'r'$"):
                metatrue(c, {"p": True}, dict.fromkeys(clusters(c), "left"))
