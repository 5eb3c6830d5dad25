"""Tests for the cirquent tree: paths, clusters, isomorphism."""

import pytest
from hypothesis import given

from helpers import assert_summary_matches_walk, cirquents
from ifp import (
    And,
    InvalidPathError,
    Literal,
    Or,
    ROOT,
    atoms,
    canonicalize_ids,
    cluster_iso,
    clusters,
    is_classical,
    level,
    members,
    nearest_common_ancestor,
    node_count,
    or_positions,
    parse,
    positions,
    replace_at,
    same_shape,
    singleton_clusters,
    subcirquent_at,
    walk,
)

P = Literal("p")
NOT_P = Literal("p", positive=False)
Q = Literal("q")


class TestNodes:
    def test_literal_str(self):
        assert str(P) == "p"
        assert str(NOT_P) == "~p"

    def test_compound_str(self):
        assert str(And(P, Q)) == "(p&q)"
        assert str(Or(3, P, Q)) == "(p|3q)"

    @pytest.mark.parametrize("bad", [0, -1, "1", 1.5, None])
    def test_cluster_ids_are_positive_integers(self, bad):
        with pytest.raises(ValueError):
            Or(bad, P, Q)

    def test_nodes_hash_and_compare_by_value(self):
        assert Or(1, P, Q) == Or(1, P, Q)
        assert Or(1, P, Q) != Or(2, P, Q)
        assert len({And(P, Q), And(P, Q)}) == 1


class TestPaths:
    def test_subcirquent_at_root(self, goal):
        assert subcirquent_at(goal, ROOT) is goal

    def test_subcirquent_at_descends(self, goal):
        assert subcirquent_at(goal, ("L", "L")) == Or(1, Q, Literal("r"))
        assert subcirquent_at(goal, ("R", "R", "L")) == Literal("s")

    def test_paths_may_end_at_literals(self, goal):
        assert subcirquent_at(goal, ("R", "L", "R")) == NOT_P

    def test_stepping_through_a_literal_fails(self, goal):
        with pytest.raises(InvalidPathError):
            subcirquent_at(goal, ("R", "L", "R", "L"))

    def test_bad_step_character_fails(self, goal):
        with pytest.raises(InvalidPathError):
            subcirquent_at(goal, ("L", "X"))

    def test_replace_at_root(self, goal):
        assert replace_at(goal, ROOT, P) == P

    def test_replace_at_keeps_everything_else(self):
        c = And(Or(1, P, Q), NOT_P)
        swapped = replace_at(c, ("L", "R"), NOT_P)
        assert swapped == And(Or(1, P, NOT_P), NOT_P)
        assert replace_at(swapped, ("L", "R"), Q) == c

    def test_replace_at_checks_the_path(self):
        with pytest.raises(InvalidPathError):
            replace_at(P, ("L",), Q)

    def test_walk_is_preorder_left_first(self):
        c = And(Or(2, P, Q), NOT_P)
        visited = [path for path, _ in walk(c)]
        assert visited == [(), ("L",), ("L", "L"), ("L", "R"), ("R",)]
        assert positions(c) == visited

    def test_or_positions_in_path_order(self, goal):
        assert or_positions(goal) == [(), ("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]

    def test_level_counts_steps(self, goal):
        assert level(goal, ROOT) == 0
        assert level(goal, ("L", "R")) == 2
        with pytest.raises(InvalidPathError):
            level(goal, ("R", "L", "R"))

    def test_nearest_common_ancestor(self, goal):
        assert nearest_common_ancestor(goal, ("L", "L"), ("L", "R")) == ("L",)
        assert nearest_common_ancestor(goal, ("L", "L"), ("R", "R")) == ROOT
        assert nearest_common_ancestor(goal, ("L",), ("L", "R")) == ("L",)


class TestClusters:
    def test_clusters_group_positions(self, goal):
        table = clusters(goal)
        assert table == {
            1: frozenset({(), ("L", "L"), ("R", "R")}),
            2: frozenset({("L", "R"), ("R", "L")}),
        }

    def test_singleton_clusters(self, e1):
        assert singleton_clusters(e1) == {2}

    def test_is_classical(self, goal, a0):
        assert not is_classical(goal)
        assert is_classical(a0)
        assert is_classical(P)

    def test_members_in_path_order(self, goal):
        assert members(goal, 1) == [(), ("L", "L"), ("R", "R")]
        assert members(goal, 2) == [("L", "R"), ("R", "L")]
        assert members(goal, 3) == []
        assert members(P, 1) == []

    def test_atoms_and_node_count(self, goal):
        assert atoms(goal) == {"p", "q", "r", "s"}
        assert node_count(goal) == 15
        assert node_count(P) == 1


class TestIsomorphism:
    def test_same_shape_ignores_ids(self):
        assert same_shape(Or(1, P, Q), Or(7, P, Q))
        assert not same_shape(Or(1, P, Q), And(P, Q))
        assert not same_shape(Or(1, P, Q), Or(1, Q, P))

    def test_cluster_iso_compares_the_partition(self):
        a = And(Or(1, P, Q), Or(1, NOT_P, Q))
        b = And(Or(9, P, Q), Or(9, NOT_P, Q))
        split = And(Or(1, P, Q), Or(2, NOT_P, Q))
        assert cluster_iso(a, b)
        assert not cluster_iso(a, split)

    def test_cluster_iso_requires_same_shape(self):
        assert not cluster_iso(Or(1, P, Q), And(P, Q))


class TestCanonicalize:
    def test_worked_fixture_is_already_canonical(self, e1):
        assert canonicalize_ids(e1) == e1

    def test_renumbers_by_first_textual_occurrence(self):
        c = parse("(p|7 q)&(r|3 s)")
        assert canonicalize_ids(c) == parse("(p|1 q)&(r|2 s)")

    def test_textual_order_is_infix_not_preorder(self):
        # The root disjunction sign sits between its operands, so the
        # left operand's cluster is numbered first.
        c = parse("(p|5 q)|9(r|5 s)")
        assert canonicalize_ids(c) == parse("(p|1 q)|2(r|1 s)")

    @given(cirquents())
    def test_canonical_form_is_idempotent_and_iso(self, c):
        canonical = canonicalize_ids(c)
        assert cluster_iso(c, canonical)
        assert canonicalize_ids(canonical) == canonical

    @given(cirquents())
    def test_canonical_ids_are_dense_from_one(self, c):
        table = clusters(canonicalize_ids(c))
        assert sorted(table) == list(range(1, len(table) + 1))


class TestSummaries:
    def test_counts_and_nesting_flag(self, goal, c1):
        assert dict(goal.summary.counts) == {1: 3, 2: 2}
        assert not goal.summary.nesting_free
        assert c1.summary.nesting_free
        assert dict(P.summary.counts) == {}
        assert P.summary.nesting_free

    def test_parsing_computes_no_summary(self):
        c = parse("(p|1 q)&(r|1 s)")
        assert "summary" not in vars(c)
        assert "summary" not in vars(c.left)

    def test_rebuilt_spine_shares_untouched_summaries(self, goal):
        goal.summary
        rebuilt = replace_at(goal, ("L", "L"), P)
        assert "summary" not in vars(rebuilt)
        assert rebuilt.right is goal.right
        assert dict(rebuilt.summary.counts) == {1: 2, 2: 2}
        assert dict(goal.summary.counts) == {1: 3, 2: 2}

    @given(cirquents(max_leaves=8))
    def test_summary_matches_a_fresh_walk(self, c):
        assert_summary_matches_walk(c)
