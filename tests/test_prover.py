"""Tests for reduction to a classical cirquent and proof synthesis."""

import random

import pytest
from hypothesis import given

from conftest import C1_TEXT, GOAL_TEXT
from helpers import (
    assert_summary_matches_walk,
    cirquents,
    nested_family,
    rand_cirquent,
    strictly_decreasing,
)
from ifp import (
    Invalid,
    Literal,
    PreconditionError,
    StateTuple,
    TooLargeError,
    Valid,
    check_proof,
    decide,
    eliminate_nested,
    is_classical,
    nested_pairs,
    or_positions,
    parse,
    print_proof,
    prove,
    reduce_to_classical,
    resolve_cluster,
    state_tuple,
    subcirquent_at,
    true_under,
    valid,
)


def nested_pairs_reference(c):
    """Every pair of same-cluster disjunctions, one inside the other, by a double loop."""
    occurrences = [(p, subcirquent_at(c, p).cluster) for p in or_positions(c)]
    pairs = []
    for outer, outer_cluster in occurrences:
        for inner, inner_cluster in occurrences:
            if (
                inner_cluster == outer_cluster
                and len(inner) > len(outer)
                and inner[: len(outer)] == outer
            ):
                pairs.append((outer, inner))
    pairs.sort()
    return pairs


class TestNestedPairs:
    def test_ancestor_descendant_pairs_in_one_cluster(self, goal):
        assert nested_pairs(goal) == [((), ("L", "L")), ((), ("R", "R"))]

    def test_unrelated_members_are_not_nested(self, c1, e4):
        assert nested_pairs(c1) == []
        assert nested_pairs(e4) == []

    def test_chains_pair_every_ancestor(self):
        c = parse("((p|1 q)|1 r)|1(s|2(p|2 q))")
        assert nested_pairs(c) == nested_pairs_reference(c) == [
            ((), ("L",)),
            ((), ("L", "L")),
            (("L",), ("L", "L")),
            (("R",), ("R", "R")),
        ]

    @given(cirquents(max_leaves=10, max_cluster=2))
    def test_one_pass_matches_the_double_loop(self, c):
        assert nested_pairs(c) == nested_pairs_reference(c)


class TestEliminateNested:
    def test_keeps_the_operand_on_the_nested_side(self, goal, c1):
        result, steps = eliminate_nested(goal)
        assert result == c1
        assert [step.app.rule for step in steps] == ["I-left", "I-right"]
        assert [step.app.new_subcirquent for step in steps] == [
            Literal("r"), Literal("s"),
        ]
        assert steps[-1].result == result

    def test_is_a_no_op_without_nesting(self, c1):
        assert eliminate_nested(c1) == (c1, ())

    def test_clears_chains_first_pair_first(self):
        result, steps = eliminate_nested(parse("(p|1 q)|1(r|1 s)"))
        assert result == parse("p|1 s")
        assert [step.app.new_subcirquent for step in steps] == [
            Literal("q"), Literal("r"),
        ]


class TestResolveCluster:
    def test_worked_reduction_trace(self, c1):
        result, steps, trace = resolve_cluster(c1, 2)
        assert result == parse("((q&p)|3(p&~q))|2((q&~p)|4(~p&~q))")
        assert is_classical(result)
        assert [step.app.rule for step in steps] == ["II-right", "II-left", "III"]
        assert [entry.as_line() for entry in trace] == [
            "2 0 4 0 2", "2 0 3 0 2", "2 0 2 0 2", "1 0 -1 0 1",
        ]

    def test_requires_a_nesting_free_cirquent(self, goal):
        with pytest.raises(PreconditionError):
            resolve_cluster(goal, 1)

    def test_requires_a_multi_member_cluster(self, c1):
        with pytest.raises(PreconditionError):
            resolve_cluster(c1, 1)
        with pytest.raises(PreconditionError):
            resolve_cluster(c1, 7)

    def test_every_intermediate_is_nesting_free(self, e1):
        _, steps, _ = resolve_cluster(e1, 1)
        for step in steps:
            assert nested_pairs(step.result) == []


class TestStateTuples:
    def test_rendering(self):
        entry = StateTuple(3, 1, 4, 2, 2)
        assert entry.as_line() == "3 1 4 2 2"
        assert entry.measure == (3, 1, 4, 2)

    def test_computed_from_positions(self, c1):
        entry = state_tuple(c1, 2, 2, ("L", "R"), ("R", "L"))
        assert entry == StateTuple(2, 0, 4, 0, 2)

    def test_merged_at_the_root_weighs_minus_one(self, c1):
        assert state_tuple(c1, 2, 1, ()).depth_weight == -1

    def test_counts_other_multi_member_clusters(self, goal):
        entry = state_tuple(goal, 2, 2, ("L", "R"), ("R", "L"))
        assert entry.outside_load == 3


class TestReduceToClassical:
    def test_worked_derivation(self, goal):
        derivation = reduce_to_classical(goal)
        assert derivation.goal == goal
        assert derivation.lead_in == 2
        assert len(derivation.steps) == 5
        assert len(derivation.traces) == 1
        assert is_classical(derivation.final)
        assert derivation.final == parse("((q&p)|3(p&~q))|2((q&~p)|4(~p&~q))")

    def test_classical_input_is_its_own_residue(self, a0):
        derivation = reduce_to_classical(a0)
        assert derivation.steps == ()
        assert derivation.final == a0

    def test_resolves_smaller_cluster_ids_first(self, e1):
        derivation = reduce_to_classical(e1)
        assert len(derivation.traces) == 2
        merges = [
            step.app.k for step in derivation.steps if step.app.rule == "III"
        ]
        assert merges == sorted(merges)


class TestDecide:
    def test_the_worked_goal_is_valid(self, goal):
        decision = decide(goal)
        assert isinstance(decision, Valid)
        assert check_proof(decision.proof) is None
        assert [entry.as_line() for trace in decision.derivation.traces for entry in trace] == [
            "2 0 4 0 2", "2 0 3 0 2", "2 0 2 0 2", "1 0 -1 0 1",
        ]

    def test_the_shared_cluster_fixture_is_refuted(self, x_pair):
        decision = decide(x_pair)
        assert isinstance(decision, Invalid)
        assert decision.countermodel == {"p": False, "q": False}
        assert not true_under(x_pair, decision.countermodel)

    def test_countermodels_cover_deleted_atoms(self):
        decision = decide(parse("p|1(q|1 r)"))
        assert isinstance(decision, Invalid)
        assert decision.countermodel == {"p": False, "q": False, "r": False}

    def test_size_bounds_apply(self):
        wide = parse("&".join(f"a{i}" for i in range(21)))
        with pytest.raises(TooLargeError):
            decide(wide)

    def test_decisions_match_brute_force_on_fixtures(self, goal, e1, e4, x_pair, x_free):
        for c in (goal, e1, e4, x_free, x_pair):
            assert isinstance(decide(c), Valid) == valid(c)


class TestProve:
    def test_reproduces_the_worked_proof(self, goal, worked_proof_text):
        script = prove(goal)
        assert script is not None
        body = "".join(
            line + "\n"
            for line in worked_proof_text.splitlines()
            if line and not line.startswith("#")
        )
        assert print_proof(script) == body

    def test_scripts_carry_full_hints(self, e1):
        script = prove(e1)
        assert script.entries[0].hint.rule == "axiom"
        for entry in script.entries[1:]:
            hint = entry.hint
            assert hint.rule is not None
            assert hint.hole_path is not None
            assert hint.k is not None

    def test_invalid_cirquents_have_no_proof(self, x_pair, e4):
        assert prove(x_pair) is None
        assert prove(e4) is None

    def test_single_entry_proof_for_an_axiom(self):
        script = prove(parse("p|~p"))
        assert len(script) == 1
        assert check_proof(script) is None


class TestSummariesAlongDerivations:
    @pytest.mark.parametrize(
        "goal",
        [parse(GOAL_TEXT)]
        + [nested_family(d, valid) for d in (1, 2) for valid in (False, True)],
    )
    def test_every_intermediate_summary_matches_a_fresh_walk(self, goal):
        derivation = reduce_to_classical(goal)
        assert derivation.steps
        for step in derivation.steps:
            assert_summary_matches_walk(step.result)


class TestDecideBounds:
    def test_bounds_reach_the_residue_check(self):
        c = parse("p|~p" + "|q" * 20)
        with pytest.raises(TooLargeError):
            decide(c)
        decision = decide(c, max_clusters=100)
        assert isinstance(decision, Valid)
        assert check_proof(decision.proof, max_clusters=100) is None


class TestRandomized:
    def test_decide_agrees_with_brute_force_on_random_cirquents(self):
        rng = random.Random(11)
        for _ in range(60):
            c = rand_cirquent(rng, rng.randint(1, 6))
            decision = decide(c)
            assert isinstance(decision, Valid) == valid(c)
            if isinstance(decision, Valid):
                assert check_proof(decision.proof) is None
            else:
                assert not true_under(c, decision.countermodel)

    def test_reduction_traces_decrease_and_stay_nesting_free(self):
        rng = random.Random(12)
        for _ in range(60):
            c = rand_cirquent(rng, rng.randint(1, 6))
            derivation = decide(c).derivation
            for trace in derivation.traces:
                assert strictly_decreasing(trace)
            for step in derivation.steps[derivation.lead_in:]:
                assert nested_pairs(step.result) == []
