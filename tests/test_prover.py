"""Tests for reduction to a classical cirquent and proof synthesis."""

import collections
import gc
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import ifp.calculus
import ifp.core
import ifp.prover
import ifp.semantics
from conftest import C1_TEXT, GOAL_TEXT
from helpers import (
    OperandReads,
    assert_summary_matches_walk,
    atoms,
    cirquents,
    eliminate_nested_reference,
    nested_cirquents,
    nested_family,
    nested_pairs_reference,
    rand_cirquent,
    resolve_cluster_reference,
    strictly_decreasing,
    valid_cirquents,
    visits_once,
    with_large_ids,
)
from ifp import (
    Invalid,
    Literal,
    StateTuple,
    TooLargeError,
    Valid,
    check_proof,
    cluster_ids,
    countermodel,
    decide,
    first_nested,
    members,
    parse,
    parse_proof,
    print_proof,
    prove,
    reduce_to_classical,
    resolve_cluster,
    true_under,
    valid,
)
from ifp.core import is_classical, multi_member, node_count
from ifp.prover import (
    PreconditionError,
    ReductionInvariantError,
    _require_decreasing,
    eliminate_nested,
    state_tuple,
)
from ifp.syntax import ProofEntry, ProofScript

# One four-member cluster whose two adjacent pairs of depth 1 tie.
BALANCED_TEXT = "((p|1 q)&(r|1 s))&((t|1 u)&(v|1 w))"

# Two members directly under the root: one merge, no lift.
SIDE_BY_SIDE_TEXT = "(p|1 q)&(r|1 s)"


class TestNestedPairs:
    def test_ancestor_descendant_pairs_in_one_cluster(self, goal):
        assert nested_pairs_reference(goal) == [((), ("L", "L")), ((), ("R", "R"))]
        assert first_nested(goal) == ((), ("L", "L"))

    def test_unrelated_members_are_not_nested(self, c1, e4):
        assert first_nested(c1) is None
        assert first_nested(e4) is None

    def test_chains_pair_every_ancestor(self):
        c = parse("((p|1 q)|1 r)|1(s|2(p|2 q))")
        assert nested_pairs_reference(c) == [
            ((), ("L",)),
            ((), ("L", "L")),
            (("L",), ("L", "L")),
            (("R",), ("R", "R")),
        ]
        assert first_nested(c) == ((), ("L",))

    @given(st.one_of(cirquents(max_leaves=10, max_cluster=2), nested_cirquents()))
    def test_one_pass_matches_the_double_loop(self, c):
        pairs = nested_pairs_reference(c)
        assert first_nested(c) == (pairs[0] if pairs else None)


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

    @given(cirquents(max_leaves=10, max_cluster=2))
    def test_steps_match_the_pair_by_pair_reference(self, c):
        assert eliminate_nested(c) == eliminate_nested_reference(c)


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
            assert nested_pairs_reference(step.result) == []


class TestMemberTracking:
    """One ``members`` walk per cluster resolution, and the reduction it always gave."""

    @staticmethod
    def assert_same_reduction(c):
        derivation = reduce_to_classical(c)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ifp.prover, "resolve_cluster", resolve_cluster_reference)
            reference = reduce_to_classical(c)
        assert derivation.steps == reference.steps
        assert derivation.traces == reference.traces

    @pytest.mark.parametrize("valid", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_the_nested_family_reduces_as_the_reference_does(self, d, valid):
        self.assert_same_reduction(nested_family(d, valid))

    def test_tied_pairs_merge_leftmost_first(self):
        c = parse(BALANCED_TEXT)
        self.assert_same_reduction(c)
        steps = reduce_to_classical(c).steps
        assert [(step.app.rule, step.app.hole_path) for step in steps] == [
            ("III", ("L",)), ("III", ("R",)), ("III", ()),
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(cirquents(), nested_cirquents()))
    def test_random_cirquents_reduce_as_the_reference_does(self, c):
        self.assert_same_reduction(c)

    def test_members_runs_once_per_cluster_resolution(self, monkeypatch):
        calls = []

        def counted(c, k):
            calls.append(k)
            return members(c, k)

        monkeypatch.setattr(ifp.prover, "members", counted)
        goals = [parse(GOAL_TEXT)] + [nested_family(d, v) for d in (1, 2, 3) for v in (False, True)]
        merges = resolutions = 0
        for goal in goals:
            calls.clear()
            derivation = reduce_to_classical(goal)
            assert len(calls) == len(derivation.traces)
            merges += sum(step.app.rule == "III" for step in derivation.steps)
            resolutions += len(derivation.traces)
        assert merges > resolutions  # some resolution merges more than once

    def test_one_prefix_per_adjacent_pair_of_members(self, monkeypatch):
        prefix = ifp.prover._common_prefix
        calls = []

        def counted(first, last):
            calls.append((first, last))
            return prefix(first, last)

        monkeypatch.setattr(ifp.prover, "_common_prefix", counted)
        goals = [parse(GOAL_TEXT), parse(BALANCED_TEXT)]
        goals += [nested_family(d, v) for d in (1, 2, 3, 4) for v in (False, True)]
        widest = 0
        for goal in goals:
            current, _ = eliminate_nested(goal)
            while (k := min(multi_member(current), default=None)) is not None:
                found = members(current, k)
                calls.clear()
                current, _, _ = resolve_cluster(current, k)
                assert calls == list(zip(found, found[1:]))
                widest = max(widest, len(found))
        assert widest >= 4  # some resolution merges more than twice


class TestReductionInvariants:
    """Each of the reducer's own checks raises its message when the step under it goes wrong."""

    @staticmethod
    def fail_with(message, reduce, *args):
        with pytest.raises(ReductionInvariantError) as raised:
            reduce(*args)
        assert str(raised.value) == message

    @staticmethod
    def nesting_after_first_call(monkeypatch):
        calls = []

        def first_nested_after_the_precondition(c):
            calls.append(c)
            return None if len(calls) == 1 else ((), ("L",))

        monkeypatch.setattr(ifp.prover, "first_nested", first_nested_after_the_precondition)

    def test_a_merge_that_keeps_the_cluster_size(self, monkeypatch):
        monkeypatch.setattr(ifp.prover, "apply_rule_backward", lambda c, app: (c, app))
        c = parse(SIDE_BY_SIDE_TEXT)
        self.fail_with("merging must shrink the cluster by one", resolve_cluster, c, 1)

    def test_a_merge_that_nests(self, monkeypatch):
        self.nesting_after_first_call(monkeypatch)
        c = parse(SIDE_BY_SIDE_TEXT)
        self.fail_with("merging re-introduced same-cluster nesting", resolve_cluster, c, 1)

    def test_a_lift_that_duplicates_a_member(self, c1, monkeypatch):
        monkeypatch.setattr(ifp.prover, "members", lambda c, k: [("L", "L"), ("R", "L")])
        self.fail_with(
            "the operand being duplicated holds a member of the cluster", resolve_cluster, c1, 2
        )

    def test_a_lift_that_changes_the_cluster_size(self, c1, monkeypatch):
        monkeypatch.setattr(ifp.prover, "apply_rule_backward", lambda c, app: (Literal("p"), app))
        self.fail_with("lifting must leave the cluster size unchanged", resolve_cluster, c1, 2)

    def test_a_lift_that_nests(self, c1, monkeypatch):
        self.nesting_after_first_call(monkeypatch)
        self.fail_with("lifting re-introduced same-cluster nesting", resolve_cluster, c1, 2)

    def test_a_measure_that_does_not_decrease(self):
        trace = [StateTuple(2, 0, 4, 0, 2), StateTuple(2, 0, 4, 0, 2)]
        self.fail_with("the resolution measure failed to decrease", _require_decreasing, trace)

    def test_a_residue_that_is_not_classical(self, c1, monkeypatch):
        monkeypatch.setattr(ifp.prover, "is_classical", lambda c: False)
        self.fail_with("reduction ended on a non-classical cirquent", reduce_to_classical, c1)

    def test_a_countermodel_that_does_not_falsify_the_goal(self, x_pair, monkeypatch):
        monkeypatch.setattr(ifp.prover, "_true_under", lambda order, model: True)
        self.fail_with("the residue's countermodel does not falsify the goal", decide, x_pair)


class TestStateTuples:
    def test_rendering(self):
        entry = StateTuple(3, 1, 4, 2, 2)
        assert entry.as_line() == "3 1 4 2 2"
        assert entry.measure == (3, 1, 4, 2)

    def test_computed_from_positions(self, c1):
        entry = state_tuple(c1, 2, ("L", "R"), ("R", "L"))
        assert entry == StateTuple(2, 0, 4, 0, 2)

    def test_merged_at_the_root_weighs_minus_one(self, c1):
        assert state_tuple(c1, 2, ()).depth_weight == -1

    def test_counts_other_multi_member_clusters(self, goal):
        entry = state_tuple(goal, 2, ("L", "R"), ("R", "L"))
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

    @pytest.mark.parametrize("d", (1, 2))
    def test_an_invalid_goal_is_walked_once_for_its_semantics(self, d, monkeypatch):
        # The bounds check and the countermodel's check against the goal share
        # one walk; the reduction and the residue's countermodel are not counted.
        goal = nested_family(d, False)
        once, _ = visits_once(goal), node_count(goal)
        reads = OperandReads(monkeypatch)
        for name in ("reduce_to_classical", "countermodel"):
            monkeypatch.setattr(ifp.prover, name, reads.uncounted(getattr(ifp.prover, name)))
        assert isinstance(decide(goal), Invalid)
        assert reads.reads == once

    @pytest.mark.parametrize("text", ["p|~p", "p|q", "(p|3 q)&~r"])
    def test_a_goal_no_step_changes_is_walked_once(self, text, monkeypatch):
        # The goal is its own residue: its table comes off the bounds check's walk.
        goal = parse(text)
        expected = countermodel(goal)
        calls = collections.Counter()
        for module, name in ((ifp.semantics, "_postorder"), (ifp.prover, "_within_bounds")):
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)  # where it is looked up
        decision = decide(goal)
        assert decision.derivation.final is goal
        assert calls == {"_postorder": 1, "_within_bounds": 1}
        assert isinstance(decision, Valid) == (expected is None)
        if expected is not None:
            assert decision.countermodel == expected

    @pytest.mark.parametrize(
        "text",
        ["(p|1 q)&(~p|1 ~q)", "p|1(q|1 r)", "(p|1 q)&((r|1 s)&q)", "((p|1 q)|1 r)&(s|2 ~t)&(t|2 u)"],
    )
    def test_a_goal_that_takes_steps_is_refuted_by_its_residue(self, text):
        self._assert_refuted_by_the_residue(parse(text))

    @settings(max_examples=200, deadline=None)
    @given(cirquents(max_leaves=7))
    def test_random_goals_that_take_steps_are_refuted_by_their_residues(self, c):
        self._assert_refuted_by_the_residue(c)

    @staticmethod
    def _assert_refuted_by_the_residue(goal):
        decision = decide(goal)
        residue = decision.derivation.final
        expected = countermodel(residue)
        if expected is not None:
            expected = dict.fromkeys(sorted(atoms(goal)), False) | expected
        assert (residue is goal) == (not decision.derivation.steps)
        assert (decision.countermodel if isinstance(decision, Invalid) else None) == expected


class TestNoReferenceCycles:
    """No ifp tree or record holds a reference cycle, so the cycle collector has nothing to find."""

    @pytest.mark.parametrize("d", (4, 5))
    def test_library_calls_leave_nothing_unreachable(self, d):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for valid_form in (True, False):
                decide(nested_family(d, valid_form))
            proof = decide(nested_family(d, True)).proof
            parsed = parse_proof(print_proof(proof))
            assert check_proof(parsed) is None
            assert check_proof(ProofScript(tuple(ProofEntry(e.cirquent, None) for e in parsed.entries))) is None
            del proof, parsed
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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
        + [nested_family(d, valid) for d in (1, 2) for valid in (False, True)]
        + [with_large_ids(nested_family(d, valid)) for d in (1, 2) for valid in (False, True)],
    )
    def test_every_intermediate_summary_matches_a_fresh_walk(self, goal):
        derivation = reduce_to_classical(goal)
        assert derivation.steps
        for step in derivation.steps:
            assert_summary_matches_walk(step.result)


class TestPerStepCost:
    @pytest.mark.parametrize("valid", [False, True])
    def test_no_step_lists_every_cluster(self, valid, monkeypatch):
        """A reducer step's bookkeeping never asks for all of the residue's thousands of IDs."""
        expected = _answer(decide(nested_family(5, valid)))

        def refuse(c):
            raise AssertionError("cluster_ids lists every cluster of the tree")

        monkeypatch.setattr(ifp.core, "cluster_ids", refuse)
        monkeypatch.setattr(ifp.calculus, "cluster_ids", refuse, raising=False)
        assert _answer(decide(nested_family(5, valid))) == expected

    @pytest.mark.parametrize("bound", [None, 4])
    @pytest.mark.parametrize("valid", [False, True])
    def test_ids_on_both_sides_of_the_mask_bound_keep_the_recorded_answer(self, valid, bound, monkeypatch):
        """The proof or countermodel, and the trace, recorded before cluster summaries became masks.

        With the bound shrunk to 4, every ID a rule II or III step draws
        is found by the scan above the bound.
        """
        if bound is not None:
            monkeypatch.setattr(ifp.core, "_BOUND", bound)
        decision = decide(with_large_ids(nested_family(3, valid)))
        trace = "".join(state.as_line() + "\n" for t in decision.derivation.traces for state in t)
        assert hashlib.sha256(_answer(decision).encode()).hexdigest() == _LARGE_IDS_ANSWER_SHA256[valid]
        assert (
            hashlib.sha256(trace.encode()).hexdigest()
            == "aba40bcb94b8a01047213a75dee4a1c117bcba55025cadb24b006fe790810a28"
        )


# The answers to decide(with_large_ids(nested_family(3, valid))).
_LARGE_IDS_ANSWER_SHA256 = {
    False: "d84d04a8b59f31fe06eb6115b15bf3581483eafa9105e467201945b2cc494d4e",
    True: "9d2685cbbde02e80c890f43a4b6ed89f38160ebc7a11c70ef5cf17db08d17560",
}


def _answer(decision) -> str:
    """The printed proof of a valid decision, or the sorted countermodel of an invalid one."""
    if isinstance(decision, Valid):
        return print_proof(decision.proof)
    return repr(sorted(decision.countermodel.items()))


class TestDecideBounds:
    def test_too_many_clusters(self):
        c = parse("p|~p|" + "|".join(f"((q|{k} r)&(q|{k} r))" for k in range(1, 22)))
        with pytest.raises(TooLargeError, match="21 multi-member clusters exceeds the bound of 20"):
            decide(c)


    def test_single_member_clusters_of_the_residue_are_not_counted(self):
        # 12 clusters in the goal, 23 single-member ones in its residue.
        x = "&".join(f"(x{i}|~x{i})" for i in range(5))
        c = parse(f"({x}&(p|1 q))|((~p|1 ~q)&{x})")
        assert len(cluster_ids(reduce_to_classical(c).final)) > 20
        decision = decide(c)
        assert isinstance(decision, Valid)
        assert check_proof(decision.proof) is None


def assert_decided_correctly(c):
    """``decide`` agrees with brute force, and its proof or countermodel holds up."""
    decision = decide(c)
    assert isinstance(decision, Valid) == valid(c)
    if isinstance(decision, Valid):
        assert check_proof(decision.proof) is None
        assert check_proof(parse_proof(print_proof(decision.proof))) is None
    else:
        assert not true_under(c, decision.countermodel)


class TestRandomized:
    def test_decide_agrees_with_brute_force_on_random_cirquents(self):
        rng = random.Random(11)
        for _ in range(60):
            assert_decided_correctly(rand_cirquent(rng, rng.randint(1, 6)))

    def test_decide_agrees_with_brute_force_at_eight_to_twelve_connectives(self):
        rng = random.Random(13)
        for _ in range(300):
            max_cluster = rng.choice((2, 3, 4, 6))
            assert_decided_correctly(rand_cirquent(rng, rng.randint(8, 12), max_cluster=max_cluster))

    @settings(max_examples=60, deadline=None)
    @given(valid_cirquents(max_leaves=6))
    def test_decide_proves_larger_valid_cirquents(self, c):
        assert_decided_correctly(c)

    def test_reduction_traces_decrease_and_stay_nesting_free(self):
        rng = random.Random(12)
        for _ in range(60):
            c = rand_cirquent(rng, rng.randint(1, 6))
            derivation = decide(c).derivation
            for trace in derivation.traces:
                assert strictly_decreasing(trace)
            for step in derivation.steps[derivation.lead_in:]:
                assert nested_pairs_reference(step.result) == []
