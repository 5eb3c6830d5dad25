"""Tests for the five rules: application, matching, and proof checking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import ifp.calculus
from helpers import (
    RULE_FAMILIES,
    apply_rule_backward_reference,
    apply_rule_forward_reference,
    atoms,
    candidates_reference,
    cirquents,
    deep_chain,
    first_match_reference,
    forward_steps,
    interpretations,
    match_step_reference,
    nested_cirquents,
    nested_family,
    or_positions,
    positions,
    rand_cirquent,
    rand_rule_instance,
    rand_step_premise,
    rename_clusters,
    valid_cirquents,
)
from ifp import (
    And,
    Literal,
    Or,
    ProofEntry,
    ProofScript,
    RuleApp,
    RuleError,
    apply_rule_backward,
    apply_rule_forward,
    check_proof,
    cluster_ids,
    cluster_map,
    cluster_size,
    cluster_struct_match,
    clusters,
    decide,
    match_step,
    members,
    parse,
    parse_proof,
    print_proof,
    prove,
    replace_at,
    subcirquent_at,
    true_under,
    valid,
)
from ifp.calculus import (
    _MERGED,
    CheckFailure,
    ConnectiveConstraintError,
    CopyMismatchError,
    ShapeMismatchError,
    is_axiom,
)
from ifp.core import InvalidPathError, map_clusters, multi_member, walk
from ifp.syntax import AXIOM, RULES, RuleHint

P = Literal("p")
Q = Literal("q")
NOT_P = Literal("p", positive=False)

# The six stages of the worked proof, axiom first.
L1 = "((q&p)|(p&~q))|((q&~p)|(~p&~q))"
L2 = "((q&p)|2(q&~p))|((p&~q)|2(~p&~q))"
L3 = "((q&p)|2(q&~p))|((p|2 ~p)&~q)"
L4 = "(q&(p|2 ~p))|((p|2 ~p)&~q)"
L5 = "(q&(p|2 ~p))|1((p|2 ~p)&(s|1 ~q))"
L6 = "((q|1 r)&(p|2 ~p))|1((p|2 ~p)&(s|1 ~q))"


class TestApplications:
    def test_rule_names_are_validated(self):
        with pytest.raises(ValueError):
            RuleApp("IV", (), 1)
        with pytest.raises(ValueError):
            RuleHint(rule="bogus")

    def test_cluster_must_be_positive(self):
        with pytest.raises(ValueError):
            RuleApp("I-left", (), 0)

    @pytest.mark.parametrize(
        "k", [True, 0, -3, 10**5000, "1", None], ids=["True", "0", "-3", "5001-digits", "str", "None"]
    )
    def test_rules_take_the_ids_or_takes(self, k):
        # print_proof would write each as k=..., which parse_proof rejects.
        with pytest.raises(ValueError, match="cluster IDs"):
            Or(k, P, Q)
        with pytest.raises(ValueError, match="cluster IDs"):
            RuleApp("III", (), k)
        if k is not None:  # a hint may leave k open
            with pytest.raises(ValueError, match="cluster IDs"):
                RuleHint("III", (), k)

    @pytest.mark.parametrize(
        "hole_path, inner_path",
        [("", ()), ((), ""), (None, ()), (["L"], None)],
        ids=["str-hole", "str-inner", "no-hole", "list-hole"],
    )
    def test_a_rule_application_s_paths_are_tuples(self, hole_path, inner_path):
        # Unrefused, the first ended in a TypeError from "" + ("L",) when applied backward.
        with pytest.raises(ValueError, match="paths must be tuples of steps"):
            RuleApp("I-left", hole_path, 1, inner_path=inner_path)
        premise, _ = apply_rule_backward(parse("(p|1 q)|1 r"), RuleApp("I-left", (), 1, inner_path=()))
        assert premise == parse("p|1 r")

    @pytest.mark.parametrize(
        "hole_path, inner_path",
        [("", ""), ((), ""), ("", None), (["L"], ())],
        ids=["str-both", "str-inner", "str-hole", "list-hole"],
    )
    def test_a_hint_s_paths_are_tuples_or_open(self, hole_path, inner_path):
        # Unrefused, the first ended in a TypeError inside check_proof.
        with pytest.raises(ValueError, match="paths must be tuples of steps"):
            RuleHint("I-left", hole_path, 1, inner_path)
        hinted = ProofEntry(parse("(p|1 q)|1 ~p"), RuleHint("I-left", (), 1, ()))
        assert check_proof([ProofEntry(parse("p|~p")), hinted]) is None

    @pytest.mark.parametrize("rule", ["II-left", "II-right", "III"])
    def test_an_inner_path_is_for_rule_one_only(self, rule):
        # Unrefused, check_proof ignored it on the worked proof's II-left step,
        # and print_proof wrote an inner= that parse_proof refuses.
        with pytest.raises(ValueError, match=f"^inner= is for rule I only, not rule {rule}$"):
            RuleHint(rule, (), 1, ("L", "R", "L"))
        RuleHint(rule, (), 1)
        RuleHint(None, (), 1, ("L", "R", "L"))  # a rule-less hint may still name one

    @pytest.mark.parametrize(
        "fields", [{"hole_path": ()}, {"k": 1}, {"inner_path": ("L",)}], ids=["path", "k", "inner"]
    )
    def test_an_axiom_hint_has_no_other_field(self, fields):
        with pytest.raises(ValueError, match="^an axiom hint has no path, k or inner path$"):
            RuleHint(AXIOM, **fields)

    def test_axiom_is_a_hint_not_a_rule(self):
        RuleHint(rule=AXIOM)
        with pytest.raises(ValueError):
            RuleApp(AXIOM, (), 1)


class TestIsAxiom:
    def test_classical_tautologies_qualify(self, a0):
        assert is_axiom(a0)
        assert is_axiom(parse("p|~p"))

    def test_non_tautologies_do_not(self):
        assert not is_axiom(parse("p|q"))

    def test_clustered_cirquents_do_not(self, x_pair, e1):
        assert not is_axiom(x_pair)
        assert not is_axiom(e1)


class TestRuleOneForward:
    def test_grows_a_disjunct_on_the_left(self):
        app = RuleApp("I-left", (), 1, inner_path=("L",), new_subcirquent=Literal("r"))
        assert apply_rule_forward(parse(L5), app) == parse(L6)

    def test_grows_a_disjunct_on_the_right_with_relabeling(self):
        # The premise's key is alone in its cluster, so the unused ID 1
        # may address it; the introduced disjunct lands on the left.
        app = RuleApp("I-right", (), 1, inner_path=("R",), new_subcirquent=Literal("s"))
        assert apply_rule_forward(parse(L4), app) == parse(L5)

    def test_relabeling_to_a_used_id_is_refused(self):
        app = RuleApp("I-right", (), 2, inner_path=("R",), new_subcirquent=Literal("s"))
        with pytest.raises(RuleError):
            apply_rule_forward(parse(L4), app)

    def test_relabeling_to_a_single_member_id_moves_its_holder(self):
        app = RuleApp("I-left", (), 1, inner_path=(), new_subcirquent=Literal("p"))
        conclusion = apply_rule_forward(parse("(q|1 ~q)|2 r"), app)
        assert conclusion == parse("((q|3 ~q)|1 p)|1 r")

    def test_a_moved_holder_takes_the_lowest_unused_id(self):
        """Even when the premise holds the largest ID that prints, which has no successor."""
        app = RuleApp("I-left", (), 1, inner_path=(), new_subcirquent=Literal("p"))
        largest = 10**4300 - 1
        conclusion = apply_rule_forward(parse(f"(q|1 ~q)|2(r|{largest} s)"), app)
        assert conclusion == parse(f"((q|3 ~q)|1 p)|1(r|{largest} s)")

    def test_relabeling_a_multi_member_key_is_refused(self, goal):
        app = RuleApp("I-left", (), 9, inner_path=("L",), new_subcirquent=Literal("r"))
        with pytest.raises(RuleError):
            apply_rule_forward(goal, app)

    def test_key_must_be_a_disjunction(self, x_pair):
        app = RuleApp("I-left", (), 1, inner_path=(), new_subcirquent=Literal("r"))
        with pytest.raises(RuleError):
            apply_rule_forward(x_pair, app)

    def test_missing_pieces_are_rejected(self, goal):
        with pytest.raises(RuleError):
            apply_rule_forward(goal, RuleApp("I-left", (), 1, inner_path=("L",)))
        with pytest.raises(RuleError):
            apply_rule_forward(goal, RuleApp("I-left", (), 1, new_subcirquent=Literal("r")))


class TestRuleTwoForward:
    def test_pulls_the_key_out_of_conjunctions_left(self):
        premise = parse("(p&(r|2 s))|1(q&(r|3 s))")
        app = RuleApp("II-left", (), 1)
        assert apply_rule_forward(premise, app) == parse("(p|1 q)&(r|2 s)")

    def test_pulls_the_key_out_of_conjunctions_right(self):
        premise = parse("((r|2 s)&p)|1((r|3 s)&q)")
        app = RuleApp("II-right", (), 1)
        assert apply_rule_forward(premise, app) == parse("(r|2 s)&(p|1 q)")

    def test_pulls_the_key_out_of_one_cluster(self):
        premise = parse("(p|2 r)|1(q|2 r)")
        assert apply_rule_forward(premise, RuleApp("II-left", (), 1)) == parse("(p|1 q)|2 r")

    def test_pulls_the_key_out_of_two_singleton_disjunctions(self):
        premise = parse("(p|2 r)|1(q|3 r)")
        assert apply_rule_forward(premise, RuleApp("II-left", (), 1)) == parse("(p|1 q)|2 r")

    def test_copies_must_agree(self):
        premise = parse("(p&(r|2 s))|1(q&(r|2 t))")
        with pytest.raises(CopyMismatchError):
            apply_rule_forward(premise, RuleApp("II-left", (), 1))

    def test_copy_ids_matter_once_a_cluster_is_shared(self):
        premise = parse("((p&(r|2 s))|1(q&(r|3 s)))&(p|3 q)")
        with pytest.raises(CopyMismatchError):
            apply_rule_forward(premise, RuleApp("II-left", ("L",), 1))

    def test_mixed_connectives_are_refused(self):
        premise = parse("(p&q)|1(r|2 s)")
        with pytest.raises(ConnectiveConstraintError):
            apply_rule_forward(premise, RuleApp("II-left", (), 1))

    def test_multi_member_disjunctions_in_two_clusters_are_refused(self):
        premise = parse("((p|2 q)|1(r|3 s))&(p|2 q)")
        with pytest.raises(ConnectiveConstraintError):
            apply_rule_forward(premise, RuleApp("II-left", ("L",), 1))

    def test_literal_operands_are_refused(self):
        with pytest.raises(ShapeMismatchError):
            apply_rule_forward(parse("p|1 q"), RuleApp("II-left", (), 1))


class TestRuleThreeForward:
    def test_merges_under_conjunctions(self):
        premise = parse("(p&r)|1(q&s)")
        assert apply_rule_forward(premise, RuleApp("III", (), 1)) == parse("(p|1 q)&(r|1 s)")

    def test_merges_under_singleton_disjunctions(self):
        premise = parse("(p|3 r)|1(q|4 s)")
        assert apply_rule_forward(premise, RuleApp("III", (), 1)) == parse("(p|1 q)|3(r|1 s)")

    def test_merges_within_one_cluster(self):
        premise = parse("((p|2 r)|1(q|2 s))&(p|2 q)")
        conclusion = apply_rule_forward(premise, RuleApp("III", ("L",), 1))
        assert conclusion == parse("((p|1 q)|2(r|1 s))&(p|2 q)")


class TestBackward:
    def test_rule_one_deletes_the_disjunct_and_records_it(self, goal):
        premise, completed = apply_rule_backward(
            goal, RuleApp("I-left", (), 1, inner_path=("L",))
        )
        assert premise == parse(L5)
        assert completed.new_subcirquent == Literal("r")
        assert apply_rule_forward(premise, completed) == goal

    def test_rule_one_needs_the_inner_disjunction_in_the_key_cluster(self):
        app = RuleApp("I-right", (), 1, inner_path=())
        with pytest.raises(RuleError):
            apply_rule_backward(parse("p|1(q|2 ~p)"), app)

    def test_backward_keys_are_rigid(self, goal):
        with pytest.raises(RuleError):
            apply_rule_backward(goal, RuleApp("I-left", (), 9, inner_path=("L",)))

    def test_rule_two_duplicates_and_freshens_the_copy(self):
        app = RuleApp("II-left", (), 1)
        premise, completed = apply_rule_backward(parse("(p|1 q)&(r|2 s)"), app)
        assert premise == parse("(p&(r|2 s))|1(q&(r|3 s))")
        assert completed == app
        assert apply_rule_forward(premise, completed) == parse("(p|1 q)&(r|2 s)")

    def test_rule_two_copies_a_deep_operand(self):
        shared = replace_at(deep_chain(5000), ("L",) * 4999, Or(2, P, Q))
        conclusion = And(Or(5, P, NOT_P), shared)
        premise, completed = apply_rule_backward(conclusion, RuleApp("II-left", (), 5))
        assert premise.left.right is shared
        assert cluster_map(premise.right.right, shared) == {1: 1, 3: 2}
        assert cluster_struct_match(apply_rule_forward(premise, completed), conclusion)

    def test_rule_two_right_mirrors(self):
        premise, _ = apply_rule_backward(
            parse("(r|2 s)&(p|1 q)"), RuleApp("II-right", (), 1)
        )
        assert premise == parse("((r|2 s)&p)|1((r|3 s)&q)")

    def test_rule_two_left_mints_the_connective_before_the_copy(self):
        premise, _ = apply_rule_backward(
            parse("(p|1 q)|2(r|3 s)"), RuleApp("II-left", (), 1)
        )
        assert premise == parse("(p|2(r|3 s))|1(q|4(r|5 s))")

    def test_rule_two_right_freshens_the_copy_before_the_connective(self):
        premise, _ = apply_rule_backward(
            parse("(r|3 s)|2(p|1 q)"), RuleApp("II-right", (), 1)
        )
        assert premise == parse("((r|3 s)|2 p)|1((r|4 s)|5 q)")

    def test_rule_two_keeps_a_shared_cluster(self):
        premise, _ = apply_rule_backward(
            parse("((p|1 q)|2 r)&(p|2 q)"), RuleApp("II-left", ("L",), 1)
        )
        assert premise == parse("((p|2 r)|1(q|2 r))&(p|2 q)")

    def test_rule_three_mints_both_singleton_connectives(self):
        premise, completed = apply_rule_backward(
            parse("(p|1 q)|2(r|1 s)"), RuleApp("III", (), 1)
        )
        assert premise == parse("(p|3 r)|1(q|4 s)")
        replay = apply_rule_forward(premise, completed)
        assert cluster_struct_match(replay, parse("(p|1 q)|2(r|1 s)"))

    def test_rule_three_under_a_conjunction(self):
        premise, _ = apply_rule_backward(
            parse("(p|1 q)&(r|1 s)"), RuleApp("III", (), 1)
        )
        assert premise == parse("(p&r)|1(q&s)")

    def test_rule_three_keeps_a_shared_cluster(self):
        premise, _ = apply_rule_backward(
            parse("((p|1 q)|2(r|1 s))&(p|2 q)"), RuleApp("III", ("L",), 1)
        )
        assert premise == parse("((p|2 r)|1(q|2 s))&(p|2 q)")

    def test_rule_three_needs_both_operands_in_the_key_cluster(self):
        with pytest.raises(RuleError):
            apply_rule_backward(parse("(p|1 q)&(r|2 s)"), RuleApp("III", (), 1))

    @pytest.mark.parametrize("rule", RULES)
    def test_a_path_through_a_literal_is_a_rule_error(self, rule):
        app = RuleApp(rule, ("L", "L", "L"), 1, inner_path=(), new_subcirquent=Q)
        for apply in (apply_rule_backward, apply_rule_forward):
            with pytest.raises(RuleError, match="^path LLL steps through the literal p$"):
                apply(parse("(p|1 q)&(p|1 r)"), app)

    def test_rules_two_and_three_need_a_connective_at_the_hole(self):
        with pytest.raises(ShapeMismatchError):
            apply_rule_backward(parse("p|1 q"), RuleApp("II-left", ("L",), 1))

    @pytest.mark.parametrize("rule,kind", RULE_FAMILIES)
    def test_backward_then_forward_agrees_up_to_singleton_ids(self, rule, kind):
        rng = random.Random(100 + RULE_FAMILIES.index((rule, kind)))
        for _ in range(20):
            conclusion, app = rand_rule_instance(rng, rule, kind)
            premise, completed = apply_rule_backward(conclusion, app)
            replay = apply_rule_forward(premise, completed)
            assert cluster_struct_match(replay, conclusion)

    @pytest.mark.parametrize("rule,kind", RULE_FAMILIES)
    def test_rules_preserve_truth_under_every_interpretation(self, rule, kind):
        rng = random.Random(200 + RULE_FAMILIES.index((rule, kind)))
        for _ in range(10):
            conclusion, app = rand_rule_instance(rng, rule, kind)
            premise, _ = apply_rule_backward(conclusion, app)
            names = atoms(premise) | atoms(conclusion)
            for i in interpretations(names):
                assert true_under(premise, i) == true_under(conclusion, i)


def _outcome(apply, c, app):
    """The rule's result, or the class of the error it raises."""
    try:
        return apply(c, app)
    except (RuleError, InvalidPathError) as e:
        return type(e)


def _every_application(rng, c):
    """Every rule at every hole of ``c`` and at one path through a literal.

    Each is tried under every ID of ``c`` and one unused; rule I with
    inner paths that do and do not address a node.
    """
    ids = sorted(cluster_ids(c))
    ids.append(max(ids, default=0) + 1)
    holes = positions(c)
    holes.append(next(h for h in holes if isinstance(subcirquent_at(c, h), Literal)) + ("L",))
    inners = [None] + holes
    for hole in holes:
        for rule in ("I-left", "I-right", "II-left", "II-right", "III"):
            for k in ids:
                for inner in inners if rule.startswith("I-") else (None, ("L",)):
                    new = rng.choice((None, Literal("q"), Or(k, P, NOT_P)))
                    yield RuleApp(rule, hole, k, inner, new)


class TestRulesAgainstReference:
    """The operand table gives what one function per rule gave: equal trees,
    IDs included, the same deleted disjunct, or the same error class."""

    @pytest.mark.parametrize("rule,kind", RULE_FAMILIES)
    def test_rule_instances(self, rule, kind):
        rng = random.Random(700 + RULE_FAMILIES.index((rule, kind)))
        for _ in range(60):
            conclusion, app = rand_rule_instance(rng, rule, kind)
            premise, completed = apply_rule_backward(conclusion, app)
            assert (premise, completed) == apply_rule_backward_reference(conclusion, app)
            assert apply_rule_forward(premise, completed) == apply_rule_forward_reference(
                premise, completed
            )

    def test_forward_steps(self):
        rng = random.Random(71)
        steps = 0
        for _ in range(60):
            premise = rand_step_premise(rng)
            for conclusion, app in forward_steps(rng, premise):
                steps += 1
                assert apply_rule_forward(premise, app) == apply_rule_forward_reference(premise, app)
                assert _outcome(apply_rule_backward, conclusion, app) == _outcome(
                    apply_rule_backward_reference, conclusion, app
                )
        assert steps > 1000

    def test_every_rule_at_every_hole(self):
        rng = random.Random(72)
        trees = [parse(text) for text in (L1, L2, L3, L4, L5, L6)]
        trees += [rand_rule_instance(rng, rule, kind)[0] for rule, kind in RULE_FAMILIES]
        trees += [rand_step_premise(rng) for _ in range(12)]
        seen = set()
        for c in trees:
            for app in _every_application(rng, c):
                forward = _outcome(apply_rule_forward, c, app)
                assert forward == _outcome(apply_rule_forward_reference, c, app)
                backward = _outcome(apply_rule_backward, c, app)
                assert backward == _outcome(apply_rule_backward_reference, c, app)
                seen.update(x if isinstance(x, type) else "applied" for x in (forward, backward))
        errors = {RuleError, ShapeMismatchError, CopyMismatchError, ConnectiveConstraintError}
        assert seen == {"applied"} | errors


class TestMint:
    """Rules II and III backward draw fresh IDs smallest unused first, in text order."""

    def test_fresh_returns_the_smallest_unused_id_each_time(self):
        rng = random.Random(43)
        for _ in range(60):
            rest = rand_cirquent(rng, rng.randint(1, 8), max_cluster=9)
            k, m = rng.sample(range(1, 13), 2)
            if cluster_size(rest, m):
                continue
            a, b, c, d = (Literal(name) for name in "abcd")
            conclusion = And(Or(m, Or(k, a, b), Or(k, c, d)), rest)
            used = set(clusters(conclusion))
            first = min(set(range(1, len(used) + 2)) - used)
            second = min(set(range(1, len(used) + 3)) - used - {first})
            premise = apply_rule_backward(conclusion, RuleApp("III", ("L",), k))[0]
            assert premise == And(Or(k, Or(first, a, c), Or(second, b, d)), rest)

    def test_rule_three_under_a_single_member_or_skips_the_used_ids(self):
        conclusion = parse("((p|1 q)|2(r|1 s))&(t|4 u)")
        premise, _ = apply_rule_backward(conclusion, RuleApp("III", ("L",), 1))
        assert premise == parse("((p|3 r)|1(q|5 s))&(t|4 u)")

    def test_rule_two_freshens_the_copys_single_member_ids_in_text_order(self):
        conclusion = parse("((p|1 q)&((r|4 s)|2(t|6 u)))|2 v")
        premise, _ = apply_rule_backward(conclusion, RuleApp("II-left", ("L",), 1))
        assert premise == parse("((p&((r|4 s)|2(t|6 u)))|1(q&((r|3 s)|2(t|5 u))))|2 v")

    def test_a_copy_before_the_connective_is_freshened_first(self):
        conclusion = parse("((r|4 s)|3(p|1 q))|2(t|2 u)")
        premise, _ = apply_rule_backward(conclusion, RuleApp("II-right", ("L",), 1))
        assert premise == parse("(((r|4 s)|3 p)|1((r|5 s)|6 q))|2(t|2 u)")


class TestClusterStructMatch:
    def test_singleton_ids_are_anonymous(self):
        assert cluster_struct_match(parse("(p|1 q)|2 r"), parse("(p|1 q)|9 r"))

    def test_multi_member_ids_are_rigid(self):
        assert not cluster_struct_match(parse("(p|1 q)|1 r"), parse("(p|2 q)|2 r"))

    def test_partitions_must_agree(self):
        assert not cluster_struct_match(parse("(p|1 q)|1 r"), parse("(p|1 q)|2 r"))

    def test_shapes_must_agree(self):
        assert not cluster_struct_match(parse("p|1 q"), parse("p&q"))


class TestMatchStep:
    def test_finds_each_worked_proof_step(self):
        stages = [parse(text) for text in (L1, L2, L3, L4, L5, L6)]
        found = [
            match_step(premise, conclusion)
            for premise, conclusion in zip(stages, stages[1:])
        ]
        assert [app.rule for app in found] == [
            "III", "II-left", "II-right", "I-right", "I-left",
        ]
        assert [app.hole_path for app in found] == [(), ("R",), ("L",), (), ()]
        assert found[0].k == 2
        assert found[3].k == 1
        assert found[3].inner_path == ("R",)
        assert found[4].inner_path == ("L",)
        assert found[:2] == [RuleApp("III", (), 2), RuleApp("II-left", ("R",), 2)]

    def test_respects_a_full_hint(self):
        hint = RuleHint("I-left", (), 1, ("L",))
        app = match_step(parse(L5), parse(L6), hint)
        assert app is not None and app.rule == "I-left"

    def test_a_wrong_hint_blocks_the_match(self):
        assert match_step(parse(L5), parse(L6), RuleHint(rule="III")) is None
        assert match_step(parse(L5), parse(L6), RuleHint(k=2)) is None
        assert match_step(parse(L5), parse(L6), RuleHint(hole_path=("L",))) is None

    def test_hint_paths_that_address_no_candidate(self):
        for hint in (
            RuleHint(hole_path=("L", "L", "L")),  # a literal
            RuleHint(hole_path=("L", "L", "L", "L")),  # through a literal
            RuleHint("I-left", (), 1, ("R",)),  # a disjunction of cluster 2
            RuleHint("I-left", (), 1, ("L", "L", "L")),  # through a literal
        ):
            assert match_step(parse(L5), parse(L6), hint) is None

    def test_a_hint_s_inner_path_admits_only_rule_one(self):
        """Entry 3 of the worked proof follows from entry 2 by II-left at R, which has no inner position."""
        premise, conclusion = parse(L2), parse(L3)
        assert match_step(premise, conclusion, RuleHint(None, ("R",), 2)) == RuleApp("II-left", ("R",), 2)
        for hint in (RuleHint(None, ("R",), 2, ("L", "R", "L")), RuleHint(inner_path=("L", "R", "L"))):
            assert match_step(premise, conclusion, hint) is None
            assert list(ifp.calculus._candidates_in(premise, conclusion, hint)) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_a_match_agrees_with_every_field_its_hint_gives(self, seed):
        """Each hint field is open, the step's own, or drawn at random; k counts only on a multi-member key.

        The seed drives plain ``random``: the steps draw too much for Hypothesis's own randoms.
        """
        rng = random.Random(seed)
        for _ in range(4):
            premise = rand_step_premise(rng)
            for conclusion, app in forward_steps(rng, premise):
                paths = positions(conclusion)
                for _ in range(2):
                    rule = rng.choice([None, app.rule, rng.choice(RULES)])
                    hole = rng.choice([None, app.hole_path, rng.choice(paths)])
                    k = rng.choice([None, app.k, rng.randint(1, 9)])
                    inner = None if rule in _MERGED else rng.choice([None, app.inner_path, rng.choice(paths)])
                    found = match_step(premise, conclusion, RuleHint(rule, hole, k, inner))
                    if found is not None:
                        assert rule in (None, found.rule)
                        assert hole in (None, found.hole_path)
                        assert inner in (None, found.inner_path)
                        assert k in (None, found.k) or cluster_size(conclusion, found.k) == 1

    def test_unrelated_cirquents_do_not_match(self):
        assert match_step(parse(L1), parse(L3)) is None
        assert match_step(parse("p"), parse("q")) is None

    def test_a_hint_k_on_a_single_member_key_is_not_compared(self):
        # Single-member IDs are not printed, so re-parsing renumbers them.
        hint = RuleHint("II-left", (), 5)
        app = match_step(parse("(p&r)|(q&r)"), parse("(p|q)&r"), hint)
        assert app is not None and app.rule == "II-left"

    def test_accepts_every_step_the_premise_driven_matcher_accepts(self):
        rng = random.Random(31)
        steps = accepted = 0
        for _ in range(20):
            premise = rand_step_premise(rng)
            for conclusion, app in forward_steps(rng, premise):
                hint = RuleHint(app.rule, app.hole_path, app.k, app.inner_path)
                assert match_step(premise, conclusion, hint) is not None
                # A copy with one disjunction moved to another cluster may
                # or may not still be a step.
                where = rng.choice(or_positions(conclusion))
                node = subcirquent_at(conclusion, where)
                moved = replace_at(conclusion, where, Or(rng.randint(1, 9), node.left, node.right))
                for candidate in (conclusion, moved):
                    steps += 1
                    found = match_step(premise, candidate)
                    if match_step_reference(premise, candidate) is not None:
                        assert found is not None
                    if found is not None:
                        accepted += 1
                        names = atoms(premise) | atoms(candidate)
                        for i in interpretations(names):
                            assert true_under(premise, i) == true_under(candidate, i)
        assert steps > 2000 and accepted > steps // 2


class TestLocalizedHoles:
    """Without a hinted hole, ``match_step`` tries only the connectives above
    what the step changed, and returns what trying every candidate returns."""

    def test_a_single_member_id_in_the_premise_may_change_outside_rule_ones_hole(self):
        # Cluster 7 has two members in the conclusion, so L differs for
        # rules II and III; cluster 8 has one in the premise, so not for
        # rule I.  Counting L for every rule would leave only the root.
        premise, conclusion = parse("(p|8 q)&(r|3 s)"), parse("(p|7 q)&((r|3(t|7 u))|3 s)")
        assert ifp.calculus._meets(premise, conclusion) == (("R", "L"), ())
        found = match_step(premise, conclusion)
        assert found == RuleApp("I-left", ("R",), 3, (), parse("t|7 u"))
        assert found == first_match_reference(premise, conclusion)

    def test_rule_three_renames_a_single_member_holder_outside_the_hole(self):
        script = parse_proof(
            "1. ((p&q)|(~p&~q))|((p&~q)|(~p&q)) axiom\n"
            "2. ((p|3 ~p)&(q|3 ~q))|((p&~q)|(~p&q))\n"
        )
        premise, conclusion = (entry.cirquent for entry in script)
        assert members(premise, 3) == [("R",)]
        found = match_step(premise, conclusion)
        assert found == RuleApp("III", ("L",), 3)
        assert found == first_match_reference(premise, conclusion)
        assert check_proof(script) is None

    def test_rule_three_steps_that_change_no_shape(self):
        unchanged = parse("(p|1 q)|1(q|1 r)")
        for premise, conclusion in (
            (parse("(p|2 q)|1(q|2 r)"), parse("(p|1 q)|2(q|1 r)")),  # only IDs change
            (unchanged, parse("(p|1 q)|1(q|1 r)")),  # nothing changes
            (unchanged, unchanged),  # nothing changes, and the walk enters nothing
        ):
            found = match_step(premise, conclusion)
            assert found == RuleApp("III", (), 1)
            assert found == first_match_reference(premise, conclusion)

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_proofs_of_the_nested_family(self, d):
        rng = random.Random(90 + d)
        proof = decide(nested_family(d, True)).proof
        for script in (proof, parse_proof(print_proof(proof))):
            entries = [entry.cirquent for entry in script]
            for premise, conclusion in zip(entries, entries[1:]):
                _assert_first_match(premise, conclusion)
            for premise, conclusion in rng.sample(list(zip(entries, entries[1:])), 4):
                _assert_first_match(premise, _shuffled_singles(rng, conclusion))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(cirquents(), nested_cirquents()), st.randoms(use_true_random=False))
    def test_forward_steps(self, premise, rng):
        for conclusion, _ in forward_steps(rng, premise):
            _assert_first_match(premise, conclusion)
            _assert_first_match(premise, _shuffled_singles(rng, conclusion))

    def test_forward_steps_of_displayed_keys(self):
        rng = random.Random(93)
        under_or = 0
        for _ in range(40):
            premise = rand_step_premise(rng)
            for conclusion, app in forward_steps(rng, premise):
                _assert_first_match(premise, conclusion)
                _assert_first_match(premise, _shuffled_singles(rng, conclusion))
                _assert_first_match(premise, conclusion, RuleHint(app.rule, None, app.k, app.inner_path))
                under_or += app.rule == "III" and isinstance(subcirquent_at(conclusion, app.hole_path), Or)
        assert under_or > 10

    def test_a_step_that_changes_nothing_is_still_rule_three_at_the_root(self):
        # Nothing differs, so every connective is a hole; rule III adds no
        # node, while rule II at the root would drop four.
        c = parse("(p|1 q)|1(q|1 r)")
        assert list(ifp.calculus._candidates_in(c, c, RuleHint())) == [(RuleApp("III", (), 1), None)]
        assert match_step(c, c) == RuleApp("III", (), 1) == first_match_reference(c, c)

    def test_node_counts_drop_a_rule_two_candidate_above_the_meet(self, monkeypatch):
        # Rule I-left at L grows a into a|2 b, two nodes more; rule II-left
        # at the root or at L would drop the key's place and a copy of its
        # right operand, two nodes fewer.
        premise, conclusion = parse("(a|2 c)&d"), parse("((a|2 b)|2 c)&d")
        assert ifp.calculus._meets(premise, conclusion) == (("L", "L"), ("L", "L"))
        hint = RuleHint(rule="II-left")
        assert list(candidates_reference(conclusion, hint)) == [
            RuleApp("II-left", (), 2),
            RuleApp("II-left", ("L",), 2),
        ]
        assert list(ifp.calculus._candidates_in(premise, conclusion, hint)) == []
        applied = []
        forward = ifp.calculus.apply_rule_forward
        counted = lambda *a: applied.append(a) or forward(*a)  # noqa: E731
        monkeypatch.setattr(ifp.calculus, "apply_rule_forward", counted)
        assert match_step(premise, conclusion) == RuleApp("I-left", ("L",), 2, (), parse("b"))
        assert match_step(premise, conclusion, hint) is None
        assert applied == []

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_the_nested_family_applies_one_rule_per_step(self, d, monkeypatch):
        applied = []
        for name in ("apply_rule_forward", "_ungrow"):  # rule I is undone by _ungrow
            apply = getattr(ifp.calculus, name)
            counted = lambda *a, apply=apply: applied.append(a) or apply(*a)  # noqa: E731
            monkeypatch.setattr(ifp.calculus, name, counted)
        proof = decide(nested_family(d, True)).proof
        for script in (proof, parse_proof(print_proof(proof))):
            applied.clear()
            assert check_proof(_stripped(script)) is None
            assert len(applied) == len(script) - 1

    def test_the_nested_family_tries_at_most_a_tenth_of_the_candidates(self):
        entries = [entry.cirquent for entry in decide(nested_family(4, True)).proof]
        steps = list(zip(entries, entries[1:]))
        localized = sum(len(list(ifp.calculus._candidates_in(p, c, RuleHint()))) for p, c in steps)
        every = sum(len(list(candidates_reference(c, RuleHint()))) for _, c in steps)
        assert 10 * localized <= every


def _assert_first_match(premise, conclusion, hint=None) -> None:
    assert match_step(premise, conclusion, hint) == first_match_reference(premise, conclusion, hint)


def _shuffled_singles(rng, c):
    """``c`` with its single-member cluster IDs permuted among themselves and unused IDs."""
    singles = [k for k in cluster_ids(c) if cluster_size(c, k) == 1]
    pool = singles + [max(cluster_ids(c), default=0) + i for i in range(1, len(singles) + 1)]
    mapping = {k: k for k in cluster_ids(c)}
    mapping.update(zip(singles, rng.sample(pool, len(singles))))
    return rename_clusters(c, mapping)


class TestCheckProof:
    def test_the_worked_proof_checks_out(self, worked_proof_text):
        assert check_proof(parse_proof(worked_proof_text)) is None

    def test_hints_are_optional(self, worked_proof_text):
        assert check_proof(_stripped(parse_proof(worked_proof_text))) is None

    def test_a_single_axiom_is_a_proof(self):
        assert check_proof(ProofScript((ProofEntry(parse("p|~p"), None),))) is None

    def test_non_axiom_start(self):
        script = ProofScript((ProofEntry(parse("p"), None),))
        assert check_proof(script) == CheckFailure(1, "not-an-axiom")

    def test_a_valid_clustered_start_is_no_axiom(self, e1):
        assert valid(e1)
        assert check_proof(ProofScript((ProofEntry(e1, None),))) == CheckFailure(1, "not-an-axiom")

    def test_unjustifiable_entry(self):
        script = ProofScript(
            (ProofEntry(parse("p|~p"), None), ProofEntry(parse("p|~p"), None))
        )
        assert check_proof(script) == CheckFailure(2, "no-rule-matches")

    def test_partial_hints_match_as_trying_every_candidate_does(self):
        # Lines 5 and 6 name rule I's hole without its inner position, which
        # the matcher then reads off the members of the key's cluster.
        text = (
            f"1. {L1} axiom\n2. {L2} rule=III\n3. {L3} rule=II-left path=R\n4. {L4}\n"
            f"5. {L5} rule=I-right path=. k=1\n6. {L6} rule=I-left path=.\n"
        )
        script = parse_proof(text)
        assert check_proof(script) is None
        for premise, entry in zip(script.entries, script.entries[1:]):
            found = match_step(premise.cirquent, entry.cirquent, entry.hint)
            assert found is not None
            assert found == first_match_reference(premise.cirquent, entry.cirquent, entry.hint)
        wrong = parse_proof(text.replace("k=1\n", "k=1 inner=L\n"))
        assert check_proof(wrong) == CheckFailure(5, "no-rule-matches")

    def test_a_wrong_hint_fails_its_line(self, worked_proof_text):
        script = parse_proof(worked_proof_text)
        entries = list(script.entries)
        entries[2] = ProofEntry(entries[2].cirquent, RuleHint(rule="III"))
        assert check_proof(ProofScript(tuple(entries))) == CheckFailure(3, "no-rule-matches")

    @pytest.mark.parametrize(
        "goal",
        [
            "(((q|2 ~q)|1 p)|1 r)",
            "((((~q&q)|3 ((p&p)&(p|3 ~p)))&((~q&q)&(q&q)))|2 (p|1 (~p&~p)))",
        ],
    )
    def test_a_printed_proof_checks_after_re_parsing(self, goal):
        script = parse_proof(print_proof(prove(parse(goal))))
        assert check_proof(script) is None
        assert check_proof(_stripped(script)) is None

    def test_rule_one_may_absorb_a_single_member_cluster(self):
        script = parse_proof(
            "1. (p|~p)|q axiom\n"
            "2. ((p|3 ~p)|2(r|3 s))|2 q rule=I-left path=. k=2 inner=.\n"
        )
        assert check_proof(script) is None

    @settings(max_examples=100, deadline=None)
    @given(valid_cirquents())
    def test_printed_proofs_of_valid_cirquents_check(self, goal):
        script = parse_proof(print_proof(prove(goal)))
        assert check_proof(script) is None
        assert check_proof(_stripped(script)) is None

    def test_empty_scripts_cannot_exist(self):
        with pytest.raises(ValueError):
            ProofScript(())

    def test_no_entries_are_no_proof(self):
        with pytest.raises(ValueError):
            check_proof([])

    def test_no_entry_past_the_first_bad_one_is_read(self):
        def entries():
            yield ProofEntry(parse("p|~p"))
            yield ProofEntry(parse("p|q"))
            raise AssertionError("read past the failing entry")

        assert check_proof(entries()) == CheckFailure(2, "no-rule-matches")

    @settings(max_examples=50, deadline=None)
    @given(valid_cirquents(), st.randoms(use_true_random=False))
    def test_a_stream_of_entries_checks_as_its_script_does(self, goal, rng):
        entries = list(decide(goal).proof)
        for script in (
            ProofScript(entries),
            ProofScript(rng.sample(entries, len(entries))),  # fails at some line, unless it is the proof
            _stripped(ProofScript(entries)),
            ProofScript(entries[1:] or entries),  # no axiom, unless the goal is one
        ):
            assert check_proof(iter(script)) == check_proof(script)


class TestSharedSubtrees:
    """Entries that share subtrees, as in-memory proofs do, check as their
    unshared copies do, also when one entry is changed where it shares a
    subtree with its neighbour.  Every step the premise-driven reference
    accepts is accepted, every accepted step keeps the truth value under
    every interpretation, and without hints every step, accepted or not,
    matches as when every candidate is tried."""

    @settings(max_examples=40, deadline=None)
    @given(valid_cirquents(), st.randoms(use_true_random=False))
    def test_proofs_of_valid_cirquents(self, goal, rng):
        _check_mutated_proofs(decide(goal).proof, rng)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_proofs_of_the_nested_family(self, d):
        _check_mutated_proofs(decide(nested_family(d, True)).proof, random.Random(80 + d))

    def test_a_hinted_check_asks_multi_member_only_for_the_axiom(self, monkeypatch):
        proof = decide(nested_family(4, True)).proof
        calls = []

        def counted(c):
            calls.append(c)
            return multi_member(c)

        for module in (ifp.core, ifp.semantics, ifp.calculus, ifp.syntax, ifp.prover):
            if hasattr(module, "multi_member"):
                monkeypatch.setattr(module, "multi_member", counted)
        assert is_axiom(proof.entries[0].cirquent)
        axiom_calls = len(calls)  # the size bound of the axiom's validity check
        calls.clear()
        assert check_proof(proof) is None
        assert len(calls) == axiom_calls

    def test_forward_steps(self):
        rng = random.Random(84)
        steps = accepted = 0
        for _ in range(20):
            premise = rand_step_premise(rng)
            for conclusion, app in forward_steps(rng, premise):
                hint = RuleHint(app.rule, app.hole_path, app.k, app.inner_path)
                for mutant in _mutants(rng, conclusion, premise):
                    steps += 1
                    accepted += _check_step(premise, mutant, hint)
                for mutant in _mutants(rng, premise, conclusion):
                    steps += 1
                    accepted += _check_step(mutant, conclusion, hint)
        assert steps > 1000 and 0 < accepted < steps


def _unshared(c):
    """A copy of ``c`` that shares no connective with any other cirquent."""
    return map_clusters(c, lambda k: k)


def _recluster(c, where, k):
    """``c`` with the disjunction at ``where`` moved to cluster ``k``; only the path to it is rebuilt."""
    node = subcirquent_at(c, where)
    return replace_at(c, where, Or(k, node.left, node.right))


def _mutants(rng, c, neighbour):
    """``c`` with a disjunction it shares with ``neighbour`` renamed to a fresh ID,
    and ``c`` with any one disjunction moved to another of its clusters."""
    theirs = {id(node) for _, node in walk(neighbour)}
    shared = [p for p, node in walk(c) if isinstance(node, Or) and id(node) in theirs]
    ids = set(cluster_ids(c))
    found = []
    if shared:
        found.append(_recluster(c, rng.choice(shared), max(ids) + 1))
    hosts = or_positions(c)
    if hosts:
        where = rng.choice(hosts)
        others = sorted(ids - {subcirquent_at(c, where).cluster})
        if others:
            found.append(_recluster(c, where, rng.choice(others)))
    return found


def _check_step(premise, conclusion, hint) -> bool:
    """Assert what the class docstring says of one step; return whether it is accepted."""
    _assert_first_match(premise, conclusion)
    found = match_step(premise, conclusion, hint)
    assert found == match_step(_unshared(premise), _unshared(conclusion), hint)
    if match_step_reference(_unshared(premise), _unshared(conclusion), hint) is not None:
        assert found is not None
    if found is None:
        return False
    for i in interpretations(atoms(premise) | atoms(conclusion)):
        assert true_under(premise, i) == true_under(conclusion, i)
    return True


def _check_mutated_proofs(proof: ProofScript, rng, sites: int = 6) -> None:
    """Change up to ``sites`` entries of ``proof`` one at a time and check each result."""
    entries = list(proof.entries)
    copies = [ProofEntry(_unshared(entry.cirquent), entry.hint) for entry in entries]
    assert check_proof(proof) is None
    assert check_proof(ProofScript(tuple(copies))) is None
    for i in rng.sample(range(1, len(entries)), min(sites, len(entries) - 1)):
        j = i - 1 if i + 1 == len(entries) or rng.random() < 0.5 else i + 1
        for mutant in _mutants(rng, entries[i].cirquent, entries[j].cirquent):
            changed = entries[:i] + [ProofEntry(mutant, entries[i].hint)] + entries[i + 1 :]
            copy = copies[:i] + [ProofEntry(_unshared(mutant), entries[i].hint)] + copies[i + 1 :]
            assert check_proof(ProofScript(tuple(changed))) == check_proof(ProofScript(tuple(copy)))
            for k in range(i, min(i + 2, len(entries))):
                _check_step(changed[k - 1].cirquent, changed[k].cirquent, changed[k].hint)


def _stripped(script: ProofScript) -> ProofScript:
    return ProofScript(tuple(ProofEntry(entry.cirquent, None) for entry in script))
