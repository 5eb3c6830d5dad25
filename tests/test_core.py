"""Tests for the cirquent tree: paths, clusters, isomorphism."""

import copy
import gc
import itertools
import pathlib
import pickle
import re
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, strategies as st

import ifp.calculus
import ifp.core
from helpers import (
    assert_summary_matches_walk,
    atoms,
    cirquents,
    cluster_iso_reference,
    cluster_map_reference,
    cluster_struct_match_reference,
    deep_chain,
    nested_cirquents,
    nested_family,
    or_positions,
    positions,
    rename_clusters,
    require_copies_reference,
    unused_ids_reference,
    with_large_ids,
)
from ifp import (
    And,
    Literal,
    Or,
    ProofEntry,
    ProofScript,
    RuleApp,
    canonicalize_ids,
    check_proof,
    cluster_ids,
    cluster_map,
    cluster_struct_match,
    cluster_size,
    clusters,
    decide,
    first_nested,
    members,
    multi_member,
    parse,
    parse_proof,
    print_cirquent,
    print_proof,
    replace_at,
    resolve_cluster,
    subcirquent_at,
    valid,
)
from ifp.calculus import CheckFailure, CopyMismatchError
from ifp.core import (
    InvalidPathError,
    ROOT,
    is_classical,
    node_count,
    walk,
)
from ifp.prover import PreconditionError

P = Literal("p")
NOT_P = Literal("p", positive=False)
Q = Literal("q")


class TestNodes:
    def test_literal_str(self):
        assert str(P) == "p"
        assert str(NOT_P) == "~p"

    @pytest.mark.parametrize("bad", [0, -1, "1", 1.5, None, True])
    def test_cluster_ids_are_positive_integers(self, bad):
        with pytest.raises(ValueError, match="cluster IDs"):
            Or(bad, P, Q)

    @pytest.mark.parametrize("bad", ["~p", "p q", "", "1p", "p\n", 7])
    def test_atom_names_follow_the_grammar(self, bad):
        # Each would print as text that parses to another tree, or to none.
        with pytest.raises(ValueError, match="atom names"):
            Literal(bad)

    @pytest.mark.parametrize("bad", ["yes", "", 1, 0, None])
    def test_polarities_are_bools(self, bad):
        # Each would print as p or ~p, which parses back with a bool polarity instead.
        with pytest.raises(ValueError, match="polarities"):
            Literal("p", bad)

    def test_cluster_ids_are_short_enough_to_print(self):
        digits = sys.get_int_max_str_digits()
        largest = Or(10**digits - 1, P, Q)
        assert parse(repr(largest)) == largest
        with pytest.raises(ValueError, match=f"cluster IDs have at most {digits} digits"):
            Or(10**digits, P, Q)

    def test_nodes_hash_and_compare_by_value(self):
        assert Or(1, P, Q) == Or(1, P, Q)
        assert Or(1, P, Q) != Or(2, P, Q)
        assert len({And(P, Q), And(P, Q)}) == 1

    def test_deep_trees_compare_and_hash_without_recursion(self):
        def conjunction_chain(leaf):
            c = leaf
            for _ in range(50_000):
                c = And(c, Q)
            return c

        a, b = conjunction_chain(P), conjunction_chain(P)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != conjunction_chain(NOT_P)
        assert deep_chain(50_000) == deep_chain(50_000)
        assert hash(deep_chain(50_000)) == hash(deep_chain(50_000))
        assert deep_chain(50_000) != deep_chain(50_000, cluster=7)


class TestValueTypes:
    """Nodes and the records built from them are immutable values."""

    def test_assignment_and_deletion_raise_attribute_error(self):
        for value, name in (P, "atom"), (Or(1, P, Q), "left"), (RuleApp("III", (), 1), "k"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert value == copy.copy(value)

    def test_records_of_another_class_are_unequal_and_equal_records_hash_alike(self):
        assert RuleApp("III", (), 1) != CheckFailure(1, "III")
        assert CheckFailure(2, "no-rule-matches") == CheckFailure(2, "no-rule-matches")
        assert hash(RuleApp("III", ("L",), 2)) == hash(RuleApp("III", ("L",), 2))
        assert hash(NOT_P) == hash(Literal("p", False)) == hash(("p", False))

    def test_records_repr_their_class_and_fields(self):
        assert repr(P) == "Literal(atom='p', positive=True)"
        assert repr(CheckFailure(1, "not-an-axiom")) == "CheckFailure(line=1, reason='not-an-axiom')"

    def test_copies_and_pickles_equal_the_original(self):
        c = parse("((q|1 r)&(p|2 ~p))|1((p|2 ~p)&(s|1 ~q))")
        decision = decide(c)
        assert c.summary is not None
        failure = check_proof(ProofScript((ProofEntry(parse("p|1 q")),)))
        assert isinstance(failure, CheckFailure)
        deep = deep_chain(5000)
        for value in (c, decision, decision.proof, decision.derivation, failure, deep, ProofEntry(deep)):
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value


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

    def test_replace_at_names_the_whole_path_as_subcirquent_at_does(self):
        c, path = parse("(p|1 q)&r"), ("L", "L", "R")
        with pytest.raises(InvalidPathError) as replaced:
            replace_at(c, path, Q)
        with pytest.raises(InvalidPathError) as read:
            subcirquent_at(c, path)
        assert str(replaced.value) == str(read.value) == "path LLR steps through the literal p"

    def test_replace_at_the_bottom_of_a_deep_chain(self):
        c = deep_chain(5000)
        bottom = ("L",) * 5000  # the atom p
        swapped = replace_at(c, bottom, Q)
        assert subcirquent_at(swapped, bottom) == Q
        assert cluster_map(swapped, c) is None
        assert cluster_map(replace_at(swapped, bottom, P), c) == {1: 1}

    def test_walk_is_preorder_left_first(self):
        c = And(Or(2, P, Q), NOT_P)
        visited = [path for path, _ in walk(c)]
        assert visited == [(), ("L",), ("L", "L"), ("L", "R"), ("R",)]
        assert positions(c) == visited

    def test_or_positions_in_path_order(self, goal):
        assert or_positions(goal) == [(), ("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]


class TestClusters:
    def test_clusters_group_positions(self, goal):
        table = clusters(goal)
        assert table == {
            1: frozenset({(), ("L", "L"), ("R", "R")}),
            2: frozenset({("L", "R"), ("R", "L")}),
        }

    def test_singleton_clusters(self, e1):
        assert [k for k in cluster_ids(e1) if cluster_size(e1, k) == 1] == [2]

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


@st.composite
def comparison_pairs(draw):
    """``(whole, x, y)``: two cirquents to compare up to cluster renaming, and one holding both.

    ``y`` is ``x`` renamed by a random, possibly non-injective ID map, or
    an independent small cirquent, or ``x`` and ``y`` are two subtrees
    of ``whole``.
    """
    kind = draw(st.sampled_from(("renamed", "random", "subtrees")))
    if kind == "subtrees":
        whole = draw(cirquents(max_leaves=10, max_cluster=4))
        x, y = (subcirquent_at(whole, draw(st.sampled_from(positions(whole)))) for _ in "xy")
        return whole, x, y
    if kind == "renamed":
        x = draw(cirquents(max_leaves=8, max_cluster=4))
        y = rename_clusters(x, {k: draw(st.integers(1, 5)) for k in range(1, 5)})
    else:
        x, y = (draw(cirquents(max_leaves=4, atom_names=("p",), max_cluster=3)) for _ in "xy")
    return And(x, y), x, y


@st.composite
def shared_pairs(draw):
    """``(c, d)``: ``d`` is ``c`` with one subtree swapped out, sharing every other one.

    The swapped-in subtree is the old one, a copy of it renamed by a
    random, possibly non-injective ID map, or an independent small
    cirquent.  Then up to two disjunctions of ``d``, inside a shared
    subtree or not, move to a drawn cluster, each move rebuilding only
    the path to it.
    """
    c = draw(st.one_of(cirquents(max_leaves=10, max_cluster=4), nested_cirquents()))
    path = draw(st.sampled_from(positions(c)))
    old = subcirquent_at(c, path)
    kind = draw(st.sampled_from(("same", "renamed", "random")))
    if kind == "same":
        new = old
    elif kind == "renamed":
        new = rename_clusters(old, {k: draw(st.integers(1, 6)) for k in range(1, 5)})
    else:
        new = draw(cirquents(max_leaves=4, max_cluster=6))
    d = replace_at(c, path, new)
    for _ in range(draw(st.integers(0, 2))):
        hosts = or_positions(d)
        if not hosts:
            break
        where = draw(st.sampled_from(hosts))
        node = subcirquent_at(d, where)
        d = replace_at(d, where, Or(draw(st.integers(1, 6)), node.left, node.right))
    return c, d


def _copies_match(require, whole, x, y) -> bool:
    try:
        require(whole, x, y)
    except CopyMismatchError:
        return False
    return True


class TestIsomorphism:
    def test_cluster_map_ignores_ids(self):
        assert cluster_map(Or(1, P, Q), Or(7, P, Q)) == {1: 7}
        assert cluster_map(Or(1, P, Q), And(P, Q)) is None
        assert cluster_map(Or(1, P, Q), Or(1, Q, P)) is None

    def test_cluster_map_is_one_to_one(self):
        assert cluster_map(And(Or(1, P, Q), Or(2, P, Q)), And(Or(5, P, Q), Or(6, P, Q))) == {1: 5, 2: 6}
        assert cluster_map(And(Or(1, P, Q), Or(2, P, Q)), And(Or(5, P, Q), Or(5, P, Q))) is None
        assert cluster_map(And(Or(1, P, Q), Or(1, P, Q)), And(Or(5, P, Q), Or(6, P, Q))) is None

    @given(comparison_pairs())
    def test_comparisons_agree_with_the_references(self, pair):
        whole, x, y = pair
        mapping = cluster_map(x, y)
        assert (mapping is not None) == cluster_iso_reference(x, y)
        if mapping is not None:
            assert rename_clusters(x, {k: mapping.get(k, k) for k in cluster_ids(x)}) == y
        assert cluster_struct_match(x, y) == cluster_struct_match_reference(x, y)
        assert _copies_match(ifp.calculus._require_copies, whole, x, y) == _copies_match(
            require_copies_reference, whole, x, y
        )

    def test_a_shared_subtree_maps_its_ids_to_themselves(self):
        # An ID that only a shared subtree holds is not listed: it maps to itself.
        shared = Or(2, P, Q)
        assert cluster_map(And(Or(1, P, Q), shared), And(Or(3, P, Q), shared)) == {1: 3}
        assert cluster_map(shared, shared) == {}
        # An ID the walk also meets outside the shared subtree is listed.
        assert cluster_map(And(Or(2, Q, P), shared), And(Or(2, Q, P), shared)) == {2: 2}

    def test_a_shared_subtree_blocks_moving_its_ids(self):
        shared = Or(2, P, Q)
        # The walked pair sends 1 to 2, or 2 to 1, while the shared subtree holds 2.
        assert cluster_map(And(Or(1, P, Q), shared), And(Or(2, P, Q), shared)) is None
        assert cluster_map(And(Or(2, P, Q), shared), And(Or(1, P, Q), shared)) is None
        # Split across both sides, cluster 2 has two members in one and one in the other.
        left, right = And(Or(2, P, Q), shared), And(Or(3, P, Q), shared)
        assert not cluster_struct_match(left, right)
        assert not cluster_struct_match(right, left)

    @given(shared_pairs())
    def test_shared_subtrees_give_the_full_walks_answer(self, pair):
        c, d = pair
        for x, y in ((c, d), (d, c)):
            mapping, full = cluster_map(x, y), cluster_map_reference(x, y)
            if mapping is None or full is None:
                assert mapping is full
            else:
                assert mapping.keys() <= cluster_ids(x)
                assert {k: mapping.get(k, k) for k in cluster_ids(x)} == full
            assert cluster_struct_match(x, y) == cluster_struct_match_reference(x, y)

    @given(st.one_of(shared_pairs(), st.tuples(*[cirquents(max_leaves=3, atom_names=("p",), max_cluster=2)] * 2)))
    def test_equal_when_printed_alike_and_computes_no_summary(self, pair):
        x, y = pair
        equal = x == y
        assert equal == (repr(x) == repr(y))
        # Only a walk that moved an ID reads the summaries of shared subtrees,
        # and such a pair is unequal.
        if equal:
            assert hash(x) == hash(y)
            assert all(node.summary is None for c in pair for _, node in walk(c) if not isinstance(node, Literal))

    def test_deep_cirquents_need_no_recursion(self):
        c = deep_chain(5000)
        assert cluster_map(c, deep_chain(5000, cluster=7)) == {1: 7}
        assert cluster_map(c, Or(2, c.left, c.right)) is None
        assert cluster_struct_match(c, deep_chain(5000))
        assert not cluster_struct_match(c, deep_chain(5000, cluster=7))

    def test_deep_cirquents_render_without_recursion_or_summaries(self):
        c = deep_chain(5000)
        text = repr(c)
        assert str(c) == text
        assert cluster_map(parse(text), c) == {1: 1}
        assert c.summary is None

    def test_cluster_map_compares_the_partition(self):
        a = And(Or(1, P, Q), Or(1, NOT_P, Q))
        b = And(Or(9, P, Q), Or(9, NOT_P, Q))
        split = And(Or(1, P, Q), Or(2, NOT_P, Q))
        assert cluster_map(a, b) == {1: 9}
        assert cluster_map(a, split) is None

    def test_cluster_map_requires_same_shape(self):
        assert cluster_map(Or(1, P, Q), And(P, Q)) is None


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
        assert cluster_map(c, canonical) is not None
        assert canonicalize_ids(canonical) == canonical

    def test_deep_cirquents_need_no_recursion(self):
        canonical = canonicalize_ids(deep_chain(5000, cluster=7))
        assert cluster_map(canonical, deep_chain(5000)) == {1: 1}

    @given(cirquents())
    def test_canonical_ids_are_dense_from_one(self, c):
        table = clusters(canonicalize_ids(c))
        assert sorted(table) == list(range(1, len(table) + 1))


class TestSummaries:
    def test_counts_and_nesting_flag(self, goal, c1):
        assert dict(ifp.core._summarize(goal).counts) == {1: 3, 2: 2}
        assert not goal.summary.nesting_free
        assert ifp.core._summarize(c1).nesting_free
        assert dict(P.summary.counts) == {}
        assert P.summary.nesting_free

    def test_masks_hold_every_cluster_and_counts_only_the_multi_member_ones(self):
        c = parse("((p|1 q)|2(r|3 s))&((t|1 u)|4 v)")
        summary = ifp.core._summarize(c)
        assert summary.present == 0b11110
        assert dict(summary.counts) == {1: 2}
        assert cluster_ids(c) == frozenset({1, 2, 3, 4})
        assert [cluster_size(c, k) for k in range(6)] == [0, 2, 1, 1, 1, 0]
        assert not is_classical(c) and is_classical(c.left)

    def test_multi_member_is_read_only(self, goal):
        with pytest.raises(TypeError):
            multi_member(goal)[1] = 0
        assert multi_member(goal) == {1: 3, 2: 2}

    def test_parsing_computes_no_summary(self):
        c = parse("(p|1 q)&(r|1 s)")
        assert c.summary is None
        assert c.left.summary is None

    def test_rebuilt_spine_shares_untouched_summaries(self, goal):
        ifp.core._summarize(goal)
        rebuilt = replace_at(goal, ("L", "L"), P)
        assert rebuilt.summary is None
        assert rebuilt.right is goal.right
        assert dict(ifp.core._summarize(rebuilt).counts) == {1: 2, 2: 2}
        assert dict(goal.summary.counts) == {1: 3, 2: 2}

    @given(st.one_of(cirquents(max_leaves=8), nested_cirquents()))
    def test_summary_matches_a_fresh_walk(self, c):
        assert_summary_matches_walk(c)

    @given(st.one_of(cirquents(max_leaves=8, max_cluster=4), nested_cirquents(max_cluster=4)).map(with_large_ids))
    def test_summary_matches_a_fresh_walk_with_ids_above_the_mask_bound(self, c):
        assert_summary_matches_walk(c)

    def test_a_query_about_an_id_no_disjunction_holds_assigns_it_no_bit(self):
        """Only building a disjunction hands out a bit above the bound; a query reads bit 0, which no mask sets."""
        c = with_large_ids(parse("((p|1 q)&(p|2 q))|3((r|4 s)&(r|4 s))"))
        registry = dict(ifp.core._interned_bits), dict(ifp.core._interned_ids)
        unheld = [k for k in range(2**40, 2**40 + 200) if k not in registry[0]][:100]
        for k in (2**16 + 1, 10**9 + 1, *unheld):
            assert cluster_size(c, k) == 0
            assert members(c, k) == []
            with pytest.raises(PreconditionError, match=f"cluster {k} already has a single member"):
                resolve_cluster(c, k)
        assert (ifp.core._interned_bits, ifp.core._interned_ids) == registry
        assert_summary_matches_walk(c)

    @pytest.mark.parametrize("siblings, bound_mb", [("literals", 2), ("disjunctions", 32)])
    def test_memory_does_not_grow_with_an_id_s_size(self, siblings, bound_mb):
        """A mask indexed by raw ID would take 125 MB for the one disjunction's ID alone.

        An ID at or above the bound takes one bit from 2**16 up: a mask
        above it costs about 8 KB, which the distinct disjunctions in the
        second chain pay at each of the 2,000 levels.
        """
        for query in (decide, valid, print_cirquent):
            c = Or(1000000000, P, Q)
            for k in range(1, 2000):
                c = And(Or(k, P, NOT_P) if siblings == "disjunctions" else P, c)
            tracemalloc.start()
            try:
                query(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 2**20, query.__name__

    def test_fresh_ids_above_a_shrunk_bound_match_the_reference_scan(self, monkeypatch):
        monkeypatch.setattr(ifp.core, "_BOUND", 4)
        c = parse("((p|1 q)|2(r|3 s))|4((t|5 u)|7 v)")
        assert list(itertools.islice(ifp.core._unused_ids(c), 3)) == [6, 8, 9] == unused_ids_reference(c, 3)
        assert_summary_matches_walk(c)


def _connectives(roots) -> list:
    """Every connective under ``roots``, each once, however often the trees share it."""
    seen = {}
    pending = list(roots)
    while pending:
        node = pending.pop()
        if not isinstance(node, Literal) and id(node) not in seen:
            seen[id(node)] = node
            pending += (node.left, node.right)
    return list(seen.values())


class TestNodeLayout:
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="Python 3.10 keeps no attribute values inline: any instance attribute lives in a dict",
    )
    def test_connectives_hold_no_dict(self):
        """Fields in slots, the summary in inline attribute storage: no connective ever asks for its __dict__."""
        goal = nested_family(4, True)
        decision = decide(goal)
        proof = decision.proof
        text = print_proof(proof)
        assert check_proof(proof) is None
        assert check_proof(ProofScript(tuple(ProofEntry(entry.cirquent) for entry in proof))) is None
        parsed = parse_proof(text)
        roots = [goal, decision.derivation.final, *(step.result for step in decision.derivation.steps)]
        roots += [entry.cirquent for script in (proof, parsed) for entry in script]
        for c in list(roots):
            twins = [copy.copy(c), pickle.loads(pickle.dumps(c))]
            for twin in twins:
                assert twin == c and hash(twin) == hash(c)
            roots += twins
        nodes = _connectives(roots)
        assert len(nodes) > 10_000
        assert sum(any(isinstance(r, dict) for r in gc.get_referents(node)) for node in nodes) == 0


class TestSummaryCache:
    """A summary stored where readers miss it stays correct, so only a count of the work shows it."""

    @staticmethod
    def _count_summarized(monkeypatch) -> list:
        """Wrap ``_summarize``: each call appends the connectives whose summary it stored."""
        filled = []
        summarize = ifp.core._summarize

        def counting(c):
            before = {id(node): node.summary for node in _connectives([c])}
            summary = summarize(c)
            filled.append([node for node in _connectives([c]) if node.summary is not before[id(node)]])
            return summary

        monkeypatch.setattr(ifp.core, "_summarize", counting)
        return filled

    def test_cluster_queries_after_decide_summarize_nothing(self, monkeypatch):
        derivation = decide(nested_family(4, True)).derivation
        intermediates = [derivation.goal, *(step.result for step in derivation.steps)]
        filled = self._count_summarized(monkeypatch)
        for previous, c in zip(intermediates, intermediates[1:]):
            for k in cluster_ids(c):
                cluster_size(c, k)
                members(c, k)
            multi_member(c)
            is_classical(c)
            first_nested(c)
            node_count(c)
            fresh = ifp.core._unused_ids(c)
            k, m = next(fresh), next(fresh)
            assert cluster_map(Or(k, c, P), Or(m, c, P)) == {k: m}  # reads the shared c's summary
            assert c != previous
        assert filled == []

    @pytest.mark.parametrize("path", positions(nested_family(2, True)))
    def test_a_replacement_summarizes_exactly_its_rebuilt_spine(self, path, monkeypatch):
        c = nested_family(2, True)
        replacement = parse("(p|1 q)&(r|99 s)")
        ifp.core._summarize(c)
        ifp.core._summarize(replacement)
        rebuilt = replace_at(c, path, replacement)
        spine = [subcirquent_at(rebuilt, path[:depth]) for depth in range(len(path))]
        filled = self._count_summarized(monkeypatch)
        assert cluster_size(rebuilt, 99) == 1
        assert cluster_size(rebuilt, 99) == 1
        assert [{id(node) for node in nodes} for nodes in filled] == ([{id(node) for node in spine}] if path else [])


class TestPublicApi:
    def test_the_package_exports_what_the_readme_documents(self):
        """Documented: a library name in backticks, bare or called, in README's Library section.

        The package loads a name on first use, so ``vars(ifp)`` holds only
        the names used so far; ``dir(ifp)`` lists every one of them.
        """
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        library = readme.read_text(encoding="utf-8").split("## Library")[1].split("\n## ")[0]
        documented = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", library))
        modules = (ifp.core, ifp.semantics, ifp.calculus, ifp.syntax, ifp.prover)
        library_names = {name for module in modules for name in vars(module)}
        exported = {
            name
            for name in dir(ifp)
            if not name.startswith("_") and not isinstance(getattr(ifp, name), types.ModuleType)
        }
        assert exported == documented & library_names
        assert set(ifp.__all__) == exported
        for name in exported:  # the defining submodule's own object, kept after first use
            value = getattr(ifp, name)
            assert value.__module__.startswith("ifp.")
            assert value is getattr(sys.modules[value.__module__], name), name
        # Every name is now used: the package's globals hold exactly them.
        kept = {
            name
            for name, value in vars(ifp).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert kept == exported
        star: dict = {}
        exec("from ifp import *", star)
        assert star.keys() - {"__builtins__"} == documented & library_names
