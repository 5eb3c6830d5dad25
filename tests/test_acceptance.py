"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line describing what
it verified.  The two heavyweight criteria share one corpus sweep that is
computed once per module and consumed read-only.
"""

import random
import time

import pytest

from helpers import (
    RULE_FAMILIES,
    all_cirquents,
    atoms,
    classical_tautology_reference,
    compile_classical,
    interpretations,
    rand_cirquent,
    rand_classical,
    rand_context_instance,
    rand_rule_instance,
    strictly_decreasing,
    truth_table,
)
from ifp import (
    Valid,
    apply_rule_backward,
    canonicalize_ids,
    check_proof,
    cluster_map,
    clusters,
    decide,
    first_nested,
    metatrue,
    parse,
    parse_proof,
    print_cirquent,
    print_proof,
    prove,
    true_under,
    valid,
)
from ifp.core import node_count
from ifp.syntax import AXIOM


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    """Sweep every cirquent with at most three connectives over p, q, r,
    plus 1000 seeded random ones, recording decision and reduction stats."""
    start = time.monotonic()
    stats = {
        "enumerated": 0,
        "total": 0,
        "valid": 0,
        "traces": 0,
        "merge_steps": 0,
        "disagreements": 0,
        "rejected_proofs": 0,
        "satisfied_countermodels": 0,
        "nonmonotone_traces": 0,
        "nested_intermediates": 0,
    }

    def sweep(c):
        stats["total"] += 1
        decision = decide(c)
        if isinstance(decision, Valid) != valid(c):
            stats["disagreements"] += 1
        if isinstance(decision, Valid):
            stats["valid"] += 1
            if check_proof(decision.proof) is not None:
                stats["rejected_proofs"] += 1
        elif true_under(c, decision.countermodel):
            stats["satisfied_countermodels"] += 1
        derivation = decision.derivation
        for trace in derivation.traces:
            stats["traces"] += 1
            if not strictly_decreasing(trace):
                stats["nonmonotone_traces"] += 1
        for index, step in enumerate(derivation.steps):
            if index >= derivation.lead_in:
                stats["merge_steps"] += 1
                if first_nested(step.result) is not None:
                    stats["nested_intermediates"] += 1

    for c in all_cirquents(3):
        sweep(c)
    stats["enumerated"] = stats["total"]
    rng = random.Random(31)
    for _ in range(1000):
        sweep(rand_cirquent(rng, rng.randint(4, 7)))
    stats["elapsed"] = time.monotonic() - start
    return stats


def proof_body(worked_proof_text: str) -> str:
    return "".join(
        line + "\n"
        for line in worked_proof_text.splitlines()
        if line and not line.startswith("#")
    )


def test_criterion_01_worked_proof_file_checks(worked_proof_text):
    start = time.monotonic()
    script = parse_proof(worked_proof_text)
    rules = [entry.hint.rule for entry in script.entries]
    failure = check_proof(script)
    elapsed = time.monotonic() - start
    ok = (
        len(script.entries) == 6
        and rules == [AXIOM, "III", "II-left", "II-right", "I-right", "I-left"]
        and failure is None
        and elapsed < 1.0
    )
    report(1, ok, f"six annotated entries verified in {elapsed:.3f}s")


def test_criterion_02_synthesis_reproduces_the_worked_proof(goal, worked_proof_text):
    script = parse_proof(worked_proof_text)
    start = time.monotonic()
    proof = prove(goal)
    elapsed = time.monotonic() - start
    stages_match = (
        proof is not None
        and len(proof.entries) == 6
        and all(
            cluster_map(
                canonicalize_ids(entry.cirquent), canonicalize_ids(stage.cirquent)
            )
            is not None
            for entry, stage in zip(proof.entries, script.entries)
        )
    )
    ok = (
        stages_match
        and print_proof(proof) == proof_body(worked_proof_text)
        and elapsed < 1.0
    )
    report(2, ok, f"six stages resynthesized in {elapsed:.3f}s")


def test_criterion_03_decision_agrees_with_brute_force(corpus):
    ok = (
        corpus["enumerated"] == 99438
        and corpus["total"] == 100438
        and corpus["disagreements"] == 0
        and corpus["rejected_proofs"] == 0
        and corpus["satisfied_countermodels"] == 0
        and corpus["elapsed"] < 300.0
    )
    detail = (
        f"{corpus['total']} cirquents, {corpus['valid']} valid, "
        f"decisions certified in {corpus['elapsed']:.1f}s"
    )
    report(3, ok, detail)


def test_criterion_04_rule_applications_preserve_truth():
    start = time.monotonic()
    instances = mismatches = 0
    for family_index, (rule, kind) in enumerate(RULE_FAMILIES):
        rng = random.Random(400 + family_index)
        for _ in range(50):
            conclusion, app = rand_rule_instance(rng, rule, kind)
            premise, _ = apply_rule_backward(conclusion, app)
            instances += 1
            names = sorted(atoms(conclusion) | atoms(premise))
            for i in interpretations(names):
                if true_under(premise, i) != true_under(conclusion, i):
                    mismatches += 1
    elapsed = time.monotonic() - start
    ok = instances == 50 * len(RULE_FAMILIES) and mismatches == 0 and elapsed < 60.0
    report(4, ok, f"{instances} rule instances truth-checked in {elapsed:.1f}s")


def test_criterion_05_resolving_a_cluster_matches_its_metaselection():
    rng = random.Random(500)
    start = time.monotonic()
    checked = failures = 0
    for _ in range(500):
        whole, with_left, with_right, k = rand_context_instance(rng)
        i = {name: rng.choice((False, True)) for name in sorted(atoms(whole))}
        f = {kid: rng.choice(("left", "right")) for kid in sorted(clusters(whole))}
        resolved = (f[k] == "left" and metatrue(with_left, i, f)) or (
            f[k] == "right" and metatrue(with_right, i, f)
        )
        checked += 1
        if metatrue(whole, i, f) != resolved:
            failures += 1
    elapsed = time.monotonic() - start
    ok = checked == 500 and failures == 0 and elapsed < 60.0
    report(5, ok, f"{checked} context instances in {elapsed:.1f}s")


def test_criterion_06_classical_fragment_matches_tautology_checking():
    rng = random.Random(600)
    start = time.monotonic()
    failures = 0
    for _ in range(500):
        c = rand_classical(rng, rng.randint(0, 6))
        if valid(c) != classical_tautology_reference(c):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    report(6, ok, f"500 classical cirquents agreed in {elapsed:.1f}s")


def test_criterion_07_reductions_shrink_monotonically(corpus):
    ok = (
        corpus["traces"] > 0
        and corpus["merge_steps"] > 0
        and corpus["nonmonotone_traces"] == 0
        and corpus["nested_intermediates"] == 0
    )
    detail = (
        f"{corpus['traces']} traces strictly decreasing, "
        f"{corpus['merge_steps']} merge-phase steps nesting-free"
    )
    report(7, ok, detail)


def test_criterion_08_shared_versus_independent_clusters(x_pair, x_free):
    names = sorted(atoms(x_pair))
    shared_never_true = all(
        not true_under(x_pair, i) for i in interpretations(names)
    )
    free_is_xor = all(
        true_under(x_free, i) == (i["p"] != i["q"]) for i in interpretations(names)
    )
    ok = shared_never_true and free_is_xor
    report(8, ok, "shared pair unsatisfiable, independent pair is exclusive-or")


def test_criterion_09_printing_and_parsing_round_trip():
    rng = random.Random(900)
    failures = 0
    for _ in range(1000):
        c = rand_cirquent(rng, rng.randint(0, 7))
        for flag in (False, True):
            text = print_cirquent(c, show_singleton_ids=flag)
            if cluster_map(parse(text), c) is None:
                failures += 1
    report(9, failures == 0, "1000 cirquents round-trip under both printer modes")


def test_criterion_10_compilation_size_report(goal, e1, x_pair, x_free):
    sizes = []
    for name, c in (
        ("goal", goal),
        ("twin-pairs", e1),
        ("shared-pair", x_pair),
        ("free-pair", x_free),
    ):
        compiled = compile_classical(truth_table(c))
        grown = 0 if compiled is None else node_count(compiled)
        sizes.append(f"{name} {node_count(c)}->{grown}")
    report(10, True, "size report only: " + ", ".join(sizes))
