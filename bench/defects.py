"""Known failures of ifp, counted on the benchmark's corpora.

    python3 bench/defects.py --seed 1

The timed workloads of ``run.py`` hold only operations that succeed.
This census runs, untimed, the operations that fail on ifp as it stands
and prints how often each failure happens, with its base:

- sweep3, proofs, nested: check_proof on the proof decide emits, after
  print_proof and parse_proof (the path of ``ifp prove -o F; ifp check F``);
- nested: decide on the family members deeper than the timed workload,
  with the size of the residue the reduction reached;
- cli: ``ifp prove -o F``, then ``ifp check F`` and ``ifp check --infer F``
  on the cli workload's fixed goal set.

Every line is an exact count, so one seed prints the same text every
time.  A fixed failure shows as a smaller count.  The exit code is 0
whatever the counts are.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import run

run.load_library()

import corpora  # noqa: E402
import ifp  # noqa: E402
import workloads as wl  # noqa: E402


def round_trips(workload: str, goals) -> None:
    proved, raised, rejected = 0, Counter(), Counter()
    for goal in goals:
        try:
            decision = ifp.decide(ifp.parse(goal.text))
        except Exception as e:
            raised[type(e).__name__] += 1
            continue
        if not isinstance(decision, ifp.Valid):
            continue
        proved += 1
        verdict = ifp.check_proof(ifp.parse_proof(ifp.print_proof(decision.proof)))
        if verdict is not None:
            rejected[verdict.reason] += 1
    print(f"{workload:7} {proved} of {len(goals)} goals proved")
    for reason, count in sorted(raised.items()):
        print(f"{workload:7} decide raised {reason}: {count} of {len(goals)}")
    for reason, count in sorted(rejected.items()):
        print(f"{workload:7} check_proof rejects the printed and re-parsed proof ({reason}): {count} of {proved}")


def nested_refusals() -> None:
    for d, valid in corpora.NESTED_REFUSED:
        c = ifp.parse(corpora.to_text(corpora.nested_goal(d, valid)))
        derivation = ifp.reduce_to_classical(c)
        residue = derivation.final
        try:
            ifp.decide(c)
            outcome = "answered"
        except ifp.TooLargeError as e:
            outcome = f"refused: {e}"
        print(
            f"nested  d={d} {'valid' if valid else 'invalid'}: {len(derivation.steps)} steps, "
            f"{wl._nodes(c)} -> {wl._nodes(residue)} nodes, "
            f"{len(ifp.clusters(residue))} residue clusters; decide {outcome}"
        )


def cli_round_trips(seed: int, env: dict) -> None:
    goals = [g for g in wl.build_corpus("cli", seed) if g.label.valid]
    outcomes = Counter()
    proof = wl.WORK / "defects-proof.ifp"
    for goal in goals:
        wl.prepare_cli_goal(goal, "defects-goal")
        proof.unlink(missing_ok=True)
        for step, argv in (
            ("prove -o", ["prove", str(goal.path), "-o", str(proof)]),
            ("check", ["check", str(proof)]),
            ("check --infer", ["check", "--infer", str(proof)]),
        ):
            _, code, _, _ = wl._child(argv, env, None)
            if code != 0:
                outcomes[f"ifp {step} exits {code}"] += 1
    print(f"cli     {len(goals)} valid goals")
    for reason, count in sorted(outcomes.items()):
        print(f"cli     {reason}: {count} of {len(goals)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for workload in ("sweep3", "proofs", "nested"):
        round_trips(workload, wl.build_corpus(workload, args.seed))
    nested_refusals()
    cli_round_trips(args.seed, wl.child_env())
    return 0


if __name__ == "__main__":
    sys.exit(main())
