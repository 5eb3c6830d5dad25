"""The ifp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ifp is imported from ``src/``.
``--trace 0`` times the workload untraced and prints the end-to-end
metrics, scaled to a calibration loop's reference speed (see
``workloads.py``).  ``--trace 1`` spends half the time untraced and half
with spans recorded around every public function of ifp's modules,
replays one pass of derivations, probes the CLI, and prints the
per-layer metrics, unscaled; the spans go to
``bench/out/spans-<workload>.tsv.gz``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``attempted`` counts goals and ``failed`` counts goals with at least one
failed operation: an exception, a verdict or countermodel the reference
oracle disagrees with, an in-memory proof check_proof rejects, or an
``ifp`` exit code other than the oracle's.  ``correct`` is false when any
verdict, countermodel, printed proof or replayed derivation step is
wrong; refusals and rejected proofs are failures, counted but not wrong
answers.  The workloads hold only operations that succeed on ifp as it
stands; ``defects.py`` counts the known failures they leave out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def load_library() -> None:
    """Import ifp from this checkout's ``src/``, never from anywhere else."""
    source = ROOT / "src"
    if not (source / "ifp" / "__init__.py").is_file():
        sys.exit(f"error: no ifp sources under {source}; run from a source checkout")
    sys.path[:0] = [str(source), str(HERE)]
    import ifp

    if Path(ifp.__file__).resolve().parent != (source / "ifp").resolve():
        sys.exit(f"error: imported ifp from {ifp.__file__}, not from {source}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep3", "proofs", "nested", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    import tracer as tracing
    import workloads as wl

    def report(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:7} {name:30} {shown:>14} {unit:8} {note}")

    env = wl.child_env()
    if args.trace:
        goals = wl.setup(args.workload, args.seed, env)
        untraced = wl.Run()
        wl.passes(args.workload, goals, args.seconds / 2, env, untraced)
        tr = tracing.Tracer()
        patched = tracing.install(tr)
        traced = wl.Run()
        try:
            wl.passes(args.workload, goals, args.seconds / 2, env, traced, tr, first=False)
        finally:
            tracing.uninstall(patched)
        metrics, wrong = wl.per_layer(args.workload, goals, untraced, traced, tr, env, report)
        print(f"{args.workload:7} spans written to {wl.write_spans(tr, args.workload).relative_to(ROOT)}")
        runs = (untraced, traced)
    else:
        goals, setup_s, setups = wl.timed_setups(args.workload, args.seed, env)
        run = wl.Run()
        wl.passes(args.workload, goals, args.seconds, env, run)
        metrics = wl.end_to_end(args.workload, run, setup_s, setups, report)
        wrong = []
        untraced = run
        runs = (run,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong += [w for r in runs for w in r.wrong]
    report("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} goals failed")
    for reason, count in sorted(untraced.failures.items()):
        print(f"{args.workload:7} failure: {reason}: {count} of {untraced.attempted} goals")
    for line in sorted(set(wrong))[:20]:
        print(f"{args.workload:7} WRONG: {line}")
    digest = untraced.digest.hexdigest()
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if recorded["seed"] == args.seed:
        verdict = "same as" if recorded["digests"][args.workload] == digest else "DIFFERENT from"
        note = f"{verdict} the digest recorded in bench/digests.json"
    else:
        note = f"bench/digests.json records seed {recorded['seed']}"
    print(f"{args.workload:7} digest sha256={digest} ({untraced.digested} goals, first pass; {note})")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
