"""The benchmark repeats itself: one seed, two runs, identical counts and digests.

    python3 bench/test_repeat.py

Runs every workload twice, traced, with the same seed, each run in its
own process (so with its own string-hash seed), and requires every
exact count metric and the output digest to agree between the two, and
no operation to fail.  The census of known failures (``defects.py``)
must print the same counts twice too.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
EXACT = ("prover.blowup.p50", "prover.blowup.max")


def _run(workload: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = done.stdout.splitlines()
    digest = next(line.split()[2] for line in lines if line.split()[1:2] == ["digest"])
    return json.loads(lines[-1]), digest


class RepeatTest(unittest.TestCase):
    def test_counts_and_digests_repeat(self):
        for workload in ("sweep3", "proofs", "nested", "cli"):
            with self.subTest(workload=workload):
                first, first_digest = _run(workload)
                second, second_digest = _run(workload)
                self.assertEqual(first_digest, second_digest)
                exact = sorted(
                    name
                    for name, metric in first["metrics"].items()
                    if metric["unit"] == "count" or name in EXACT
                )
                self.assertIn("semantics.rows", exact)
                self.assertIn("prover.steps.III", exact)
                for name in exact:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual((first["failed"], second["failed"]), (0, 0))

    def test_defect_census_repeats(self):
        runs = [
            subprocess.run(
                [sys.executable, "bench/defects.py", "--seed", str(SEED)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=600,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        self.assertEqual(runs[0], runs[1])


if __name__ == "__main__":
    unittest.main()
