"""The four workloads: corpora, closed-loop pipelines, oracle checks and metrics.

One caller sends the next goal only when the previous one has finished.
A run makes passes over the workload's corpus until ``seconds`` have
elapsed and at least one whole pass is done.  The first pass builds the
output digest.

The shared machines this runs on change speed by nearly half for
seconds at a time, for the same code (a fixed loop measured 0.23 ms for
five seconds, then 0.41 ms for ten).  So a fixed calibration loop is
timed every 50 ms between stages, and every stage time is scaled by the
loop's reference time over the median of its last five timings: a run
at the reference speed reports plain milliseconds.  Every time metric
starts from each goal's mean scaled time of that stage, so that a goal
counts once however often it repeated; of the statistics tried (the
median of per-pass medians, and each goal's fastest, median or mean
time), the mean moved least between seeds.

Library workloads (sweep3, proofs, nested) run one goal as
parse -> decide -> valid and, when decide proves the goal,
print_proof -> check_proof on the in-memory proof and on the same proof
with every hint stripped -> parse_proof, whose result must print back to
the same text.  The cli workload runs ``ifp`` processes: parse, valid,
decide, prove -o, whose file must hold the library's printed proof, and
check and check --infer on that proof written with every cluster ID.

No operation of these workloads fails on ifp as it stands.  The known
failures (check_proof rejecting a printed and re-parsed proof, decide
refusing deeper members of the nested family) are counted by
``defects.py`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ifp

import corpora
import oracle
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORK = OUT / "work"

SWEEP3_GOALS = 5000
# The proofs workload is the whole population in a seeded order: a sample
# of 200 of the 300 moved the medians by a tenth between seeds.
PROOFS_GOALS = PROOFS_POPULATION = 300

# Tail percentile per workload, over the goals' mean times.  The highest
# with ten goals beyond it (p99.8 on sweep3) moved by a fifth to a third
# of its median between seeds on a shared machine, so the tail keeps 50
# goals beyond it on sweep3 and 75 on proofs.  The nested family and the
# cli set are too small for ten; their tail is p75 too.
TAIL = {"sweep3": 99, "proofs": 75, "nested": 75, "cli": 75}

# Set-up is repeated at least this often, and for at least this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5

# The calibration loop: the oracle labelling one fixed goal, and its
# time in ms at the reference speed.
CALIBRATION_GOAL = corpora.nested_goal(4, False)
CALIBRATION_MS = 0.3
CALIBRATION_EVERY_S = 0.05

LIBRARY_LAYERS = ("syntax", "core", "semantics", "calculus", "prover")
CLI_STEPS = ("parse", "valid", "decide", "prove", "check", "check_infer")


@dataclass
class Goal:
    index: int
    text: str
    label: oracle.Label
    nodes: int
    path: Path | None = None  # cli: the goal file
    proof_text: str | None = None  # cli: what prove -o must write
    proof_path: Path | None = None  # cli: the proof with every cluster ID


@dataclass
class Run:
    """What the passes of one run collected."""

    sums: dict = field(default_factory=dict)  # stage -> scaled ms summed per goal index
    counts: dict = field(default_factory=dict)  # stage -> runs per goal index
    spent_ms: float = 0.0  # unscaled
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=lambda: defaultdict(int))
    wrong: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)  # of the first pass's outputs, a line a goal
    digested: int = 0
    calibration: deque = field(default_factory=lambda: deque(maxlen=5))  # ms per calibration loop
    calibrated_at: float = 0.0
    scale: float = 1.0  # the loop's reference time over the median of ``calibration``

    def add(self, stage: str, index: int, ms: float) -> None:
        sums = self.sums.setdefault(stage, array("d"))
        counts = self.counts.setdefault(stage, array("q"))
        if index >= len(sums):
            sums.extend([0.0] * (index + 1 - len(sums)))
            counts.extend([0] * (index + 1 - len(counts)))
        sums[index] += ms
        counts[index] += 1

    def per_goal(self, stage: str) -> dict:
        """Each goal's mean scaled time of ``stage``."""
        sums, counts = self.sums.get(stage, ()), self.counts.get(stage, ())
        return {g: sums[g] / n for g, n in enumerate(counts) if n}


def build_corpus(workload: str, seed: int) -> list[Goal]:
    if workload == "sweep3":
        trees = corpora.sweep3(seed, SWEEP3_GOALS)
    elif workload == "proofs":
        trees = corpora.proofs(seed, PROOFS_GOALS, PROOFS_POPULATION, lambda g: oracle.label(g).valid)
    elif workload == "nested":
        trees = corpora.nested(seed)
    else:
        trees = corpora.cli_goals(seed, lambda g: oracle.label(g).valid)
    return [
        Goal(i, corpora.to_text(t), oracle.label(t), corpora.size(t))
        for i, t in enumerate(trees)
    ]


def calibrate(run: Run) -> None:
    """Time the calibration loop, at most once every CALIBRATION_EVERY_S."""
    start = perf_counter()
    if start - run.calibrated_at >= CALIBRATION_EVERY_S:
        oracle.label(CALIBRATION_GOAL)
        run.calibrated_at = perf_counter()
        run.calibration.append((run.calibrated_at - start) * 1000)
        run.scale = CALIBRATION_MS / statistics.median(run.calibration)


def _smallest(goals: list[Goal], count: int) -> list[Goal]:
    """The ``count`` smallest goals, the same ones whatever the corpus order."""
    return sorted(goals, key=lambda g: (g.nodes, g.text))[:count]


# --- library pipeline ---


def library_goal(goal: Goal, run: Run, first: bool, tracer=None) -> None:
    """Run one goal through the library and check every output against the oracle."""
    times = {}

    def call(stage, fn, *args):
        calibrate(run)
        index = tracer.open(tracer.name_id("bench." + stage)) if tracer is not None else -1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            times[stage] = (perf_counter() - start, run.scale)
            if tracer is not None:
                tracer.close(index)

    failures, wrong, outputs = [], [], []
    root = tracer.open(tracer.name_id("bench.goal")) if tracer is not None else -1
    try:
        c = call("parse", ifp.parse, goal.text)
        try:
            decision = call("decide", ifp.decide, c)
        except Exception as e:  # a refusal or a crash: counted, never hidden
            decision = None
            failures.append(f"decide raised {type(e).__name__}")
            outputs.append(f"decide:{type(e).__name__}")
        try:
            is_valid = call("valid", ifp.valid, c)
            outputs.append(f"valid:{is_valid}")
            if is_valid != goal.label.valid:
                wrong.append(f"goal {goal.index}: valid() says {is_valid}")
        except Exception as e:
            failures.append(f"valid raised {type(e).__name__}")
            outputs.append(f"valid:{type(e).__name__}")
        if isinstance(decision, ifp.Invalid):
            model = decision.countermodel
            outputs.append("countermodel:" + ",".join(f"{k}={int(v)}" for k, v in sorted(model.items())))
            if goal.label.valid:
                wrong.append(f"goal {goal.index}: decide calls a valid goal invalid")
            elif not goal.label.falsified_by(model):
                wrong.append(f"goal {goal.index}: the countermodel does not falsify the goal")
        elif isinstance(decision, ifp.Valid):
            if not goal.label.valid:
                wrong.append(f"goal {goal.index}: decide proves an invalid goal")
            proof = decision.proof
            text = call("print_proof", ifp.print_proof, proof)
            outputs.append("proof:" + text)
            stripped = ifp.ProofScript(tuple(ifp.ProofEntry(e.cirquent) for e in proof.entries))
            for stage, script in (("check", proof), ("check_infer", stripped)):
                verdict = call(stage, ifp.check_proof, script)
                outputs.append(f"{stage}:{verdict}")
                if verdict is not None:
                    failures.append(f"{stage} rejected the in-memory proof")
            try:
                reparsed = call("parse_proof", ifp.parse_proof, text)
                if ifp.print_proof(reparsed) != text:
                    wrong.append(f"goal {goal.index}: the re-parsed proof prints differently")
            except Exception as e:
                failures.append(f"parse_proof raised {type(e).__name__}")
                outputs.append(f"parse_proof:{type(e).__name__}")
    except Exception as e:
        failures.append(f"parse raised {type(e).__name__}")
        outputs.append(f"parse:{type(e).__name__}")
    finally:
        if tracer is not None:
            tracer.close(root)
    _record(run, goal, times, failures, wrong, outputs, first)


def _record(run: Run, goal: Goal, times, failures, wrong, outputs, first: bool) -> None:
    """Keep a goal's scaled stage times, failures, wrong answers and outputs.

    ``times`` maps each stage to its seconds and the run's scale at the time.
    """
    scaled = {stage: s * 1000 * scale for stage, (s, scale) in times.items()}
    scaled["goal"] = sum(scaled.values())
    for stage, ms in scaled.items():
        run.add(stage, goal.index, ms)
    run.spent_ms += 1000 * sum(s for s, _ in times.values())
    run.attempted += 1
    if failures or wrong:
        run.failed += 1
    for reason in failures:
        run.failures[reason] += 1
    run.wrong.extend(wrong)
    if first:
        line = f"{goal.index}\t" + "\t".join(outputs)
        run.digest.update((f"\n{line}" if run.digested else line).encode("utf-8"))
        run.digested += 1


# --- cli pipeline ---


def child_env() -> dict:
    """The environment of every ifp process: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(argv: list[str], env: dict, spans: Path | None):
    """Run one ifp process; returns (wall ms, exit code, stdout, stderr)."""
    if spans is None:
        command = [sys.executable, "-m", "ifp.cli", *argv]
    else:
        command = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), *argv]
    start = perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
    wall = (perf_counter() - start) * 1000
    return wall, done.returncode, done.stdout, done.stderr.replace(str(ROOT), "<root>")


def explicit_proof(script) -> str:
    """print_proof's text with every cluster ID written out, single-member ones too."""
    lines = ifp.print_proof(script).splitlines()
    out = []
    for number, (entry, line) in enumerate(zip(script.entries, lines), start=1):
        head = f"{number}. {ifp.print_cirquent(entry.cirquent)}"
        explicit = ifp.print_cirquent(entry.cirquent, show_singleton_ids=True)
        out.append(f"{number}. {explicit}{line[len(head):]}")
    return "\n".join(out) + "\n"


def prepare_cli_goal(goal: Goal, name: str) -> None:
    """Write the goal file and, for a valid goal, its explicit proof file;
    keep the text prove -o must write."""
    WORK.mkdir(parents=True, exist_ok=True)
    goal.path = WORK / f"{name}.txt"
    goal.path.write_text(goal.text + "\n", encoding="utf-8")
    decision = ifp.decide(ifp.parse(goal.text))
    if isinstance(decision, ifp.Valid):
        goal.proof_text = ifp.print_proof(decision.proof)
        goal.proof_path = WORK / f"{name}.ifp"
        goal.proof_path.write_text(explicit_proof(decision.proof), encoding="utf-8")


def cli_goal(goal: Goal, run: Run, first: bool, env: dict, tracer=None) -> None:
    """Run one goal through ``ifp`` processes and check exit codes and outputs."""
    proof_file = WORK / "proved.ifp"
    spans_file = WORK / "child-spans.json"
    expected = 0 if goal.label.valid else 1
    steps = [
        ("parse", ["parse", str(goal.path)], 0),
        ("valid", ["valid", str(goal.path)], expected),
        ("decide", ["decide", str(goal.path)], expected),
        ("prove", ["prove", str(goal.path), "-o", str(proof_file)], expected),
        ("check", ["check", str(goal.proof_path)], 0),
        ("check_infer", ["check", "--infer", str(goal.proof_path)], 0),
    ]
    times, failures, wrong, outputs = {}, [], [], []
    proof_file.unlink(missing_ok=True)
    root = tracer.open(tracer.name_id("bench.goal")) if tracer is not None else -1
    for step, argv, want in steps:
        if step.startswith("check") and goal.proof_path is None:
            break
        calibrate(run)
        index = tracer.open(tracer.name_id("bench." + step)) if tracer is not None else -1
        wall, code, out, err = _child(argv, env, spans_file if tracer is not None else None)
        if tracer is not None:
            tracer.close(index)
            _adopt(tracer, spans_file, index)
        times[step] = (wall / 1000, run.scale)
        outputs.append(f"{step}:{code}:{out}:{err}")
        if code == 2:
            failures.append(f"ifp {step} refused (exit 2)")
        elif code != want:
            if step in ("valid", "decide", "prove"):
                wrong.append(f"goal {goal.index}: ifp {step} exits {code}, the oracle expects {want}")
            else:
                failures.append(f"ifp {step} exits {code}, expected {want}")
        if step == "valid" and code in (0, 1) and out.strip() != ("valid" if code == 0 else "invalid"):
            wrong.append(f"goal {goal.index}: ifp valid printed {out.strip()!r}")
        if step == "decide" and code == 1 and not goal.label.valid:
            model = _countermodel(out)
            if model is None or not goal.label.falsified_by(model):
                wrong.append(f"goal {goal.index}: ifp decide printed a bad countermodel")
        if step == "prove" and code == 0:
            written = proof_file.read_text(encoding="utf-8") if proof_file.exists() else None
            if written != goal.proof_text:
                wrong.append(f"goal {goal.index}: ifp prove -o wrote another proof than print_proof")
    if tracer is not None:
        tracer.close(root)
    _record(run, goal, times, failures, wrong, outputs, first)


def _countermodel(out: str) -> dict | None:
    prefix = "countermodel: "
    if not out.startswith(prefix):
        return None
    model = {}
    for item in out[len(prefix):].strip().split(","):
        name, _, value = item.partition("=")
        model[name] = value == "1"
    return model


def _adopt(tracer, spans_file: Path, parent: int) -> None:
    """Copy a child's spans under ``parent``, keeping their nesting."""
    if not spans_file.exists():
        return
    spans = json.loads(spans_file.read_text(encoding="utf-8"))
    spans_file.unlink()
    base = len(tracer)
    for name, start, end, up in spans:
        tracer.add(name, start, end, parent if up < 0 else base + up, tracer.goal_id)


# --- runs ---


def setup(workload: str, seed: int, env: dict) -> list[Goal]:
    """Corpus generation, reference labelling, and warm-up."""
    goals = build_corpus(workload, seed)
    if workload == "cli":
        for goal in goals:
            prepare_cli_goal(goal, f"goal-{goal.index}")
        _child(["parse", str(goals[0].path)], env, None)
    else:
        for goal in _smallest(goals, min(20, len(goals) // 4)):
            library_goal(goal, Run(), False)
    return goals


def timed_setups(workload: str, seed: int, env: dict) -> tuple[list[Goal], float, int]:
    """Set up repeatedly: the goals, the scaled median set-up time, the count.

    Five calibration loops timed just before each set-up give the speed
    it ran at.
    """
    times, scales = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        loop = Run()
        for _ in range(5):
            loop.calibrated_at = 0.0
            calibrate(loop)
        start = perf_counter()
        goals = setup(workload, seed, env)
        times.append(perf_counter() - start)
        scales.append(loop.scale)
    return goals, statistics.median(times) * statistics.median(scales), len(times)


def passes(workload: str, goals: list[Goal], seconds: float, env: dict, run: Run, tracer=None, first=True) -> None:
    """Closed loop over the corpus until ``seconds`` are up and one pass is done.

    Passes after the first take the goals in a fresh order, so that a
    garbage collection does not fall on the same goal in every pass.
    """
    start = perf_counter()
    count = 0
    order = list(goals)
    while not count or perf_counter() - start < seconds:
        if count:
            random.Random(count).shuffle(order)
        for goal in order:
            if count and perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.goal_id = count * len(goals) + goal.index
            if workload == "cli":
                cli_goal(goal, run, first and count == 0, env, tracer)
            else:
                library_goal(goal, run, first and count == 0, tracer)
        count += 1


# --- statistics ---


def tail(values: list[float], percentile: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def end_to_end(workload: str, run: Run, setup_s: float, setups: int, report) -> dict:
    """The user-facing metrics of an untraced run, at the reference speed."""
    unscaled = run.spent_ms / sum(run.sums["goal"])
    print(
        f"{workload:7} times scaled to the calibration loop's reference {CALIBRATION_MS} ms; "
        f"unscaled they are {unscaled:.4f} times as long"
    )
    best = {stage: list(run.per_goal(stage).values()) for stage in run.sums}
    p = TAIL[workload]
    decide = best["decide"]
    if workload == "cli":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def p50(stage):
        return (statistics.median(best[stage]), "ms", f"median over {len(best[stage])} goals")

    metrics = {
        "setup_s": (setup_s, "s", f"median of {setups} set-ups"),
        "goals_per_s": (
            1000 * len(best["goal"]) / sum(best["goal"]),
            "1/s",
            f"{len(best['goal'])} goals at their mean, {run.attempted} goals run",
        ),
        "goal_p50_ms": p50("goal"),
        "decide_p50_ms": p50("decide"),
        "decide_tail_ms": (
            tail(decide, p),
            "ms",
            f"p{p} over {len(decide)} goals, {len(decide) * (100 - p) / 100:g} beyond",
        ),
        "valid_p50_ms": p50("valid"),
        "check_p50_ms": p50("check"),
        "check_infer_p50_ms": p50("check_infer"),
        "peak_rss_mb": (rss, "MB", "largest ifp process" if workload == "cli" else "this process"),
    }
    for name, (value, unit, note) in metrics.items():
        report(name, value, unit, note)
    if workload == "cli":
        procs = [ms for step in CLI_STEPS for ms in best[step]]
        report("cli_p50_ms", statistics.median(procs), "ms", f"median over {len(procs)} goal-steps")
        report(
            "cli_tail_ms",
            tail(procs, 90),
            "ms",
            f"p90 over {len(procs)} goal-steps, {len(procs) / 10:g} beyond",
        )
    else:
        report("cli_p50_ms", None, "ms", "not run by this workload")
        report("cli_tail_ms", None, "ms", "not run by this workload")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


# --- traced run: per-layer metrics ---


def per_layer(workload, goals, untraced: Run, traced: Run, tr, env, report) -> tuple[dict, list]:
    """Per-layer metrics from the spans, the replay and the CLI probes."""
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        report(name, value, unit, note)

    n = len(tr)
    names = tr.names
    layer_of = [nm.split(".")[0] for nm in names]
    bit = {layer: 1 << i for i, layer in enumerate(LIBRARY_LAYERS + ("cli",))}
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    covered = [0.0] * n
    mask = [0] * n
    stage = [""] * n
    busy = defaultdict(float)
    per_goal = defaultdict(lambda: defaultdict(float))  # span key -> goal id -> seconds
    rows = parse_nodes = 0
    mains = []
    for i in range(n):
        p, nid, g = tr.parent[i], tr.name[i], tr.goal[i]
        nm, layer = names[nid], layer_of[nid]
        if p >= 0:
            covered[p] += dur[i]
            mask[i] = mask[p] | bit.get(layer_of[tr.name[p]], 0)
            stage[i] = stage[p]
        if layer == "bench" and nm != "bench.goal":
            stage[i] = nm
        if layer in bit and not mask[i] & bit[layer]:
            busy[layer] += dur[i]
        per_goal[nm + ":" + stage[i] if nm == "calculus.check_proof" else nm][g] += dur[i]
        if g < len(goals) and nm in ("semantics.metatrue", "semantics.eval_classical"):
            rows += 1
        if nm == "syntax.parse":
            parse_nodes += goals[g % len(goals)].nodes
        elif nm == "cli.main":
            mains.append(dur[i] * 1000)
    self_time = defaultdict(float)
    for i in range(n):
        self_time[layer_of[tr.name[i]]] += dur[i] - covered[i]
    for layer in LIBRARY_LAYERS:
        put(f"{layer}.busy_ms", 1000 * busy[layer] / traced.attempted, "ms/goal", "mean over traced goals")
        put(f"{layer}.self_ms", 1000 * self_time[layer] / traced.attempted, "ms/goal", "busy minus child spans")
        put(f"{layer}.share", 100 * 1000 * busy[layer] / traced.spent_ms, "%", "busy time over traced goal time")

    def fastest(key) -> dict:
        """Each goal's fastest per-goal total of the spans under ``key``."""
        out = {}
        for g, seconds in per_goal.get(key, {}).items():
            index = g % len(goals)
            out[index] = min(out.get(index, seconds), seconds)
        return out

    def med(key):
        values = fastest(key)
        return 1000 * statistics.median(values.values()) if values else 0.0

    put("prover.reduce_ms", med("prover.reduce_to_classical"), "ms", "median over goals")
    put("prover.eliminate_nested_ms", med("prover.eliminate_nested"), "ms", "median over goals")
    put("prover.nested_pairs_ms", med("prover.nested_pairs"), "ms", "median over goals of the per-goal total")
    put("semantics.valid_ms", med("semantics.valid"), "ms", "median over goals")
    put("semantics.residue_ms", med("semantics.classical_countermodel"), "ms", "classical_countermodel, median over goals")
    put("calculus.check_ms", med("calculus.check_proof:bench.check"), "ms", "median over proofs, with hints")
    put("calculus.check_infer_ms", med("calculus.check_proof:bench.check_infer"), "ms", "median over proofs, hints stripped")
    hinted = fastest("calculus.check_proof:bench.check")
    inferred = fastest("calculus.check_proof:bench.check_infer")
    both = [g for g in hinted if g in inferred]
    base = sum(hinted[g] for g in both)
    put(
        "calculus.infer_over_hinted",
        sum(inferred[g] for g in both) / base if base else 0.0,
        "ratio",
        f"base: hinted check_proof time over the same {len(both)} proofs",
    )
    parse_s = sum(per_goal.get("syntax.parse", {}).values())
    put("syntax.parse_ms", med("syntax.parse"), "ms", "median over goals of the per-goal total")
    put("syntax.parse_nodes_per_s", parse_nodes / parse_s if parse_s else 0.0, "1/s", "goal nodes parsed per second")
    put("syntax.print_proof_ms", med("syntax.print_proof"), "ms", "median over proofs")
    put("syntax.parse_proof_ms", med("syntax.parse_proof"), "ms", "median over proofs")
    put("semantics.rows", rows, "count", "metatrue and eval_classical calls, first traced pass")
    plain, with_spans = untraced.per_goal("goal"), traced.per_goal("goal")
    shared = [g for g in with_spans if g in plain]
    base = sum(plain[g] for g in shared)
    overhead = sum(with_spans[g] for g in shared) - base
    put("trace.overhead_ms", overhead / len(shared), "ms/goal", f"traced minus untraced median goal time, scaled, {len(shared)} goals")
    put("trace.overhead_pct", 100 * overhead / base, "%", "of the untraced median goal time")
    put("trace.spans_per_goal", n / traced.attempted, "spans/goal", f"{n} spans")
    wrong = _replay(goals, put)
    _cli_layer(workload, goals, untraced, mains, env, put)
    return metrics, wrong


def _nodes(c) -> int:
    count, stack = 0, [c]
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "left"):
            stack.append(node.left)
            stack.append(node.right)
    return count


def _replay(goals: list[Goal], put) -> list[str]:
    """Derivation counts, and clusters() and each backward rule timed on their own."""
    steps = defaultdict(int)
    backward = defaultdict(float)
    lead_in = residue = walked = 0
    blowups, clusters_ms, wrong = [], [], []
    for goal in goals:
        goal_c = ifp.parse(goal.text)
        derivation = ifp.reduce_to_classical(goal_c)
        chain = [derivation.goal] + [s.result for s in derivation.steps]
        start = perf_counter()
        for c in chain:
            ifp.clusters(c)
        clusters_ms.append((perf_counter() - start) * 1000)
        walked += sum(_nodes(c) for c in chain)
        for i, step in enumerate(derivation.steps):
            family = step.app.rule.split("-")[0]
            steps[family] += 1
            seconds, same = _backward(chain[i], step)
            backward[family] += seconds
            if not same:
                wrong.append(f"goal {goal.index}: replaying step {i + 1} gives another premise")
        lead_in += derivation.lead_in
        final = _nodes(derivation.final)
        residue += final
        blowups.append(final / _nodes(goal_c))
    put("core.clusters_ms", statistics.median(clusters_ms), "ms", "one clusters() per intermediate, median over goals")
    put("core.nodes_walked", walked, "count", "nodes in every intermediate, one pass")
    for family in ("I", "II", "III"):
        if steps[family]:
            mean = 1000 * backward[family] / steps[family]
            put(f"calculus.backward_ms.{family}", mean, "ms/step", f"{steps[family]} replayed steps")
        else:
            put(f"calculus.backward_ms.{family}", _probe_backward(family), "ms/step", "no such step here; the worked goal's")
    for family in ("I", "II", "III"):
        put(f"prover.steps.{family}", steps[family], "count", "one pass")
    put("prover.lead_in", lead_in, "count", "nesting-elimination steps, one pass")
    put("prover.residue_nodes", residue, "count", "residue nodes summed over one pass")
    put("prover.blowup.p50", statistics.median(blowups), "ratio", "residue nodes over input nodes")
    put("prover.blowup.max", max(blowups), "ratio", "residue nodes over input nodes")
    return wrong


def _backward(conclusion, step) -> tuple[float, bool]:
    """Time one backward step; also whether it gives the recorded premise."""
    start = perf_counter()
    premise, _ = ifp.apply_rule_backward(conclusion, step.app)
    return perf_counter() - start, premise == step.result


def _probe_backward(family: str) -> float:
    """Mean ms of the worked goal's steps of ``family``, over 20 replays.

    Stands in for a rule family that no goal of the workload uses, so
    that every family has a measured time.
    """
    derivation = ifp.reduce_to_classical(ifp.parse(corpora.to_text(corpora.WORKED_GOAL)))
    chain = [derivation.goal] + [s.result for s in derivation.steps]
    times = [
        _backward(chain[i], step)[0]
        for _ in range(20)
        for i, step in enumerate(derivation.steps)
        if step.app.rule.split("-")[0] == family
    ]
    return 1000 * statistics.mean(times)


def _cli_layer(workload, goals, untraced: Run, mains, env, put) -> None:
    """Process-level CLI metrics: from the run itself on cli, else from a probe goal."""
    if workload == "cli":
        plain = untraced
        note = "median over cli goals, scaled"
    else:
        probe = _smallest([g for g in goals if g.label.valid] or goals, 1)[0]
        prepare_cli_goal(probe, "probe")
        plain = Run()
        cli_goal(probe, plain, False, env)
        tr = tracing.Tracer()
        cli_goal(probe, Run(), False, env, tr)
        mains = [1000 * (tr.end[i] - tr.start[i]) for i in range(len(tr)) if tr.names[tr.name[i]] == "cli.main"]
        note = f"probe goal {probe.index}, scaled"
    for step in CLI_STEPS:
        values = list(plain.per_goal(step).values())
        put(f"cli.process_ms.{step}", statistics.median(values) if values else 0.0, "ms", f"{note}, n={len(values)}")
    put("cli.main_ms", statistics.median(mains) if mains else 0.0, "ms", f"{note}: cli.main inside each process")
    put("cli.interp_start_ms", statistics.median(_wall([sys.executable, "-c", "pass"], env) for _ in range(5)), "ms", "python -c pass, n=5")
    code = "import time; t = time.perf_counter(); import ifp.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=170, check=True)
        imports.append(float(done.stdout) * 1000)
    put("cli.import_ms", statistics.median(imports), "ms", "import ifp.cli in a fresh process, n=5")


def _wall(command, env) -> float:
    start = perf_counter()
    subprocess.run(command, env=env, capture_output=True, timeout=170, check=True)
    return (perf_counter() - start) * 1000


def write_spans(tr, workload: str) -> Path:
    """Write the traced run's spans under ``bench/out``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}.tsv.gz"
    tr.dump(path)
    return path
