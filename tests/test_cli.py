"""Tests for the command-line interface: outputs and exit codes."""

import gc
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import ifp
import ifp.cli
from conftest import GOAL_TEXT, X_TEXT
from helpers import (
    ATOMS4,
    all_cirquents,
    cirquents,
    dnf_reference,
    eval_classical_reference,
    nested_family,
    truth_table_reference,
)
from ifp import ProofEntry, RuleError, TooLargeError, decide, parse, print_cirquent, print_proof
from ifp.calculus import ShapeMismatchError
from ifp.cli import main
from ifp.core import InvalidPathError
from ifp.semantics import MissingAtomError, MissingClusterError
from ifp.syntax import ParseError


def stdin_of(data):
    """A text stdin whose ``buffer`` holds ``data``, text encoded as UTF-8."""
    return io.TextIOWrapper(io.BytesIO(data if isinstance(data, bytes) else data.encode("utf-8")))


def run(argv, capsys, monkeypatch, stdin=""):
    monkeypatch.setattr("sys.stdin", stdin_of(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        code, out, err = run(["parse"], capsys, monkeypatch, stdin="p -> q\n")
        assert (code, out, err) == (0, "~p|q\n", "")

    def test_canonical_and_show_ids(self, capsys, monkeypatch):
        code, out, _ = run(
            ["parse", "--canonical", "--show-ids"],
            capsys, monkeypatch, stdin="(p|7 q)&(r|3 s)",
        )
        assert (code, out) == (0, "(p|1 q)&(r|2 s)\n")

    def test_reads_files(self, capsys, monkeypatch, tmp_path):
        source = tmp_path / "goal.cq"
        source.write_text(GOAL_TEXT, encoding="utf-8")
        code, out, _ = run(["parse", str(source)], capsys, monkeypatch)
        assert (code, out) == (0, GOAL_TEXT + "\n")

    def test_syntax_errors_exit_one(self, capsys, monkeypatch):
        code, out, err = run(["parse"], capsys, monkeypatch, stdin="p|0 q")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file_exits_one(self, capsys, monkeypatch):
        code, _, err = run(["parse", "/no/such/file"], capsys, monkeypatch)
        assert code == 1
        assert err.startswith("error:")

    def test_usage_errors_exit_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestEvalCommand:
    def test_searches_metaselections_by_default(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "--model", "p=0,q=1"], capsys, monkeypatch, stdin=X_TEXT
        )
        assert (code, out) == (1, "false\n")

    def test_fixed_metaselection(self, capsys, monkeypatch):
        code, out, _ = run(
            ["eval", "--model", "p=1,q=0", "--metaselection", "1=left,2=right"],
            capsys, monkeypatch, stdin="(p|1 q)&(~p|2 ~q)",
        )
        assert (code, out) == (0, "true\n")

    def test_model_is_required(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as info:
            main(["eval"])
        assert info.value.code == 2

    def test_missing_atom_exits_one(self, capsys, monkeypatch):
        code, _, err = run(["eval", "--model", "p=1"], capsys, monkeypatch, stdin="p&q")
        assert code == 1
        assert err.startswith("error:")


class TestValidCommand:
    def test_valid(self, capsys, monkeypatch):
        code, out, _ = run(["valid"], capsys, monkeypatch, stdin=GOAL_TEXT)
        assert (code, out) == (0, "valid\n")

    def test_invalid(self, capsys, monkeypatch):
        code, out, _ = run(["valid"], capsys, monkeypatch, stdin=X_TEXT)
        assert (code, out) == (1, "invalid\n")

    def test_size_bound_exits_two(self, capsys, monkeypatch):
        code, _, err = run(
            ["valid", "--max-atoms", "1"], capsys, monkeypatch, stdin="p&q"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, answer", [("a0|~a0|", (0, "valid\n")), ("", (1, "invalid\n"))], ids=["valid", "invalid"]
    )
    def test_an_atom_bound_past_the_vector_width(self, text, answer, capsys, monkeypatch):
        # 21 atoms: the first is split off, and each half fills a 2**20-bit vector.
        text += "|".join(f"a{i}" for i in range(21))
        code, _, err = run(["valid"], capsys, monkeypatch, stdin=text)
        assert (code, err) == (2, "error: 21 atoms exceeds the bound of 20\n")
        code, out, err = run(["valid", "--max-atoms", "21"], capsys, monkeypatch, stdin=text)
        assert (code, out, err) == (*answer, "")

    def test_help_shows_the_default_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["valid", "--help"])
        assert "(default: 20)" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["-1", "-20", "x"])
    def test_a_bound_that_is_no_nonnegative_integer_is_a_usage_error(
        self, bound, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("p|1 q"))
        with pytest.raises(SystemExit) as info:
            main(["valid", "--max-atoms", bound])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("usage:")
        assert "exceeds the bound" not in err

    @pytest.mark.parametrize("command", ["valid", "decide"])
    def test_single_member_clusters_are_not_bounded(self, command, capsys, monkeypatch):
        # 21 disjunctions, each alone in its cluster.
        text = "|".join(["p"] * 21 + ["~p"])
        code, _, err = run([command], capsys, monkeypatch, stdin=text)
        assert (code, err) == (0, "")


class TestProveCommand:
    def test_prints_the_proof(self, capsys, monkeypatch, worked_proof_text):
        code, out, _ = run(["prove"], capsys, monkeypatch, stdin=GOAL_TEXT)
        body = "".join(
            line + "\n"
            for line in worked_proof_text.splitlines()
            if line and not line.startswith("#")
        )
        assert (code, out) == (0, body)

    def test_writes_proof_and_trace_files(self, capsys, monkeypatch, tmp_path):
        proof_file = tmp_path / "proof.ifp"
        trace_file = tmp_path / "trace.txt"
        code, out, _ = run(
            ["prove", "-o", str(proof_file), "--trace", str(trace_file)],
            capsys, monkeypatch, stdin=GOAL_TEXT,
        )
        assert (code, out) == (0, "")
        assert proof_file.read_text(encoding="utf-8").startswith("1. ")
        assert trace_file.read_text(encoding="utf-8") == (
            "2 0 4 0 2\n2 0 3 0 2\n2 0 2 0 2\n1 0 -1 0 1\n"
        )

    def test_unprovable_input_exits_one(self, capsys, monkeypatch, tmp_path):
        trace_file = tmp_path / "trace.txt"
        code, out, err = run(
            ["prove", "--trace", str(trace_file)], capsys, monkeypatch, stdin=X_TEXT
        )
        assert (code, out) == (1, "")
        assert "not provable" in err
        assert trace_file.read_text(encoding="utf-8") == "2 0 2 0 2\n1 0 -1 0 1\n"


class TestCheckCommand:
    def test_accepts_the_worked_proof(self, capsys, monkeypatch, worked_proof_text):
        code, out, _ = run(["check"], capsys, monkeypatch, stdin=worked_proof_text)
        assert (code, out) == (0, "ok\n")

    def test_infers_missing_annotations(self, capsys, monkeypatch, worked_proof_text):
        stripped = "".join(
            line.split(" rule=")[0].split(" axiom")[0] + "\n"
            for line in worked_proof_text.splitlines()
            if line and not line.startswith("#")
        )
        code, out, _ = run(["check", "--infer"], capsys, monkeypatch, stdin=stripped)
        assert (code, out) == (0, "ok\n")

    def test_reports_the_failing_line(self, capsys, monkeypatch):
        code, out, err = run(
            ["check"], capsys, monkeypatch, stdin="1. p|~p\n2. p|~p\n"
        )
        assert code == 1
        assert out == ""
        assert err == "line 2: no-rule-matches\n"

    def test_bad_proof_syntax_exits_one(self, capsys, monkeypatch):
        code, _, err = run(["check"], capsys, monkeypatch, stdin="7. p\n")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("line, column", [("  1.  p&(q", 11), ("1. p&&q", 6)])
    def test_proof_syntax_errors_name_the_column_in_the_line(self, capsys, monkeypatch, tmp_path, line, column):
        proof_file = tmp_path / "proof.ifp"
        proof_file.write_text(line + "\n")
        code, out, err = run(["check", str(proof_file)], capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.endswith(f" on line 1 at column {column}\n")

    @pytest.mark.parametrize("goal", ["(((q|2 ~q)|1 p)|1 r)", GOAL_TEXT])
    def test_accepts_what_prove_writes(self, capsys, monkeypatch, tmp_path, goal):
        proof_file = str(tmp_path / "proof.ifp")
        for argv in (
            ["prove", "-o", proof_file],
            ["check", proof_file],
            ["check", "--infer", proof_file],
        ):
            code, _, err = run(argv, capsys, monkeypatch, stdin=goal)
            assert (code, err) == (0, "")


ATOMS21 = "|".join(["a0", "~a0"] + [f"a{i}" for i in range(1, 21)])  # a tautology over 21 atoms

# Proof files with errors of more than one kind, with the exit status and
# the error text ``ifp check`` gives: a syntax error anywhere comes first,
# then a size bound exceeded or a failed step, whichever comes first.
ERROR_ORDER = {
    "failed step, then a syntax error": (
        "1. p|~p axiom\n2. p|q\n3. p|q\n4. p&&q\n",
        1,
        "error: expected a formula, found '&' on line 4 at column 6\n",
    ),
    "failed step, then a non-ASCII comment": (
        "1. p|~p axiom\n2. p|q\n# caf\u00e9\n",
        1,
        "error: proof files are 7-bit ASCII on line 3\n",
    ),
    "failed step": ("1. p|~p axiom\n2. p|q\n3. p&q\n", 1, "line 2: no-rule-matches\n"),
    "no axiom, then a syntax error": (
        "1. p\n2. p|\n",
        1,
        "error: expected a formula, found the end of the input on line 2 at column 6\n",
    ),
    "21-atom axiom, then a syntax error": (
        f"1. {ATOMS21}\n2. p&&q\n",
        1,
        "error: expected a formula, found '&' on line 2 at column 6\n",
    ),
    "21-atom axiom, then a misnumbered entry": (
        f"1. {ATOMS21}\n3. p\n",
        1,
        "error: expected entry 2, found 3 on line 2\n",
    ),
    "21-atom axiom": (f"1. {ATOMS21}\n2. {ATOMS21}\n", 2, "error: 21 atoms exceeds the bound of 20\n"),
    "empty": ("", 1, "error: the proof has no entries\n"),
    "comments only": ("# a\n\n   \n# b\r\n", 1, "error: the proof has no entries\n"),
}


class TestStreamedCheck:
    """``ifp check`` checks each entry as it reads it, and reports errors in the order it always has."""

    @pytest.mark.parametrize("argv", [["check"], ["check", "--infer"]], ids=" ".join)
    def test_at_most_three_entries_are_alive_at_once(self, argv, tmp_path, monkeypatch):
        proof_file = tmp_path / "proof.ifp"
        proof_file.write_text(print_proof(decide(nested_family(3, True)).proof))
        made = []  # a weak reference to each entry made, which reads None once it is gone
        most = 0
        init = ProofEntry.__init__

        def counted(entry, *args):
            nonlocal most
            init(entry, *args)
            made.append(weakref.ref(entry))
            most = max(most, sum(ref() is not None for ref in made))

        monkeypatch.setattr(ProofEntry, "__init__", counted)
        assert call(argv + [str(proof_file)], "") == (0, "ok\n")
        assert len(made) > 10 and most <= 3

    @pytest.mark.parametrize("flags", [[], ["--infer"]], ids=["hints", "infer"])
    @pytest.mark.parametrize("text, code, err", ERROR_ORDER.values(), ids=ERROR_ORDER)
    def test_errors_come_in_their_order(self, text, code, err, flags, capsys, monkeypatch):
        assert run(["check", *flags], capsys, monkeypatch, stdin=text) == (code, "", err)


class TestDeepInput:
    @pytest.mark.parametrize(
        "command, answer",
        [("parse", 0), ("valid", 1), ("decide", 1)],
        ids=["parse", "valid", "decide"],
    )
    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "p" + ")" * 3000, "&".join(["p"] * 2000)], ids=["parens", "conjuncts"]
    )
    def test_exits_two_without_a_traceback(self, command, answer, text):
        """Deep input gets its answer, with no ``error:`` and no traceback.

        The test keeps the name under which such input was refused with exit
        status 2; since nothing recurses, no depth is refused any more.
        """
        src = str(pathlib.Path(ifp.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "ifp.cli", command],
            input=text, capture_output=True, text=True, env=env, timeout=60,
        )
        printed = "p" if text.startswith("(") else "(" * 1998 + "p&p" + ")&p" * 1998
        expected = {"parse": printed, "valid": "invalid", "decide": "countermodel: p=0"}
        assert (done.returncode, done.stdout) == (answer, expected[command] + "\n")
        assert "error:" not in done.stderr
        assert "Traceback" not in done.stderr


BIG = "1" * 5000  # past Python's 4,300-digit limit on converting text to int
LARGEST = "9" * 4300  # the largest cluster ID that prints


class TestWideInput:
    def test_a_hundred_thousand_literals_get_their_answers(self, capsys, monkeypatch):
        text = "|".join(["p"] * 100_000)
        assert run(["valid"], capsys, monkeypatch, stdin=text) == (1, "invalid\n", "")
        assert run(["eval", "--model", "p=1"], capsys, monkeypatch, stdin=text) == (0, "true\n", "")


class TestOverlongIntegers:
    @pytest.mark.parametrize(
        "argv, source",
        [
            (["parse"], f"p|{BIG} q"),
            (["eval", "--model", "p=1", "--metaselection", f"{BIG}=left"], "p|1 q"),
            (["check"], f"1. p|{BIG} ~p\n"),
            (["check"], f"1. p|~p axiom\n2. (p|~p)|q rule=I-left path=. k={BIG}\n"),
            (["check"], f"{BIG}. p|~p\n"),
        ],
        ids=["formula", "metaselection", "proof-formula", "proof-annotation", "proof-entry-number"],
    )
    def test_exit_one_with_an_error(self, argv, source, capsys, monkeypatch):
        code, out, err = run(argv, capsys, monkeypatch, stdin=source)
        assert (code, out) == (1, "")
        assert err.startswith("error: a number of 5000 digits is too long")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["parse"], f"(p|{LARGEST} q)|r"),
            (["valid"], f"(p|{LARGEST} q)|r"),
            (["compile"], f"(p|{LARGEST} q)|r"),
            (["check"], f"1. (p|{LARGEST} ~p)|q\n"),
        ],
        ids=["parse", "valid", "compile", "check"],
    )
    def test_no_fresh_id_past_the_largest_is_an_error(self, argv, source, capsys, monkeypatch):
        code, out, err = run(argv, capsys, monkeypatch, stdin=source)
        assert (code, out) == (1, "")
        assert err.startswith("error: no cluster ID of at most 4300 digits is left for this disjunction")
        assert "Traceback" not in err


class TestCompileCommand:
    def test_satisfiable_input(self, capsys, monkeypatch):
        code, out, _ = run(["compile"], capsys, monkeypatch, stdin="(p|q)&(~p|~q)")
        assert code == 0
        assert out == (
            "(~p&q)|(p&~q)\n"
            "input-nodes: 7\n"
            "output-nodes: 7\n"
            "ratio: 1.00\n"
        )

    def test_unsatisfiable_input(self, capsys, monkeypatch):
        code, out, _ = run(["compile"], capsys, monkeypatch, stdin=X_TEXT)
        assert code == 0
        assert out == (
            "unsatisfiable\n"
            "input-nodes: 7\n"
            "output-nodes: 0\n"
            "ratio: 0.00\n"
        )


class TestCompileAgainstTheReference:
    """``ifp compile`` writes, byte for byte, the DNF tree that the test helpers
    build from the reference truth table, and that text has the input's table."""

    @staticmethod
    def check(c):
        table = truth_table_reference(c)
        nodes, text = dnf_reference(table)
        code, out = call(["compile"], print_cirquent(c, show_singleton_ids=True))
        assert code == 0
        first, _, output_nodes, _ = out.splitlines()
        assert first == (text or "unsatisfiable")
        assert output_nodes == f"output-nodes: {nodes}"
        if text:
            dnf = parse(text)
            for values, result in table.rows.items():
                assert eval_classical_reference(dnf, dict(zip(table.atoms, values))) == result

    @settings(deadline=None)
    @given(cirquents(max_leaves=6, atom_names=ATOMS4))
    @example(parse("(p|1 q)&(~p|1 ~q)"))  # one multi-member cluster, unsatisfiable
    @example(parse("((a|1 ~b)&(c|2 b))|1(~a&(c|2 d))"))  # two multi-member clusters
    @example(parse("p"))
    @example(parse("p|~p"))  # two one-literal minterms
    @example(parse("p&~p"))
    def test_generated_inputs(self, c):
        self.check(c)

    def test_every_sweep_goal_of_up_to_two_connectives(self):
        for c in all_cirquents(2):
            self.check(c)


class TestDecideCommand:
    def test_valid_input_prints_the_proof(self, capsys, monkeypatch):
        code, out, _ = run(["decide"], capsys, monkeypatch, stdin=GOAL_TEXT)
        assert code == 0
        assert out.startswith("1. ") and out.endswith(GOAL_TEXT + " rule=I-left path=. k=1 inner=L\n")

    def test_invalid_input_prints_the_countermodel(self, capsys, monkeypatch):
        code, out, _ = run(["decide"], capsys, monkeypatch, stdin=X_TEXT)
        assert (code, out) == (1, "countermodel: p=0,q=0\n")

    def test_json_countermodel(self, capsys, monkeypatch):
        code, out, _ = run(["decide", "--json"], capsys, monkeypatch, stdin=X_TEXT)
        assert code == 1
        assert out == '{"countermodel": {"p": false, "q": false}, "status": "invalid"}\n'

    @pytest.mark.parametrize(
        "text", [GOAL_TEXT, print_cirquent(nested_family(3, True))], ids=["worked", "nested3"]
    )
    def test_decide_and_prove_write_print_proofs_text(self, text, capsys, monkeypatch, tmp_path):
        expected = print_proof(decide(parse(text)).proof)
        for command in (["decide"], ["prove"]):
            assert run(command, capsys, monkeypatch, stdin=text) == (0, expected, "")
        proof_file = tmp_path / "proof.ifp"
        assert run(["prove", "-o", str(proof_file)], capsys, monkeypatch, stdin=text) == (0, "", "")
        assert proof_file.read_bytes() == expected.encode("utf-8")

    def test_json_proof(self, capsys, monkeypatch):
        code, out, _ = run(["decide", "--json"], capsys, monkeypatch, stdin=GOAL_TEXT)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "valid"
        assert len(payload["proof"]) == 6
        assert payload["proof"][0].endswith("axiom")

    @pytest.mark.parametrize(
        "text", [GOAL_TEXT, print_cirquent(nested_family(3, True))], ids=["worked", "nested3"]
    )
    def test_streamed_json_proof_is_what_json_dumps_writes(self, text, capsys, monkeypatch):
        lines = print_proof(decide(parse(text)).proof).splitlines()
        expected = json.dumps({"status": "valid", "proof": lines}) + "\n"
        assert run(["decide", "--json"], capsys, monkeypatch, stdin=text) == (0, expected, "")


def call(argv, stdin):
    """Run ``main`` on ``stdin`` outside pytest's fixtures; return (code, stdout)."""
    out = io.StringIO()
    with mock.patch.multiple("sys", stdin=stdin_of(stdin), stdout=out, stderr=io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


class TestCycleCollector:
    """``main`` runs with the cycle collector off and leaves the caller's setting as it found it."""

    @pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
    @pytest.mark.parametrize(
        "argv, stdin, code",
        [
            (["decide"], GOAL_TEXT, 0),
            (["decide"], X_TEXT, 1),
            (["parse"], "p|0 q", 1),
            (["valid"], "&".join(f"a{i}" for i in range(21)), 2),
            ([], "", 2),
        ],
        ids=("valid", "invalid", "parse-error", "too-large", "usage"),
    )
    def test_restores_the_callers_setting(self, enabled, argv, stdin, code, monkeypatch):
        during = []
        read_source = ifp.cli._read_source
        spy = lambda args: during.append(gc.isenabled()) or read_source(args)  # noqa: E731
        monkeypatch.setattr(ifp.cli, "_read_source", spy)
        assert self._call_with(enabled, argv, stdin) == ((code, mock.ANY), enabled)
        assert during == ([] if argv == [] else [False])

    @pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
    def test_restores_it_when_an_exception_escapes(self, enabled, monkeypatch):
        monkeypatch.setattr(ifp.cli, "_read_source", mock.Mock(side_effect=KeyboardInterrupt))
        assert self._call_with(enabled, ["parse"], "") == (KeyboardInterrupt, enabled)

    def test_no_ifp_object_is_left_in_a_cycle(self, tmp_path):
        # argparse's parser graph holds cycles of its own; only ifp's types count.
        proof_file = tmp_path / "proof.ifp"
        runs = [
            (["parse", "--canonical"], GOAL_TEXT),
            (["eval", "--model", "p=1,q=0,r=1,s=0"], GOAL_TEXT),
            (["valid"], GOAL_TEXT),
            (["compile"], GOAL_TEXT),
            (["decide"], X_TEXT),
            (["decide", "--json"], GOAL_TEXT),
            (["prove", "-o", str(proof_file)], print_cirquent(nested_family(3, True))),
            (["check", str(proof_file)], ""),
            (["check", "--infer", str(proof_file)], ""),
            (["parse"], "p|0 q"),
            (["check"], "1. p|~p axiom\n2. p|q\n"),
        ]
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv, stdin in runs:
                call(argv, stdin)
            gc.collect()
            found = sorted({type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("ifp")})
        finally:
            gc.garbage.clear()
            gc.set_debug(debug)
            if enabled:
                gc.enable()
        assert found == []

    @staticmethod
    def _call_with(enabled, argv, stdin):
        """``call(argv, stdin)`` with the collector set to ``enabled``.

        Returns its result, or KeyboardInterrupt when that escaped it, and
        whether the collector was enabled right after it.
        """
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                result = call(argv, stdin)
            except KeyboardInterrupt:
                result = KeyboardInterrupt
            return result, gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()


# Formula tokens over three atoms, and the pieces of a proof file's lines.
TOKENS = (
    "p", "q", "r", "~", "&", "|", "|0", "|1", "|2", "->", "(", ")", " ", "\n",
    "1. ", "axiom", "rule=III", " path=L", " k=2", " inner=.",
)
COMMANDS = (
    ["parse"],
    ["parse", "--canonical"],
    ["eval", "--model", "p=1,q=0,r=1"],
    ["valid"],
    ["decide"],
    ["prove"],
    ["check"],
    ["check", "--infer"],
    ["compile"],
)


class TestGeneratedText:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
    def test_no_exception_escapes_main(self, text):
        for argv in COMMANDS:
            code, _ = call(argv, text)
            assert code in (0, 1, 2), (argv, text)


NOT_UTF8 = b"p|\xff q\n"


class TestUndecodableInput:
    """Input that is not UTF-8 gets one ``error:`` line and exit status 1,
    the same from a file as from stdin, whatever the locale."""

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_from_a_file_and_from_stdin(self, argv, capsys, monkeypatch, tmp_path):
        source = tmp_path / "input.txt"
        source.write_bytes(NOT_UTF8)
        from_file = run(argv + [str(source)], capsys, monkeypatch)
        from_stdin = run(argv, capsys, monkeypatch, stdin=NOT_UTF8)
        assert from_file == from_stdin
        assert from_file == (1, "", "error: the input is not UTF-8: byte 0xff at offset 2\n")

    def test_a_strict_stdin_encoding_changes_nothing(self):
        src = str(pathlib.Path(ifp.__file__).parents[1])
        env = dict(
            os.environ,
            PYTHONIOENCODING="utf-8:strict",
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        for argv in COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "ifp.cli", *argv],
                input=NOT_UTF8, capture_output=True, env=env, timeout=60,
            )
            assert (done.returncode, done.stdout) == (1, b""), argv
            assert done.stderr == b"error: the input is not UTF-8: byte 0xff at offset 2\n", argv


class TestErrorMapping:
    """An error escaping a handler prints ``error: ...``: exit 2 for a bound exceeded, 1 for the rest."""

    ERRORS = (
        (ParseError("bad text"), 1),
        (RuleError("no rule fits"), 1),
        (ShapeMismatchError("a literal where a connective is needed"), 1),
        (InvalidPathError("bad path step 'X'"), 1),
        (MissingAtomError("no value for atom p"), 1),
        (MissingClusterError("no side for cluster 1"), 1),
        (FileNotFoundError(2, "No such file or directory"), 1),
        (TooLargeError("21 atoms exceed the bound of 20"), 2),
    )

    @pytest.mark.parametrize("error, code", ERRORS, ids=[type(e).__name__ for e, _ in ERRORS])
    def test_prints_the_error_and_exits(self, error, code, capsys, monkeypatch):
        monkeypatch.setattr(ifp.cli, "_read_source", mock.Mock(side_effect=error))
        assert run(["parse"], capsys, monkeypatch) == (code, "", f"error: {error}\n")

    def test_the_calculus_raises_the_error_the_command_line_maps(self):
        assert ifp.calculus.RuleError is ifp.core.RuleError is RuleError


class TestLoadedModules:
    """In a fresh interpreter, each command loads only the ifp modules it runs."""

    @staticmethod
    def loaded(code: str, *args: str, stdin: str = "") -> tuple[int, list[str]]:
        """Run ``code`` in a fresh interpreter; its exit status and the ifp modules it loaded."""
        src = str(pathlib.Path(ifp.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        report = "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ifp'), file=sys.stderr)"
        done = subprocess.run(
            [sys.executable, "-c", f"import sys\ntry:\n {code}\nfinally:\n {report}", *args],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stderr.split()

    def test_importing_the_package_loads_no_submodule(self):
        assert self.loaded("import ifp") == (0, ["ifp"])

    def test_a_submodule_read_off_the_package_loads_with_what_it_imports(self):
        code = "import ifp; assert ifp.calculus is sys.modules['ifp.calculus']"
        expected = ["ifp", *(f"ifp.{m}" for m in ("calculus", "core", "semantics", "syntax"))]
        assert self.loaded(code) == (0, expected)

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["parse"], ()),
            (["eval", "--model", "p=1,q=0,r=0,s=0"], ()),
            (["valid"], ()),
            (["compile"], ()),
            (["check"], ("calculus",)),
            (["check", "--infer"], ("calculus",)),
            (["prove"], ("calculus", "prover")),
            (["decide"], ("calculus", "prover")),
        ],
        ids=["parse", "eval", "valid", "compile", "check", "check-infer", "prove", "decide"],
    )
    def test_a_command_loads_what_it_runs(self, argv, runs, worked_proof_text):
        stdin = worked_proof_text if argv[0] == "check" else GOAL_TEXT
        code = "import ifp.cli; sys.exit(ifp.cli.main(sys.argv[1:]))"
        expected = ["ifp", "ifp.cli", *(f"ifp.{m}" for m in ("core", "semantics", "syntax", *runs))]
        assert self.loaded(code, *argv, stdin=stdin) == (0, sorted(expected))


def readme_examples():
    """Each ``$ echo '<text>' | ifp <args>`` in README's Command line block, with its output lines."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    examples = []
    for chunk in block.split("\n$ "):
        command, *shown = chunk.removeprefix("$ ").rstrip("\n").split("\n")
        found = re.fullmatch(r"echo '(.*)' \| ifp (.*)", command)
        if found:
            examples.append((found.group(1) + "\n", shlex.split(found.group(2)), shown))
    return examples


class TestReadmeExamples:
    def test_commands_print_what_readme_shows(self):
        examples = readme_examples()
        assert len(examples) >= 9
        for stdin, argv, shown in examples:
            _, out = call(argv, stdin)
            assert out.splitlines() == shown, argv
