"""Command-line interface.

Subcommands: parse, eval, valid, prove, check, compile, decide.  Each
reads one input file, with "-" for standard input, and decodes it as
UTF-8.  Exit status 0 means the affirmative outcome, 1 the negative one
or an input error, and 2 a usage error or an input over the brute-force
size bound.

Each process loads only the modules its command runs: ``core``,
``semantics`` and ``syntax`` at import, the calculus in ``check``, and
the calculus and the prover in ``prove`` and ``decide``, each from
inside its handler.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .core import InvalidPathError, RuleError, canonicalize_ids, node_count
from .semantics import (
    DEFAULT_MAX_ATOMS,
    MissingAtomError,
    MissingClusterError,
    TooLargeError,
    dnf_text,
    metatrue,
    true_under,
    valid,
)
from .syntax import (
    ParseError,
    ProofEntry,
    _proof_lines,
    format_interpretation,
    parse,
    parse_interpretation,
    parse_metaselection,
    print_cirquent,
    proof_entries,
)


def main(argv=None) -> int:
    """Run one command; the cycle collector is off meanwhile and the caller's setting restored.

    No ifp tree or record can hold a reference cycle, yet the collector
    would walk every live node again and again; a run is one short
    process, and nothing it allocates outlives it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (
        ParseError,
        RuleError,
        InvalidPathError,
        MissingAtomError,
        MissingClusterError,
        TooLargeError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, TooLargeError) else 1
    finally:
        if enabled:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifp",
        description="Work with cirquents: formulas whose disjunctions are "
        "grouped into clusters that must be resolved one way per cluster.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = _command(commands, "parse", "Parse a formula and print it back.")
    p.add_argument("--canonical", action="store_true", help="renumber clusters 1, 2, ...")
    p.add_argument(
        "--show-ids", action="store_true", help="print single-member cluster IDs too"
    )

    p = _command(commands, "eval", "Evaluate a formula under an interpretation.")
    p.add_argument("--model", required=True, help='interpretation, e.g. "p=1,q=0"')
    p.add_argument(
        "--metaselection",
        help='cluster sides, e.g. "1=left,2=right"; without this, every '
        "metaselection is tried",
    )

    p = _command(commands, "valid", "Decide validity by exhausting interpretations.")
    p.add_argument(
        "--max-atoms",
        type=_bound,
        default=DEFAULT_MAX_ATOMS,
        help="the brute-force size bound on atoms (default: %(default)s)",
    )

    p = _command(commands, "prove", "Synthesize a checkable proof of a valid formula.")
    p.add_argument("-o", "--output", help="write the proof here instead of stdout")
    p.add_argument(
        "--trace", help="write the reduction's state-tuple trace to this file"
    )

    p = _command(commands, "check", "Check a proof file.")
    p.add_argument(
        "--infer",
        action="store_true",
        help="ignore the file's annotations and search for the rules",
    )

    _command(commands, "compile", "Compile to a classical formula in DNF.")

    p = _command(commands, "decide", "Prove the formula or print a countermodel.")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _command(commands, name: str, help_text: str) -> argparse.ArgumentParser:
    sub = commands.add_parser(name, help=help_text, description=help_text)
    sub.add_argument(
        "file", nargs="?", default="-", help="input file, or - for stdin (the default)"
    )
    sub.set_defaults(handler=globals()[f"_cmd_{name}"])
    return sub


def _bound(text: str) -> int:
    """A size bound: a nonnegative integer, or a usage error."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"a bound must be a nonnegative integer, got {text!r}")


def _read_source(args) -> str:
    """The input file, or stdin for "-", decoded as UTF-8 whatever the locale."""
    if args.file == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.file, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        offending = f"byte {data[e.start]:#04x} at offset {e.start}"
        raise ParseError(f"the input is not UTF-8: {offending}") from None


def _cmd_parse(args) -> int:
    c = parse(_read_source(args))
    if args.canonical:
        c = canonicalize_ids(c)
    print(print_cirquent(c, show_singleton_ids=args.show_ids))
    return 0


def _cmd_eval(args) -> int:
    c = parse(_read_source(args))
    interpretation = parse_interpretation(args.model)
    if args.metaselection is not None:
        result = metatrue(c, interpretation, parse_metaselection(args.metaselection))
    else:
        result = true_under(c, interpretation)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_valid(args) -> int:
    c = parse(_read_source(args))
    ok = valid(c, max_atoms=args.max_atoms)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def _cmd_prove(args) -> int:
    from .prover import Invalid, decide

    c = parse(_read_source(args))
    decision = decide(c)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.writelines(st.as_line() + "\n" for trace in decision.derivation.traces for st in trace)
    if isinstance(decision, Invalid):
        print("not provable", file=sys.stderr)
        return 1
    lines = _proof_lines(decision.proof)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def _cmd_check(args) -> int:
    from .calculus import check_proof

    entries = proof_entries(_read_source(args))
    try:
        failure = check_proof((ProofEntry(e.cirquent) for e in entries) if args.infer else entries)
    finally:  # the rest of the file: a syntax error anywhere is reported first
        for _ in entries:
            pass
    if failure is None:
        print("ok")
        return 0
    print(f"line {failure.line}: {failure.reason}", file=sys.stderr)
    return 1


def _cmd_compile(args) -> int:
    c = parse(_read_source(args))
    output_nodes, pieces = dnf_text(c)
    input_nodes = node_count(c)
    sys.stdout.writelines(pieces)
    print("" if output_nodes else "unsatisfiable")
    print(f"input-nodes: {input_nodes}")
    print(f"output-nodes: {output_nodes}")
    print(f"ratio: {output_nodes / input_nodes:.2f}")
    return 0


def _cmd_decide(args) -> int:
    from .prover import Valid, decide

    c = parse(_read_source(args))
    decision = decide(c)
    proved = isinstance(decision, Valid)
    if args.json:
        import json  # only --json needs it, and ifp starts faster without it

        if proved:  # json.dumps of the proof's lines, written one line at a time
            lines = (json.dumps(line[:-1]) for line in _proof_lines(decision.proof))
            sys.stdout.write('{"status": "valid", "proof": [' + next(lines))
            sys.stdout.writelines(", " + line for line in lines)
            sys.stdout.write("]}\n")
        else:
            payload = {"status": "invalid", "countermodel": decision.countermodel}
            print(json.dumps(payload, sort_keys=True))
    elif proved:
        sys.stdout.writelines(_proof_lines(decision.proof))
    else:
        print("countermodel: " + format_interpretation(decision.countermodel))
    return 0 if proved else 1


if __name__ == "__main__":
    sys.exit(main())
