"""Run ``ifp`` with spans recorded, then write them to a file.

    python3 bench/traced_cli.py SPANS_FILE ARGS...

Runs ``ifp.cli.main(ARGS)`` with the benchmark's tracer installed and
exits with its status.  SPANS_FILE receives a JSON list of
``[name, start, end, parent]`` spans, parents as indices into the list.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import ifp.cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        code = ifp.cli.main(argv)
    finally:
        spans = [
            [tr.names[tr.name[i]], tr.start[i], tr.end[i], tr.parent[i]]
            for i in range(len(tr))
        ]
        Path(spans_file).write_text(json.dumps(spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
