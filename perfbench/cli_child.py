"""One traced CLI op: install the span wrappers, then run ``srdepth.cli.main``.

    python3 perfbench/cli_child.py OUT_PREFIX OP_ID -- SRDEPTH_ARGS...

Exits with ``main``'s return code.  Writes ``OUT_PREFIX.json`` (the op's
per-layer counters) and ``OUT_PREFIX.spans.json.gz`` after ``main`` returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import srdepth.cli  # noqa: E402
import tracing  # noqa: E402


def main(argv) -> int:
    prefix, op_id, sep, args = argv[0], int(argv[1]), argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py OUT_PREFIX OP_ID -- SRDEPTH_ARGS...")
    recorder = tracing.Recorder()
    recorder.op = op_id
    tracing.install(recorder)
    try:
        code = srdepth.cli.main(args)
    finally:
        sys.stdout.flush()
        spans = recorder.spans[:]
        Path(prefix + ".json").write_text(json.dumps(tracing.layer_counters(spans)), encoding="utf-8")
        tracing.write_spans(spans, prefix + ".spans.json.gz")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
