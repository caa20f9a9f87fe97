"""Capture the golden outputs the benchmark's correctness gates compare against.

    python3 perfbench/golden.py

Writes ``perfbench/golden/verify-cli/<name>.json``, the stdout of
``srdepth verify FILE --json`` on each unrelabeled CLI input (the named files
exactly as ``srdepth corpus named`` writes them), and
``perfbench/golden/corpus-depth.json``, the (reisner, Cohen-Macaulay) pair of
every corpus-depth op at the default seed.  Run it only at a commit whose
outputs are known good; a later run overwrites the pins.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from srdepth import boundary_simplex, depth, to_facet_text  # noqa: E402


def main() -> int:
    env = run.child_env()
    out_dir = HERE / "golden" / "verify-cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench") as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, "-c", run.CONSOLE, "corpus", "named", str(tmp)],
                       env=env, check=True, capture_output=True)
        (tmp / "manifest.json").unlink()
        extra = {"moore_mod3": worker.moore_space_mod3(), "boundary_simplex_5": boundary_simplex(5)}
        for name, K in extra.items():
            (tmp / f"{name}.facets").write_text(to_facet_text(K), encoding="utf-8")
        for path in sorted(tmp.glob("*.facets")):
            proc = subprocess.run([sys.executable, "-c", run.CONSOLE, "verify", str(path), "--json"],
                                  env=env, check=True, capture_output=True)
            (out_dir / f"{path.stem}.json").write_bytes(proc.stdout)
    pins = {}
    for name, K, F in worker.corpus_ops(run.DEFAULT_SEED):
        rep = depth(K, F)
        pins[f"{name}|{F}"] = [rep.reisner, rep.cohen_macaulay]
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
    (HERE / "golden" / "corpus-depth.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(list(out_dir.glob('*.json')))} CLI reports and {len(pins)} depth pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
