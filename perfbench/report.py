"""Run every workload of the benchmark and print each end-to-end metric by
name, with its unit, per workload, plus the correctness verdict.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--baseline FILE] [--workload W]...

``--trace`` adds the traced run of each workload and prints its per-layer
metrics.  ``--baseline FILE`` also writes every result, with its details
(provenance included), to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.load_spec()["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS,
                        help="run this workload (repeatable; default: those of BENCHMARK.json)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in run.load_spec()["workloads"]]
    runs = {}
    all_correct = True
    for workload in workloads:
        for trace in (0, 1) if args.trace else (0,):
            out = run_once(workload, args.seed, args.seconds, trace)
            runs[f"{workload}/trace{trace}"] = out
            res, det = out["result"], out["details"]
            all_correct &= res["correct"]
            print(f"{workload} (trace {trace}): correct={str(res['correct']).lower()} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"fail_ratio={res['failed'] / res['attempted']:.4f} passes={len(det['passes'])} "
                  f"tail=p{det['tail_percentile']:.1f} of {det['samples_per_pass']} ops per pass")
            for name, m in res["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
            for failure in det["failures"]:
                print(f"  FAILED {failure['name']}: {failure['problem']}")
    print(f"verdict: {'all outputs correct' if all_correct else 'WRONG OUTPUTS'}")
    if args.baseline:
        args.baseline.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
