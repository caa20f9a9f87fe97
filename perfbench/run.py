"""The srdepth benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory, so nothing needs installing.  Workloads
(closed loop, one caller, at most one child process at a time):

* ``corpus-depth``: ``srdepth.depth(K, F)`` over the acceptance-corpus shape,
  the named family plus ``random_corpus(200, seed, 8)``, F in {GF(3), Q};
  448 ops sharing one worker's caches.
* ``verify-cli``: ``srdepth verify FILE --json`` (field p=2), one fresh
  process per op, on the 24 named complexes, the mod-3 Moore space (m=13) and
  the boundary of the 5-simplex, each relabeled by the seed; 26 ops.
* ``limits-direct``: ``derived_limit_dims(K, F, d_max, method="direct")`` on
  ``simplex(4)`` (d_max=6) and the seed-relabeled ``rp2_minimal()`` (d_max=4)
  over F in {GF(2), Q}; 4 ops.

``BENCHMARK.json`` lists the first two; ``limits-direct`` is run by hand.
The boundary of the 6-simplex is left out: it does not finish in 120 s.

A pass runs every op of the workload once with the program's caches cold (a
fresh worker process, or a fresh CLI process per op).  With ``--trace 0`` a
run makes one pass, and another while it fits in ``--seconds``; each
end-to-end metric is the median of its per-pass values.  Op times in the
end-to-end metrics are CPU seconds of the program's process, scaled to a
reference host speed that a sampler measures on the same CPU during each
pass (``calibrate.py``); the raw CPU and wall-clock figures are in the
details line.  With ``--trace 1`` one untraced and one traced pass run, and
the per-layer metrics come from the traced pass's spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (provenance, per-pass figures, the tail percentile, and
the first failures).  An op fails on a wrong output, an unexpected exit code,
an exception or a timeout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CLI_CHILD = HERE / "cli_child.py"
GOLDEN = HERE / "golden"
WORKLOADS = ("corpus-depth", "verify-cli", "limits-direct")
DEFAULT_SEED = 20240101  # srdepth.corpus.DEFAULT_SEED; the pinned results use it
SETUP_REPS = 5
RUN_BUDGET_S = 160.0  # no op starts after this, and none outlives it, so a run ends within 180 s
CLI_OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONSOLE = "import sys; from srdepth.cli import main; sys.exit(main())"  # the srdepth console script


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments, setup failed)."""


class _Killer:
    """Kills a child that outlives its time limit, unless already reaped."""

    def __init__(self, pid: int, limit: float):
        self.pid, self.lock, self.done, self.fired = pid, threading.Lock(), False, False
        self.timer = threading.Timer(max(limit, 0.0), self._kill)
        self.timer.start()

    def _kill(self):
        with self.lock:
            if not self.done:
                self.fired = True
                os.kill(self.pid, signal.SIGKILL)

    def reaped(self):
        with self.lock:
            self.done = True
        self.timer.cancel()


def child_env() -> dict:
    env = dict(os.environ)
    # srdepth does no floating-point linear algebra, but importing numpy
    # starts a BLAS thread pool whose threads spin on the other core; with
    # one BLAS thread each child keeps to one core, like the rest of the load
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, out_path: Path, limit: float, env: dict):
    """Run one child to completion with stdout and stderr in files.
    Returns (exit code, wall seconds, CPU seconds, peak RSS in KiB, timed out)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = _Killer(proc.pid, limit)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            killer.reaped()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        killer.reaped()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, killer.fired


# -- correctness gates -------------------------------------------------------


def load_golden_depth() -> dict:
    return json.loads((GOLDEN / "corpus-depth.json").read_text(encoding="utf-8"))


def depth_problem(line: dict, seed: int, golden: dict):
    """Why a corpus-depth op is wrong, or None.  Engine agreement holds for
    every seed; the pinned (reisner, CM) pair only for the default seed."""
    if line.get("error"):
        return line["error"]
    reisner, topological, ab, cm, agree = line["result"]
    if not (agree and reisner == topological == ab):
        return f"engines disagree: {reisner}, {topological}, {ab}"
    if seed == DEFAULT_SEED and golden.get(line["name"]) != [reisner, cm]:
        return f"(reisner, CM) = {[reisner, cm]}, pinned {golden.get(line['name'])}"
    return None


def cli_problem(code: int, timed_out: bool, stdout: bytes, golden: bytes):
    """Why a verify-cli op is wrong, or None: exit 0, engines agree, all four
    verdicts pass, and stdout is byte-identical to the golden report."""
    if timed_out:
        return "timeout"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if report.get("depth", {}).get("agree") is not True:
        return "engines disagree"
    verdicts = report.get("verdicts", {})
    if sorted(verdicts) != ["key_lemma", "munkres", "srdec", "star_link"] or set(verdicts.values()) != {"pass"}:
        return f"verdicts {verdicts}"
    if stdout != golden:
        return "stdout differs from the golden report"
    return None


# -- passes ------------------------------------------------------------------


def _json_lines(path: Path) -> list[dict]:
    out = []
    for raw in path.read_text(encoding="utf-8", errors="replace").splitlines():
        try:
            out.append(json.loads(raw))
        except json.JSONDecodeError:
            pass
    return out


def worker_pass(workload, seed, trace, pass_dir: Path, deadline: float, env) -> dict:
    pass_dir.mkdir(parents=True)
    argv = [sys.executable, str(WORKER), "pass", workload, str(seed), str(int(trace)),
            str(pass_dir), repr(time.time() + deadline - time.monotonic())]
    code, wall, _, rss_kb, timed_out = run_child(
        argv, pass_dir / "stdout", deadline - time.monotonic() + 5.0, env)
    lines = _json_lines(pass_dir / "stdout")
    ops = {l["op"]: l for l in lines if "op" in l}
    checks = {l["check"]: l["problems"] for l in lines if "check" in l}
    done = next((l for l in lines if l.get("done")), None)
    total = next((l["ops_total"] for l in lines if "ops_total" in l), 0)
    golden = load_golden_depth() if workload == "corpus-depth" else None
    lost = "not run: run deadline passed" if done else f"no result: worker exit {code}, timed out {timed_out}"
    records = []
    for i in range(max(total, 1)):
        line = ops.get(i)
        if line is None:
            records.append({"name": f"op {i}", "lat": RUN_BUDGET_S, "cpu": RUN_BUDGET_S, "problem": lost})
            continue
        if workload == "corpus-depth":
            problem = depth_problem(line, seed, golden)
        else:
            problem = line["error"] or ("; ".join(checks[i]) if checks.get(i) else None)
            if problem is None and i not in checks:
                problem = "output not checked"
        records.append({"name": line["name"], "lat": line["lat"], "cpu": line["cpu"], "problem": problem})
    return {
        "ops": records,
        "wall": done["wall"] if done else wall,
        "rss_kb": rss_kb,
        "counters": done["counters"] if done else None,
        "process_s": 0.0,
    }


def cli_pass(seed, trace, inputs: Path, pass_dir: Path, deadline: float, env) -> dict:
    pass_dir.mkdir(parents=True)
    golden_dir = GOLDEN / "verify-cli"
    names = sorted(p.stem for p in golden_dir.glob("*.json"))
    records, rss, counters, process_s = [], 0, {}, 0.0
    t0 = time.perf_counter()
    for op_id, name in enumerate(names):
        args = ["verify", str(inputs / f"{name}.facets"), "--json"]
        if trace:
            prefix = str(pass_dir / f"{op_id:02d}")
            argv = [sys.executable, str(CLI_CHILD), prefix, str(op_id), "--", *args]
        else:
            argv = [sys.executable, "-c", CONSOLE, *args]
        out = pass_dir / f"{op_id:02d}.stdout"
        limit = min(CLI_OP_TIMEOUT_S, deadline - time.monotonic())
        if limit <= 0:
            records.append({"name": name, "lat": RUN_BUDGET_S, "cpu": RUN_BUDGET_S,
                            "problem": "timeout: run deadline passed"})
            continue
        code, wall, cpu, rss_kb, timed_out = run_child(argv, out, limit, env)
        rss = max(rss, rss_kb)
        golden = (golden_dir / f"{name}.json").read_bytes()
        problem = cli_problem(code, timed_out, out.read_bytes(), golden)
        records.append({"name": name, "lat": wall, "cpu": cpu, "problem": problem})
        if trace and Path(prefix + ".json").is_file():
            part = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
            process_s += wall - part["cli.main_s"]
            tracing.add_counters(counters, part)
    return {
        "ops": records,
        "wall": time.perf_counter() - t0,
        "rss_kb": rss,
        "counters": counters if trace else None,
        "process_s": process_s,
    }


# -- metrics -----------------------------------------------------------------


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def pass_figures(p: dict) -> dict:
    """One pass's figures.  The end-to-end metrics use op CPU times scaled to
    the reference host speed by the pass's ``scale`` (``calibrate.py``); the
    raw CPU and wall-clock figures are kept beside them."""
    cpus = sorted(r["cpu"] for r in p["ops"])
    lats = sorted(r["lat"] for r in p["ops"])
    correct = sum(r["problem"] is None for r in p["ops"])
    k = tail_index(len(lats))
    raw = {
        "ops_per_cpu_s": correct / sum(cpus),
        "cpu_p50_ms": statistics.median(cpus) * 1e3,
        "cpu_tail_ms": cpus[k] * 1e3,
    }
    scale = p["scale"]
    return {
        "norm_ops_per_cpu_s": raw["ops_per_cpu_s"] / scale,
        "norm_cpu_p50_ms": raw["cpu_p50_ms"] * scale,
        "norm_cpu_tail_ms": raw["cpu_tail_ms"] * scale,
        "peak_rss_mb": p["rss_kb"] / 1024,
        **raw,
        "scale": scale,
        "wall_ops_s": correct / p["wall"] if p["wall"] > 0 else 0.0,
        "wall_p50_ms": statistics.median(lats) * 1e3,
        "wall_tail_ms": lats[k] * 1e3,
        "cpu_s": sum(cpus),
        "wall_s": p["wall"],
        "ops": len(lats),
        "failed": len(lats) - correct,
        "tail_percentile": 100.0 * (k + 1) / len(lats),
    }


# -- provenance --------------------------------------------------------------


def provenance(seed: int) -> dict:
    cpu = None
    try:
        for raw in Path("/proc/cpuinfo").read_text().splitlines():
            if raw.startswith("model name"):
                cpu = raw.split(":", 1)[1].strip()
                break
        loadavg = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        loadavg = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srdepth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_start": loadavg,
    }


# -- one run -------------------------------------------------------------------


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units, and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "srdepth" / "__init__.py").is_file():
        raise BenchmarkError(f"no srdepth sources under {ROOT / 'src'}")
    if not (GOLDEN / "corpus-depth.json").is_file():
        raise BenchmarkError(f"no golden outputs under {GOLDEN}")
    spec = load_spec()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    details = {"workload": workload, "trace": int(trace), "provenance": provenance(seed)}
    work = ROOT / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()

    cpu_pinned = calibrate.pin_to_current_cpu()
    setups_cpu, setups_wall = [], []
    with calibrate.Sampler() as setup_sampler:
        for rep in range(SETUP_REPS):
            setup_dir = work / f"setup{rep}"
            setup_dir.mkdir()
            argv = [sys.executable, str(WORKER), "setup", workload, str(seed), str(setup_dir)]
            code, wall, cpu, _, timed_out = run_child(argv, setup_dir / "stdout", 60.0, env)
            if code != 0 or timed_out:
                err = (setup_dir / "stdout.err").read_text(errors="replace")
                raise BenchmarkError(f"setup failed (exit {code}, timed out {timed_out}): {err}")
            setups_cpu.append(cpu)
            setups_wall.append(wall)
    inputs = work / "setup0" / "inputs"

    def one_pass(n: int, traced: bool) -> dict:
        pass_dir = work / f"pass{n}"
        with calibrate.Sampler() as sampler:
            if workload == "verify-cli":
                p = cli_pass(seed, traced, inputs, pass_dir, deadline, env)
            else:
                p = worker_pass(workload, seed, traced, pass_dir, deadline, env)
        p["scale"] = sampler.scale()
        return p

    passes = []
    if trace:
        passes = [one_pass(0, False), one_pass(1, True)]
    else:
        t_measure = time.perf_counter()
        while True:
            passes.append(one_pass(len(passes), False))
            elapsed = time.perf_counter() - t_measure
            # another pass only if it fits in the measuring time, so a slow
            # host makes fewer passes rather than longer runs
            if elapsed + passes[-1]["wall"] > seconds or time.monotonic() + 1.5 * passes[-1]["wall"] > deadline:
                break

    figures = [pass_figures(p) for p in passes]
    records = [r for p in passes for r in p["ops"]]
    failed = [r for r in records if r["problem"] is not None]
    details.update(
        setup_scale=setup_sampler.scale(),
        setup_cpu_s=setups_cpu,
        setup_wall_s=setups_wall,
        cpu_pinned=cpu_pinned,
        passes=figures,
        samples_per_pass=figures[0]["ops"],
        tail_percentile=figures[0]["tail_percentile"],
        failures=[{"name": r["name"], "problem": r["problem"]} for r in failed[:10]],
        run_s=time.monotonic() - start,
    )
    if trace:
        counters = passes[1]["counters"]
        if counters is None:
            raise BenchmarkError("the traced pass left no counters")
        overhead = passes[1]["wall"] - passes[0]["wall"]
        values = tracing.layer_metrics(counters, passes[1]["process_s"], overhead)
        details["tracing_overhead_s"] = overhead
        chosen = spec["per_layer"]
    else:
        values = {k: statistics.median(f[k] for f in figures)
                  for k in ("norm_ops_per_cpu_s", "norm_cpu_p50_ms", "norm_cpu_tail_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups_cpu) * setup_sampler.scale()
        chosen = spec["end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_child so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "BENCHMARK.json").is_file():
            raise BenchmarkError(f"no BENCHMARK.json in {ROOT}")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        details, result = run(args.workload, args.seed, seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / args.workload
    (work / "result.json").write_text(json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
