"""Worker process of the srdepth benchmark: builds a workload's inputs and
runs one timed pass of its library ops with the program's caches cold.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py pass WORKLOAD SEED TRACE WORKDIR DEADLINE

``setup`` is what ``setup_s`` times: interpreter start, import, corpus
generation and, for ``verify-cli``, writing the input files.  ``pass`` writes
one JSON line per op to stdout as the op finishes (so a killed worker still
leaves its finished ops), then checks the outputs after the timed phase and
ends with a summary line.  DEADLINE is a ``time.time()`` value after which
no op starts; the harness counts the ops left as failed.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import srdepth  # noqa: E402
from srdepth import (  # noqa: E402
    GF2,
    QQ,
    GF3,
    boundary_simplex,
    derived_limit_dims,
    graded_dim,
    named_corpus,
    random_corpus,
    reduced_cohomology,
    rp2_minimal,
    simplex,
    to_facet_text,
    validate,
)

CORPUS_FIELDS = (GF3, QQ)
LIMITS_CASES = (("simplex_4", 6), ("rp2", 4))
LIMITS_FIELDS = (GF2, QQ)
# per-op limits; a hanging regression becomes a counted failure
OP_TIMEOUT_S = {"corpus-depth": 30.0, "limits-direct": 60.0}


def moore_space_mod3():
    """Filled 9-gon glued onto a 3-cycle by a degree-three map (m=13):
    its first homology is 3-torsion."""
    tris = []
    inner = lambda i: 10 + ((i - 1) % 3)  # noqa: E731
    for i in range(1, 10):
        ip = i % 9 + 1
        tris += [[i, ip, inner(i)], [ip, inner(i), inner(ip)], [i, ip, 13]]
    return validate(tris, 13)


def relabel(K, rng: random.Random):
    """The same complex under a seeded permutation of its labels 1..m."""
    perm = list(range(1, K.m + 1))
    rng.shuffle(perm)
    return validate([[perm[v - 1] for v in f] for f in K.facets], K.m)


def corpus_ops(seed: int):
    """(name, complex, field) per op: the acceptance-corpus shape."""
    entries = [(name, K) for name, K in named_corpus()]
    entries += [(name, K) for name, _, K in random_corpus(200, seed, 8)]
    return [(name, K, F) for name, K in entries for F in CORPUS_FIELDS]


def cli_inputs(seed: int):
    """(name, complex) per CLI op, each relabeled by the seed; the reports
    do not depend on labels, so one golden output serves every seed."""
    rng = random.Random(seed)
    entries = named_corpus() + [("moore_mod3", moore_space_mod3()), ("boundary_simplex_5", boundary_simplex(5))]
    return [(name, relabel(K, rng)) for name, K in entries]


def limits_ops(seed: int):
    rng = random.Random(seed)
    complexes = {"simplex_4": simplex(4), "rp2": relabel(rp2_minimal(), rng)}
    return [(name, complexes[name], F, d_max) for name, d_max in LIMITS_CASES for F in LIMITS_FIELDS]


def setup(workload: str, seed: int, workdir: Path) -> None:
    if workload == "corpus-depth":
        corpus_ops(seed)
    elif workload == "verify-cli":
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for name, K in cli_inputs(seed):
            (inputs / f"{name}.facets").write_text(to_facet_text(K), encoding="utf-8")
    elif workload == "limits-direct":
        limits_ops(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def srdec_prediction(K, field, d_max):
    """lim^0_d = graded_dim + H^0 at d=0, lim^i = H^i at d=0, zero elsewhere."""
    h = reduced_cohomology(K, field).dims
    lim = {}
    for i in range(max(K.dim, 0) + 1):
        lim[i] = {}
        for d in range(0, d_max + 1, 2):
            if i == 0:
                lim[i][d] = graded_dim(K, d) + (h.get(0, 0) if d == 0 else 0)
            else:
                lim[i][d] = h.get(i, 0) if d == 0 else 0
    return lim


def limits_problems(profile, K, field, d_max) -> list[str]:
    """Differences between a direct limits profile and the srdec prediction."""
    problems = []
    expected = srdec_prediction(K, field, d_max)
    if profile.lim != expected:
        problems.append(f"lim {profile.lim} != predicted {expected}")
    if any(profile.rho_kernel.values()):
        problems.append(f"rho kernel {profile.rho_kernel} is not 0")
    return problems


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def run_pass(workload: str, seed: int, trace: bool, workdir: Path, deadline: float) -> None:
    if workload == "corpus-depth":
        ops = [(f"{n}|{F}", lambda K=K, F=F: srdepth.depth(K, F)) for n, K, F in corpus_ops(seed)]
    elif workload == "limits-direct":
        cases = limits_ops(seed)
        ops = [
            (f"{n}|{F}|{dm}", lambda K=K, F=F, dm=dm: derived_limit_dims(K, F, dm, method="direct"))
            for n, K, F, dm in cases
        ]
    else:
        raise SystemExit(f"workload {workload!r} has no worker pass")
    recorder = None
    if trace:
        import tracing  # found beside this script; it must not load when untraced

        recorder = tracing.Recorder()
        tracing.install(recorder)
    signal.signal(signal.SIGALRM, _alarm)
    _emit({"ops_total": len(ops)})
    results = []
    clock, cpu_clock = time.perf_counter, time.process_time
    t_start = clock()
    for i, (name, fn) in enumerate(ops):
        limit = min(OP_TIMEOUT_S[workload], deadline - time.time())
        if limit <= 0:
            break  # the harness counts the ops never run as failed
        if recorder is not None:
            recorder.op = i
        t0, c0 = clock(), cpu_clock()
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn()
        except OpTimeout:
            error = f"timeout after {limit:.1f}s"
        except Exception as exc:  # every op failure is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        lat, cpu = clock() - t0, cpu_clock() - c0
        results.append(result)
        line = {"op": i, "name": name, "lat": lat, "cpu": cpu, "error": error}
        if workload == "corpus-depth" and result is not None:
            line["result"] = [result.reisner, result.topological, result.auslander_buchsbaum,
                              result.cohen_macaulay, result.agree]
        _emit(line)
    wall = clock() - t_start
    counters = None
    if recorder is not None:
        timed_spans = recorder.spans[:]
        counters = tracing.layer_counters(timed_spans)
        tracing.write_spans(timed_spans, workdir / "spans.json.gz")
    # correctness after the timed phase, independently of the profile
    if workload == "limits-direct":
        for i, ((name, K, F, dm), profile) in enumerate(zip(cases, results)):
            if profile is not None:
                _emit({"check": i, "problems": limits_problems(profile, K, F, dm)})
    _emit({"done": True, "wall": wall, "counters": counters})


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(workload, seed, Path(argv[3]))
    elif mode == "pass":
        run_pass(workload, seed, argv[3] == "1", Path(argv[4]), float(argv[5]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
