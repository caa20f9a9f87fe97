"""Tests of the benchmark itself: tracing, correctness gates, determinism.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from srdepth import DEFAULT_SEED, GF2, QQ, derived_limit_dims, rp2_minimal  # noqa: E402

TRACED_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import srdepth, tracing
from srdepth import GF2, GF3, named_corpus, rp2_minimal
recorder = tracing.Recorder()
tracing.install(recorder)
{body}
"""


def traced(body: str) -> str:
    script = TRACED_SCRIPT.format(src=str(run.ROOT / "src"), here=str(HERE), body=body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_call_through_aliased_import_is_a_span():
    # depth.py binds reduced_cohomology by `from .cohomology import ...`
    out = traced(
        "sys.modules['srdepth.depth'].depth_reisner(rp2_minimal(), GF2)\n"
        "srdepth.reduced_cohomology(rp2_minimal(), GF3)\n"
        "names = [s[0] for s in recorder.spans]\n"
        "parents = [recorder.spans[s[3]][0] for s in recorder.spans if s[0] == 'cohomology.reduced' and s[3] >= 0]\n"
        "print(json.dumps([names, parents]))\n"
    )
    names, parents = json.loads(out)
    assert names.count("depth.reisner") == 1
    assert "depth.reisner" in parents
    assert names.count("cohomology.reduced") >= 2
    assert "complexes.link_by_mask" in names and "linalg.rank" in names


def test_traced_counts_repeat_exactly():
    body = (
        "for name, K in named_corpus():\n"
        "    srdepth.depth(K, GF3)\n"
        "srdepth.derived_limit_dims(rp2_minimal(), GF2, 2, method='direct')\n"
        "srdepth.derived_limit_dims(rp2_minimal(), GF2, 4)\n"
        "print(json.dumps(tracing.layer_counters(recorder.spans)))\n"
    )
    first, second = json.loads(traced(body)), json.loads(traced(body))
    counts = {m["name"] for m in run.load_spec()["per_layer"] if m["unit"] == "count"} & set(first)
    assert len(counts) > 20
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for key in ("complexes.built", "linalg.rank_calls.gfp", "linalg.rank_calls.gf2",
                "depth.hochster_subsets", "limits.flags", "limits.grouped_calls",
                "limits.assembled_entries", "face_ring.monomials"):
        assert first[key] > 0, key


def test_corrupted_golden_report_is_a_failed_op(tmp_path, monkeypatch):
    env = run.child_env()
    subprocess.run([sys.executable, str(run.WORKER), "setup", "verify-cli", "7", str(tmp_path)],
                   env=env, check=True)
    golden = tmp_path / "golden" / "verify-cli"
    golden.mkdir(parents=True)
    for name in ("cycle_3", "rp2"):
        shutil.copy(run.GOLDEN / "verify-cli" / f"{name}.json", golden)
    text = (golden / "rp2.json").read_text()
    (golden / "rp2.json").write_text(text.replace('"reisner": 2', '"reisner": 3'))
    monkeypatch.setattr(run, "GOLDEN", tmp_path / "golden")
    p = run.cli_pass(7, False, tmp_path / "inputs", tmp_path / "pass", time.monotonic() + 120, env)
    problems = {r["name"]: r["problem"] for r in p["ops"]}
    assert problems == {"cycle_3": None, "rp2": "stdout differs from the golden report"}
    assert run.pass_figures(dict(p, scale=1.0))["failed"] == 1


def test_cli_gate_rejects_failed_verdicts_and_exit_codes():
    golden = (run.GOLDEN / "verify-cli" / "rp2.json").read_bytes()
    assert run.cli_problem(0, False, golden, golden) is None
    failing = golden.replace(b'"munkres": "pass"', b'"munkres": "fail"')
    assert run.cli_problem(0, False, failing, failing).startswith("verdicts")
    assert run.cli_problem(1, False, golden, golden) == "exit code 1"
    assert run.cli_problem(0, True, b"", golden) == "timeout"


def test_depth_gate_trips_on_wrong_depth_and_disagreement():
    golden = run.load_golden_depth()
    line = {"name": "rp2|p=3", "error": None, "result": [3, 3, 3, True, True]}
    assert run.depth_problem(line, run.DEFAULT_SEED, golden) is None
    wrong = dict(line, result=[2, 2, 2, False, True])
    assert run.depth_problem(wrong, run.DEFAULT_SEED, golden).startswith("(reisner, CM)")
    assert run.depth_problem(wrong, 5, golden) is None  # pins hold only for the default seed
    split = dict(line, result=[3, 2, 3, True, True])
    assert run.depth_problem(split, 5, golden).startswith("engines disagree")


def test_limits_gate_trips_on_a_wrong_profile():
    K = rp2_minimal()
    for field in (GF2, QQ):
        profile = derived_limit_dims(K, field, 4, method="direct")
        assert worker.limits_problems(profile, K, field, 4) == []
    profile.lim[0][2] += 1
    assert worker.limits_problems(profile, K, QQ, 4)
    profile.lim[0][2] -= 1
    profile.rho_kernel[4] = 1
    assert worker.limits_problems(profile, K, QQ, 4) == [f"rho kernel {profile.rho_kernel} is not 0"]


def test_default_seed_is_the_corpus_seed():
    assert run.DEFAULT_SEED == DEFAULT_SEED


def test_tail_leaves_ten_samples_beyond():
    assert run.tail_index(448) == 437
    assert run.tail_index(26) == 15
    assert run.tail_index(4) == 3


def test_metrics_match_benchmark_spec():
    spec = run.load_spec()
    counters = dict.fromkeys(tracing.COUNTERS, 0)
    counters["complexes.subcomplex_calls"] = 4
    counters["complexes.subcomplex_built"] = 1
    layer = tracing.layer_metrics(counters, 0.0, 0.0)
    assert layer["complexes.subcomplex_reuse"] == 0.75
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"norm_ops_per_cpu_s", "norm_cpu_p50_ms", "norm_cpu_tail_ms", "peak_rss_mb", "setup_s"}


def test_pass_metrics_are_scaled_by_the_sampled_host_speed():
    with calibrate.Sampler() as sampler:
        time.sleep(0.3)
    assert len(sampler.samples) >= 3
    assert sampler.scale() == pytest.approx(calibrate.REFERENCE_S / (sum(sampler.samples) / len(sampler.samples)))
    ops = [{"name": f"op{i}", "lat": 1.2, "cpu": 1.0, "problem": None} for i in range(4)]
    figures = run.pass_figures({"ops": ops, "wall": 5.0, "rss_kb": 1024, "scale": 0.5})
    assert figures["norm_ops_per_cpu_s"] == pytest.approx(2.0)
    assert figures["norm_cpu_p50_ms"] == pytest.approx(500.0)
    assert figures["ops_per_cpu_s"] == pytest.approx(1.0)
    assert figures["wall_ops_s"] == pytest.approx(0.8)
