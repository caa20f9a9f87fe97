import json
import os
import time

import pytest

from srdepth import rp2_minimal, to_facet_text
from srdepth.cli import main


@pytest.fixture
def rp2_file(tmp_path):
    path = tmp_path / "rp2.facets"
    path.write_text(to_facet_text(rp2_minimal()), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_depth_text_output(capsys, rp2_file):
    code, out, _ = run_cli(capsys, "depth", rp2_file, "--field", "p=2")
    assert code == 0
    assert "reisner=2" in out and "topological=2" in out and "auslander_buchsbaum=2" in out
    assert "cohen_macaulay: false" in out


def test_depth_rationals(capsys, rp2_file):
    code, out, _ = run_cli(capsys, "depth", rp2_file, "--field", "q")
    assert code == 0
    assert "reisner=3" in out
    assert "cohen_macaulay: true" in out


def test_depth_json_schema(capsys, rp2_file):
    code, out, _ = run_cli(capsys, "depth", rp2_file, "--field", "p=2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 6 and report["dim"] == 2
    assert report["f_vector"] == [1, 6, 15, 10]
    assert report["field"] == "p=2"
    assert report["depth"] == {
        "reisner": 2,
        "topological": 2,
        "auslander_buchsbaum": 2,
        "agree": True,
    }
    assert report["cohen_macaulay"] is False
    assert report["reduced_cohomology"] == {"-1": 0, "0": 0, "1": 1, "2": 1}


def test_limits_json(capsys, tmp_path):
    path = tmp_path / "c3.facets"
    path.write_text("1 2\n2 3\n1 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "limits", str(path), "--field", "q", "--json", "--d-max", "6")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"srdec": "pass"}
    assert report["limits"]["1"]["0"] == 1
    assert report["limits"]["0"]["2"] == 3
    assert report["rho"]["kernel"] == {"0": 0, "2": 0, "4": 0, "6": 0}


def test_verify_all_pass(capsys, rp2_file):
    code, out, _ = run_cli(capsys, "verify", rp2_file, "--field", "p=2", "--json", "--d-max", "8")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {
        "srdec": "pass",
        "star_link": "pass",
        "key_lemma": "pass",
        "munkres": "pass",
    }


def test_verify_failing_verdict_exits_1(capsys, monkeypatch, rp2_file):
    from srdepth import cli
    from srdepth.cohomology import HarnessReport

    monkeypatch.setattr(cli, "verify_star_link", lambda K, field: HarnessReport(field, False, ((1,), 0, 0, 0)))
    code, out, _ = run_cli(capsys, "verify", rp2_file, "--field", "p=2", "--json", "--d-max", "4")
    assert code == 1
    verdicts = json.loads(out)["verdicts"]
    assert verdicts.pop("star_link") == "fail"
    assert set(verdicts.values()) == {"pass"}


def test_engine_disagreement_exits_3(capsys, monkeypatch, rp2_file):
    import importlib

    monkeypatch.setattr(importlib.import_module("srdepth.depth"), "depth_ab", lambda K, field: 0)
    code, out, err = run_cli(capsys, "depth", rp2_file)
    assert code == 3 and not out
    assert err.startswith("internal invariant violated: depth engines disagree")


def test_engine_disagreement_names_the_input_and_field_in_a_short_line(capsys, monkeypatch, tmp_path):
    # the repr of the 300-cycle alone runs to 3,417 characters
    import importlib

    from srdepth import cycle

    monkeypatch.chdir(tmp_path)
    (tmp_path / "c300.facets").write_text(to_facet_text(cycle(300)), encoding="utf-8")
    monkeypatch.setattr(importlib.import_module("srdepth.depth"), "depth_ab", lambda K, field: 0)
    code, out, err = run_cli(capsys, "depth", "c300.facets", "--field", "p=3")
    assert code == 3 and not out
    assert len(err.encode()) < 200 and err.count("\n") == 1
    assert "over p=3" in err and "(c300.facets, --field p=3)" in err


def test_verify_irrelevant_complex(capsys, tmp_path):
    path = tmp_path / "irrelevant.json"
    path.write_text('{"m": 0, "facets": [[]]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path), "--field", "q", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(v == "pass" for v in report["verdicts"].values())
    assert report["depth"]["reisner"] == 0


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "depth", "/nonexistent/file.facets")
    assert code == 2
    assert "error" in err


def test_bad_facet_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.facets"
    path.write_text("1 2\nthree 4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "depth", str(path))
    assert code == 2


def test_unused_vertex_exits_2(capsys, tmp_path):
    path = tmp_path / "gap.facets"
    path.write_text("m 3\n1 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "depth", str(path))
    assert code == 2
    # a huge declared vertex count is refused in time linear in the input,
    # with a short message, not by a mask of m bits; a huge line, vertex or
    # header is quoted by a short prefix and its length
    for text in (
        "m 1000000\n1\n",
        "m 100000000000000000000\n100000000000000000000\n",
        "1" * 200_000 + "x\n",
        "1" + "0" * 3999 + "\n",
        "m " + "1" * 5000 + "\n1\n",
        '{"m": 1, "facets": [[' + "1" * 4000 + "]]}",
    ):
        path.write_text(text, encoding="utf-8")
        start = time.process_time()
        code, out, err = run_cli(capsys, "depth", str(path))
        assert time.process_time() - start < 0.5
        assert code == 2 and out == "" and err.startswith("error: ") and len(err) < 200


NINES = "9" * 4000  # still parsed by int(); printed whole it fills the message


@pytest.mark.parametrize(
    "argv",
    [
        ("depth", "{rp2}", "--field", "p=" + NINES),
        ("limits", "{rp2}", "--d-max", "-" + NINES),
        ("limits", "{rp2}", "--d-max", NINES),
        ("limits", "{rp2}", "--d-max", "9" * 5000),  # past int()'s digit limit
        ("corpus", "random", "{out}", "--m", "-" + NINES),
        ("corpus", "random", "{out}", "--count", "-" + NINES),
    ],
    ids=["field", "negative_d_max", "huge_d_max", "d_max_past_int_limit", "m", "count"],
)
def test_huge_argument_exits_2_with_a_short_message(capsys, rp2_file, tmp_path, argv):
    argv = [a.format(rp2=rp2_file, out=tmp_path / "out") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the text itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and len(captured.err) < 200


def test_corpus_random_with_a_huge_vertex_bound(tmp_path):
    # the vertex counts 4..m are cycled by arithmetic, not listed; the child
    # gets a 1 GB address space, as a listed range would not fit
    import os
    import resource
    import subprocess
    import sys

    import srdepth

    src = os.path.dirname(os.path.dirname(srdepth.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = tmp_path / "r"
    result = subprocess.run(
        [sys.executable, "-m", "srdepth.cli", "corpus", "random", str(out),
         "--m", "99999999999", "--count", "3"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert result.returncode == 0, result.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert [e["m"] for e in manifest["entries"]] == [4, 5, 6]
    assert manifest["max_m"] == 99999999999


def test_huge_facet_exits_2_before_building_faces(capsys, tmp_path):
    # one facet of 20 vertices would build 2^20 faces
    path = tmp_path / "simplex_20.facets"
    path.write_text(" ".join(str(v) for v in range(1, 21)) + "\n", encoding="utf-8")
    start = time.process_time()
    code, out, err = run_cli(capsys, "depth", str(path))
    assert time.process_time() - start < 0.5
    assert code == 2 and out == "" and err.startswith("error: ") and "1048576" in err


@pytest.mark.parametrize("vertices", [14284, 14285])
def test_facet_past_the_print_limit_exits_2_with_a_short_message(capsys, tmp_path, vertices):
    # 2^14285 subsets have more digits than Python prints by default: the
    # count is named by its bit length, not printed or raised as a ValueError
    path = tmp_path / "huge.facets"
    path.write_text(" ".join(map(str, range(1, vertices + 1))) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "depth", str(path))
    assert code == 2 and out == "" and len(err.encode()) < 200
    assert f"<int of {vertices + 1} bits>" in err


def test_bad_field_exits_2(capsys, rp2_file):
    code, _, _ = run_cli(capsys, "depth", rp2_file, "--field", "p=4")
    assert code == 2


# int() alone takes "_", "+", surrounding whitespace and non-ASCII digits,
# so each of these would run as p=13, p=3, d_max=4 or a vertex 3
@pytest.mark.parametrize(
    "argv",
    [
        ("depth", "--field", "p=1_3"),
        ("depth", "--field", "p=+3"),
        ("depth", "--field", "p= 3"),
        ("depth", "--field", "p=\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("limits", "--d-max", "0_4"),
        ("limits", "--d-max", "+4"),
        ("limits", "--d-max", "4 "),
        ("limits", "--d-max", "\u0664"),
    ],
    ids=["field_underscore", "field_plus", "field_space", "field_arabic", "dmax_underscore", "dmax_plus", "dmax_space", "dmax_arabic"],
)
def test_loose_int_argument_exits_2(capsys, rp2_file, argv):
    command, *rest = argv
    try:
        code = main([command, rp2_file, *rest])
    except SystemExit as exc:  # argparse refuses the text itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert repr(rest[-1]) in captured.err


@pytest.mark.parametrize(
    "text, what",
    [
        ("1 2\n2 0_3\n", "facet"),
        ("1 2\n2 +3\n", "facet"),
        ("1 2\n2 \u0663\n", "facet"),
        ("m 0_3\n1 2\n2 3\n", "header"),
        ("m +3\n1 2\n2 3\n", "header"),
    ],
    ids=["facet_underscore", "facet_plus", "facet_arabic", "header_underscore", "header_plus"],
)
def test_loose_int_in_a_facet_file_exits_2(capsys, tmp_path, text, what):
    path = tmp_path / "loose.facets"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "depth", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {what} line: ")


def test_depth_deterministic_output(capsys, rp2_file):
    _, out1, _ = run_cli(capsys, "depth", rp2_file, "--field", "p=2", "--json")
    _, out2, _ = run_cli(capsys, "depth", rp2_file, "--field", "p=2", "--json")
    assert out1 == out2


def test_verify_deterministic_output(capsys, rp2_file):
    _, out1, _ = run_cli(capsys, "verify", rp2_file, "--field", "q", "--d-max", "8")
    _, out2, _ = run_cli(capsys, "verify", rp2_file, "--field", "q", "--d-max", "8")
    assert out1 == out2


def test_corpus_named_deterministic(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "corpus", "named", str(out_a))[0] == 0
    assert run_cli(capsys, "corpus", "named", str(out_b))[0] == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and "manifest.json" in files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_corpus_random_deterministic(capsys, tmp_path):
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    args = ["--m", "6", "--count", "5", "--seed", "20240101"]
    assert run_cli(capsys, "corpus", "random", str(out_a), *args)[0] == 0
    assert run_cli(capsys, "corpus", "random", str(out_b), *args)[0] == 0
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["count"] == 5 and len(manifest["entries"]) == 5


def test_corpus_random_bad_arguments_exit_2(capsys, tmp_path):
    for args in (["--m", "3"], ["--m", "-1"], ["--count", "-1"]):
        code, out, err = run_cli(capsys, "corpus", "random", str(tmp_path / "out"), *args)
        assert code == 2, args
        assert out == "" and err.startswith("error: ")
        assert not (tmp_path / "out").exists(), args


def test_corpus_random_seed_changes_bytes(capsys, tmp_path):
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    run_cli(capsys, "corpus", "random", str(out_a), "--m", "6", "--count", "3", "--seed", "1")
    run_cli(capsys, "corpus", "random", str(out_b), "--m", "6", "--count", "3", "--seed", "2")
    names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
    assert any(
        (out_a / n).read_bytes() != (out_b / n).read_bytes() for n in names
    )


def test_depth_full_simplex_over_gf5(capsys, tmp_path):
    path = tmp_path / "simplex_4.facets"
    path.write_text("1 2 3 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "depth", str(path), "--field", "p=5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["depth"]["reisner"] == 4
    assert report["cohen_macaulay"] is True


def test_depth_fifteen_cycle(capsys, tmp_path):
    # past the 2^14 Betti table: the Hochster walk visits one subset here
    from srdepth import cycle

    path = tmp_path / "cycle_15.facets"
    path.write_text(to_facet_text(cycle(15)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "depth", str(path))
    assert code == 0
    assert "reisner=2 topological=2 auslander_buchsbaum=2" in out


def test_verify_random_complex(capsys, tmp_path):
    from srdepth import random_complex

    path = tmp_path / "random.facets"
    path.write_text(to_facet_text(random_complex(7, 2, 0.5, 99)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path), "--field", "p=2", "--json", "--d-max", "12")
    assert code == 0
    assert all(v == "pass" for v in json.loads(out)["verdicts"].values())


def test_json_input_accepted(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
    code, out, _ = run_cli(capsys, "depth", str(path), "--field", "p=5", "--json")
    assert code == 0
    assert json.loads(out)["depth"]["reisner"] == 2


@pytest.mark.parametrize(
    "name, text",
    [
        ("bool_vertex.json", '{"m": 2, "facets": [[true, 2]]}'),
        ("bool_m.json", '{"m": true, "facets": [[1]]}'),
        ("repeated.facets", "1 1 2\n"),
    ],
    ids=["bool_vertex", "bool_m", "repeated_vertex"],
)
def test_malformed_input_exits_2(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "depth", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def _cli_process(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception would
    show its traceback on stderr."""
    import os
    import subprocess
    import sys

    import srdepth

    src = os.path.dirname(os.path.dirname(srdepth.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "srdepth.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "name, data",
    [
        ("utf16.facets", "1 2\n".encode("utf-16")),
        ("deep.json", b'{"m": 1, "facets": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
        ("long_int.json", b'{"m": ' + b"9" * 5000 + b', "facets": [[1]]}'),
        ("truncated.json", b'{"m": 1, "facets": [[1]'),
    ],
    ids=["not_utf8", "json_nested_100000_deep", "json_int_of_5000_digits", "json_truncated"],
)
def test_unreadable_file_exits_2_without_traceback(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    result = _cli_process("depth", str(path))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert str(path) in result.stderr


@pytest.mark.parametrize("command", ["limits", "verify"])
@pytest.mark.parametrize(
    "d_max, values",
    [("100000000", "150000003"), ("99999999999999999999", "150000000000000000000")],
    ids=["1e8", "past_ssize_t"],
)
def test_huge_d_max_exits_2_before_any_work(capsys, tmp_path, command, d_max, values):
    # one triangle: d_max // 2 + 1 even degrees times lim^0..lim^2
    path = tmp_path / "triangle.facets"
    path.write_text("1 2 3\n", encoding="utf-8")
    start = time.process_time()
    code, out, err = run_cli(capsys, command, str(path), "--d-max", d_max)
    assert time.process_time() - start < 0.5
    assert code == 2 and out == "" and err.startswith("error: ")
    assert f"list {values} values" in err


def _modules_after_cli_import(names):
    """Which of ``names`` a fresh interpreter has loaded after ``import srdepth.cli``."""
    import os
    import subprocess
    import sys

    import srdepth

    src = os.path.dirname(os.path.dirname(srdepth.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, srdepth.cli; print(sorted(set({names!r}) & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_does_not_load_numpy():
    assert _modules_after_cli_import(["numpy"]) == "[]"


def test_cli_import_does_not_load_dataclasses_or_inspect():
    assert _modules_after_cli_import(["dataclasses", "inspect"]) == "[]"


@pytest.mark.parametrize("command, d_max", [("limits", "-5"), ("verify", "-1")])
@pytest.mark.parametrize("irrelevant", [False, True], ids=["rp2", "irrelevant"])
def test_negative_d_max_exits_2(capsys, rp2_file, tmp_path, command, d_max, irrelevant):
    path = rp2_file
    if irrelevant:
        path = tmp_path / "irrelevant.json"
        path.write_text('{"m": 0, "facets": [[]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path), "--json", "--d-max", d_max)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_verify_boundary_of_6_simplex(capsys, tmp_path):
    from srdepth import boundary_simplex

    path = tmp_path / "sphere5.facets"
    path.write_text(to_facet_text(boundary_simplex(6)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == 0
    assert json.loads(out)["verdicts"] == {
        "srdec": "pass",
        "star_link": "pass",
        "key_lemma": "pass",
        "munkres": "pass",
    }


def test_verify_too_many_flags_fails_fast(tmp_path):
    # the order complex of the boundary of the 7-simplex has 545,834 flags;
    # the child gets a 1 GB address space and 60 s, so listing them fails
    import os
    import resource
    import subprocess
    import sys

    import srdepth
    from srdepth import boundary_simplex

    path = tmp_path / "sphere6.facets"
    path.write_text(to_facet_text(boundary_simplex(7)), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(srdepth.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "srdepth.cli", "verify", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "545834 flags" in result.stderr


# the address space in use once the CLI is imported, plus a margin in MiB
# (argv[1]): at 16 MiB about 35 MiB in all, and verify on the boundary of
# the 6-simplex over GF(2) runs out of memory there (the depth walks on the
# boundary of the 12-simplex, which key links by relabeling class, and c6 *
# c6 * c6 no longer do); each margin fails an allocation at another call
_OUT_OF_MEMORY_CHILD = """
import resource, sys
from srdepth.cli import main
size = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:"))
limit = (size + int(sys.argv[1]) * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmSize is read from /proc/self/status")
@pytest.mark.parametrize("margin", [8, 12, 16])
def test_out_of_memory_exits_2_with_one_short_line(tmp_path, margin):
    import subprocess
    import sys

    import srdepth
    from srdepth import boundary_simplex

    path = tmp_path / "bd6.facets"
    path.write_text(to_facet_text(boundary_simplex(6)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srdepth.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY_CHILD, str(margin), "verify", str(path), "--field", "p=2"],
        env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == b""
    assert len(result.stderr) < 200 and b"Traceback" not in result.stderr
    assert result.stderr.startswith(b"error: ")
