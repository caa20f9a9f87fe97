"""Acceptance criteria, one test per criterion.

The corpus is the fixed named family plus 200 seeded random complexes with
at most 8 vertices (seed 20240101).  Exact integers throughout; every
criterion prints one PASS line (run with -s to watch them live).
"""

import json
import time

import pytest

from srdepth import (
    GF2,
    GF3,
    GF5,
    QQ,
    DEFAULT_SEED,
    depth,
    depth_reisner,
    depth_topological,
    derived_limit_dims,
    betti_table,
    graded_dim,
    named_corpus,
    random_corpus,
    reduced_cohomology,
    rp2_minimal,
    simplex,
    to_facet_text,
    verify_limit_decomposition,
    verify_limit_depth_criterion,
    verify_munkres_shift,
    verify_star_link,
)
from srdepth.cli import main as cli_main
from srdepth.limits import limits_complex
from srdepth.linalg import _product_is_zero

from oracles import hilbert_series

ALL_FIELDS = (GF2, GF3, GF5, QQ)
TWO_FIELDS = (GF2, QQ)  # the two characteristic regimes


@pytest.fixture(scope="module")
def corpus():
    entries = [(name, K) for name, K in named_corpus()]
    entries += [(name, K) for name, _, K in random_corpus(200, DEFAULT_SEED, 8)]
    return entries


def test_criterion_1_engine_agreement(corpus):
    start = time.time()
    checked = 0
    for name, K in corpus:
        for field in ALL_FIELDS:
            rep = depth(K, field)  # raises EngineDisagreement on mismatch
            assert rep.agree, (name, str(field))
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"engine agreement exceeded the runtime budget: {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1 PASS: three depth engines agree on {len(corpus)} complexes "
        f"x {len(ALL_FIELDS)} fields ({checked} runs, {elapsed:.1f}s)"
    )


def test_criterion_2_projective_plane_depths():
    K = rp2_minimal()
    rep2 = depth(K, GF2)
    assert rep2.reisner == 2 and not rep2.cohen_macaulay
    for field in (QQ, GF3):
        rep = depth(K, field)
        assert rep.reisner == 3 and rep.cohen_macaulay
    print(
        "\nACCEPTANCE 2 PASS: projective plane has depth 2 (not CM) over p=2 "
        "and depth 3 (CM) over q and p=3"
    )


def test_criterion_3_limit_decomposition(corpus):
    for name, K in corpus:
        if K.is_irrelevant:
            continue
        for field in TWO_FIELDS:
            report = verify_limit_decomposition(K, field, 4 * K.m)
            assert report.passed, (name, str(field), report.first_failure)
            h = reduced_cohomology(K, field).dims
            for i in range(1, max(K.dim, 0) + 1):
                per_degree = report.profile.lim[i]
                assert sum(per_degree.values()) == h.get(i, 0), (name, str(field), i)
                assert all(v == 0 for d, v in per_degree.items() if d > 0)
    print(
        f"\nACCEPTANCE 3 PASS: limit decomposition holds degreewise up to 4m on "
        f"{len(corpus)} complexes over p=2 and q"
    )


def test_criterion_4_link_and_point_conditions_equivalent(corpus):
    for name, K in corpus:
        for field in TWO_FIELDS:
            for r in range(0, K.krull_dim + 1):
                assert (depth_reisner(K, field) >= r) == (depth_topological(K, field) >= r), (
                    name,
                    str(field),
                    r,
                )
    print(
        "\nACCEPTANCE 4 PASS: link-vanishing and point-vanishing conditions agree "
        "for every r on the whole corpus (relative-pair oracle on the point side)"
    )


def test_criterion_5_local_cohomology_shift(corpus):
    for name, K in corpus:
        for field in TWO_FIELDS:
            report = verify_munkres_shift(K, field)
            assert report.passed, (name, str(field), report.witness)
    print(
        "\nACCEPTANCE 5 PASS: link-shift local cohomology equals the relative "
        "computation at every nonempty face of every corpus complex"
    )


def test_criterion_6_star_link_depth_identity(corpus):
    for name, K in corpus:
        for field in TWO_FIELDS:
            report = verify_star_link(K, field)
            assert report.passed, (name, str(field), report.witness)
    print(
        "\nACCEPTANCE 6 PASS: depth(link) + card = depth(star) >= depth(K) at "
        "every face of every corpus complex"
    )


def test_criterion_7_limit_depth_criterion(corpus):
    for name, K in corpus:
        if K.is_irrelevant:
            continue
        for field in TWO_FIELDS:
            report = verify_limit_depth_criterion(K, field)
            assert report.passed, (name, str(field), report.witness)
            assert report.almost_trivial
            assert report.l_totals[-1] == 0, (name, str(field))
    # the grouped profile sets every d > 0 part to zero by construction;
    # the direct one ranks the literal matrices in every degree
    for name, K in named_corpus():
        if K.is_irrelevant:
            continue
        for field in TWO_FIELDS:
            profile = derived_limit_dims(K, field, 4, method="direct")
            report = verify_limit_depth_criterion(K, field, profile=profile)
            assert report.passed, (name, str(field), report.witness)
            assert report.almost_trivial, (name, str(field))
    print(
        "\nACCEPTANCE 7 PASS: depth >= r iff L^i = 0 for i <= r-2, for all r up "
        "to the minimum star depth, corpus-wide; comparison kernel always zero"
    )


def test_criterion_8_structural_properties(corpus):
    # assembled differentials compose to zero (checked in every cohomology run;
    # asserted here explicitly on a sample of limit complexes)
    for name, K in list(corpus)[:8]:
        if K.is_irrelevant:
            continue
        for d in (0, 2):
            mats = limits_complex(K, GF3, d)
            for earlier, later in zip(mats, mats[1:]):
                assert _product_is_zero(earlier, later)
    # Euler characteristic consistency
    for name, K in corpus:
        chi = K.euler_characteristic()
        for field in TWO_FIELDS:
            dims = reduced_cohomology(K, field).dims
            assert sum((-1) ** i * h for i, h in dims.items()) == chi - 1, name
    # Hilbert series expansion matches the graded dimension count
    for name, K in corpus:
        bound = 4 * K.m
        expansion = hilbert_series(K).expansion(bound)
        for d in range(0, bound + 1, 2):
            assert expansion[d] == graded_dim(K, d), (name, d)
    # Betti table of the full simplex is the single entry beta(0,0) = 1
    for field in TWO_FIELDS:
        assert betti_table(simplex(5), field).beta == {(0, 0): 1}
    # depth over the rationals dominates depth over every prime field
    for name, K in corpus:
        dq = depth_reisner(K, QQ)
        for field in (GF2, GF3, GF5):
            assert dq >= depth_reisner(K, field), (name, str(field))
    print(
        "\nACCEPTANCE 8 PASS: zero composites, Euler consistency, Hilbert "
        "expansion = graded dimensions up to 4m, simplex Betti table, and "
        "rational depth dominating prime-field depth, corpus-wide"
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    rp2_path = tmp_path / "rp2.facets"
    rp2_path.write_text(to_facet_text(rp2_minimal()), encoding="utf-8")

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    for argv in (
        ("depth", str(rp2_path), "--field", "p=2", "--json"),
        ("depth", str(rp2_path), "--field", "q"),
        ("limits", str(rp2_path), "--field", "p=2", "--d-max", "8", "--json"),
        ("verify", str(rp2_path), "--field", "q", "--d-max", "8", "--json"),
    ):
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2, argv

    out_a, out_b = tmp_path / "corpus_a", tmp_path / "corpus_b"
    for out_dir in (out_a, out_b):
        code, _ = run("corpus", "random", str(out_dir), "--m", "8", "--count", "12", "--seed", str(DEFAULT_SEED))
        assert code == 0
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == DEFAULT_SEED
    print("\nACCEPTANCE 9 PASS: repeated CLI runs with fixed seeds are byte-identical")
