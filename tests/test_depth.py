import gc
import importlib
import os
import random
import subprocess
import sys
import time
import warnings
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    GF2,
    GF3,
    GF5,
    QQ,
    FieldSpec,
    SimplicialComplex,
    betti_table,
    boundary_simplex,
    cone,
    cycle,
    depth,
    depth_ab,
    depth_reisner,
    depth_topological,
    derived_limit_dims,
    disjoint_points,
    join,
    limits_complex,
    local_cohomology,
    named_corpus,
    random_complex,
    random_corpus,
    reduced_cohomology,
    relative_cohomology,
    rho,
    rp2_minimal,
    simplex,
    suspension,
    validate,
    verify_limit_decomposition,
    verify_limit_depth_criterion,
    verify_munkres_shift,
    verify_star_link,
)
import srdepth
from srdepth.depth import _check_face_pairs, _hochster_walk_estimate
from srdepth.errors import BadParameter, EngineDisagreement, NotAComplex, TooLarge

from oracles import (
    depth_by_face_filters,
    flip_one_sign,
    flipped_sphere,
    hilbert_series,
    join_additivity_observations,
    moore_space_mod3,
    small_complexes,
    three_fields,
    topological_walk_per_field,
)

ALL_FIELDS = (GF2, GF3, GF5, QQ)
DEPTH_MODULE = importlib.import_module("srdepth.depth")  # srdepth.depth is also the function
complexes_module = importlib.import_module("srdepth.complexes")
IRRELEVANT = validate([[]], 0)


def test_full_simplex_depth_is_m():
    for m in (2, 3, 4, 5):
        K = simplex(m)
        for field in ALL_FIELDS:
            rep = depth(K, field)
            assert rep.reisner == m
            assert rep.cohen_macaulay


def test_two_points_depth_one():
    K = disjoint_points(2)
    for field in ALL_FIELDS:
        rep = depth(K, field)
        assert rep.reisner == 1
        # Krull dimension is 1, so two points are Cohen-Macaulay
        assert rep.cohen_macaulay


def test_rp2_depth_depends_on_characteristic():
    K = rp2_minimal()
    rep2 = depth(K, GF2)
    assert rep2.reisner == 2 and not rep2.cohen_macaulay
    for field in (QQ, GF3):
        rep = depth(K, field)
        assert rep.reisner == 3 and rep.cohen_macaulay


def test_four_cycle_depth_two():
    K = cycle(4)
    for field in ALL_FIELDS:
        assert depth(K, field).reisner == 2


def test_sphere_is_cohen_macaulay():
    K = boundary_simplex(3)
    for field in ALL_FIELDS:
        rep = depth(K, field)
        assert rep.reisner == 3 and rep.cohen_macaulay


def test_irrelevant_complex_depth_zero():
    for field in (GF2, QQ):
        rep = depth(IRRELEVANT, field)
        assert rep.reisner == rep.topological == rep.auslander_buchsbaum == 0
        assert rep.cohen_macaulay  # Krull dimension 0


def test_cone_over_rp2_engines_agree():
    K = cone(rp2_minimal())
    rep = depth(K, GF2)
    assert rep.agree and rep.reisner == 3
    assert depth(K, QQ).reisner == 4


def test_depth_at_least_one_iff_nonirrelevant():
    for K in [disjoint_points(2), cycle(3), rp2_minimal()]:
        assert depth_reisner(K, GF2) >= 1
    assert depth_reisner(IRRELEVANT, GF2) == 0


def test_depth_bounded_by_krull():
    for K in [cycle(5), rp2_minimal(), random_complex(7, 2, 0.5, 3)]:
        for field in (GF2, QQ):
            assert depth_reisner(K, field) <= K.krull_dim


def test_betti_full_simplex_single_entry():
    for field in (GF2, QQ):
        bt = betti_table(simplex(4), field)
        assert bt.beta == {(0, 0): 1}
        assert bt.projective_dimension == 0


def test_betti_two_points():
    bt = betti_table(disjoint_points(2), QQ)
    assert bt[0, 0] == 1 and bt[1, 2] == 1
    assert bt.projective_dimension == 1
    assert depth_ab(disjoint_points(2), QQ) == 1


def test_betti_four_cycle_over_q():
    bt = betti_table(cycle(4), QQ)
    assert bt[0, 0] == 1
    assert bt[1, 2] == 2
    assert bt[2, 4] == 1
    assert bt.projective_dimension == 2
    assert depth_ab(cycle(4), QQ) == 2


def test_betti_rp2_gf2_projective_dimension():
    assert betti_table(rp2_minimal(), GF2).projective_dimension == 4
    assert depth_ab(rp2_minimal(), GF2) == 2


def test_betti_respects_vertex_bound():
    with pytest.raises(TooLarge):
        betti_table(disjoint_points(15), GF2)  # m=15 > 14


def refuse(*args, **kwargs):
    raise AssertionError("a call the code under test must not make")


def test_top_down_pd_matches_betti_table():
    corpus = [K for _, K in named_corpus()]
    corpus += [K for _, _, K in random_corpus(200, 20240101, 8)]
    # cone over a 4-cycle with a whisker at vertex 1: among the 5-subsets,
    # dropping the apex leaves a circle (pd 3) before dropping vertex 1
    # disconnects the whisker (pd 4), so a size is walked past its first hit
    corpus.append(validate([[1, 2, 6], [2, 3, 6], [3, 4, 6], [1, 4, 6], [1, 5]], 6))
    for field in (GF2, GF3, QQ):
        for K in corpus:
            pd = betti_table(K, field).projective_dimension
            assert K.m - depth_ab(K, field) == pd, (K, str(field))


def test_depth_ab_reads_induced_subcomplexes_only(monkeypatch):
    # the Hochster walk must stay independent of the link and face-filter
    # engines, and visit no more subsets than its up-front estimate
    for name in ("star", "star_by_mask", "link", "link_by_mask", "contrastar", "contrastar_by_mask"):
        monkeypatch.setattr(SimplicialComplex, name, refuse)
    monkeypatch.setattr(DEPTH_MODULE, "_coboundaries", refuse)
    depth.cache_clear()  # a remembered depth would visit nothing
    visits = []
    induced = SimplicialComplex.induced
    monkeypatch.setattr(
        SimplicialComplex, "induced", lambda K, w: visits.append(w) or induced(K, w)
    )
    sample = [K for _, K in named_corpus()]
    sample += [cycle(15), join(cycle(8), cycle(9)), disjoint_points(15), IRRELEVANT]
    for K in sample:
        visits.clear()
        depth_ab(K, GF2)
        assert len(visits) <= _hochster_walk_estimate(K), K


def test_hochster_subsets_are_the_estimate_plus_the_large_faces():
    # C(m, k) = C(m, m - k): the subsets of size >= m - krull + 1 are the
    # non-faces the walk may rank and the faces that large, so no walk the
    # estimate admits has 2^14 + 2^18 subsets (FACE_BOUND) to iterate
    corpus = [K for _, K in named_corpus()] + [K for _, _, K in random_corpus(200, 7, 10)]
    corpus += [boundary_simplex(m) for m in range(1, 15)] + [IRRELEVANT, moore_space_mod3()]
    for K in corpus:
        subsets = sum(comb(K.m, k) for k in range(K.krull_dim))
        large = sum(1 for f in K.face_masks if f.bit_count() >= K.m - K.krull_dim + 1)
        assert subsets == _hochster_walk_estimate(K) + large, K


def test_depth_ab_too_large_fails_before_any_work(monkeypatch):
    # m=21, krull 6: no face among the sizes 16..21 the walk may visit, so
    # all sum of C(21, k) for k <= 5 subsets are non-faces; 79,507 face pairs
    K = join(join(cycle(7), cycle(7)), cycle(7))
    monkeypatch.setattr(SimplicialComplex, "induced", refuse)
    monkeypatch.setattr(SimplicialComplex, "link_by_mask", refuse)
    with pytest.raises(TooLarge, match="27896"):
        depth(K, GF2)


def test_hochster_walk_counts_the_non_faces_it_ranks(monkeypatch):
    # the boundary of the 14-simplex: 32,752 subsets of size >= 2, one of
    # them a non-face; depth() still refuses it, at the face pairs
    K = boundary_simplex(14)
    assert _hochster_walk_estimate(K) == 1
    monkeypatch.setattr(SimplicialComplex, "link_by_mask", refuse)
    monkeypatch.setattr(SimplicialComplex, "induced", refuse)
    with pytest.raises(TooLarge, match="14316139"):
        depth(K, GF2)
    monkeypatch.undo()
    visits = []
    induced = SimplicialComplex.induced
    monkeypatch.setattr(SimplicialComplex, "induced", lambda K, w: visits.append(w) or induced(K, w))
    depth.cache_clear()
    assert depth_ab(K, GF2) == 14
    assert len(visits) == 1


def test_link_engines_too_large_fail_before_any_walk(monkeypatch):
    # the Hochster walk admits the boundary of the 13-simplex (one non-face
    # among 16,369 subsets), but its links and face filters hold 3^14 - 2^14
    # faces
    K = boundary_simplex(13)
    monkeypatch.setattr(SimplicialComplex, "link_by_mask", refuse)
    monkeypatch.setattr(DEPTH_MODULE, "_coboundaries", refuse)
    with pytest.raises(TooLarge, match="4766585"):
        depth(K, GF2)  # refused before depth_ab
    with pytest.raises(TooLarge, match="4766585"):
        depth_topological(K, GF2)
    _check_face_pairs(boundary_simplex(12))  # 1,586,131 pairs: admitted


@given(
    st.builds(
        random_complex,
        st.integers(1, 9),
        st.integers(0, 3),
        st.sampled_from([0.3, 0.6, 0.9]),  # dense ones reach deep into the walk
        st.integers(0, 10**6),
    ),
    three_fields,
)
@settings(max_examples=80, deadline=None)
def test_topological_engine_matches_face_filter_oracle(K, field):
    # the engine ranks the rows of each face filter in K's own coboundary;
    # the oracle filters K's levels per face and ranks them with no cap
    assert depth_topological(K, field) == depth_by_face_filters(K, field)


def test_topological_engine_matches_face_filter_oracle_on_corpus():
    corpus = [K for _, K in named_corpus()]
    corpus += [K for _, _, K in random_corpus(200, 20240101, 8)]
    for field in (GF2, GF3, QQ):  # 672 (complex, field) cases
        for K in corpus:
            assert depth_topological(K, field) == depth_by_face_filters(K, field), (K, str(field))


def _check_topological_walk_per_field(K):
    depth.cache_clear()
    for field in ALL_FIELDS:  # later fields may read a depth certified earlier
        assert depth_topological(K, field) == topological_walk_per_field(K, field), (K, str(field))


@given(small_complexes)
@settings(max_examples=40, deadline=None)
def test_topological_engine_matches_the_per_field_walk(K):
    # the engine ranks the face filters' integer rows for the field and
    # remembers certified depths for every field; the oracle ranks each
    # field's own rows
    _check_topological_walk_per_field(K)


def test_topological_engine_matches_the_per_field_walk_with_torsion():
    rp2, moore = rp2_minimal(), moore_space_mod3()
    for K in (rp2, suspension(rp2), moore, cone(moore)):
        _check_topological_walk_per_field(K)


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_topological_engine_checks_its_coboundary(monkeypatch, field, n):
    # one sign flipped in K's coboundary out of cardinality n + 1 breaks
    # d^2 = 0 next to it; the walk's matrices come from the checked producer
    K = boundary_simplex(4)  # depth 4: the walk ranks out of cardinalities 1..3
    depth.cache_clear()  # a remembered depth would rank nothing
    DEPTH_MODULE._lowest_nonzero(K, field, 3)  # warm: the memo answers K, so the filters must raise
    flip_one_sign(monkeypatch, n + 1)
    with pytest.raises(NotAComplex):
        depth_topological(K, field)


# every public function that takes a field, as a call on (K, field)
_FIELD_TAKERS = [
    reduced_cohomology,
    lambda K, f: reduced_cohomology(K, f, 0),
    lambda K, f: relative_cohomology(K, K.contrastar((1,)), f),
    lambda K, f: local_cohomology(K, (1,), f),
    verify_munkres_shift,
    depth_reisner,
    depth_topological,
    depth_ab,
    depth,
    betti_table,
    verify_star_link,
    lambda K, f: verify_limit_depth_criterion(K, f, 2),
    lambda K, f: verify_limit_depth_criterion(K, f, profile=derived_limit_dims(K, GF3, 2)),
    lambda K, f: limits_complex(K, f, 2),
    lambda K, f: rho(K, f, 2),
    lambda K, f: derived_limit_dims(K, f, 2),
    lambda K, f: derived_limit_dims(K, f, 2, method="direct"),
    lambda K, f: verify_limit_decomposition(K, f, 2),
]


@pytest.mark.parametrize(
    "K, certified", [(rp2_minimal(), False), (boundary_simplex(3), True)], ids=["rp2", "sphere"]
)
@pytest.mark.parametrize("bad", [3, (3,), "q", None, [3]], ids=repr)
def test_every_field_argument_is_a_fieldspec(K, certified, bad):
    # (3,) == GF3 would let a cache warmed over GF(3) answer (3,); the
    # sphere's walks are certified, so their depths are kept for every field
    depth.cache_clear()
    for warm in (False, True):
        if warm:
            for call in _FIELD_TAKERS:
                call(K, GF3)
            assert ((DEPTH_MODULE._reisner_walk, K) in DEPTH_MODULE._MEMO) == certified
        for call in _FIELD_TAKERS:
            with pytest.raises(BadParameter):
                call(K, bad)


@pytest.mark.parametrize(
    "K", [boundary_simplex(4), cone(cycle(5)), random_complex(7, 2, 0.6, 101)], ids=repr
)
def test_one_field_answers_every_field_when_certified(monkeypatch, K):
    # every walk over GF(3) read prefixes certified by unit pivots over Z,
    # so depth over any other field builds no coboundary, link or subset
    depth.cache_clear()
    rep = depth(K, GF3)
    monkeypatch.setattr(importlib.import_module("srdepth.cohomology"), "_coboundary_rows", refuse)
    monkeypatch.setattr(SimplicialComplex, "link_by_mask", refuse)
    monkeypatch.setattr(SimplicialComplex, "induced", refuse)
    for field in (QQ, GF5, GF2):
        assert depth(K, field) == rep._replace(field=field)


def test_moore_space_asked_over_q_first_walks_again_over_gf3(monkeypatch):
    # the 3-torsion gives pivots over Z that are not +-1: no walk over Q
    # is certified, so GF(3) walks again and sees depth 2
    M = moore_space_mod3()
    depth.cache_clear()
    assert depth(M, QQ).reisner == 3
    assert (DEPTH_MODULE._reisner_walk, M) not in DEPTH_MODULE._MEMO
    module = importlib.import_module("srdepth.cohomology")
    built, rows = [], module._coboundary_rows
    monkeypatch.setattr(module, "_coboundary_rows", lambda *a: built.append(a) or rows(*a))
    assert depth(M, GF3).reisner == 2
    assert built


def test_depth_memo_evicts_the_oldest_depth():
    memo, walk = DEPTH_MODULE._MEMO, DEPTH_MODULE._reisner_walk
    depth.cache_clear()
    try:
        depth_reisner(cycle(4), QQ)  # the oldest entry, certified
        memo.update((i, None) for i in range(199_999))  # placeholders fill the memo
        assert depth_reisner(cycle(4), QQ) == 2  # read again: still the oldest
        assert len(memo) == 200_000
        depth_reisner(cycle(5), QQ)  # one past the bound: the oldest goes
        assert len(memo) == 200_000
        assert (walk, cycle(4)) not in memo and 0 in memo
        assert (walk, cycle(5)) in memo
    finally:
        depth.cache_clear()


_lowest_nonzero = DEPTH_MODULE._lowest_nonzero


def _counted_coboundaries(monkeypatch):
    """The coboundaries built from now on, one entry each."""
    module = importlib.import_module("srdepth.cohomology")
    built, rows = [], module._coboundary_rows
    monkeypatch.setattr(module, "_coboundary_rows", lambda *a: built.append(a) or rows(*a))
    return built


def _counted_guards(monkeypatch):
    """How often each size guard of the depth module runs from now on."""
    counts = {"_check_face_pairs": 0, "_hochster_walk_estimate": 0}
    for name in counts:
        guard = getattr(DEPTH_MODULE, name)

        def counted(K, name=name, guard=guard):
            counts[name] += 1
            return guard(K)

        monkeypatch.setattr(DEPTH_MODULE, name, counted)
    return counts


def test_a_memo_hit_runs_no_guard(monkeypatch):
    # the walks over GF(3) are certified, so Q is answered from the memo:
    # depth() checks the face pairs once up front, and no engine checks more
    K = join(cycle(5), cycle(4))
    depth.cache_clear()
    rep = depth(K, GF3)
    assert (DEPTH_MODULE._hochster_walk, K) in DEPTH_MODULE._MEMO
    counts = _counted_guards(monkeypatch)
    assert depth(K, QQ) == rep._replace(field=QQ)
    assert counts == {"_check_face_pairs": 1, "_hochster_walk_estimate": 0}
    for engine in (depth_reisner, depth_topological, depth_ab):
        counts.update(dict.fromkeys(counts, 0))
        assert engine(K, QQ) == rep.reisner
        assert counts == {"_check_face_pairs": 0, "_hochster_walk_estimate": 0}, engine
    depth.cache_clear()


def test_a_memo_hit_writes_nothing(monkeypatch):
    # a read leaves the memo's entries and their order as they were
    K = join(cycle(5), cycle(4))
    depth.cache_clear()
    depth(K, GF3)
    _lowest_nonzero(K, GF3, 1)
    built = _counted_coboundaries(monkeypatch)
    before = list(DEPTH_MODULE._MEMO.items())
    depth(K, QQ)
    _lowest_nonzero(K, GF3, 1)
    assert not built
    assert list(DEPTH_MODULE._MEMO.items()) == before
    depth.cache_clear()


def test_lowest_nonzero_reads_what_the_profile_reads():
    # the depth walks' helper answers as reduced_cohomology does, and a cap
    # <= 0, read off the face list, leaves the memo as it was
    for K in [K for _, K in named_corpus()] + [moore_space_mod3()]:
        for field in (GF2, GF3, QQ):
            for cap in range(-1, K.dim + 2):
                profile = reduced_cohomology(K, field, cap)
                depth.cache_clear()
                got = _lowest_nonzero(K, field, cap)
                assert got == (profile.first_nonzero(), profile.certified), (K, str(field), cap)
                if cap <= 0:
                    _lowest_nonzero(K, field, K.dim + 1)
                    before = list(DEPTH_MODULE._MEMO.items())
                    assert _lowest_nonzero(K, field, cap) == got
                    assert list(DEPTH_MODULE._MEMO.items()) == before
    depth.cache_clear()


def test_the_face_list_answers_before_the_memo():
    # a complete GF(2) answer under (K, GF2) decides cap 0 too, but degrees
    # -1 and 0 read off the face list hold over every field
    K = boundary_simplex(4)
    depth.cache_clear()
    assert _lowest_nonzero(K, GF2, 3) == (3, False)
    assert _lowest_nonzero(K, GF2, 0) == (None, True)
    depth.cache_clear()


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_a_short_prefix_never_replaces_a_longer_one(monkeypatch, field):
    K = boundary_simplex(4)  # the 3-sphere
    depth.cache_clear()
    assert _lowest_nonzero(K, field, 2)[0] is None
    built = _counted_coboundaries(monkeypatch)
    for cap in (1, 0, 2):
        assert _lowest_nonzero(K, field, cap)[0] is None
    assert not built
    assert DEPTH_MODULE._MEMO[K, field][:2] == (None, 2)
    assert _lowest_nonzero(K, field, 3)[0] == 3  # past the reach: ranked again
    assert built
    built.clear()
    for cap in (1, 2, 3):
        assert _lowest_nonzero(K, field, cap)[0] == (3 if cap == 3 else None)
    assert not built
    assert DEPTH_MODULE._MEMO[K, field][:2] == (3, 3)
    depth.cache_clear()


def test_memo_evicts_the_oldest_prefix():
    memo = DEPTH_MODULE._MEMO
    depth.cache_clear()
    try:
        _lowest_nonzero(cycle(4), GF2, 1)  # the oldest entry
        memo.update((i, None) for i in range(199_999))  # placeholders fill the memo
        assert _lowest_nonzero(cycle(4), GF2, 1)[0] == 1  # read again: still the oldest
        assert len(memo) == 200_000
        _lowest_nonzero(cycle(5), GF2, 1)  # one past the bound: the oldest goes
        assert len(memo) == 200_000
        assert (cycle(4), GF2) not in memo and 0 in memo
        assert (cycle(5), GF2) in memo
    finally:
        depth.cache_clear()


def test_memo_answers_the_caps_its_prefix_decides(monkeypatch):
    built = _counted_coboundaries(monkeypatch)
    point_and_circle = validate([[1], [2, 3], [3, 4], [2, 4]], 4)  # nonzero in degrees 0 and 1
    cases = [boundary_simplex(3), rp2_minimal(), point_and_circle, cone(cycle(5))]
    for K in cases:
        for field in (GF2, GF3, QQ):
            fresh = {cap: reduced_cohomology(K, field, cap) for cap in (-2, -1, 0, 1, 2, 3)}
            for order in ((0, 3, 1), (3, 0), (1, 0, -1, 2, 3), (2, 1, 3)):
                depth.cache_clear()
                held = None  # the triple a decided cap is answered from
                for cap in order:
                    built.clear()
                    c, certified = _lowest_nonzero(K, field, cap)
                    assert c == fresh[cap].first_nonzero(), (K, field, order, cap)
                    low = cap <= 0  # the face list answers, and nothing is kept
                    decided = held is not None and (held[0] is not None or held[1] >= min(cap, K.dim))
                    assert (not built) == (decided or low), (K, field, order, cap)
                    if not (decided or low):
                        held = DEPTH_MODULE._MEMO[K, field]
                        assert held == (c, max(fresh[cap].dims), fresh[cap].certified)
                    assert certified == (low or held[2])
    # a kept nonzero degree answers every cap, the full one too
    depth.cache_clear()
    assert _lowest_nonzero(point_and_circle, GF2, 1) == (0, False)
    built.clear()
    assert _lowest_nonzero(point_and_circle, GF2, 5) == (0, False)
    assert not built
    depth.cache_clear()


def test_moore_space_asked_over_q_first_never_answers_gf3(monkeypatch):
    # its 3-torsion sits in the coboundary out of the edges, whose pivots
    # over Z are not all +-1: the answer over Q is not certified, and it is
    # kept under (M, Q) alone
    M = moore_space_mod3()
    depth.cache_clear()
    for cap in (-2, -1, 0, 1, 2, 3):
        assert _lowest_nonzero(M, QQ, cap)[0] is None
    assert DEPTH_MODULE._MEMO[M, QQ] == (None, 2, False)
    assert [key for key in DEPTH_MODULE._MEMO if M in key] == [(M, QQ)]
    built = _counted_coboundaries(monkeypatch)
    assert _lowest_nonzero(M, GF3, 1) == (1, False)
    assert built
    built.clear()
    assert _lowest_nonzero(M, GF3, 2) == (1, False)
    assert not built  # a kept nonzero degree answers every cap
    depth.cache_clear()


def test_lowest_nonzero_carries_the_face_list_or_its_kept_certificate():
    two_bd3 = validate([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5, 6, 7], [5, 6, 8], [5, 7, 8], [6, 7, 8]], 8)
    cases = [K for _, K in named_corpus()] + [moore_space_mod3(), two_bd3]
    for K in cases:
        caps = list(range(-2, K.dim + 2))
        for order in (caps, caps[::-1]):
            depth.cache_clear()
            for field in (GF2, GF3, QQ):
                for cap in order:
                    certified = _lowest_nonzero(K, field, cap)[1]
                    assert certified == (cap <= 0 or DEPTH_MODULE._MEMO[K, field][2]), (K, str(field), cap)
                    if field == GF2:  # bitset ranks certify nothing
                        assert certified == (cap <= 0), (K, cap)
    depth.cache_clear()
    assert not _lowest_nonzero(moore_space_mod3(), GF3, 1)[1]  # a pivot of 3 over Z
    assert not _lowest_nonzero(boundary_simplex(4), GF2, 2)[1]  # bitset ranks
    depth.cache_clear()


def test_reisner_walk_builds_no_face_set_on_its_links(monkeypatch):
    # the walk only iterates the face list of each link it ranks, and asks
    # each parent link for the link of one vertex; a link read at a cap <= 0
    # is read off its face list, so it does not cut its levels either; one
    # read at a cap > 0 is ranked as the complex of its relabeling class,
    # which builds no face set either
    K = boundary_simplex(6)
    links, caps, relabeled = [], {}, {}
    link_by_mask = SimplicialComplex.link_by_mask
    lowest_nonzero, canonical = DEPTH_MODULE._lowest_nonzero, DEPTH_MODULE._canonical

    def recorded(L, mask):
        links.append(link_by_mask(L, mask))
        return links[-1]

    def relabel(L):
        relabeled[id(L)] = canonical(L)  # kept alive, so no id is reused
        return relabeled[id(L)]

    def read(L, field, until):
        caps[id(L)] = until
        return lowest_nonzero(L, field, until)

    monkeypatch.setattr(SimplicialComplex, "link_by_mask", recorded)
    monkeypatch.setattr(DEPTH_MODULE, "_canonical", relabel)
    monkeypatch.setattr(DEPTH_MODULE, "_lowest_nonzero", read)
    depth.cache_clear()
    assert depth_reisner(K, GF3) == 6
    # the 119 nonempty faces of fewer than 6 vertices: the walk ends at the
    # first facet without making its link
    assert len(links) == 119
    assert all(L._members is None for L in links)
    # K and the links of the 7 + 21 + 35 faces of 1 to 3 vertices, capped at
    # 4 to 1, are relabeled: each is the boundary of a simplex on 1..k
    assert len(relabeled) == 64
    assert all(R._members is None for R in relabeled.values())
    assert set(relabeled.values()) == {boundary_simplex(k) for k in (3, 4, 5, 6)}
    # the links of the 35 + 21 faces of 4 and 5 vertices, capped at 0 and -1
    at_most_0 = [L for L in links if caps[id(relabeled.get(id(L), L))] <= 0]
    assert len(at_most_0) == 56
    assert all(id(L) not in relabeled and L._cuts is None for L in at_most_0)


def test_a_certified_memo_hit_cuts_no_levels(monkeypatch):
    # the size guards read the f-vector off the cuts that the first call
    # kept on K, so a depth the memo holds for every field costs no search
    K = boundary_simplex(4)
    depth.cache_clear()
    assert depth(K, GF3).depth == 4
    calls = []
    bisect_left = complexes_module.bisect_left

    def counted(*args, **kwargs):
        calls.append(args)
        return bisect_left(*args, **kwargs)

    monkeypatch.setattr(complexes_module, "bisect_left", counted)
    assert depth(K, QQ).depth == 4
    assert calls == []
    depth.cache_clear()


def test_no_module_table_keeps_a_complex_once_the_memos_are_cleared():
    # the engines' memo is the only table that holds complexes: the link
    # walks carry their own parents, and public calls keep nothing
    alive = [o for o in gc.get_objects() if isinstance(o, SimplicialComplex)]
    before = {id(o) for o in alive}
    K, L = boundary_simplex(6), join(cycle(4), cycle(5))
    assert depth(K, GF3).depth == 6 and depth(L, GF3).depth == 4
    assert verify_star_link(K, GF3).passed
    depth.cache_clear()
    gc.collect()
    kept = [o for o in gc.get_objects() if isinstance(o, SimplicialComplex) and id(o) not in before]
    assert sorted(map(id, kept)) == sorted([id(K), id(L)])


def _peak_kb(code):
    """The peak resident set, in kB, of a fresh interpreter that runs ``code``."""
    code += '\nprint(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))'
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srdepth.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
def test_hochster_walk_on_c6_c6_c6_peaks_under_32_mb():
    # its 4,048 induced subcomplexes hold their face lists alone, and those
    # whose calls are capped at degree 0 or below are not kept: with a face
    # set each, the walk peaked at 190 MB
    code = "from srdepth import GF2, cycle, depth_ab, join\n"
    code += "assert depth_ab(join(join(cycle(6), cycle(6)), cycle(6)), GF2) == 6"
    assert _peak_kb(code) < 32 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc/self/status")
def test_reisner_walk_on_the_boundary_of_the_12_simplex_peaks_under_64_mb():
    # the memo keeps one bare complex per relabeling class, not the 7,814
    # links asked above degree 0: keyed by label, the walk peaked at 72 MB
    code = "from srdepth import GF3, boundary_simplex, depth_reisner\n"
    code += "assert depth_reisner(boundary_simplex(12), GF3) == 12"
    assert _peak_kb(code) < 64 * 1024


@pytest.mark.parametrize("m", [6, 8, 11])
@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_reisner_walk_ranks_each_relabeling_class_once(monkeypatch, m, field):
    # the link of a face sigma of the boundary of the m-simplex is the
    # boundary of the simplex on the other m + 1 - card(sigma) vertices: one
    # class per cardinality the walk asks above degree 0, m - 2 in all;
    # keyed by label, the walk ranked 64, 382 and 3,797 links
    ranked = []
    reduced = DEPTH_MODULE.reduced_cohomology
    monkeypatch.setattr(DEPTH_MODULE, "reduced_cohomology", lambda L, *a: ranked.append(L) or reduced(L, *a))
    depth.cache_clear()
    assert depth_reisner(boundary_simplex(m), field) == m
    assert len(ranked) <= m
    assert set(ranked) == {boundary_simplex(k) for k in range(3, m + 1)}
    depth.cache_clear()


def test_depth_raises_when_engines_disagree(monkeypatch):
    monkeypatch.setattr(DEPTH_MODULE, "depth_ab", lambda K, field: 0)
    with pytest.raises(EngineDisagreement):
        depth(cycle(4), GF2)


def test_engine_agreement_on_sample():
    sample = [
        cycle(6),
        cone(cycle(5)),
        random_complex(6, 2, 0.4, 100),
        random_complex(7, 2, 0.6, 101),
        random_complex(7, 3, 0.3, 102),
        join(cycle(8), cycle(9)),  # m=17, past the 2^14 Betti table
    ]
    for K in sample:
        for field in ALL_FIELDS:
            rep = depth(K, field)
            assert rep.agree
    assert depth(join(cycle(8), cycle(9)), GF2).reisner == 4  # 2 + 2


def test_engines_agree_on_noncontiguous_labels():
    # stars, links and contrastars keep ambient labels, so their vertex sets
    # have gaps; all three engines must still see the same ring
    K = rp2_minimal()
    for sub in [K.star((1,)), K.link((1,)), K.contrastar((3,))]:
        for field in (GF2, QQ):
            assert depth(sub, field).agree


def test_engine_disagreement_carries_values():
    err = EngineDisagreement(cycle(3), GF2, 1, 2, 3)
    assert err.reisner == 1 and err.topological == 2 and err.auslander_buchsbaum == 3
    assert "disagree" in str(err)


def test_engine_disagreement_names_a_large_complex_short():
    # the repr of a 15,000-cycle runs to 217,823 characters; the message
    # quotes its start, and its facets cost time in the faces' sizes, not in m
    K = cycle(15000)
    start = time.process_time()
    err = str(EngineDisagreement(K, GF2, 1, 2, 1))
    assert time.process_time() - start < 5
    assert len(err) < 200
    assert "over p=2" in err and "reisner=1 topological=2 auslander_buchsbaum=1" in err
    assert "SimplicialComplex(m=15000" in err


def test_conditions_flip_exactly_at_depth():
    # the link condition at r is depth_reisner >= r, the point condition
    # depth_topological >= r
    for K in [cycle(4), rp2_minimal(), disjoint_points(3)]:
        for field in (GF2, QQ):
            r_star = depth_reisner(K, field)
            for r in range(-1, K.krull_dim + 3):
                assert (depth_topological(K, field) >= r) == (r <= r_star)


def test_field_monotonicity_on_sample():
    for K in [rp2_minimal(), cone(rp2_minimal()), random_complex(7, 2, 0.5, 55)]:
        dq = depth_reisner(K, QQ)
        for p in (2, 3, 5):
            assert dq >= depth_reisner(K, FieldSpec(p))


def test_star_link_full_simplex():
    assert verify_star_link(simplex(4), QQ).passed


def test_star_link_rp2_vertex_values():
    K = rp2_minimal()
    link = K.link((1,))
    star = K.star((1,))
    assert depth_reisner(link, GF2) == 2  # a 5-cycle
    assert depth_reisner(star, GF2) == 3
    assert verify_star_link(K, GF2).passed


def test_star_link_two_points():
    K = disjoint_points(2)
    assert depth_reisner(K.link((1,)), QQ) == 0
    assert depth_reisner(K.star((1,)), QQ) == 1
    assert verify_star_link(K, QQ).passed


def test_star_link_names_the_face_where_depths_disagree(monkeypatch):
    K = boundary_simplex(3)
    real, wrong = depth_reisner, K.link((1,))
    monkeypatch.setattr(DEPTH_MODULE, "depth_reisner", lambda L, field: real(L, field) + (L == wrong))
    rep = verify_star_link(K, QQ)
    assert not rep.passed
    assert rep.witness == ((1,), 3, 3, 3)


def test_limit_depth_criterion_names_the_first_failing_r():
    K = boundary_simplex(3)
    profile = derived_limit_dims(K, QQ, 8)
    lim = {**profile.lim, 1: {**profile.lim[1], 0: 1}}
    rep = verify_limit_depth_criterion(K, QQ, profile=profile._replace(lim=lim))
    assert not rep.passed and not rep.corollary_checked
    assert rep.witness == (3, True, False)


def test_vanishing_limits_below_star_depth_fail_in_the_r_loop():
    # rp2 over GF(2) has depth 2 and stars of depth 3: with every L^i zero
    # the verdict fails at r = 3, where only the depth side is false
    K = rp2_minimal()
    profile = derived_limit_dims(K, GF2, 4)
    zero = lambda by_degree: {d: 0 for d in by_degree}
    profile = profile._replace(
        lim={i: zero(v) for i, v in profile.lim.items()},
        rho_kernel=zero(profile.rho_kernel),
        rho_cokernel=zero(profile.rho_cokernel),
    )
    rep = verify_limit_depth_criterion(K, GF2, profile=profile)
    assert (rep.depth, rep.min_star_depth) == (2, 3)
    assert not rep.passed and not rep.corollary_checked
    assert rep.witness == (3, False, True)


def test_limit_depth_criterion_full_simplex():
    rep = verify_limit_depth_criterion(simplex(4), QQ, 8)
    assert rep.passed
    assert rep.corollary_checked
    assert rep.depth == rep.min_star_depth == 4
    assert all(v == 0 for v in rep.l_totals.values())


def test_limit_depth_criterion_three_cycle():
    rep = verify_limit_depth_criterion(cycle(3), QQ, 8)
    assert rep.passed
    assert rep.depth == 2 and rep.min_star_depth == 2
    assert rep.l_totals[1] == 1  # the circle's first cohomology survives


def test_limit_depth_criterion_two_points():
    rep = verify_limit_depth_criterion(disjoint_points(2), QQ, 8)
    assert rep.passed
    assert rep.depth == 1
    assert rep.l_totals[0] == 1


def test_limit_depth_criterion_takes_a_computed_profile():
    for K in (simplex(4), cycle(3), disjoint_points(2), rp2_minimal()):
        for field in (GF2, QQ):
            profile = derived_limit_dims(K, field, 8)
            given = verify_limit_depth_criterion(K, field, profile=profile)
            assert given == verify_limit_depth_criterion(K, field, 8)
    # a profile over another field is refused, not used for the wrong verdict
    with pytest.raises(BadParameter):
        verify_limit_depth_criterion(cycle(3), QQ, profile=derived_limit_dims(cycle(3), GF2, 8))


def test_limit_depth_criterion_refuses_a_profile_of_another_dimension():
    # cycle(4)'s profile used to pass for rp2 with cycle(4)'s l_totals
    with pytest.raises(BadParameter):
        verify_limit_depth_criterion(rp2_minimal(), GF2, profile=derived_limit_dims(cycle(4), GF2, 4))


def test_moore_space_depth_drops_only_in_characteristic_three():
    M = moore_space_mod3()
    from srdepth import reduced_cohomology

    assert reduced_cohomology(M, GF3).dims == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert not any(reduced_cohomology(M, GF2).dims.values())
    rep3 = depth(M, GF3)
    assert rep3.reisner == 2 and not rep3.cohen_macaulay
    for field in (GF2, QQ):
        rep = depth(M, field)
        assert rep.reisner == 3 and rep.cohen_macaulay


def test_betti_alternating_sums_match_hilbert_numerator():
    # Euler characteristics of the resolution recover the Hilbert numerator
    # over the full polynomial ring: sum_i (-1)^i beta(i,j) t^{2j} equals
    # numerator(t) * (1 - t^2)^(m - krull), independently of the field
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    for K in [cycle(4), rp2_minimal(), disjoint_points(3), random_complex(6, 2, 0.5, 42)]:
        hs = hilbert_series(K)
        expected = list(hs.numerator)
        for _ in range(K.m - hs.denominator_exponent):
            expected = poly_mul(expected, [1, 0, -1])
        for field in (GF2, QQ):
            alternating = [0] * max(2 * K.m + 1, len(expected))
            for (i, j), v in betti_table(K, field).beta.items():
                alternating[2 * j] += (-1) ** i * v
            padded = expected + [0] * (len(alternating) - len(expected))
            assert alternating == padded, (K, str(field))


def test_join_additivity_soft_observation():
    pairs = [
        (("cycle_3", cycle(3)), ("points_2", disjoint_points(2))),
        (("simplex_2", simplex(2)), ("cycle_4", cycle(4))),
        (("rp2", rp2_minimal()), ("simplex_1", simplex(1))),
    ]
    mismatches = join_additivity_observations(pairs, GF2)
    if mismatches:  # regression flag, reported for review rather than failing
        warnings.warn(f"join additivity mismatches: {mismatches}")


def test_depth_report_fields():
    rep = depth(cycle(4), GF3)
    assert rep.krull_dim == 2
    assert rep.depth == rep.reisner == 2
    assert rep.field == GF3


def test_depth_report_is_immutable():
    rep = depth(cycle(4), GF3)
    with pytest.raises(AttributeError):
        rep.reisner = 3
    assert rep.reisner == 2


# -- properties on seeded random complexes ----------------------------------------


def _with_gaps(K, seed, ordered):
    """A copy of K whose labels, a seeded sample of 1..2m+1, leave gaps;
    with ``ordered`` they keep the order of K's, so the copy is in K's
    relabeling class."""
    labels = random.Random(seed).sample(range(1, 2 * K.m + 2), K.m)
    if ordered:
        labels.sort()
    to = dict(zip(K.vertices, labels))
    return SimplicialComplex([sum(1 << (to[v] - 1) for v in f) for f in K.facets])


def _check_blind_to_gaps(K, field, seed, ordered):
    L = _with_gaps(K, seed, ordered)
    depth.cache_clear()
    report = depth(K, field)
    kept = len(DEPTH_MODULE._MEMO)
    assert depth(L, field) == report
    if ordered:  # answered from the memo, under K's class
        assert len(DEPTH_MODULE._MEMO) == kept
    depth.cache_clear()
    assert depth(L, field) == report  # walked on its own labels
    depth.cache_clear()


@given(small_complexes, three_fields, st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_depth_is_blind_to_labels_with_gaps(K, field, seed, ordered):
    _check_blind_to_gaps(K, field, seed, ordered)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("ordered", [True, False])
def test_depth_is_blind_to_labels_with_gaps_with_torsion(field, ordered):
    for K in (rp2_minimal(), moore_space_mod3()):
        for seed in range(3):
            _check_blind_to_gaps(K, field, seed, ordered)


flipped_spheres = st.integers(1, 7).flatmap(
    lambda d: st.builds(flipped_sphere, st.just(d), st.integers(d + 2, 10), st.integers(0, 12), st.integers(0, 10**6))
)


@given(flipped_spheres, three_fields)
@settings(max_examples=30, deadline=None)
def test_engines_find_dim_plus_one_on_flipped_spheres(S, field):
    # a PL sphere is Cohen-Macaulay over every field
    depth.cache_clear()
    for engine in (depth_reisner, depth_topological, depth_ab):
        assert engine(S, field) == S.dim + 1, engine.__name__
    depth.cache_clear()

@given(small_complexes, three_fields)
@settings(max_examples=40, deadline=None)
def test_link_and_point_conditions_flip_at_the_same_r(K, field):
    reisner, topological = depth_reisner(K, field), depth_topological(K, field)
    for r in range(K.krull_dim + 2):
        assert (reisner >= r) == (topological >= r), r


@given(small_complexes, three_fields)
@settings(max_examples=40, deadline=None)
def test_cone_adds_one_to_depth(K, field):
    assert depth(cone(K), field).reisner == depth(K, field).reisner + 1


@given(small_complexes, three_fields, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_engines_invariant_under_relabeling(K, field, seed):
    perm = list(range(1, K.m + 1))
    random.Random(seed).shuffle(perm)
    L = validate([[perm[v - 1] for v in f] for f in K.facets], K.m)
    for engine in (depth_reisner, depth_topological, depth_ab):
        assert engine(L, field) == engine(K, field), engine.__name__
