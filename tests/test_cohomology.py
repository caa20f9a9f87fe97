import importlib
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    GF2,
    GF3,
    GF5,
    QQ,
    betti_table,
    boundary_simplex,
    cone,
    cycle,
    depth,
    disjoint_points,
    local_cohomology,
    named_corpus,
    random_complex,
    reduced_cohomology,
    relative_cohomology,
    rp2_minimal,
    simplex,
    suspension,
    validate,
    verify_munkres_shift,
)
from srdepth.cohomology import _coboundaries, _cochain_dims
from srdepth.depth import _MEMO, _lowest_nonzero
from srdepth.errors import EmptyFace, FaceNotInComplex, NotAComplex, NotASubcomplex, RepeatedVertex
from srdepth.linalg import _cohomology

from oracles import dense_cochain_dims, flip_one_sign, moore_space_mod3, small_complexes, three_fields

FIELDS = (GF2, GF3, QQ)
ALL_FIELDS = (GF2, GF3, GF5, QQ)


def test_two_points_connectedness():
    for field in FIELDS:
        dims = reduced_cohomology(disjoint_points(2), field).dims
        assert dims == {-1: 0, 0: 1}


def test_irrelevant_complex_minus_one_convention():
    K = validate([[]], 0)
    for field in FIELDS:
        assert reduced_cohomology(K, field).dims == {-1: 1}


def test_rp2_over_gf2():
    dims = reduced_cohomology(rp2_minimal(), GF2).dims
    assert dims == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_rp2_over_rationals_and_gf3():
    for field in (QQ, GF3):
        dims = reduced_cohomology(rp2_minimal(), field).dims
        assert dims == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_spheres():
    for m in (2, 3, 4):
        for field in FIELDS:
            dims = reduced_cohomology(boundary_simplex(m), field).dims
            assert dims[m - 1] == 1
            assert sum(dims.values()) == 1


def test_euler_characteristic_consistency():
    for K in [cycle(6), rp2_minimal(), boundary_simplex(3), random_complex(7, 2, 0.4, 5)]:
        chi = K.euler_characteristic()
        for field in FIELDS:
            dims = reduced_cohomology(K, field).dims
            alt = sum((-1) ** i * h for i, h in dims.items())
            assert alt == chi - 1


def test_cone_is_acyclic():
    for base in [cycle(4), rp2_minimal(), disjoint_points(3)]:
        for field in (GF2, QQ):
            assert not any(reduced_cohomology(cone(base), field).dims.values())


def test_relative_equal_complexes_vanish():
    K = cycle(4)
    assert set(relative_cohomology(K, K, QQ).values()) == {0}
    # the pair ({-}, {-}) has no cochains, and degree 0 is still listed
    for field in FIELDS:
        assert relative_cohomology(simplex(0), simplex(0), field) == {0: 0}


def test_relative_irrelevant_subcomplex_gives_unreduced():
    # the relative complex on faces of K not in {-} is the unaugmented one,
    # so degree 0 counts the connected components
    for K in [cycle(4), disjoint_points(3)]:
        for field in (GF2, QQ):
            rel = relative_cohomology(K, validate([[]], 0), field)
            red = reduced_cohomology(K, field).dims
            assert rel[0] == red[0] + 1
            for i in range(1, K.dim + 1):
                assert rel[i] == red[i]


def test_relative_simplex_mod_boundary():
    K = simplex(3)
    L = boundary_simplex(2)  # the boundary of the triangle on the same labels
    rel = relative_cohomology(K, L, QQ)
    assert rel == {0: 0, 1: 0, 2: 1}


def test_relative_requires_subcomplex():
    with pytest.raises(NotASubcomplex):
        relative_cohomology(cycle(4), simplex(3), QQ)
    # the message quotes both complexes, not their full facet lists
    with pytest.raises(NotASubcomplex) as err:
        relative_cohomology(cycle(4), cycle(40), QQ)
    assert len(str(err.value)) < 200


def test_local_cohomology_on_cycle_vertex():
    for field in FIELDS:
        dims = local_cohomology(cycle(4), (1,), field)
        assert dims == {0: 0, 1: 1}


def test_local_cohomology_top_face_of_simplex():
    dims = local_cohomology(simplex(3), (1, 2, 3), QQ)
    assert dims == {0: 0, 1: 0, 2: 1}


def test_local_cohomology_cone_apex_shifts_base():
    base = cycle(5)
    K = cone(base)
    apex_dims = local_cohomology(K, (1,), GF2)
    base_red = reduced_cohomology(base, GF2).dims
    for i in range(K.dim + 1):
        assert apex_dims[i] == base_red.get(i - 1, 0)


def test_local_cohomology_errors():
    with pytest.raises(EmptyFace):
        local_cohomology(cycle(4), (), QQ)
    with pytest.raises(FaceNotInComplex):
        local_cohomology(cycle(4), (1, 3), QQ)
    # a repeated vertex is refused, not deduplicated into another face
    for call in (
        lambda: local_cohomology(cycle(4), (1, 1), QQ),
        lambda: cycle(4).link((1, 1)),
        lambda: cycle(4).star((2, 2, 1)),
    ):
        with pytest.raises(RepeatedVertex):
            call()


def test_cached_cohomology_is_read_only():
    # the profile is shared through the cache: editing it would make the
    # link engine disagree with the other two on the same complex
    K = boundary_simplex(3)
    dims = reduced_cohomology(K.link([1]), GF2, 0).dims
    with pytest.raises(TypeError):
        dims[0] = 1
    assert dims == {-1: 0, 0: 0}
    rep = depth(K, GF2)
    assert rep.reisner == 3 and rep.agree


def test_munkres_shift_small_corpus():
    for K in [cycle(4), rp2_minimal(), boundary_simplex(3), cone(cycle(5)),
              random_complex(6, 2, 0.5, 11), random_complex(7, 3, 0.25, 12)]:
        for field in (GF2, GF3, QQ):
            report = verify_munkres_shift(K, field)
            assert report.passed, report.witness
            # the faces containing sigma are the relative cochains of the
            # pair, in K's order: the depth engine's shortcut
            for s in K.face_masks[1:]:
                faces_above = [[f for f in level if f & s == s] for level in K.levels()[1:]]
                assert relative_cohomology(K, K.contrastar_by_mask(s), field) == dict(
                    enumerate(_cochain_dims(faces_above, field))
                )


# -- the cochain kernel against dense ranks in the upper-face orientation --------


def _mask(face):
    return sum(1 << (v - 1) for v in face)


def _face_filters(K):
    """(sigma, the faces containing sigma as tuples, the same as masks by
    cardinality 1..dim K + 1) for every nonempty face sigma."""
    faces = list(K.faces())
    for sigma in faces[1:]:
        s = _mask(sigma)
        above = [f for f in faces if set(sigma) <= set(f)]
        rel = [
            [f for f in K.face_masks if f & s == s and f.bit_count() == k]
            for k in range(1, K.dim + 2)
        ]
        yield sigma, above, rel


def _filter_rows(K, field):
    """The face filters as the depth engine ranks them: a function of
    (sigma, until) that ranks the rows of the faces containing sigma in K's
    own coboundary matrices, one per cardinality 1..dim K + 1."""
    levels = K.levels()[1:]
    mats = list(_coboundaries(levels + [[]], field))

    def dims(sigma, until=None):
        s = _mask(sigma)
        rows = [[i for i, f in enumerate(level) if f & s == s] for level in levels]
        return dict(enumerate(_cohomology(mats, field, until, rows)[0]))

    return dims


@given(small_complexes, three_fields)
@settings(max_examples=40, deadline=None)
def test_cohomology_matches_dense_ranks(K, field):
    faces = list(K.faces())
    levels = [[f for f in faces if len(f) == k] for k in range(K.dim + 2)]
    dense = dense_cochain_dims(levels, field)
    assert reduced_cohomology(K, field).dims == {i - 1: h for i, h in enumerate(dense)}
    filter_rows = _filter_rows(K, field)
    for sigma, above, rel in _face_filters(K):
        rel_levels = [[f for f in above if len(f) == k] for k in range(1, K.dim + 2)]
        dense = dict(enumerate(dense_cochain_dims(rel_levels, field)))
        assert dict(enumerate(_cochain_dims(rel, field))) == dense, sigma
        assert filter_rows(sigma) == dense, sigma


@given(small_complexes, three_fields, st.integers(-2, 4))
@settings(max_examples=40, deadline=None)
def test_until_gives_the_prefix_through_the_first_nonzero_degree(K, field, t):
    def prefix(full):
        c = next((i for i, h in sorted(full.items()) if h), None)
        stop = t if c is None else min(t, c)
        return {i: h for i, h in full.items() if i <= stop}

    assert reduced_cohomology(K, field, t).dims == prefix(reduced_cohomology(K, field).dims)
    filter_rows = _filter_rows(K, field)
    for sigma, _, rel in _face_filters(K):
        full = dict(enumerate(_cochain_dims(rel, field)))
        assert dict(enumerate(_cochain_dims(rel, field, t))) == prefix(full)
        assert filter_rows(sigma, t) == prefix(full), sigma


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("card", [0, 1, 2, 3])
def test_reduced_cohomology_checks_its_coboundaries(monkeypatch, field, card):
    # the coboundary out of cardinality card is d_card (degree -1 is
    # cardinality 0); pulling it checks d_card d_{card-1}.  A call capped at
    # degree 1 pulls those out of cardinality 0, 1 and 2: the face list does
    # not answer it, so it checks them all
    flip_one_sign(monkeypatch, card)
    for until in (None, 1) if card <= 2 else (None,):
        with pytest.raises(NotAComplex) as err:
            reduced_cohomology(boundary_simplex(4), field, until)
        assert err.value.position == max(card - 1, 0)


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("card", [0, 1, 2, 3])
def test_odd_characteristic_checks_d_squared_over_z(monkeypatch, field, card):
    # a +1 entry made 4 keeps d^2 = 0 mod 3 but not over Z: GF(3) must
    # refuse it where Q does
    module = importlib.import_module("srdepth.cohomology")
    rows = module._coboundary_rows

    def one_entry_times_four(lower, upper, p):
        out = rows(lower, upper, p)
        if p != 2 and lower and lower[0].bit_count() == card:
            row, j = next((row, j) for row in out for j in sorted(row) if row[j] == 1)
            row[j] = 4
        return out

    monkeypatch.setattr(module, "_coboundary_rows", one_entry_times_four)
    with pytest.raises(NotAComplex) as err:
        reduced_cohomology(boundary_simplex(4), field)
    assert err.value.position == max(card - 1, 0)


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("card", [1, 2, 3])
def test_relative_cohomology_checks_its_coboundaries(monkeypatch, field, card):
    # relative cochains start at cardinality 1: the flip sits in d_{card-1}
    flip_one_sign(monkeypatch, card)
    with pytest.raises(NotAComplex) as err:
        relative_cohomology(boundary_simplex(4), validate([[]], 0), field)
    assert err.value.position == max(card - 2, 0)


def test_until_builds_no_later_coboundary(monkeypatch):
    module = importlib.import_module("srdepth.cohomology")
    built = []
    rows = module._coboundary_rows
    monkeypatch.setattr(module, "_coboundary_rows", lambda *a: built.append(a) or rows(*a))
    # the 4-sphere, asked through degree 1: coboundaries out of degrees -1, 0, 1
    assert reduced_cohomology(boundary_simplex(5), QQ, 1).dims == {-1: 0, 0: 0, 1: 0}
    assert len(built) == 3
    # three points: H^0 != 0 ends the walk whatever the cap
    built.clear()
    assert reduced_cohomology(disjoint_points(3), GF3, 5).dims == {-1: 0, 0: 2}
    assert len(built) == 2
    # capped at degree 0, the face list answers
    built.clear()
    assert reduced_cohomology(disjoint_points(3), GF3, 0).dims == {-1: 0, 0: 2}
    assert len(built) == 0


def _disjoint_tetrahedra():
    """Two disjoint boundaries of the 3-simplex."""
    return validate([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5, 6, 7], [5, 6, 8], [5, 7, 8], [6, 7, 8]], 8)


def _check_capped_against_the_kernel(K):
    for field in ALL_FIELDS:
        for cap in range(-2, K.dim + 2):
            kernel = {i - 1: h for i, h in enumerate(_cochain_dims(K.levels(), field, cap + 1))}
            assert reduced_cohomology(K, field, cap).dims == kernel, (K, field, cap)


@given(small_complexes)
@settings(max_examples=40, deadline=None)
def test_capped_calls_agree_with_the_kernel(K):
    # degrees -1 and 0 come from the face list on a call capped at degree 0
    # or below; every other one from the kernel
    _check_capped_against_the_kernel(K)


EDGE_CASES = {
    "irrelevant": validate([[]], 0),
    **{f"points_{k}": disjoint_points(k) for k in range(1, 5)},
    "two_tetrahedra": _disjoint_tetrahedra(),
    "cone_cycle_5": cone(cycle(5)),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_capped_calls_agree_with_the_kernel_at_the_edges(name):
    _check_capped_against_the_kernel(EDGE_CASES[name])


@pytest.mark.parametrize("name", ["points_3", "two_tetrahedra", "cone_cycle_5"])
def test_the_face_list_answers_every_field(monkeypatch, name):
    K = EDGE_CASES[name]
    # degrees -1 and 0 are free over Z: every field reads them off the face list
    module = importlib.import_module("srdepth.cohomology")
    expected = dict(reduced_cohomology(K, GF3, 0).dims)
    assert reduced_cohomology(K, GF2, 0).dims == expected

    def refuse(*a):
        raise AssertionError("built a coboundary")

    monkeypatch.setattr(module, "_coboundary_rows", refuse)
    assert reduced_cohomology(K, GF3, 0).dims == expected


def test_a_cap_at_degree_0_or_below_builds_no_coboundary(monkeypatch):
    # the face list answers it, certified, over every field
    module = importlib.import_module("srdepth.cohomology")

    def refuse(*a):
        raise AssertionError("built a coboundary")

    monkeypatch.setattr(module, "_coboundary_rows", refuse)
    for K in [*EDGE_CASES.values(), boundary_simplex(4)]:
        for field in FIELDS:
            for cap in (-2, -1, 0):
                assert reduced_cohomology(K, field, cap).certified


def _public_calls(K, field):
    """Every public cohomology call on K over ``field``."""
    for cap in [*range(-2, K.dim + 2), None]:
        reduced_cohomology(K, field, cap)
    relative_cohomology(K, K.contrastar((1,)), field)
    local_cohomology(K, (1,), field)
    verify_munkres_shift(K, field)
    if K.m <= 8:
        betti_table(K, field)


def test_public_cohomology_calls_keep_nothing():
    # only the depth engines keep answers, in their memo: a public call
    # neither adds to it nor reorders it, and so keeps no complex alive
    cases = [boundary_simplex(4), rp2_minimal(), moore_space_mod3(), cone(cycle(5)), _disjoint_tetrahedra()]
    depth.cache_clear()
    for K in cases:
        depth(K, GF3)
    before = list(_MEMO.items())
    assert before
    for K in cases:
        for field in FIELDS:
            _public_calls(K, field)
            assert list(_MEMO.items()) == before, (K, str(field))
    depth.cache_clear()
    _public_calls(cases[0], QQ)
    assert not _MEMO


def test_munkres_shift_names_the_face_where_the_sides_differ(monkeypatch):
    module = importlib.import_module("srdepth.cohomology")
    real = relative_cohomology

    def one_more_in_degree_one(K, L, field):
        dims = real(K, L, field)
        return {**dims, 1: dims[1] + 1}

    monkeypatch.setattr(module, "relative_cohomology", one_more_in_degree_one)
    rep = verify_munkres_shift(boundary_simplex(3), QQ)
    assert not rep.passed
    assert rep.witness == ((1,), 1, 0, 1)


def _asked(K, fields):
    """``reduced_cohomology`` and the depth walks' ``_lowest_nonzero`` at
    every cap, then ``depth``, over each field in turn, the memo cleared
    once before the first."""
    depth.cache_clear()
    out = {}
    for field in fields:
        for cap in [*range(-2, K.dim + 2), None]:
            out[field, cap] = dict(reduced_cohomology(K, field, cap).dims)
            if cap is not None:
                out[field, cap, "lowest"] = _lowest_nonzero(K, field, cap)
        out[field, "depth"] = depth(K, field)
    return out


def _check_field_order_independence(K):
    faces = list(K.faces())
    levels = [[f for f in faces if len(f) == k] for k in range(K.dim + 2)]
    fresh = {}
    for field in ALL_FIELDS:
        fresh.update(_asked(K, [field]))
        full = {i - 1: h for i, h in enumerate(dense_cochain_dims(levels, field))}
        c = next((i for i, h in full.items() if h), None)
        for cap in [*range(-2, K.dim + 2), None]:
            stop = cap if c is None or cap is not None and cap < c else c
            expected = full if cap is None else {i: h for i, h in full.items() if i <= stop}
            assert fresh[field, cap] == expected, (K, str(field), cap)
    for order in (ALL_FIELDS, ALL_FIELDS[::-1]):
        assert _asked(K, order) == fresh, (K, [str(f) for f in order])


@given(small_complexes)
@settings(max_examples=25, deadline=None)
def test_answers_do_not_depend_on_the_field_order(K):
    # a prefix certified by unit pivots over Z answers every field, and one
    # that is not answers its own field only
    _check_field_order_independence(K)


def test_answers_do_not_depend_on_the_field_order_with_torsion():
    rp2, moore = rp2_minimal(), moore_space_mod3()
    for K in (rp2, suspension(rp2), moore, cone(moore)):
        _check_field_order_independence(K)


def test_profile_carries_its_own_certificate():
    # a cap <= 0 is read off the face list; any other call carries the
    # kernel's certificate for the prefix it ranked, whatever came before
    two_bd3 = _disjoint_tetrahedra()
    cases = [K for _, K in named_corpus()] + [moore_space_mod3(), two_bd3]
    for K in cases:
        caps = [*range(-2, K.dim + 2), None]
        for field in FIELDS:
            kernel = {
                cap: _cohomology(_coboundaries(K.levels() + [[]], field), field, None if cap is None else cap + 1)[1]
                for cap in caps
            }
            for order in (caps, caps[::-1]):
                for cap in order:
                    profile = reduced_cohomology(K, field, cap)
                    assert isinstance(profile.dims, MappingProxyType)  # results are immutable
                    certified = profile.certified
                    assert certified == (cap is not None and cap <= 0 or kernel[cap]), (K, str(field), cap)
                    if field == GF2:  # bitset ranks certify nothing
                        assert certified == (cap is not None and cap <= 0), (K, cap)
    assert not reduced_cohomology(moore_space_mod3(), GF3, 1).certified  # a pivot of 3 over Z
    assert not reduced_cohomology(boundary_simplex(4), GF2, 2).certified  # bitset ranks
    assert reduced_cohomology(boundary_simplex(4), GF3, 2).certified  # unit pivots over Z
