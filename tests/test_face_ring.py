from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    QQ,
    cycle,
    disjoint_points,
    graded_dim,
    limits_complex,
    monomial_basis,
    random_complex,
    rp2_minimal,
    simplex,
    validate,
)
from srdepth.errors import OddDegree
from srdepth.face_ring import star_basis
from srdepth.limits import flag_chains

from oracles import graded_dim_by_faces, hilbert_expansion_by_faces, hilbert_series, small_complexes


def brute_monomials(K, d, support_in=None):
    """Independent enumeration: all exponent vectors over the vertex tuple
    with the right degree whose support is a face of ``support_in``
    (default K)."""
    t = d // 2
    verts = K.vertices
    out = []
    for e in product(range(t + 1), repeat=len(verts)):
        if sum(e) != t:
            continue
        support = tuple(v for v, ei in zip(verts, e) if ei)
        if (support_in or K).has_face(support):
            out.append(e)
    return sorted(out)


def test_graded_dim_examples():
    assert graded_dim(simplex(3), 2) == 3
    assert graded_dim(disjoint_points(2), 4) == 2
    assert graded_dim(cycle(4), 4) == 8
    assert graded_dim(cycle(4), 0) == 1


def test_graded_dim_matches_brute_enumeration():
    for K in [cycle(4), rp2_minimal(), disjoint_points(3), random_complex(5, 2, 0.6, 2)]:
        for d in (0, 2, 4, 6):
            mons = brute_monomials(K, d)
            assert graded_dim(K, d) == len(mons)
            assert list(monomial_basis(K, d)) == mons
            for f in K.face_masks:
                assert list(star_basis(K, f, d)) == brute_monomials(K, d, K.star_by_mask(f)), (K, f, d)


@given(small_complexes, st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_graded_dim_and_hilbert_series_match_per_face_sums(K, t):
    # both are read off the f-vector; the oracles visit every face
    assert graded_dim(K, 2 * t) == graded_dim_by_faces(K, 2 * t)
    assert hilbert_series(K).expansion(2 * t) == hilbert_expansion_by_faces(K, 2 * t)


def test_graded_dim_rejects_odd_degree():
    with pytest.raises(OddDegree):
        graded_dim(cycle(3), 3)
    with pytest.raises(OddDegree):
        monomial_basis(cycle(3), -2)


def test_monomial_basis_is_lex_sorted_and_face_supported():
    K = rp2_minimal()
    basis = monomial_basis(K, 6)
    assert list(basis) == sorted(basis)
    for e in basis:
        support = tuple(v for v, ei in zip(K.vertices, e) if ei)
        assert K.has_face(support)


def test_hilbert_series_full_simplex():
    hs = hilbert_series(simplex(4))
    assert hs.numerator == (1,)
    assert hs.denominator_exponent == 4


def test_hilbert_series_two_points():
    hs = hilbert_series(disjoint_points(2))
    # (1 + t^2) / (1 - t^2): one constant plus two pure powers per degree
    assert hs.numerator == (1, 0, 1)
    assert hs.denominator_exponent == 1
    assert hs.expansion(6) == [1, 0, 2, 0, 2, 0, 2]


def test_hilbert_series_irrelevant_complex():
    hs = hilbert_series(validate([[]], 0))
    assert hs.numerator == (1,)
    assert hs.denominator_exponent == 0
    assert hs.expansion(4) == [1, 0, 0, 0, 0]


def test_hilbert_expansion_matches_graded_dim():
    for K in [cycle(4), rp2_minimal(), disjoint_points(3), random_complex(6, 2, 0.4, 9)]:
        bound = 4 * K.m
        exp = hilbert_series(K).expansion(bound)
        for d in range(0, bound + 1, 2):
            assert exp[d] == graded_dim(K, d)
        assert all(exp[d] == 0 for d in range(1, bound + 1, 2))


def supported_on_star(K, basis, tau):
    """The monomials of ``basis`` whose support stays a face of star(tau):
    what the restriction onto the ring of star(tau) keeps, in order."""
    return tuple(
        e for e in basis if K.has_face_mask(tau | sum(1 << (v - 1) for v, x in zip(K.vertices, e) if x))
    )


def test_restriction_identity_when_faces_equal():
    # a flag (a, b) gets +identity on the (b) block (deleting a leaves b,
    # whose star is unchanged) and -restriction from the star of a
    for K, d in [(cycle(4), 4), (rp2_minimal(), 2)]:
        (d0, *_) = limits_complex(K, QQ, d)
        # d0 has one row per source basis vector: read it by target columns
        columns = [{} for _ in range(d0.cols)]
        for i, row in enumerate(d0.sparse_rows):
            for j, v in row.items():
                columns[j][i] = v
        flags = flag_chains(K)
        offset, cols = {}, 0
        for (f,) in flags[0]:
            offset[f] = cols
            cols += len(star_basis(K, f, d))
        rows = iter(columns)
        for a, b in flags[1]:
            src = {e: j for j, e in enumerate(star_basis(K, a, d))}
            for i, e in enumerate(star_basis(K, b, d)):
                assert next(rows) == {offset[b] + i: 1, offset[a] + src[e]: -1}
        assert next(rows, None) is None


def test_restriction_two_glued_triangles():
    # two triangles sharing vertex 3; restriction to the star of vertex 1
    # kills the generators outside that triangle
    K = validate([[1, 2, 3], [3, 4, 5]], 5)
    src = star_basis(K, 0, 2)
    tgt = star_basis(K, 1, 2)  # mask 1 = vertex 1
    assert len(src) == 5 and len(tgt) == 3
    assert tgt == supported_on_star(K, src, 1)
    killed_vars = {K.vertices[e.index(1)] for e in src if e not in tgt}
    assert killed_vars == {4, 5}


def test_restriction_degree_zero_is_one_by_one_identity():
    K = rp2_minimal()
    for mask in K.face_masks:
        assert star_basis(K, mask, 0) == ((0,) * K.m,)


def test_restriction_functoriality():
    # restriction keeps or kills each monomial, so restricting along s <= t
    # and then t <= u is restricting along s <= u
    for K in [simplex(4), rp2_minimal(), random_complex(6, 2, 0.5, 21)]:
        chains = []
        faces = K.face_masks
        for s in faces:
            for t in faces:
                if s & t == s and s != t:
                    for u in faces:
                        if t & u == t and t != u:
                            chains.append((s, t, u))
        for s, t, u in chains[:40]:
            for d in (2, 4, 6):
                bs, bt, bu = (star_basis(K, f, d) for f in (s, t, u))
                assert bt == supported_on_star(K, bs, t), (s, t, d)
                assert bu == supported_on_star(K, bt, u) == supported_on_star(K, bs, u), (s, t, u, d)


def test_star_ring_is_polynomial_times_link_ring():
    # dimension count for star(sigma) factoring as F[sigma] tensor F(link sigma)
    for K in [cycle(4), rp2_minimal(), random_complex(6, 2, 0.5, 8)]:
        for sigma in K.faces():
            s = len(sigma)
            link = K.link(sigma)
            star = K.star(sigma)
            for d in (0, 2, 4, 6):
                lhs = graded_dim(star, d)
                rhs = sum(
                    comb(a // 2 + s - 1, s - 1) * graded_dim(link, d - a)
                    for a in range(0, d + 1, 2)
                ) if s else graded_dim(link, d)
                assert lhs == rhs, (sigma, d)
