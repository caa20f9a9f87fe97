import importlib
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    GF2,
    GF3,
    QQ,
    SimplicialComplex,
    boundary_simplex,
    cycle,
    derived_limit_dims,
    disjoint_points,
    graded_dim,
    limits_complex,
    named_corpus,
    random_complex,
    random_corpus,
    reduced_cohomology,
    rho,
    rp2_minimal,
    simplex,
    validate,
    verify_limit_decomposition,
)
from srdepth.cohomology import _cochain_dims
from srdepth.complexes import _popcount
from srdepth.errors import BadParameter, InternalInvariantError, NotAComplex, TooLarge
from srdepth.limits import _flag_count, _nonempty_faces, _whole_block, flag_chains
from srdepth.linalg import _product_is_zero, cohomology_dims

from oracles import flip_one_sign, three_fields, unnormalized_h01

EDGE = validate([[1, 2]], 2)


def dense(mat):
    """The rows of a matrix over Q or GF(p > 2) as tuples."""
    return tuple(tuple(row.get(j, 0) for j in range(mat.cols)) for row in mat.sparse_rows)


def transpose(rows):
    """A matrix written with one row per target basis vector, as tuples with
    one row per source basis vector, the orientation of ``limits_complex``."""
    return tuple(zip(*rows))


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("card", [1, 2, 3])
def test_whole_block_checks_its_coboundaries(monkeypatch, field, card):
    # a flag of c faces is a simplex of cardinality c, and the whole-poset
    # block, computed first, starts at cardinality 1
    flip_one_sign(monkeypatch, card)
    with pytest.raises(NotAComplex) as err:
        derived_limit_dims(boundary_simplex(4), field, 0)
    assert err.value.position == max(card - 2, 0)


def test_flag_enumeration_single_edge():
    flags = flag_chains(EDGE)
    assert flags[0] == [(1,), (2,), (3,)]  # masks for {1}, {2}, {1,2}
    assert flags[1] == [(1, 3), (2, 3)]


def _enumeration_inputs():
    return [K for _, K in named_corpus()] + [K for _, _, K in random_corpus(200)]


def test_flags_are_the_chains_among_position_subsets():
    # level L lists the (L+1)-subsets of face positions that form chains,
    # in the order itertools.combinations gives them
    for K in _enumeration_inputs():
        objs = _nonempty_faces(K)
        if len(objs) > 40:
            continue
        levels = flag_chains(K)
        assert len(levels) == max(K.dim, 0) + 1  # a chain gains a vertex per face
        for length, level in enumerate(levels, 1):
            chains = (tuple(objs[i] for i in ids) for ids in combinations(range(len(objs)), length))
            expected = [c for c in chains if all(a & b == a for a, b in zip(c, c[1:]))]
            assert level == expected, (K, length)


def test_flag_count_estimate_is_the_number_listed():
    for K in _enumeration_inputs() + [boundary_simplex(5)]:
        assert _flag_count(K) == sum(map(len, flag_chains(K))), K


def test_two_points_degree_zero():
    mats = limits_complex(disjoint_points(2), QQ, 0)
    assert [m.shape for m in mats] == [(2, 0)]
    assert cohomology_dims(mats) == [2, 0]


def test_single_edge_degree_zero_matrix():
    mats = limits_complex(EDGE, QQ, 0)
    assert [m.shape for m in mats] == [(3, 2)]
    # written with one row per target flag, 1 < 12 and 2 < 12, and one
    # column per source flag, (1), (2), (12)
    assert dense(mats[0]) == transpose(((-1, 0, 1), (0, -1, 1)))
    assert mats[0].rank() == 2
    assert cohomology_dims(mats) == [1, 0]
    # degree 2 has real restriction blocks: every star of the edge is the
    # edge, with basis x1, x2 inside each flag's block, rows and columns alike
    (mat,) = limits_complex(EDGE, QQ, 2)
    assert mat.shape == (6, 4)
    assert dense(mat) == transpose((
        (-1, 0, 0, 0, 1, 0),
        (0, -1, 0, 0, 0, 1),
        (0, 0, -1, 0, 1, 0),
        (0, 0, 0, -1, 0, 1),
    ))


def test_three_cycle_degree_zero_over_q():
    mats = limits_complex(cycle(3), QQ, 0)
    dims = cohomology_dims(mats)
    assert dims == [1, 1]


def test_differentials_compose_to_zero():
    for K in [rp2_minimal(), boundary_simplex(3), random_complex(5, 2, 0.7, 4)]:
        for d in (0, 2, 4):
            mats = limits_complex(K, GF3, d)
            for earlier, later in zip(mats, mats[1:]):
                assert _product_is_zero(earlier, later)


def test_rho_refuses_a_map_that_misses_lim0(monkeypatch):
    monkeypatch.setattr(importlib.import_module("srdepth.limits"), "_product_is_zero", lambda left, right: False)
    with pytest.raises(InternalInvariantError, match="comparison map does not land in lim\\^0"):
        rho(cycle(4), QQ, 2)


def test_requires_a_vertex():
    with pytest.raises(BadParameter):
        limits_complex(validate([[]], 0), QQ, 0)
    with pytest.raises(BadParameter):
        derived_limit_dims(validate([[]], 0), QQ, 4)


def test_negative_degree_bound_rejected():
    with pytest.raises(BadParameter):
        derived_limit_dims(cycle(3), QQ, -2)


@pytest.mark.parametrize("method", ["grouped", "direct"])
def test_degree_bound_past_the_report_guard_fails_before_any_work(monkeypatch, method):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    module = importlib.import_module("srdepth.limits")
    monkeypatch.setattr(module, "flag_chains", refuse)
    K = simplex(3)  # a triangle: lim^0..lim^2 in each even degree
    for d_max, values in [(10**8, 150_000_003), (10**20 - 1, 15 * 10**19), (66_666, 100_002)]:
        with pytest.raises(TooLarge, match=f"list {values} values"):
            derived_limit_dims(K, GF2, d_max, method)
    # 33,333 degrees of 3 values each are admitted, and the work starts
    with pytest.raises(AssertionError, match="work started"):
        derived_limit_dims(K, GF2, 66_665, method)


def test_rho_examples():
    assert rho(disjoint_points(2), QQ, 0) == (0, 1)
    for d in (0, 2, 4, 6):
        assert rho(simplex(3), QQ, d) == (0, 0)
    for d in (0, 2, 4):
        kernel, _ = rho(cycle(4), GF2, d)
        assert kernel == 0


def test_grouped_equals_direct():
    grid = [
        (EDGE, 8),
        (disjoint_points(2), 8),
        (disjoint_points(3), 6),
        (cycle(3), 6),
        (cycle(4), 4),
        (simplex(3), 4),
        (boundary_simplex(2), 6),
        (validate([[1, 2, 3], [3, 4, 5]], 5), 4),
        (random_complex(5, 2, 0.6, 31), 2),
        (boundary_simplex(3), 4),
        (rp2_minimal(), 4),
    ]
    for K, d_max in grid:
        for field in (QQ, GF2, GF3):
            direct = derived_limit_dims(K, field, d_max, method="direct")
            grouped = derived_limit_dims(K, field, d_max, method="grouped")
            assert direct.lim == grouped.lim, (K, str(field))
            assert direct.rho_kernel == grouped.rho_kernel
            assert direct.rho_cokernel == grouped.rho_cokernel


complexes_m6_d2 = st.builds(
    random_complex,
    st.integers(1, 6),
    st.integers(0, 2),
    st.sampled_from([0.2, 0.4, 0.6]),
    st.integers(0, 10**6),
)


@given(complexes_m6_d2, st.integers(0, 4), three_fields)
@settings(max_examples=40, deadline=None)
def test_grouped_equals_direct_on_random_complexes(K, d_max, field):
    direct = derived_limit_dims(K, field, d_max, method="direct")
    grouped = derived_limit_dims(K, field, d_max, method="grouped")
    assert direct.lim == grouped.lim
    assert direct.rho_kernel == grouped.rho_kernel
    assert direct.rho_cokernel == grouped.rho_cokernel


def test_higher_limits_vanish_above_dimension():
    K = cycle(4)
    mats = limits_complex(K, QQ, 2)
    dims = cohomology_dims(mats)
    assert all(h == 0 for h in dims[K.dim + 1 :])


def test_single_edge_limit_is_graded_ring_in_every_degree():
    # contractible nerve: lim^0 carries exactly the graded ring, lim^1 nothing
    profile = derived_limit_dims(EDGE, QQ, 12, method="direct")
    for d in range(0, 13, 2):
        assert profile.lim[0][d] == graded_dim(EDGE, d)
        assert profile.lim[1][d] == 0
        assert profile.rho_kernel[d] == 0 and profile.rho_cokernel[d] == 0


def test_decomposition_three_cycle():
    report = verify_limit_decomposition(cycle(3), QQ, 12)
    assert report.passed
    lim1 = report.profile.lim[1]
    assert lim1[0] == 1 and all(v == 0 for d, v in lim1.items() if d > 0)


def test_decomposition_rp2_gf2():
    report = verify_limit_decomposition(rp2_minimal(), GF2, 8)
    assert report.passed
    assert report.profile.lim[1][0] == 1
    assert report.profile.lim[2][0] == 1


def test_decomposition_full_simplex():
    report = verify_limit_decomposition(simplex(4), QQ, 16)
    assert report.passed
    for i in range(1, 4):
        assert report.profile.l_total(i) == 0


def test_decomposition_names_the_first_wrong_dimension(monkeypatch):
    module = importlib.import_module("srdepth.limits")

    def one_too_many(K, field, d_max):
        profile = derived_limit_dims(K, field, d_max)
        return profile._replace(lim={**profile.lim, 0: {**profile.lim[0], 2: profile.lim[0][2] + 1}})

    monkeypatch.setattr(module, "derived_limit_dims", one_too_many)
    report = verify_limit_decomposition(boundary_simplex(3), QQ, 8)
    assert not report.passed
    assert report.first_failure == (0, 2, 5, 4)


def test_decomposition_two_points_cokernel():
    report = verify_limit_decomposition(disjoint_points(2), GF2, 8)
    assert report.passed
    assert report.profile.rho_cokernel[0] == 1
    assert all(v == 0 for d, v in report.profile.rho_cokernel.items() if d > 0)
    assert all(v == 0 for v in report.profile.rho_kernel.values())


def test_normalized_equals_unnormalized_h01():
    for K in [EDGE, disjoint_points(2), cycle(3), rp2_minimal(), boundary_simplex(3)]:
        for field in (GF2, GF3, QQ):
            for d in (0, 2, 4):
                mats = limits_complex(K, field, d)
                dims = cohomology_dims(mats)
                h0 = dims[0]
                h1 = dims[1] if len(dims) > 1 else 0
                assert unnormalized_h01(K, field, d) == (h0, h1), (K, str(field), d)


# -- chain-level nerve: the test-only oracle for the grouped engine's blocks ----
#
# It lists every chain of an inclusion poset of faces, removes homology-
# preserving pairs and ranks what is left, without using that an order
# complex of a face poset is a barycentric subdivision.


def _chain_cells(poset: tuple[int, ...]):
    """All chains of the inclusion poset, as bitmasks over element ids, plus
    per-element comparability masks.  Ids follow the (card, verts) order, so
    ascending ids within a chain equal ascending inclusion."""
    n = len(poset)
    comp = [0] * n
    for i in range(n):
        a = poset[i]
        for j in range(i + 1, n):
            b = poset[j]
            if a & b == a and a != b:
                comp[i] |= 1 << j
                comp[j] |= 1 << i
    cells = []

    def extend(mask, top, allowed):
        cells.append(mask)
        m = allowed
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            extend(mask | b, j, allowed & comp[j])
    for i in range(n):
        extend(1 << i, i, comp[i] & ~((1 << (i + 1)) - 1))
    return cells, comp


def _reduce_cells(cells, comp):
    """Exact pair reductions on the augmented chain complex of chain cells.

    Removes (face, coface) pairs where either the face has a unique alive
    coface (free-face reduction) or the coface has a unique alive face
    (coreduction); both deletions preserve homology because the discarded
    incidence is the only one through the pair, so the elimination has no
    correction term.  Counts only involve unit coefficients, hence the
    remainder is field independent.  The empty cell 0 participates as the
    (-1)-dimensional augmentation cell.
    """
    alive = set(cells)
    alive.add(0)
    nfaces = {0: 0}
    ncof = {c: 0 for c in alive}
    for c in cells:
        nfaces[c] = _popcount(c)
        m = c
        while m:
            b = m & -m
            m ^= b
            ncof[c ^ b] += 1

    n_elems = len(comp)

    def allcomp(c):
        a = (1 << n_elems) - 1
        m = c
        while m:
            b = m & -m
            m ^= b
            a &= comp[b.bit_length() - 1]
        return a & ~c

    def faces_of(c):
        m = c
        while m:
            b = m & -m
            m ^= b
            yield c ^ b

    def cofaces_of(c):
        if c == 0:
            for i in range(n_elems):
                yield 1 << i
            return
        m = allcomp(c)
        while m:
            b = m & -m
            m ^= b
            yield c | b

    order = sorted(alive, key=lambda c: (_popcount(c), c))
    coq = deque(c for c in order if nfaces[c] == 1)
    req = deque(c for c in order if ncof[c] == 1)

    def delete(x):
        alive.discard(x)
        for f in faces_of(x):
            if f in alive:
                ncof[f] -= 1
                if ncof[f] == 1:
                    req.append(f)
        for g in cofaces_of(x):
            if g in alive:
                nfaces[g] -= 1
                if nfaces[g] == 1:
                    coq.append(g)

    while coq or req:
        while coq:
            t = coq.popleft()
            if t not in alive or nfaces[t] != 1:
                continue
            s = next(f for f in faces_of(t) if f in alive)
            delete(t)
            delete(s)
        while req:
            s = req.popleft()
            if s not in alive or ncof[s] != 1:
                continue
            t = next(g for g in cofaces_of(s) if g in alive)
            delete(s)
            delete(t)
    return alive


def _remainder_reduced_dims(alive, field):
    """Reduced homology dims of what survives the pair reductions, via exact
    ranks on the restricted incidence matrices (a chain cell is a simplex
    on element ids, so its incidences are the simplicial ones)."""
    if not alive:
        return {}
    lo = min(_popcount(c) for c in alive)
    hi = max(_popcount(c) for c in alive)
    levels = [[c for c in sorted(alive) if _popcount(c) == k] for k in range(lo, hi + 1)]
    dims = _cochain_dims(levels, field)
    return {lo - 1 + i: h for i, h in enumerate(dims) if h}


def poset_nerve_unreduced(poset, field):
    """Unreduced cohomology dims (degrees 0, 1, ...) of the order complex of
    a nonempty inclusion poset of faces."""
    cells, comp = _chain_cells(poset)
    alive = _reduce_cells(cells, comp)
    reduced = _remainder_reduced_dims(alive, field)
    if reduced.get(-1, 0):
        raise AssertionError("augmentation cell survived on a nonempty poset")
    top = max(reduced, default=0)
    dims = [reduced.get(i, 0) for i in range(top + 1)]
    dims[0] += 1  # unreduced degree 0 of a nonempty complex
    return tuple(dims)


def order_complex_as_simplicial(poset):
    """Dense oracle: materialize the order complex on relabeled elements."""
    cells, _ = _chain_cells(poset)
    facets = []
    cell_set = set(cells)
    for c in cells:
        if not any((c | (1 << i)) in cell_set for i in range(len(poset)) if not c & (1 << i)):
            facets.append(c)
    return SimplicialComplex(facets)


def _trimmed(dims):
    """Unreduced dims without trailing zeros (degree 0 always kept)."""
    dims = list(dims)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


def test_nerve_engine_matches_dense_order_complex():
    complexes = [
        cycle(3),
        cycle(5),
        disjoint_points(3),
        rp2_minimal(),
        boundary_simplex(3),
        random_complex(6, 2, 0.5, 17),
        random_complex(6, 3, 0.3, 18),
    ]
    for K in complexes:
        poset = tuple(_nonempty_faces(K))
        oc = order_complex_as_simplicial(poset)
        for field in (GF2, GF3, QQ):
            fast = list(poset_nerve_unreduced(poset, field))
            dense = reduced_cohomology(oc, field).dims
            expected = [dense.get(i, 0) for i in range(len(fast))]
            expected[0] += 1
            top = max(dense, default=0)
            assert all(dense.get(i, 0) == 0 for i in range(len(fast), top + 1))
            assert fast == expected, (K, str(field))
            assert _trimmed(_whole_block(K, field)) == fast, (K, str(field))


def test_nerve_engine_matches_star_posets():
    K = random_complex(6, 2, 0.5, 23)
    for f in K.face_masks:
        if not f:
            continue
        poset = tuple(_nonempty_faces(K.star_by_mask(f)))
        oc = order_complex_as_simplicial(poset)
        for field in (GF2, QQ):
            fast = list(poset_nerve_unreduced(poset, field))
            dense = reduced_cohomology(oc, field).dims
            expected = [dense.get(i, 0) for i in range(len(fast))]
            expected[0] += 1
            assert fast == expected == [1]


def test_grouped_blocks_match_nerve_oracle_on_named_corpus():
    # whole block = chain-level nerve = K's own cohomology (unreduced);
    # every star block (the nerve of a star's face poset) is a point's,
    # since a star is a cone
    for name, K in named_corpus():
        for field in (GF2, GF3, QQ):
            h = reduced_cohomology(K, field).dims
            own = [h.get(i, 0) for i in range(K.dim + 1)]
            own[0] += 1
            oracle = poset_nerve_unreduced(tuple(_nonempty_faces(K)), field)
            assert list(oracle) == _trimmed(_whole_block(K, field)) == _trimmed(own), (name, str(field))
            for f in _nonempty_faces(K):
                star_oracle = poset_nerve_unreduced(tuple(_nonempty_faces(K.star_by_mask(f))), field)
                assert list(star_oracle) == [1], (name, f, str(field))


def _assert_stars_acyclic(K, field):
    for f in _nonempty_faces(K):
        dims = reduced_cohomology(K.star_by_mask(f), field).dims
        assert not any(dims.values()), (K, f, str(field), dims)


def test_stars_are_acyclic_on_named_corpus():
    # the grouped engine reads every degree d > 0 off the f-vector because
    # the star of a nonempty face is a cone
    for _, K in named_corpus():
        for field in (GF2, GF3, QQ):
            _assert_stars_acyclic(K, field)


@given(
    st.builds(random_complex, st.integers(1, 6), st.integers(0, 5), st.sampled_from([0.2, 0.4, 0.6]), st.integers(0, 10**6)),
    three_fields,
)
@settings(max_examples=60, deadline=None)
def test_stars_are_acyclic_on_random_complexes(K, field):
    _assert_stars_acyclic(K, field)


def test_profile_l_totals():
    profile = derived_limit_dims(cycle(3), QQ, 6)
    assert profile.l_total(-1) == 0
    assert profile.l_total(0) == 0
    assert profile.l_total(1) == 1
