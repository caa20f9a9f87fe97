from copy import deepcopy
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    GF2,
    GF3,
    GF5,
    QQ,
    ExactMatrix,
    FieldSpec,
    cohomology_dims,
    limits_complex,
    named_corpus,
    rp2_minimal,
)
from srdepth.cohomology import _coboundary_rows
from srdepth.errors import BadParameter, NotAComplex
from srdepth.linalg import _is_prime, _pivot_columns, _pivots_q

from oracles import dense_rank_mod_p, rank_bareiss


# -- independent oracles --------------------------------------------------------


def det_fraction(rows):
    """Cofactor-free determinant by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            for j in range(c, n):
                a[i][j] -= f * a[c][j]
    return det


def brute_rank(rows, p=None):
    """Largest k with a k x k minor of nonzero determinant (mod p if given)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                d = det_fraction([[rows[i][j] for j in ci] for i in ri])
                if p is None:
                    if d != 0:
                        return k
                else:
                    if d.numerator * pow(d.denominator, -1, p) % p != 0:
                        return k
    return 0


def zeros(field, rows, cols):
    return ExactMatrix(field, [], shape=(rows, cols))


def identity(field, n):
    return ExactMatrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def transposed(field, rows, shape=None):
    """The differential written in ``rows`` in the usual shape, one row per
    basis vector of the target, as the matrix with one row per basis vector
    of the source that ``cohomology_dims`` takes; ``shape`` is that of
    ``rows``, needed when they are empty."""
    r, c = shape or (len(rows), len(rows[0]))
    return ExactMatrix(field, [[row[j] for row in rows] for j in range(c)] if rows else [], shape=(c, r))


# -- field spec -------------------------------------------------------------------


def test_fieldspec_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("p=7") == FieldSpec(7)
    with pytest.raises(BadParameter):
        FieldSpec.parse("p=6")
    with pytest.raises(BadParameter):
        FieldSpec.parse("gf2")
    assert str(GF2) == "p=2" and str(QQ) == "q"


def test_fieldspec_rejects_nonprime():
    with pytest.raises(BadParameter):
        FieldSpec(1)
    with pytest.raises(BadParameter):
        FieldSpec(2**31 + 11)
    assert FieldSpec(2147483647).p == 2147483647
    for bad in (2.0, True, "3", Fraction(5)):
        with pytest.raises(BadParameter):
            FieldSpec(bad)


def _sieve(n):
    """is_prime[k] for 0 <= k <= n, by the sieve of Eratosthenes."""
    is_prime = [False, False] + [True] * (n - 1)
    for d in range(2, int(n**0.5) + 1):
        if is_prime[d]:
            is_prime[d * d :: d] = [False] * len(range(d * d, n + 1, d))
    return is_prime


def test_is_prime_matches_a_sieve():
    sieve = _sieve(46_341)  # 46341^2 > 2^31
    assert [_is_prime(n) for n in range(20_001)] == sieve[:20_001]
    primes = [d for d, q in enumerate(sieve) if q]
    for n in (2147483647, 2147483629, 2147483646, 46337**2):
        expected = all(n % d for d in primes if d * d <= n)
        assert _is_prime(n) == expected, n
    assert _is_prime(2147483647) and not _is_prime(46337**2)


def test_fieldspec_is_a_hashable_value():
    assert repr(GF2) == "FieldSpec(p=2)" and repr(QQ) == "FieldSpec(p=None)"
    assert {GF2: "gf2"}[FieldSpec(2)] == "gf2"
    assert FieldSpec() == QQ
    with pytest.raises(AttributeError):
        GF2.p = 3


def test_fieldspec_equals_no_plain_tuple():
    # a tuple hashes like the FieldSpec it spells, but no dict or cache
    # keyed on the FieldSpec answers it
    assert hash(GF3) == hash((3,)) and GF3 == FieldSpec(3)
    assert GF3 != (3,) and (3,) != GF3 and not GF3 == (3,) and not (3,) == GF3
    assert QQ != (None,) and {GF3: 1}.get((3,)) is None
    for bad in (3, (3,), "q", None, [3]):
        with pytest.raises(BadParameter):
            ExactMatrix(bad, [[1]])


# -- rank examples ------------------------------------------------------------------


def test_rank_identity():
    for field in (QQ, GF2, GF5):
        assert identity(field, 3).rank() == 3


def test_rank_proportional_rows():
    assert ExactMatrix(QQ, [[2, 4], [1, 2]]).rank() == 1


def test_rank_mod_two():
    assert ExactMatrix(GF2, [[1, 1], [1, 1]]).rank() == 1


def test_rank_reduction_changes_rank():
    a = [[1, 3], [3, 1]]
    assert ExactMatrix(QQ, a).rank() == 2
    assert ExactMatrix(GF2, a).rank() == 1


def test_kernel_cokernel_examples():
    assert zeros(QQ, 2, 3).kernel_dim() == 3
    eye = identity(GF3, 4)
    assert eye.kernel_dim() == 0 and eye.rows - eye.rank() == 0
    assert ExactMatrix(GF2, [[1, 1]]).kernel_dim() == 1


def test_fraction_entries():
    # every matrix the program builds has int entries; anything else is
    # refused, zero values and dict rows included, never coerced
    for field in (QQ, GF2, GF3):
        for bad in (Fraction(1, 2), Fraction(0), 0.5, 0.0, True):
            with pytest.raises(BadParameter):
                ExactMatrix(field, [[1, bad]])
            with pytest.raises(BadParameter):
                ExactMatrix(field, [{1: bad}], shape=(1, 2))


def test_dict_row_keys_and_entries_are_gated():
    # a bool key used to be taken as column 1, the others raised TypeError
    for entries, shape in (
        ([{True: 1}], (1, 2)),
        ([{"a": 1}], (1, 2)),
        ([{0.5: 1}], (1, 2)),
        (5, None),
        ([5], None),
    ):
        with pytest.raises(BadParameter):
            ExactMatrix(GF2, entries, shape=shape)


def test_empty_shapes():
    assert zeros(QQ, 0, 5).rank() == 0
    assert zeros(GF2, 5, 0).rank() == 0
    assert zeros(GF3, 2, 3).shape == (2, 3)
    with pytest.raises(BadParameter):
        ExactMatrix(QQ, [{0: 1}, {3: 1}], shape=(2, 3))  # column >= cols
    with pytest.raises(BadParameter):
        ExactMatrix(GF2, [{0: 1}, {1: 1}])  # dict rows need a shape
    for shape in ((-1, 2), (2, -1), (1.5, 2)):
        with pytest.raises(BadParameter):
            ExactMatrix(QQ, [], shape=shape)


def test_big_entries_go_through_object_path():
    big = 2**40
    a = ExactMatrix(QQ, [[big, 1], [1, big]])
    assert a.rank() == 2
    assert rank_bareiss([[big, big], [big, big]]) == 1


# -- property tests -------------------------------------------------------------------


small_entries = st.integers(-6, 6)


@st.composite
def int_matrix(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    return [[draw(small_entries) for _ in range(c)] for _ in range(r)]


@given(int_matrix())
@settings(max_examples=80, deadline=None)
def test_rank_matches_brute_force_over_q(rows):
    assert ExactMatrix(QQ, rows).rank() == brute_rank(rows)


@given(int_matrix(), st.sampled_from([2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_rank_matches_brute_force_mod_p(rows, p):
    assert ExactMatrix(FieldSpec(p), rows).rank() == brute_rank(rows, p)


@given(int_matrix(max_dim=5))
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(rows):
    for field in (QQ, GF2, GF5):
        transposed = [list(col) for col in zip(*rows)]
        assert ExactMatrix(field, rows).rank() == ExactMatrix(field, transposed).rank()


@given(int_matrix(max_dim=5), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_rank_over_q_at_least_rank_mod_p(rows, p):
    assert ExactMatrix(QQ, rows).rank() >= ExactMatrix(FieldSpec(p), rows).rank()


@given(int_matrix())
@settings(max_examples=40, deadline=None)
def test_rank_plus_kernel_is_cols(rows):
    a = ExactMatrix(GF3, rows)
    assert a.rank() + a.kernel_dim() == a.cols


# -- cohomology of explicit complexes ---------------------------------------------------


def test_cohomology_zero_differentials():
    d0 = transposed(QQ, [], (3, 2))
    d1 = transposed(QQ, [], (1, 3))
    assert cohomology_dims([d0, d1]) == [2, 3, 1]


def test_cohomology_identity_complex():
    assert cohomology_dims([identity(GF2, 1)]) == [0, 0]


def test_cohomology_three_cycle_reduced():
    # augmented complex of the 3-cycle: 1 -> 3 vertices -> 3 edges
    d_aug = transposed(QQ, [[1], [1], [1]])
    # edges 12, 13, 23 with alternating signs from the vertex order
    d0 = transposed(QQ, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    dims = cohomology_dims([d_aug, d0])
    assert dims == [0, 0, 1]


def test_cohomology_rejects_non_complex():
    d0 = transposed(QQ, [[1, 0], [0, 1]])
    d1 = transposed(QQ, [[1, 0]])
    with pytest.raises(NotAComplex) as err:
        cohomology_dims([d0, d1])
    assert err.value.position == 0


def _simplex_coboundaries(n):
    """The augmented cochain complex of the simplex on n vertices as dense
    matrices in the usual (target rows) shape: the entry at tau minus its
    k-th vertex is (-1)^k."""
    faces = [list(combinations(range(n), k)) for k in range(n + 1)]
    mats = []
    for lower, upper in zip(faces, faces[1:]):
        rows = [[0] * len(lower) for _ in upper]
        for row, tau in zip(rows, upper):
            for k in range(len(tau)):
                row[lower.index(tau[:k] + tau[k + 1 :])] = (-1) ** k
        mats.append(rows)
    return mats


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cohomology_dims_checks_each_pair(field, k):
    mats = _simplex_coboundaries(4)
    assert cohomology_dims([transposed(field, m) for m in mats]) == [0] * 5
    row = mats[k][0]
    j = next(j for j, x in enumerate(row) if x)
    row[j] = -row[j]  # d_{k+1} d_k and d_k d_{k-1} are now nonzero
    with pytest.raises(NotAComplex) as err:
        cohomology_dims([transposed(field, m) for m in mats])
    assert err.value.position == max(k - 1, 0)


def test_cohomology_dims_refuses_mixed_fields_and_non_matrices():
    # each used to fail inside the d^2 = 0 check with a bare TypeError or
    # AttributeError
    for mats in (
        [ExactMatrix(GF2, [[1, 1]]), ExactMatrix(QQ, [[1], [1]])],
        [ExactMatrix(GF3, [[1, 1]]), ExactMatrix(GF2, [[1], [1]])],
        [[1]],
    ):
        with pytest.raises(BadParameter):
            cohomology_dims(mats)


def test_cohomology_dims_refuses_bad_shapes():
    # d_n has shape (dim C^n, dim C^{n+1}), so d_{n+1} has as many rows as
    # d_n has columns
    assert cohomology_dims([zeros(QQ, 2, 3), zeros(QQ, 3, 1)]) == [2, 3, 1]
    for mats in ([], [zeros(QQ, 2, 3), zeros(QQ, 2, 1)]):
        with pytest.raises(BadParameter):
            cohomology_dims(mats)


def test_cohomology_basis_permutation_invariance():
    d0 = transposed(GF2, [[1, 1, 0], [0, 1, 1]])
    d0_perm = transposed(GF2, [[0, 1, 1], [1, 1, 0]])
    z = transposed(GF2, [], (0, 2))
    assert cohomology_dims([d0, z]) == cohomology_dims([d0_perm, z])


# -- sparse kernels against the dense references ------------------------------------


def kernel_rows(rows, p):
    """Raw kernel input: bitsets over GF(2), otherwise dicts whose values are
    left uncanonicalized (negative, >= p) for the kernel to reduce."""
    if p == 2:
        return [sum(1 << j for j, x in enumerate(row) if x % 2) for row in rows]
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


BIG = 2**31
nonzero_entries = st.one_of(
    st.integers(-6, 6), st.integers(BIG, 2**70), st.integers(-(2**70), -BIG)
)


@st.composite
def mixed_matrix(draw, max_dim=4):
    """Dense or sparse integer matrices, with entries beyond 2^31 mixed in."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), nonzero_entries) if draw(st.booleans()) else nonzero_entries
    return [[draw(entry) for _ in range(c)] for _ in range(r)]


@given(mixed_matrix())
@settings(max_examples=80, deadline=None)
def test_sparse_ranks_match_brute_force(rows):
    # dict rows, zeros and uncanonical residues included, build the same matrix
    dict_rows, shape = [dict(enumerate(row)) for row in rows], (len(rows), len(rows[0]))
    expected_q = brute_rank(rows)
    assert len(_pivot_columns(kernel_rows(rows, None), None)[0]) == expected_q
    assert rank_bareiss(rows) == expected_q
    assert ExactMatrix(QQ, rows).rank() == expected_q
    assert ExactMatrix(QQ, dict_rows, shape=shape).sparse_rows == ExactMatrix(QQ, rows).sparse_rows
    assert ExactMatrix(QQ, dict_rows, shape=shape).rank() == expected_q
    for p in (2, 3, 2147483647):
        field = FieldSpec(p)
        expected = brute_rank(rows, p)
        assert len(_pivot_columns(kernel_rows(rows, p), p)[0]) == expected
        assert ExactMatrix(field, rows).rank() == expected
        assert ExactMatrix(field, dict_rows, shape=shape).sparse_rows == ExactMatrix(field, rows).sparse_rows
        assert ExactMatrix(field, dict_rows, shape=shape).rank() == expected


@given(mixed_matrix(max_dim=9))
@settings(max_examples=60, deadline=None)
def test_sparse_ranks_match_dense_elimination(rows):
    assert len(_pivot_columns(kernel_rows(rows, None), None)[0]) == rank_bareiss(rows)
    for p in (2, 5, 2147483647):
        assert len(_pivot_columns(kernel_rows(rows, p), p)[0]) == dense_rank_mod_p(rows, p)


@given(mixed_matrix(max_dim=6))
@settings(max_examples=60, deadline=None)
def test_pivot_columns_carry_the_rank(rows):
    # clearing relies on it: the row space maps onto its pivot columns
    # one to one, so those columns alone have the full rank
    for field in (QQ, GF2, GF3):
        m = ExactMatrix(field, rows)
        r = m.rank()
        sub = [[row[j] for j in sorted(m.pivots)] for row in rows]
        assert len(m.pivots) == r
        assert (rank_bareiss(sub) if field.p is None else dense_rank_mod_p(sub, field.p)) == r


def test_integer_ranks_certify_unit_pivots():
    # determinant -2: rank 2 over Q, 1 over GF(2), and a pivot of -2 over Z
    pivots, unimodular = _pivots_q([{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert len(pivots) == 2 and not unimodular
    assert ExactMatrix(GF2, [[1, 1], [1, -1]]).rank() == 1
    # unitriangular: every pivot is +-1, so the rank holds over every field
    pivots, unimodular = _pivots_q([{0: 1, 1: 5, 2: -3}, {1: -1, 2: 7}, {2: 1}])
    assert sorted(pivots) == [0, 1, 2] and unimodular
    # ranked for GF(3), the pass over Z gives up at the pivot 3 and ranks mod 3
    pivots, unimodular = _pivots_q([{0: 1, 1: 2}, {1: 3}], 3)
    assert len(pivots) == 1 and not unimodular
    assert len(_pivots_q([{0: 1, 1: 2}, {1: 3}])[0]) == 2
    # every rank keeps its certificate: bitsets certify nothing, and every
    # other field ranks over Z first
    for field, rows, certified in [
        (GF2, [[1, 0], [0, 1]], False),
        (GF3, [[1, 0], [0, 1]], True),
        (GF5, [[2, 1], [0, 1]], False),  # the residue 2 leads: a pivot of 2 over Z
        (GF3, [[1, -1], [-1, 0]], True),  # -1 is held as -1, not as the residue 2
        (QQ, [[1, 1], [1, -1]], False),
        (QQ, [[1, 5], [0, -1]], True),
    ]:
        m = ExactMatrix(field, rows)
        assert m.rank() == 2 and m.unimodular == certified, (field, rows)


@given(st.lists(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=5, max_size=5), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_unit_pivots_give_the_rank_and_pivots_of_every_field(rows):
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    pivots, unimodular = _pivots_q(sparse)
    assert len(pivots) == ExactMatrix(QQ, rows).rank()
    for p in (2, 3, 5):
        mod_p = ExactMatrix(FieldSpec(p), rows)
        assert mod_p.rank() == brute_rank(rows, p)
        if p > 2:
            # ranked for GF(p), the integer rows give the rank mod p either way
            assert len(_pivots_q(sparse, p)[0]) == mod_p.rank()
        if unimodular:
            assert mod_p.rank() == len(pivots)
            if p > 2:  # the mod-p kernel also leads with the lowest column
                assert set(mod_p.pivots) == set(pivots)


ZERO_FREE_ROWS = st.lists(
    st.dictionaries(st.integers(0, 5), st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=6), max_size=7
)


@given(ZERO_FREE_ROWS)
@settings(max_examples=200, deadline=None)
def test_pivot_kernels_never_write_their_rows(rows):
    # a row that becomes a pivot as it is is kept without a copy, and later
    # rows are reduced against it: it must still be read only
    before = deepcopy(rows)
    dense = [[row.get(j, 0) for j in range(6)] for row in rows]
    for p in (None, 3, 5):
        rank_of = rank_bareiss if p is None else lambda a: dense_rank_mod_p(a, p)
        first = sorted(_pivots_q(rows, p)[0])
        assert rows == before
        assert sorted(_pivots_q(rows, p)[0]) == first
        assert rows == before
        assert len(first) == rank_of(dense)
        assert rank_of([[row[j] for j in first] for row in dense]) == len(first)


def _zero_free(rows) -> bool:
    return all(isinstance(row, dict) and all(row.values()) for row in rows)


def test_every_row_producer_makes_zero_free_rows():
    # the kernel form _pivots_q reads: dict rows with no zero entry; the
    # limits differentials are made by _functor_matrix
    for _, K in named_corpus():
        levels = K.levels()
        for lower, upper in zip(levels, levels[1:]):
            assert _zero_free(_coboundary_rows(list(lower), list(upper), None))
            assert _zero_free(_coboundary_rows(list(lower), list(upper), 3))
    for field in (QQ, GF3):
        assert _zero_free(ExactMatrix(field, [[0, 2, -3], [3, 0, 0], [0, 0, 0]]).sparse_rows)
        assert _zero_free(ExactMatrix(field, [{0: 0, 1: 3}, {2: -6}, {}], shape=(3, 3)).sparse_rows)
        for mat in limits_complex(rp2_minimal(), field, 2):
            assert _zero_free(mat.sparse_rows)


def test_d_squared_check_depends_on_the_field():
    # d1 d0 = [2]: zero over GF(2) only
    for field in (QQ, GF3, GF5):
        d0 = transposed(field, [[1], [1]])
        d1 = transposed(field, [[1, 1]])
        with pytest.raises(NotAComplex) as err:
            cohomology_dims([d0, d1])
        assert err.value.position == 0
    d0 = transposed(GF2, [[1], [1]])
    d1 = transposed(GF2, [[1, 1]])
    assert cohomology_dims([d0, d1]) == [0, 0, 0]
    # d1 d0 = [3]: zero over GF(3) only
    for field in (QQ, GF2, GF5):
        with pytest.raises(NotAComplex):
            cohomology_dims([transposed(field, [[1], [1], [1]]), transposed(field, [[1, 1, 1]])])
    d0 = transposed(GF3, [[1], [1], [1]])
    d1 = transposed(GF3, [[1, 1, 1]])
    assert cohomology_dims([d0, d1]) == [0, 1, 0]


tiny_entries = st.sampled_from([-2, -1, 0, 0, 1, 2])


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=120, deadline=None)
def test_cohomology_dims_raises_exactly_when_not_a_complex(n0, n1, n2, data, field):
    a = [[data.draw(tiny_entries) for _ in range(n0)] for _ in range(n1)]
    b = [[data.draw(tiny_entries) for _ in range(n1)] for _ in range(n2)]
    d0, d1 = transposed(field, a), transposed(field, b)
    p = field.p
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in b]
    nonzero = any(x % p if p else x for row in product for x in row)
    if nonzero:
        with pytest.raises(NotAComplex) as err:
            cohomology_dims([d0, d1])
        assert err.value.position == 0
    else:
        r0, r1 = brute_rank(a, p), brute_rank(b, p)
        assert cohomology_dims([d0, d1]) == [n0 - r0, n1 - r1 - r0, n2 - r1]
