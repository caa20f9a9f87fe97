"""Higher derived limits of the star functor over the poset of nonempty faces.

The functor assigns to each nonempty face the face ring of its star and to
each inclusion the restriction surjection.  Derived limits are computed
degreewise from the normalized cochain complex whose n-th term is the
product, over strictly increasing flags of n+1 nonempty faces, of the
degree-d piece of the star ring at the flag's last face; the differential
is the alternating sum of flag-deletion maps, with the last summand routed
through the restriction map.

Two evaluation paths are provided and are exact:

* ``direct`` assembles the matrices literally (``limits_complex``) and runs
  exact cohomology on them; fine at small sizes.
* ``grouped`` exploits that the differential never mixes monomials: the
  complex splits into one block per monomial, and the block of a monomial
  with support tau is the simplicial cochain complex of the order complex
  of the nonempty-face poset of star(tau) (of the whole poset for the empty
  support in degree 0).  A star of a nonempty face is a cone, so is that
  order complex, and the block has the cohomology of a point (Bjorner,
  "Topological methods", 1995, section 10): in degree d > 0, lim^0 is the
  degree-d piece of the face ring, counted from the f-vector, and the
  higher limits vanish.  Only the whole-poset block is ranked, on the
  literal order complex of the flags, so in degree 0 the limit
  decomposition check compares two different complexes; in degree d > 0
  it restates the decomposition, which the direct path checks.

Both paths are cross-checked in the test suite.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .cohomology import _cochain_dims, reduced_cohomology
from .complexes import SimplicialComplex
from .errors import BadParameter, InternalInvariantError, TooLarge, _quote, _require_int
from .face_ring import _check_degree, graded_dim, monomial_basis, star_basis
from .linalg import ExactMatrix, FieldSpec, _product_is_zero, _require_field, cohomology_dims


# most flags flag_chains may list, most values a limits report may list, and
# most basis vectors the direct path may assemble in one degree
FLAG_BOUND = 100_000


def _nonempty_faces(K: SimplicialComplex) -> list[int]:
    return [f for f in K.face_masks if f]


def _direct_size(K: SimplicialComplex, d: int) -> int:
    """Basis vectors in all the terms of the degree-d limit complex, from the
    f-vector; in degree 0 that is the number of strictly increasing chains
    of nonempty faces, and it does not decrease in d.  A face of cardinality k
    ends a_k = 1 + sum_{0<j<k} C(k, j) a_j flags, and a flag ending at sigma
    carries the constant if t = d/2 is 0, else C(t-1, |tau|-1) monomials on
    each nonempty face tau of star(sigma).  A face of k vertices is
    sigma | tau for C(k, i) C(i, j+i-k) pairs with |sigma| = i, |tau| = j."""
    t = _check_degree(d)
    f_vector, a = K.f_vector, [0]
    for k in range(1, len(f_vector)):
        a.append(1 + sum(comb(k, j) * a[j] for j in range(1, k)))
    if t == 0:
        return sum(f * n for f, n in zip(f_vector, a))
    return sum(
        f * a[i] * comb(k, i) * comb(i, j + i - k) * comb(t - 1, j - 1)
        for k, f in enumerate(f_vector) for i in range(1, k + 1) for j in range(max(k - i, 1), k + 1)
    )


def _check_direct_size(K: SimplicialComplex, d: int) -> None:
    if (count := _direct_size(K, d)) > FLAG_BOUND:
        raise TooLarge(f"the degree-{d} limit complex has {count} basis vectors; more than {FLAG_BOUND}")


def flag_chains(K: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """Strictly increasing chains of nonempty faces, grouped by length-1 and
    ordered lexicographically in the (cardinality, vertex-tuple) face order.
    Level L+1 extends each chain of level L by the faces above its last
    face; those come after it in the canonical order, so every level is in
    lexicographic order as built.  Raises ``TooLarge`` above ``FLAG_BOUND``
    chains."""
    count = _direct_size(K, 0)
    if count > FLAG_BOUND:
        raise TooLarge(f"the order complex has {count} flags; more than {FLAG_BOUND}")
    objs = _nonempty_faces(K)
    above = {a: [b for b in objs if b & a == a and b != a] for a in objs}
    level = [(a,) for a in objs]
    out = [level]
    for _ in range(K.dim):
        level = [chain + (b,) for chain in level for b in above[chain[-1]]]
        out.append(level)
    return out


def _require_vertex(K: SimplicialComplex):
    if K.is_irrelevant:
        raise BadParameter("derived limits need a complex with at least one vertex")


def limits_complex(K: SimplicialComplex, field: FieldSpec, d: int) -> list[ExactMatrix]:
    """Assembled differentials d_0, d_1, ... of the degree-d normalized
    cochain complex, d_n of shape (dim C^n, dim C^{n+1}); rows and columns
    follow flag order, then the lex monomial order inside each star block;
    more than ``FLAG_BOUND`` basis vectors in all raise ``TooLarge`` first."""
    _require_field(field)
    _require_vertex(K)
    _check_direct_size(K, d)
    index = _star_index(K, d)
    flags = flag_chains(K)
    levels = list(zip(flags, flags[1:])) or [(flags[0], [])]
    return [_functor_matrix(field, index, src, tgt) for src, tgt in levels]


def _star_index(K: SimplicialComplex, d: int) -> dict[int, dict[tuple[int, ...], int]]:
    """For each nonempty face, the position of each monomial in the
    degree-d basis of its star ring."""
    return {
        f: {e: i for i, e in enumerate(star_basis(K, f, d))} for f in _nonempty_faces(K)
    }


def _functor_matrix(field: FieldSpec, index, src_chains, tgt_chains) -> ExactMatrix:
    """Degree-d differential from the cochains on ``src_chains`` to those on
    ``tgt_chains``, chains of nonempty faces one longer, with ``index`` the
    star bases of :func:`_star_index`: the alternating sum of the deletions,
    where deleting entry k of a target chain g restricts from the star of
    the shorter chain's last face into the star of g's last face (the
    identity when that face is unchanged).  The star of g's last face is the
    smaller one, so each of its monomials lies in the source basis, and the
    deletion puts its sign at that monomial's row and column; on a weakly
    increasing chain (a, a) the two deletions cancel.  One row per source
    and one column per target basis vector, each in chain order, then the
    lex monomial order of the star block."""
    offset, n = {}, 0
    for f in src_chains:
        offset[f] = n
        n += len(index[f[-1]])
    rows = [{} for _ in range(n)]
    col = 0
    for g in tgt_chains:
        tgt = index[g[-1]]
        for k in range(len(g)):
            f = g[:k] + g[k + 1 :]
            sign = -1 if k % 2 else 1
            off, src = offset[f], index[f[-1]]
            for j, e in enumerate(tgt, col):
                row = rows[off + src[e]]
                row[j] = row.get(j, 0) + sign
        col += len(tgt)
    return ExactMatrix(field, rows, shape=(n, col))


def _rho_dims(
    K: SimplicialComplex, field: FieldSpec, d: int, d0: ExactMatrix, lim0: int
) -> tuple[int, int]:
    """(kernel, cokernel) dimensions of the comparison map r from the
    degree-d piece of the face ring into lim^0 = ker d0, of dimension
    ``lim0``: the row of a monomial has a 1 at each star basis vector equal
    to it, its family of star restrictions, and r d0 must vanish."""
    index = {e: i for i, e in enumerate(monomial_basis(K, d))}
    row_of = [index[e] for f in _nonempty_faces(K) for e in star_basis(K, f, d)]
    rows = [{} for _ in index]
    for j, i in enumerate(row_of):
        rows[i][j] = 1
    r_mat = ExactMatrix(field, rows, shape=(len(rows), len(row_of)))
    if not _product_is_zero(r_mat, d0):
        raise InternalInvariantError("comparison map does not land in lim^0")
    r = r_mat.rank()
    return r_mat.rows - r, lim0 - r


def rho(K: SimplicialComplex, field: FieldSpec, d: int) -> tuple[int, int]:
    """(kernel, cokernel) dimensions of the comparison map into lim^0 in
    degree d, computed from the assembled matrices."""
    d0 = limits_complex(K, field, d)[0]
    return _rho_dims(K, field, d, d0, d0.rows - d0.rank())


# -- the blocks of the grouped engine -------------------------------------------


def _whole_block(K: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Unreduced cohomology dims (degrees 0, 1, ...) of the order complex of
    K's nonempty-face poset, assembled literally from its flags: a flag is
    the simplex on the ids of its faces."""
    bit = {f: 1 << i for i, f in enumerate(_nonempty_faces(K))}
    levels = [[sum(bit[f] for f in fl) for fl in level] for level in flag_chains(K)]
    return tuple(_cochain_dims(levels, field))


class LimitsProfile(NamedTuple):
    """Degreewise dimensions of the derived limits and of the comparison
    map's kernel/cokernel (the modules indexed -1 and 0 in the vanishing
    criterion)."""

    field: FieldSpec
    d_max: int
    lim: dict[int, dict[int, int]]
    rho_kernel: dict[int, int]
    rho_cokernel: dict[int, int]

    def l_total(self, i: int) -> int:
        if i == -1:
            return sum(self.rho_kernel.values())
        if i == 0:
            return sum(self.rho_cokernel.values())
        return sum(self.lim.get(i, {}).values())


def default_degree_bound(K: SimplicialComplex) -> int:
    return 4 * K.m


def derived_limit_dims(
    K: SimplicialComplex,
    field: FieldSpec,
    d_max: int | None = None,
    method: str = "grouped",
) -> LimitsProfile:
    """Derived limit dimensions for all even internal degrees up to d_max.

    ``grouped`` (default) ranks only the whole-poset block of degree 0 and
    reads every degree d > 0 off the f-vector, as its blocks are cones;
    ``direct`` runs on the literal matrices in every degree and is meant
    for small inputs and cross-checks.  Both refuse, before any work, a
    profile of more than ``FLAG_BOUND`` values (even degrees times lim^i),
    and ``direct`` refuses a top degree whose limit complex holds more than
    ``FLAG_BOUND`` basis vectors.
    """
    _require_field(field)
    _require_vertex(K)
    if d_max is None:
        d_max = default_degree_bound(K)
    _require_int(d_max, 0, "the top degree")
    top = max(K.dim, 0)
    values = (d_max // 2 + 1) * (top + 1)
    if values > FLAG_BOUND:
        raise TooLarge(f"the limits report would list {_quote(values)} values; more than {FLAG_BOUND}")
    degrees = list(range(0, d_max + 1, 2))
    if method == "direct":
        _check_direct_size(K, degrees[-1])
        lim = {i: {} for i in range(top + 1)}
        rker, rcok = {}, {}
        for d in degrees:
            mats = limits_complex(K, field, d)
            dims = cohomology_dims(mats)
            for i in range(top + 1):
                lim[i][d] = dims[i] if i < len(dims) else 0
            rker[d], rcok[d] = _rho_dims(K, field, d, mats[0], dims[0])
        return LimitsProfile(field, d_max, lim, rker, rcok)
    if method != "grouped":
        raise BadParameter(f"unknown method {_quote(method)}")

    # the block of a nonempty support is the order complex of a star, a cone:
    # for d > 0, lim^0_d is the degree-d ring and the higher limits vanish
    lim = {i: dict.fromkeys(degrees, 0) for i in range(top + 1)}
    lim[0] = {d: graded_dim(K, d) for d in degrees}
    for i, h in enumerate(_whole_block(K, field)):
        lim[i][0] = h
    # every monomial block carries the nonzero constant family, so the
    # comparison map has full column rank; its cokernel is the extra H^0
    # of the whole block
    rker = dict.fromkeys(degrees, 0)
    rcok = {**rker, 0: lim[0][0] - 1}
    return LimitsProfile(field, d_max, lim, rker, rcok)


class LimitDecompositionReport(NamedTuple):
    """Outcome of checking the computed limits against the face ring plus
    cohomology decomposition: lim^0 is the graded ring with an extra H^0
    summand in degree 0, higher limits are the complex's cohomology
    concentrated in degree 0.  The field and degree bound are the
    profile's."""

    passed: bool
    first_failure: tuple | None  # (i, degree, got, expected)
    profile: LimitsProfile


def verify_limit_decomposition(
    K: SimplicialComplex,
    field: FieldSpec,
    d_max: int | None = None,
) -> LimitDecompositionReport:
    _require_vertex(K)
    profile = derived_limit_dims(K, field, d_max)
    h = reduced_cohomology(K, field).dims
    failure = None
    for d in sorted(profile.lim[0]):
        expected0 = graded_dim(K, d) + (h.get(0, 0) if d == 0 else 0)
        if profile.lim[0][d] != expected0:
            failure = (0, d, profile.lim[0][d], expected0)
            break
        for i in range(1, max(K.dim, 0) + 1):
            expected = h.get(i, 0) if d == 0 else 0
            if profile.lim[i][d] != expected:
                failure = (i, d, profile.lim[i][d], expected)
                break
        if failure:
            break
    return LimitDecompositionReport(failure is None, failure, profile)
