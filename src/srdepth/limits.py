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
  support in degree 0).  That order complex is the barycentric subdivision
  of the star, so a star block is the cohomology of the star's own cochain
  complex: tens of faces instead of thousands of chains.  The whole-poset
  block stays on the literal order complex, assembled from the flags, so
  the limit decomposition check, which compares it with K's own cochains,
  compares two different complexes and is not true by construction.
  Blocks are computed with exact ranks and combined with multiplicities.
  This is what makes degree bounds like 4m affordable.

Both paths are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .cohomology import _cochain_dims, reduced_cohomology
from .complexes import SimplicialComplex, _popcount
from .errors import BadParameter, InternalInvariantError, TooLarge
from .face_ring import graded_dim, monomial_basis, star_basis
from .linalg import ExactMatrix, FieldSpec, _product_is_zero, cohomology_dims


FLAG_BOUND = 100_000  # flags of the order complex that flag_chains may list


def _nonempty_faces(K: SimplicialComplex) -> list[int]:
    return [f for f in K.face_masks if f]


def _flag_count(K: SimplicialComplex) -> int:
    """Number of strictly increasing chains of nonempty faces, from the
    f-vector: a face of cardinality k ends a_k = 1 + sum_{0<j<k} C(k, j) a_j
    of them."""
    f_vector = K.f_vector
    a = [0]
    for k in range(1, len(f_vector)):
        a.append(1 + sum(comb(k, j) * a[j] for j in range(1, k)))
    return sum(f * n for f, n in zip(f_vector, a))


def flag_chains(K: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """Strictly increasing chains of nonempty faces, grouped by length-1 and
    ordered lexicographically in the (cardinality, vertex-tuple) face order.
    Raises ``TooLarge`` above ``FLAG_BOUND`` chains."""
    count = _flag_count(K)
    if count > FLAG_BOUND:
        raise TooLarge(f"the order complex has {count} flags; more than {FLAG_BOUND}")
    objs = _nonempty_faces(K)
    n = len(objs)
    above = [[] for _ in range(n)]
    for i, a in enumerate(objs):
        for j in range(i + 1, n):
            b = objs[j]
            if a & b == a and a != b:
                above[i].append(j)
    out: list[list[tuple[int, ...]]] = [[] for _ in range(max(K.dim, 0) + 1)]

    def extend(chain_ids):
        length = len(chain_ids)
        out[length - 1].append(tuple(objs[i] for i in chain_ids))
        for j in above[chain_ids[-1]]:
            extend(chain_ids + [j])

    for i in range(n):
        extend([i])
    return out


def _require_vertex(K: SimplicialComplex):
    if K.is_irrelevant:
        raise BadParameter("derived limits need a complex with at least one vertex")


def limits_complex(K: SimplicialComplex, field: FieldSpec, d: int) -> list[ExactMatrix]:
    """Assembled differentials d_0, d_1, ... of the degree-d normalized
    cochain complex.  Row/column order follows flag order, then the lex
    monomial order inside each star block."""
    return _limits_complex_cached(K, field, d)


@lru_cache(maxsize=64)
def _limits_complex_cached(K: SimplicialComplex, field: FieldSpec, d: int) -> list[ExactMatrix]:
    _require_vertex(K)
    flags = flag_chains(K)
    bases = {}
    for level in flags:
        for fl in level:
            if fl[-1] not in bases:
                bases[fl[-1]] = star_basis(K, fl[-1], d)
    index = {face: {e: i for i, e in enumerate(b)} for face, b in bases.items()}

    def offsets(level):
        offs, total = [], 0
        for fl in level:
            offs.append(total)
            total += len(bases[fl[-1]])
        return offs, total

    mats = []
    for n in range(len(flags) - 1):
        src_offs, src_total = offsets(flags[n])
        tgt_offs, tgt_total = offsets(flags[n + 1])
        src_pos = {fl: o for fl, o in zip(flags[n], src_offs)}
        rows = [[0] * src_total for _ in range(tgt_total)]
        for g, g_off in zip(flags[n + 1], tgt_offs):
            tgt_basis = bases[g[-1]]
            for k in range(n + 2):
                f = g[:k] + g[k + 1 :]
                sign = -1 if k % 2 else 1
                f_off = src_pos[f]
                if k <= n:
                    # same last face: identity block
                    for i in range(len(tgt_basis)):
                        rows[g_off + i][f_off + i] += sign
                else:
                    # restriction from star(g[n]) into star(g[n+1])
                    tgt_idx = index[g[-1]]
                    for j, e in enumerate(bases[f[-1]]):
                        i = tgt_idx.get(e)
                        if i is not None:
                            rows[g_off + i][f_off + j] += sign
        mats.append(ExactMatrix(field, rows, shape=(tgt_total, src_total)))
    if not mats:
        _, c0 = offsets(flags[0])
        mats = [ExactMatrix.zeros(field, 0, c0)]
    return mats


def rho_matrix(K: SimplicialComplex, field: FieldSpec, d: int) -> ExactMatrix:
    """Matrix of the comparison map from the degree-d piece of the face ring
    into C^0: a monomial goes to its family of star restrictions."""
    _require_vertex(K)
    basis = monomial_basis(K, d)
    objs = _nonempty_faces(K)
    blocks = [star_basis(K, f, d) for f in objs]
    indexes = [{e: i for i, e in enumerate(b)} for b in blocks]
    total = sum(len(b) for b in blocks)
    rows = [[0] * len(basis) for _ in range(total)]
    off = 0
    for block, idx in zip(blocks, indexes):
        for j, e in enumerate(basis):
            i = idx.get(e)
            if i is not None:
                rows[off + i][j] = 1
        off += len(block)
    return ExactMatrix(field, rows, shape=(total, len(basis)))


def rho(K: SimplicialComplex, field: FieldSpec, d: int) -> tuple[int, int]:
    """(kernel, cokernel) dimensions of the comparison map into lim^0 in
    degree d, computed from the assembled matrices."""
    mats = limits_complex(K, field, d)
    r_mat = rho_matrix(K, field, d)
    if not _product_is_zero(mats[0], r_mat):
        raise InternalInvariantError("comparison map does not land in lim^0")
    lim0 = mats[0].kernel_dim()
    r = r_mat.rank()
    return r_mat.cols - r, lim0 - r


# -- the blocks of the grouped engine -------------------------------------------


def _whole_block(K: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Unreduced cohomology dims (degrees 0, 1, ...) of the order complex of
    K's nonempty-face poset, assembled literally from its flags: a flag is
    the simplex on the ids of its faces."""
    bit = {f: 1 << i for i, f in enumerate(_nonempty_faces(K))}
    levels = [[sum(bit[f] for f in fl) for fl in level] for level in flag_chains(K)]
    return tuple(_cochain_dims(levels, field))


def _star_block(K: SimplicialComplex, f: int, field: FieldSpec) -> tuple[int, ...]:
    """Unreduced cohomology dims (degrees 0, 1, ...) of the order complex of
    the nonempty-face poset of star(f).  That order complex is the
    barycentric subdivision of the star, so the star's own cochains give it."""
    dims = reduced_cohomology(K.star_by_mask(f), field).dims
    if dims.get(-1, 0):
        raise InternalInvariantError("augmentation survived on a nonempty star")
    out = [dims.get(i, 0) for i in range(max(dims) + 1)]
    out[0] += 1
    return tuple(out)


@dataclass
class LimitsProfile:
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

    def l_is_zero(self, i: int) -> bool:
        return self.l_total(i) == 0


def default_degree_bound(K: SimplicialComplex) -> int:
    return 4 * K.m


def derived_limit_dims(
    K: SimplicialComplex,
    field: FieldSpec,
    d_max: int | None = None,
    method: str = "grouped",
) -> LimitsProfile:
    """Derived limit dimensions for all even internal degrees up to d_max.

    ``grouped`` (default) evaluates the monomial-block decomposition of the
    assembled complex; ``direct`` runs on the literal matrices and is meant
    for small inputs and cross-checks.
    """
    _require_vertex(K)
    if d_max is None:
        d_max = default_degree_bound(K)
    if d_max < 0:
        raise BadParameter(f"the top degree must be nonnegative, got {d_max}")
    degrees = list(range(0, d_max + 1, 2))
    top = max(K.dim, 0)
    if method == "direct":
        lim = {i: {} for i in range(top + 1)}
        rker, rcok = {}, {}
        for d in degrees:
            mats = limits_complex(K, field, d)
            dims = cohomology_dims(mats)
            for i in range(top + 1):
                lim[i][d] = dims[i] if i < len(dims) else 0
            rker[d], rcok[d] = rho(K, field, d)
        return LimitsProfile(field, d_max, lim, rker, rcok)
    if method != "grouped":
        raise BadParameter(f"unknown method {method!r}")

    whole = _whole_block(K, field)
    star_h = {f: _star_block(K, f, field) for f in _nonempty_faces(K)}
    lim = {i: {} for i in range(top + 1)}
    rker, rcok = {}, {}
    for d in degrees:
        t = d // 2
        for i in range(top + 1):
            if d == 0:
                lim[i][d] = whole[i] if i < len(whole) else 0
            else:
                lim[i][d] = sum(
                    comb(t - 1, _popcount(f) - 1) * (h[i] if i < len(h) else 0)
                    for f, h in star_h.items()
                    if _popcount(f) <= t
                )
        # every monomial block carries the nonzero constant family, so the
        # comparison map has full column rank
        rker[d] = 0
        rcok[d] = lim[0][d] - graded_dim(K, d)
    return LimitsProfile(field, d_max, lim, rker, rcok)


@dataclass
class LimitDecompositionReport:
    """Outcome of checking the computed limits against the face ring plus
    cohomology decomposition: lim^0 is the graded ring with an extra H^0
    summand in degree 0, higher limits are the complex's cohomology
    concentrated in degree 0."""

    field: FieldSpec
    d_max: int
    passed: bool
    first_failure: tuple | None  # (i, degree, got, expected)
    profile: LimitsProfile


def verify_limit_decomposition(
    K: SimplicialComplex,
    field: FieldSpec,
    d_max: int | None = None,
    method: str = "grouped",
) -> LimitDecompositionReport:
    _require_vertex(K)
    profile = derived_limit_dims(K, field, d_max, method=method)
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
    return LimitDecompositionReport(field, profile.d_max, failure is None, failure, profile)


# -- unnormalized complex (spot check for the normalization step) ---------------


def unnormalized_h01(K: SimplicialComplex, field: FieldSpec, d: int) -> tuple[int, int]:
    """H^0 and H^1 of the full chain-indexed complex (weakly increasing
    flags, identities allowed) truncated after three terms."""
    _require_vertex(K)
    objs = _nonempty_faces(K)
    leq = {a: [b for b in objs if a & b == a] for a in objs}
    c1 = [(a,) for a in objs]
    c2 = [(a, b) for a in objs for b in leq[a]]
    c3 = [(a, b, c) for a in objs for b in leq[a] for c in leq[b]]
    bases = {f: star_basis(K, f, d) for f in objs}
    index = {f: {e: i for i, e in enumerate(b)} for f, b in bases.items()}

    def offsets(chains):
        offs, total = {}, 0
        for ch in chains:
            offs[ch] = total
            total += len(bases[ch[-1]])
        return offs, total

    def assemble(src_chains, tgt_chains):
        src_offs, src_total = offsets(src_chains)
        tgt_offs, tgt_total = offsets(tgt_chains)
        rows = [[0] * src_total for _ in range(tgt_total)]
        for g in tgt_chains:
            g_off = tgt_offs[g]
            n1 = len(g)
            for k in range(n1):
                f = g[:k] + g[k + 1 :]
                sign = -1 if k % 2 else 1
                f_off = src_offs[f]
                if k < n1 - 1:
                    for i in range(len(bases[g[-1]])):
                        rows[g_off + i][f_off + i] += sign
                else:
                    tgt_idx = index[g[-1]]
                    for j, e in enumerate(bases[f[-1]]):
                        i = tgt_idx.get(e)
                        if i is not None:
                            rows[g_off + i][f_off + j] += sign
        return ExactMatrix(field, rows, shape=(tgt_total, src_total))

    d0 = assemble(c1, c2)
    d1 = assemble(c2, c3)
    dims = cohomology_dims([d0, d1])
    return dims[0], dims[1]
