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
  support in degree 0).  Each block is computed honestly - exact pair
  reductions of the chain complex followed by exact ranks - and blocks are
  combined with multiplicities.  This is what makes degree bounds like 4m
  affordable.

Both paths are cross-checked in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .cohomology import _cochain_dims, _levels, reduced_cohomology
from .complexes import SimplicialComplex, _popcount
from .errors import BadParameter, InternalInvariantError
from .face_ring import graded_dim, monomial_basis, star_basis
from .linalg import ExactMatrix, FieldSpec, _product_is_zero, cohomology_dims


def _nonempty_faces(K: SimplicialComplex) -> list[int]:
    return [f for f in K.face_masks if f]


def flag_chains(K: SimplicialComplex) -> list[list[tuple[int, ...]]]:
    """Strictly increasing chains of nonempty faces, grouped by length-1 and
    ordered lexicographically in the (cardinality, vertex-tuple) face order."""
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


# -- order-complex homology of face posets (the grouped engine) -----------------


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


def _remainder_reduced_dims(alive, field: FieldSpec) -> dict[int, int]:
    """Reduced homology dims of what survives the pair reductions, via exact
    ranks on the restricted incidence matrices (a chain cell is a simplex
    on element ids, so its incidences are the simplicial ones)."""
    if not alive:
        return {}
    lo = min(_popcount(c) for c in alive)
    levels = _levels(sorted(alive), max(_popcount(c) for c in alive))[lo:]
    dims = _cochain_dims(levels, field)
    return {lo - 1 + i: h for i, h in enumerate(dims) if h}


@lru_cache(maxsize=100_000)
def _poset_nerve_unreduced(poset: tuple[int, ...], field: FieldSpec) -> tuple[int, ...]:
    """Unreduced cohomology dims (degrees 0, 1, ...) of the order complex of
    a nonempty inclusion poset of faces."""
    cells, comp = _chain_cells(poset)
    alive = _reduce_cells(cells, comp)
    reduced = _remainder_reduced_dims(alive, field)
    if reduced.get(-1, 0):
        raise InternalInvariantError("augmentation cell survived on a nonempty poset")
    top = max(reduced, default=0)
    dims = [reduced.get(i, 0) for i in range(top + 1)]
    dims[0] += 1  # unreduced degree 0 of a nonempty complex
    return tuple(dims)


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

    whole = _poset_nerve_unreduced(tuple(_nonempty_faces(K)), field)
    star_h = {}
    for f in _nonempty_faces(K):
        star_h[f] = _poset_nerve_unreduced(tuple(_nonempty_faces(K.star_by_mask(f))), field)
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
