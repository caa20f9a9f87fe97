"""Independent reference computations, shared input strategies and a
shared mutation used only by the test suite."""

import importlib
import random
from math import comb
from typing import NamedTuple

from hypothesis import strategies as st

from srdepth import (
    GF2,
    GF3,
    QQ,
    SimplicialComplex,
    depth_reisner,
    join,
    random_complex,
    reduced_cohomology,
    validate,
)
from srdepth.cohomology import _coboundaries, _cochain_dims
from srdepth.complexes import _popcount
from srdepth.errors import _require_int
from srdepth.limits import _functor_matrix, _nonempty_faces, _require_vertex, _star_index
from srdepth.linalg import _pivots_gf2, _pivots_modp, _pivots_q, cohomology_dims


def flip_one_sign(monkeypatch, card):
    """Flip the first sign in the first row of every signed simplicial
    coboundary (every field but GF(2)) out of cardinality ``card``: that
    breaks d^2 = 0 next to it over Z and mod 3 (the sum at the flipped entry
    becomes +-2), not mod 2."""
    module = importlib.import_module("srdepth.cohomology")
    rows = module._coboundary_rows

    def flipped(lower, upper, p):
        out = rows(lower, upper, p)
        if lower and lower[0].bit_count() == card:
            row = out[0]
            j = min(row)
            row[j] = -row[j]
        return out

    monkeypatch.setattr(module, "_coboundary_rows", flipped)


def moore_space_mod3():
    """Filled 9-gon glued onto a 3-cycle by a degree-three boundary map:
    first homology is 3-torsion, so only characteristic 3 sees it."""
    tris = []
    inner = lambda i: 10 + ((i - 1) % 3)  # noqa: E731
    for i in range(1, 10):
        ip = i % 9 + 1
        tris.append([i, ip, inner(i)])
        tris.append([ip, inner(i), inner(ip)])
        tris.append([i, ip, 13])
    return validate(tris, 13)


def _bits(mask):
    while mask:
        yield mask & -mask
        mask &= mask - 1


def flipped_sphere(d, m, moves, seed):
    """A PL d-sphere on the vertices 1..m, d >= 1 and m >= d + 2, seeded:
    the boundary of the (d + 1)-simplex, with random facets subdivided
    stellarly up to m vertices, then ``moves`` random bistellar moves
    (Pachner), each replacing A * dB by dA * B for a face A of 2..d
    vertices whose link is the boundary dB of a simplex B that is no face.
    Every move keeps the PL type, so the result is Cohen-Macaulay over
    every field and its depth is d + 1; unlike the simplex boundaries, its
    links fall into many relabeling classes."""
    _require_int(d, 1, "d")
    _require_int(m, d + 2, "m")
    rng = random.Random(seed)
    full = (1 << (d + 2)) - 1
    facets = {full ^ b for b in _bits(full)}
    for v in range(d + 2, m):
        f = rng.choice(sorted(facets))
        facets.remove(f)
        facets.update(f ^ b | 1 << v for b in _bits(f))
    for _ in range(moves):
        K = SimplicialComplex(facets)
        faces = [a for a in K.face_masks if 2 <= _popcount(a) <= d]
        for a in rng.sample(faces, len(faces)):
            link = K.link_by_mask(a)
            b = sum(1 << (v - 1) for v in link.vertices)
            k = _popcount(b)
            if k + _popcount(a) == d + 2 and len(link.face_masks) == 2**k - 1 and not K.has_face_mask(b):
                facets.difference_update(a | b ^ x for x in _bits(b))
                facets.update(a ^ y | b for y in _bits(a))
                break
    return SimplicialComplex(facets)


def join_additivity_observations(pairs, field):
    """Soft regression check: depth of a join against the sum of depths.
    Returns a list of (names, got, expected) mismatches for manual review."""
    mismatches = []
    for (name_a, a), (name_b, b) in pairs:
        got = depth_reisner(join(a, b), field)
        expected = depth_reisner(a, field) + depth_reisner(b, field)
        if got != expected:
            mismatches.append(((name_a, name_b), got, expected))
    return mismatches


def link_by_scan(K, s):
    """The link of the face with mask ``s`` by its definition, from one scan
    of K: the faces disjoint from it whose union with it is a face."""
    return SimplicialComplex([t for t in K.face_masks if not t & s and K.has_face_mask(t | s)])


def depth_by_face_filters(K, field):
    """The point criterion without caps or an early end: dim K + 1, or less
    if H~*(K) or the cohomology of some face filter {f >= sigma} (K's levels
    filtered per face, ranked on their own by ``_cochain_dims``) has a
    lowest nonzero degree c, which bounds the depth by c + 1."""
    firsts = [reduced_cohomology(K, field).first_nonzero()]
    levels = K.levels()[1:]
    for s in K.face_masks[1:]:
        rel = [[f for f in level if f & s == s] for level in levels]
        firsts.append(next((i for i, h in enumerate(_cochain_dims(rel, field)) if h), None))
    return min([K.krull_dim] + [c + 1 for c in firsts if c is not None])


def own_kernel_rank(rows, p):
    """The rank of sparse kernel-form rows by the field's own kernel: the
    XOR basis over GF(2), reduction of the residues mod an odd p, and
    fraction-free reduction over Z for Q; never the Z-first pass mod p."""
    if p == 2:
        return len(_pivots_gf2(rows))
    return len(_pivots_q(rows)[0] if p is None else _pivots_modp(rows, p))


def topological_walk_per_field(K, field):
    """The point criterion's capped walk, as ``depth_topological`` walks
    it, but with every face filter's rows of K's coboundary ranked by the
    field's own kernel and without clearing: as the filter is closed
    upward, H^n = #rows_n - rank d_n - rank d_{n-1}."""
    r = K.krull_dim
    c = reduced_cohomology(K, field, r - 2).first_nonzero()
    if c is not None:
        r = c + 1
    levels = K.levels()[1 : r + 1]
    mats = [m.sparse_rows for m in _coboundaries(levels, field)]
    filters, card, at = [[0, range(1)] + [range(len(level)) for level in levels[:-1]]], 0, 0
    for mask in K.face_masks[1:]:
        s = _popcount(mask)
        if s >= r:
            break
        if s > card:
            parents, filters, card, at = filters, [], s, 0
        top = 1 << (mask.bit_length() - 1)
        while parents[at][0] != mask ^ top:
            at += 1
        rows = [
            [i for i in ids if level[i] & top]
            for ids, level in zip(parents[at][2:], levels[s - 1 : r - 1])
        ]
        filters.append([mask] + rows)
        ids, prev = [()] * (s - 1) + rows, 0
        for n in range(r - 1):  # degrees 0 .. r - 2
            rank = own_kernel_rank([mats[n][i] for i in ids[n]], field.p)
            if len(ids[n]) - rank - prev:
                r = n + 1
                break
            prev = rank
    return r


def unnormalized_h01(K, field, d):
    """H^0 and H^1 of the full chain-indexed limits complex (weakly
    increasing flags, identities allowed) truncated after three terms: a
    spot check of the normalization step."""
    _require_vertex(K)
    objs = _nonempty_faces(K)
    leq = {a: [b for b in objs if a & b == a] for a in objs}
    c1 = [(a,) for a in objs]
    c2 = [(a, b) for a in objs for b in leq[a]]
    c3 = [(a, b, c) for a in objs for b in leq[a] for c in leq[b]]
    index = _star_index(K, d)
    d0 = _functor_matrix(field, index, c1, c2)
    d1 = _functor_matrix(field, index, c2, c3)
    dims = cohomology_dims([d0, d1])
    return dims[0], dims[1]


def graded_dim_by_faces(K, d):
    """Dimension of the degree-d piece of the face ring, face by face: a
    face on c >= 1 vertices supports C(t - 1, c - 1) monomials of degree
    t = d/2, and degree 0 holds the constants."""
    t = d // 2
    return 1 if t == 0 else sum(comb(t - 1, len(f) - 1) for f in K.faces() if f)


class HilbertSeries(NamedTuple):
    """Rational form numerator(t) / (1 - t^2)^denominator_exponent with the
    denominator exponent equal to the Krull dimension."""

    numerator: tuple[int, ...]  # coefficient of t^k at index k
    denominator_exponent: int

    def expansion(self, d_max: int) -> list[int]:
        """Power series coefficients in degrees 0..d_max, an int >= 0."""
        _require_int(d_max, 0, "the top degree")
        n = self.denominator_exponent
        out = [0] * (d_max + 1)
        for k in range(0, d_max + 1, 2):
            # coefficient of t^k in 1/(1-t^2)^n is comb(k/2 + n - 1, n - 1)
            geom = 1 if n == 0 and k == 0 else (comb(k // 2 + n - 1, n - 1) if n else 0)
            for j, cj in enumerate(self.numerator):
                if cj and j + k <= d_max:
                    out[j + k] += cj * geom
        return out


def hilbert_series(K) -> HilbertSeries:
    """Sum over faces of t^(2 card) / (1-t^2)^card, cleared to the common
    denominator (1-t^2)^(dim K + 1): f_c times t^(2c) (1-t^2)^(n-c), whose
    coefficient of t^(2c+2j) is (-1)^j C(n-c, j)."""
    n = K.krull_dim
    numerator = [0] * (2 * n + 1)
    for c, f in enumerate(K.f_vector):
        for j in range(n - c + 1):
            numerator[2 * c + 2 * j] += (-1) ** j * comb(n - c, j) * f
    while len(numerator) > 1 and numerator[-1] == 0:
        numerator.pop()
    return HilbertSeries(tuple(numerator), n)


def hilbert_expansion_by_faces(K, d_max):
    """Coefficients in degrees 0..d_max of the sum over faces of
    t^(2c) / (1 - t^2)^c, c the face's cardinality, expanded face by face:
    the coefficient of t^(2c + 2k) is C(k + c - 1, c - 1)."""
    out = [0] * (d_max + 1)
    for f in K.faces():
        c = len(f)
        if c == 0:
            out[0] += 1
            continue
        for k in range(0, d_max - 2 * c + 1, 2):
            out[2 * c + k] += comb(k // 2 + c - 1, c - 1)
    return out


def rank_bareiss(rows_in) -> int:
    """Rank by dense fraction-free (Bareiss) elimination on Python integers:
    an independent reference for the sparse kernels."""
    a = [list(row) for row in rows_in]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        piv = a[r][c]
        for i in range(r + 1, rows):
            ai, ar = a[i], a[r]
            f = ai[c]
            if f == 0 and piv == prev:
                continue
            for j in range(cols):
                ai[j] = (ai[j] * piv - f * ar[j]) // prev
        prev = piv
        r += 1
    return r


def dense_rank_mod_p(rows, p):
    """Textbook Gaussian elimination mod p on a dense copy."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] * inv
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def dense_cochain_dims(levels, field):
    """Cohomology dims of the cochain complex on ``levels``, lists of faces
    as sorted vertex tuples of consecutive cardinalities, from dense
    coboundaries with one row per upper face (the entry at tau minus its
    k-th vertex is (-1)^k; faces absent from the lower level get no column)
    and dense ranks: Bareiss over Q, elimination mod p otherwise."""
    ranks = [0]
    for lower, upper in zip(levels, levels[1:]):
        col = {f: j for j, f in enumerate(lower)}
        rows = []
        for tau in upper:
            row = [0] * len(lower)
            for k in range(len(tau)):
                j = col.get(tau[:k] + tau[k + 1 :])
                if j is not None:
                    row[j] = (-1) ** k
            rows.append(row)
        if not rows or not lower:
            ranks.append(0)
        elif field.p is None:
            ranks.append(rank_bareiss(rows))
        else:
            ranks.append(dense_rank_mod_p(rows, field.p))
    ranks.append(0)
    return [len(level) - ranks[n] - ranks[n + 1] for n, level in enumerate(levels)]


# seeded random complexes with up to 8 vertices and dimension up to 3
small_complexes = st.builds(
    random_complex,
    st.integers(1, 8),
    st.integers(0, 3),
    st.sampled_from([0.2, 0.4, 0.6]),
    st.integers(0, 10**6),
)
three_fields = st.sampled_from([GF2, GF3, QQ])
