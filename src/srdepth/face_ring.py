"""The graded face ring of a complex: its graded dimensions and the
monomial bases of the ring and of its star rings.

Generators carry internal degree 2 (the topological grading), so every
graded piece lives in an even degree; degree d holds the monomials of
polynomial degree d/2 whose support is a face.  Monomials are exponent
vectors over the complex's vertex tuple, listed in lexicographic order.
Every count here is binomial: a face of c vertices supports C(t-1, c-1)
monomials of degree t, one per choice of c-1 cut points among 1..t-1.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from .complexes import SimplicialComplex, _verts_of
from .errors import OddDegree, _quote, _require_int


def _check_degree(d: int) -> int:
    if _require_int(d, 0, "an internal degree", OddDegree) % 2:
        raise OddDegree(f"internal degrees are even, got {_quote(d)}")
    return d // 2


def graded_dim(K: SimplicialComplex, d: int) -> int:
    """Dimension of the degree-d piece: monomials of polynomial degree d/2
    with face support.  Field independent."""
    t = _check_degree(d)
    if t == 0:
        return 1
    # a face of cardinality c supports comb(t-1, c-1) monomials of degree t
    return sum(comb(t - 1, c - 1) * f for c, f in enumerate(K.f_vector) if c)


def _monomials(vertices: tuple[int, ...], support_masks: Iterable[int], t: int):
    """Exponent vectors over `vertices` of degree t supported on the given
    faces, in lexicographic order.  On a face of c vertices they are the
    (c-1)-subsets of the cut points 1..t-1: cutting 0..t there gives the
    c positive exponents."""
    if t == 0:
        return [(0,) * len(vertices)]
    pos = {v: i for i, v in enumerate(vertices)}
    out = []
    for f in support_masks:
        if not f:
            continue
        idxs = [pos[v] for v in _verts_of(f)]
        for cuts in combinations(range(1, t), len(idxs) - 1):
            e = [0] * len(vertices)
            for i, lo, hi in zip(idxs, (0,) + cuts, cuts + (t,)):
                e[i] = hi - lo
            out.append(tuple(e))
    out.sort()
    return out


def monomial_basis(K: SimplicialComplex, d: int) -> tuple[tuple[int, ...], ...]:
    """Lex-sorted exponent vectors (over K.vertices) of the degree-d piece."""
    t = _check_degree(d)
    return tuple(_monomials(K.vertices, K.face_masks, t))


def star_basis(K: SimplicialComplex, sigma_mask: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d monomial basis of the face ring of star(sigma), written as
    exponent vectors over the ambient K.vertices.  For sigma <= tau the
    basis of star(tau) is the part of this one supported on star(tau), so
    the restriction between the two rings keeps a monomial or kills it."""
    t = _check_degree(d)
    star = K.star_by_mask(sigma_mask)
    return tuple(_monomials(K.vertices, star.face_masks, t))
