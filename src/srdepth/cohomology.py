"""Reduced, relative and local simplicial cohomology with field coefficients.

Orientation signs come from the global strictly increasing vertex order, so
every matrix is reproducible bit for bit.  The augmented cochain complex
includes the empty face in degree -1; H^{-1} is one-dimensional exactly for
the complex {-}.

Every coboundary is made by ``_coboundaries``, one row per lower face, and
d^2 = 0 is checked there as the next one is made; the cochain kernel of
``linalg`` then clears the rows named by the previous degree's pivots and
ranks the rest.  ``reduced_cohomology`` and ``_cochain_dims`` take an
optional ``until``: they then stop at the lowest nonzero degree or at
``until``, build no higher coboundary, and list only the degrees computed.

Local cohomology at an inner point of a nonempty face sigma is *defined*
through the degree shift by the link and *verified* against the independent
relative computation for the pair (K, contrastar sigma), whose cochains
live on the faces containing sigma; the depth engine ranks their rows of
K's own coboundary and builds no contrastar.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .complexes import SimplicialComplex
from .errors import EmptyFace, NotASubcomplex, _quote, _require_int
from .linalg import ExactMatrix, FieldSpec, _checked, _cohomology, _require_field


def _coboundary_rows(lower: list[int], upper: list[int], p) -> list:
    """Sparse rows of the coboundary from the faces ``lower`` to the faces
    ``upper``, one row per lower face: the row of sigma has (-1)^k at each
    tau in ``upper`` whose k-th vertex completes sigma to tau.  A face of
    ``upper`` with a facet missing from ``lower`` (the subcomplex of a pair)
    gets no entry from it.  Rows are in the kernel form of ``ExactMatrix``."""
    index = {f: i for i, f in enumerate(lower)}.get
    if p == 2:
        rows = [0] * len(lower)
        for j, tau in enumerate(upper):
            bit = 1 << j
            m = tau
            while m:
                b = m & -m
                m ^= b
                i = index(tau ^ b)
                if i is not None:
                    rows[i] |= bit
        return rows
    minus = -1 if p is None else p - 1
    rows = [{} for _ in lower]
    for j, tau in enumerate(upper):
        sign = 1
        m = tau
        while m:
            b = m & -m
            m ^= b
            i = index(tau ^ b)
            if i is not None:
                rows[i][j] = sign
            sign = minus if sign == 1 else 1
    return rows


def _coboundaries(levels: list, field: FieldSpec):
    """The coboundaries between consecutive ``levels``, each made when pulled."""
    return _checked(
        ExactMatrix.from_sparse(field, _coboundary_rows(lower, upper, field.p), len(upper))
        for lower, upper in zip(levels, levels[1:])
    )


def _cochain_dims(levels: list, field: FieldSpec, until: int | None = None) -> list[int]:
    """Cohomology dimensions of the cochain complex with bases ``levels``
    (consecutive cardinalities) and the simplicial coboundary; with
    ``until``, the prefix through the first nonzero one or index ``until``."""
    return _cohomology(_coboundaries(levels + [[]], field), until)


class CohomologyProfile(NamedTuple):
    """Dimensions of reduced cohomology, degree -1 through dim K; ``dims``
    is read-only, as cached profiles are shared."""

    field: FieldSpec
    dims: Mapping[int, int]

    def first_nonzero(self):
        """Smallest degree with nonvanishing cohomology, or None."""
        for i in sorted(self.dims):
            if self.dims[i]:
                return i
        return None


_PREFIXES: dict = {}  # (K, field) -> longest profile computed, least recently used first


def reduced_cohomology(
    K: SimplicialComplex, field: FieldSpec, until: int | None = None
) -> CohomologyProfile:
    """Reduced cohomology of K via the augmented simplicial cochain complex.
    With ``until``, only degrees -1 through the lowest nonzero one or
    ``until``, whichever comes first, are computed and listed.  A memo keeps
    the longest prefix per (K, field) and answers each cap it decides (it is
    complete, holds a nonzero degree, or reaches the cap); ``cache_clear``
    empties it."""
    _require_field(field)
    if until is not None:
        _require_int(until, None, "the cap")
    got = _PREFIXES.pop((K, field), None)
    if got is None or not (
        len(got.dims) == K.dim + 2
        or until is not None and (len(got.dims) - 2 >= until or got.first_nonzero() is not None)
    ):
        dims = _cochain_dims(K.levels(), field, None if until is None else until + 1)
        got = CohomologyProfile(field, MappingProxyType({i - 1: h for i, h in enumerate(dims)}))
    _PREFIXES[K, field] = got
    if len(_PREFIXES) > 200_000:
        del _PREFIXES[next(iter(_PREFIXES))]
    c = got.first_nonzero()
    stop = until if c is None or until is not None and until < c else c
    if until is None or stop >= len(got.dims) - 2:
        return got
    return CohomologyProfile(field, MappingProxyType({i: h for i, h in got.dims.items() if i <= stop}))


reduced_cohomology.cache_clear = _PREFIXES.clear


def relative_cohomology(K: SimplicialComplex, L: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Cohomology of the pair (K, L) in degrees 0..max(dim K, 0): the
    cochain complex on faces of K not in L, with K's coboundary."""
    _require_field(field)
    if not L.is_subcomplex_of(K):
        raise NotASubcomplex(f"{_quote(L)} is not a subcomplex of {_quote(K)}")
    levels = [[f for f in level if not L.has_face_mask(f)] for level in K.levels()[1:]]
    return dict(enumerate(_cochain_dims(levels or [[]], field)))


def local_cohomology(K: SimplicialComplex, sigma, field: FieldSpec) -> dict[int, int]:
    """Cohomology of (|K|, |K| - x) for x an inner point of the nonempty face
    sigma, realized by the shift H^i = ~H^{i - #sigma}(link sigma)."""
    sigma = tuple(sigma)
    if not sigma:
        raise EmptyFace("local cohomology needs a nonempty face")
    mask = K._require_face(sigma)
    shifted = reduced_cohomology(K.link_by_mask(mask), field).dims
    return {i: shifted.get(i - len(sigma), 0) for i in range(max(K.dim, 0) + 1)}


class HarnessReport(NamedTuple):
    """Verdict of a verification harness; a failing one names a witness,
    whose shape each harness states."""

    field: FieldSpec
    passed: bool
    witness: tuple | None = None


def verify_munkres_shift(K: SimplicialComplex, field: FieldSpec) -> HarnessReport:
    """Compare, for every nonempty face, the link-shift local cohomology with
    the independently computed cohomology of (K, contrastar sigma).  The
    witness is (face, degree, shifted_dim, relative_dim)."""
    _require_field(field)
    for face in K.faces():
        if not face:
            continue
        shifted = local_cohomology(K, face, field)
        relative = relative_cohomology(K, K.contrastar(face), field)
        for i in range(max(K.dim, 0) + 1):
            if shifted.get(i, 0) != relative.get(i, 0):
                return HarnessReport(
                    field, False, (face, i, shifted.get(i, 0), relative.get(i, 0))
                )
    return HarnessReport(field, True)
