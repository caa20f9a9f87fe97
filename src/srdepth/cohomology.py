"""Reduced, relative and local simplicial cohomology with field coefficients.

Orientation signs come from the global strictly increasing vertex order, so
every matrix is reproducible bit for bit.  The augmented cochain complex
includes the empty face in degree -1; H^{-1} is one-dimensional exactly for
the complex {-}.

Every coboundary is made by ``_coboundaries``, one row per lower face:
int bitsets over GF(2), and over every other field one signed form, rows
{column: +-1}, whose d^2 = 0 is checked over Z, which implies it mod every
prime.  The check runs there as the next coboundary is made; the cochain
kernel of ``linalg`` then clears the rows named by the previous degree's
pivots and ranks the rest for the field.  ``reduced_cohomology`` takes an
optional ``until``: it then stops at the lowest nonzero degree or at
``until``, builds no higher coboundary, and lists only the degrees
computed.  A call capped at degree 0 or below builds no coboundary:
degrees -1 and 0 are read off the face list (H^{-1} is nonzero for {-}
alone, H^0 counts the components of the 1-skeleton less one).  Any other call ranks from degree -1, so d^2 = 0 is
checked from the first pair.

The kernel also says whether its answer holds over every field: it does
when every rank was an elimination over Z with +-1 pivots, whose ranks and
clearing sets are those of every prime field, by the universal coefficient
theorem (Hatcher, *Algebraic Topology*, 3.1).  So does a prefix read off
the face list, whose groups are free over Z; GF(2) ranks bitsets, which
certify nothing.  ``CohomologyProfile.certified`` carries the certificate
of the call's own computation.  Nothing here is kept across calls: the
depth engines keep what their walks read in their own memo (see
``depth``).

Local cohomology at an inner point of a nonempty face sigma is *defined*
through the degree shift by the link and *verified* against the independent
relative computation for the pair (K, contrastar sigma), whose cochains
live on the faces containing sigma; the depth engine ranks their rows of
K's own coboundary through the same kernel and builds no contrastar.
"""

from __future__ import annotations

from itertools import islice
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .complexes import SimplicialComplex, _popcount
from .errors import EmptyFace, NotASubcomplex, _quote, _require_int
from .linalg import GF2, QQ, ExactMatrix, FieldSpec, _checked, _cohomology, _require_field


def _coboundary_rows(lower: list[int], upper: list[int], p) -> list:
    """Sparse rows of the coboundary from the faces ``lower`` to the faces
    ``upper``, one row per lower face: the row of sigma has (-1)^k at each
    tau in ``upper`` whose k-th vertex completes sigma to tau.  A face of
    ``upper`` with a facet missing from ``lower`` (the subcomplex of a pair)
    gets no entry from it.  Rows are int bitsets when p == 2, else the
    signed dicts {column: +-1} that every other field's kernel takes."""
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
            sign = -sign
    return rows


def _coboundaries(levels: list, field: FieldSpec):
    """The coboundaries between consecutive ``levels``, each made when
    pulled: bitset matrices over GF(2) for GF(2), checked there, else the
    signed integer matrices, checked over Z, which every other field's
    kernel ranks."""
    ring = GF2 if field.p == 2 else QQ
    return _checked(
        ExactMatrix.from_sparse(ring, _coboundary_rows(lower, upper, field.p), len(upper))
        for lower, upper in zip(levels, levels[1:])
    )


def _cochain_dims(levels: list, field: FieldSpec) -> list[int]:
    """Cohomology dimensions of the cochain complex with bases ``levels``
    (consecutive cardinalities) and the simplicial coboundary."""
    return _cohomology(_coboundaries(levels + [[]], field), field)[0]


class CohomologyProfile(NamedTuple):
    """Dimensions of reduced cohomology, degree -1 through dim K; ``dims``
    is read-only, as results are immutable.  ``certified`` says that they
    came from the face list or from an elimination over Z with +-1 pivots,
    so they hold over every field."""

    field: FieldSpec
    dims: Mapping[int, int]
    certified: bool = False

    def first_nonzero(self):
        """Smallest degree with nonvanishing cohomology, or None."""
        for i in sorted(self.dims):
            if self.dims[i]:
                return i
        return None


def _lowest_degrees(K: SimplicialComplex, until: int) -> list[int]:
    """Reduced cohomology of K from degree -1 through ``until`` <= 0, read
    off the face list: H^{-1} is one-dimensional for {-} alone, and H^0 has
    one dimension fewer than the 1-skeleton has components, counted by
    union-find over the edges.  Both are free over Z, so every field has
    them."""
    if until < -1:
        return []
    if K.is_irrelevant or until < 0:
        return [int(K.is_irrelevant)]
    root: dict = {}  # a vertex bit -> one joined to it; a root has none

    def find(v):
        while v in root:
            root[v] = v = root.get(root[v], root[v])  # path halving
        return v

    m, joined = K.m, 0
    # in the canonical order the edges follow the empty face and the vertices
    for e in islice(K.face_masks, m + 1, None):
        if joined == m - 1 or _popcount(e) > 2:  # a spanning tree, or no edge left
            break
        a, b = find(e & -e), find(e & (e - 1))
        if a != b:
            root[b] = a
            joined += 1
    return [0, m - 1 - joined]


def reduced_cohomology(
    K: SimplicialComplex, field: FieldSpec, until: int | None = None
) -> CohomologyProfile:
    """Reduced cohomology of K via the augmented simplicial cochain complex.
    With ``until``, only degrees -1 through the lowest nonzero one or
    ``until``, whichever comes first, are computed and listed; when the cap
    is <= 0 they come from the face list, certified, and no matrix is built.
    Any other call ranks from degree -1, so every pair it ranks is
    checked."""
    _require_field(field)
    if until is not None:
        _require_int(until, None, "the cap")
        if until <= 0:
            return CohomologyProfile(field, MappingProxyType(dict(enumerate(_lowest_degrees(K, until), -1))), True)
    cap = None if until is None else until + 1
    dims, certified = _cohomology(_coboundaries(K.levels() + [[]], field), field, cap)
    return CohomologyProfile(field, MappingProxyType(dict(enumerate(dims, -1))), certified)


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
