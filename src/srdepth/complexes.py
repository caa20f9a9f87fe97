"""Finite abstract simplicial complexes and face-level combinatorics.

A complex is stored as its face list alone: bitmasks over vertex labels
(bit v-1 for label v) in canonical (cardinality, lex) order.  Facets are the
input syntax; the inclusion-maximal faces are recomputed from the face list
when asked for.  Where each cardinality 0..dim+1 starts in the list is
found by binary search on first use and kept; ``levels()``, ``f_vector``
and ``faces(card)`` read those cuts.  The empty set is a face of every
represented complex; the minimal complex is ``{-}`` consisting of the
empty face alone (no vertices).  The void complex (no faces at all) is
not representable.

Building from generators enumerates every subset of every distinct
generator, so the count ``sum 2^|F|`` is checked against ``2**FACE_BOUND``
before any face is built, and by the generator functions before any mask.

Vertex labels of a complex built by :func:`validate` are exactly ``1..m``.
Subcomplex constructors (star, link, induced, contrastar) keep the ambient
labels, so their vertex sets may be non-contiguous; all downstream
computations depend only on the number of vertices actually present.
Each is one scan of K's face list, and none is cached: the link walk of
``depth`` carries its parent links and asks each for the link of a vertex.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from itertools import combinations
from math import comb
from operator import sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadParameter,
    EmptyFace,
    EmptyInput,
    FaceNotInComplex,
    RepeatedVertex,
    TooLarge,
    UnusedVertex,
    VertexOutOfRange,
    _parse_int,
    _quote,
    _require_int,
)

Face = tuple[int, ...]

FACE_BOUND = 18  # log2 of the most generator subsets one complex may enumerate
RANDOM_SUBSET_BOUND = 20  # log2 of the most candidate facets random_complex may draw


def _mask_of(vertices: Iterable[int], top: int | None = None) -> int:
    """The bitmask of int labels >= 1 (a bool is not); with ``top``, a label
    above it counts as top + 1: no face of K, and no huge mask."""
    m = 0
    for v in vertices:
        if type(v) is not int or v < 1:
            raise VertexOutOfRange(f"vertex {_quote(v)} is not an int label >= 1")
        m |= 1 << (v - 1 if top is None or v <= top else top)
    return m


def _verts_of(mask: int) -> Face:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length())
    return tuple(out)


_popcount = int.bit_count


class SimplicialComplex:
    """Immutable simplicial complex: its face list, with a set of the faces
    built on the first membership query and the level cuts on the first
    level query.  The depth walks read most links and induced subcomplexes
    only at degrees -1 and 0, off the face list, so most complexes build
    neither."""

    __slots__ = ("_vmask", "_faces", "_members", "_cuts", "_hash")

    def __init__(self, masks: Iterable[int], _closed: bool = False):
        """Complex generated by ``masks``: their subsets are its faces.  The
        subcomplex constructors pass ``_closed=True`` with a face list of
        another complex filtered in canonical order, taken as it is."""
        if not _closed:
            generators = {_require_int(g, 0, "a face mask") for g in masks} or {0}
            count = sum(1 << _popcount(g) for g in generators)
            if count > 2**FACE_BOUND:
                raise TooLarge(f"the facets have {_quote(count)} subsets; more than 2^{FACE_BOUND}")
            faces = {0}
            for g in generators:
                sub = g
                while sub:
                    faces.add(sub)
                    sub = (sub - 1) & g
            masks = sorted(faces, key=lambda m: (_popcount(m), _verts_of(m)))
        self._faces = faces = tuple(masks)
        # a face list is closed downward: its vertices are its one-vertex faces
        self._vmask = sum(faces[1 : bisect_left(faces, 2, 1, key=_popcount)])
        self._members = self._cuts = None
        self._hash = hash(faces)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._faces == other._faces

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={list(self.facets)})"

    @property
    def _face_set(self) -> frozenset:
        """The face masks as a set, built on first use."""
        if self._members is None:
            self._members = frozenset(self._faces)
        return self._members

    @property
    def _level_cuts(self) -> tuple[int, ...]:
        """Where each cardinality 0..dim+1 starts in the canonical order,
        then the number of faces: found by binary search on first use."""
        if self._cuts is None:
            faces, cuts = self._faces, [0]
            for k in range(1, _popcount(faces[-1]) + 1):
                cuts.append(bisect_left(faces, k, cuts[-1], key=_popcount))
            cuts.append(len(faces))
            self._cuts = tuple(cuts)
        return self._cuts

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> Face:
        return _verts_of(self._vmask)

    @property
    def m(self) -> int:
        """Number of vertices present (= polynomial generators of the face ring)."""
        return _popcount(self._vmask)

    @property
    def dim(self) -> int:
        return _popcount(self._faces[-1]) - 1

    @property
    def krull_dim(self) -> int:
        return self.dim + 1

    @property
    def facets(self) -> tuple[Face, ...]:
        return tuple(_verts_of(f) for f in self.facet_masks)

    @property
    def facet_masks(self) -> tuple[int, ...]:
        """The inclusion-maximal faces, in canonical order."""
        return tuple(_maximal(self._faces))

    @property
    def face_masks(self) -> tuple[int, ...]:
        return self._faces

    def levels(self) -> list[tuple[int, ...]]:
        """The face masks of cardinality 0..dim+1, each a slice of the
        canonical order between two level cuts."""
        faces, cuts = self._faces, self._level_cuts
        return [faces[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def faces(self, card: int | None = None) -> Iterator[Face]:
        """All faces as sorted vertex tuples, ordered by (cardinality, lex);
        with ``card``, an int >= 0, those of that cardinality only."""
        faces = self._faces
        if card is not None:
            _require_int(card, 0, "a cardinality")
            cuts = self._level_cuts
            faces = faces[cuts[card] : cuts[card + 1]] if card < len(cuts) - 1 else ()
        return map(_verts_of, faces)

    @property
    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) with f_-1 = 1 for the empty face."""
        cuts = self._level_cuts
        return tuple(map(sub, cuts[1:], cuts))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * fi for i, fi in enumerate(self.f_vector[1:]))

    def has_face(self, face: Iterable[int]) -> bool:
        """Whether ``face`` is a face of K; one written with a repeated vertex
        raises ``RepeatedVertex``, as its mask would silently drop the repeat."""
        face = tuple(face)
        mask = _mask_of(face, self._vmask.bit_length())
        found = mask in self._face_set
        if found and _popcount(mask) != len(face):
            raise RepeatedVertex(f"face {_quote(face)} repeats a vertex")
        return found

    def has_face_mask(self, mask: int) -> bool:
        return type(mask) is int and mask in self._face_set

    @property
    def is_irrelevant(self) -> bool:
        """True for the minimal complex {-} whose only face is the empty set."""
        return self._vmask == 0

    def _require_face(self, face: Iterable[int]) -> int:
        """The mask of ``face``, which must be a face of K written without
        a repeated vertex."""
        face = tuple(face)
        if not self.has_face(face):
            raise FaceNotInComplex(f"{_quote(face)} is not a face")
        return _mask_of(face)

    def _require_face_mask(self, mask: int) -> int:
        """``mask``, which must be a face of K; the empty face and the
        vertices are read off the vertex mask, and build no face set."""
        found = type(mask) is int and (
            mask & self._vmask == mask if mask & (mask - 1) == 0 else mask in self._face_set
        )
        if not found:
            _require_int(mask, 0, "a face mask")  # a bool or a negative int is no mask
            raise FaceNotInComplex(f"mask {_quote(mask)} is not a face")
        return mask

    # -- subcomplexes --------------------------------------------------------

    def star(self, face: Iterable[int]) -> "SimplicialComplex":
        """Faces tau with sigma | tau still a face; star of the empty face is K."""
        return _star(self, self._require_face(face))

    def star_by_mask(self, mask: int) -> "SimplicialComplex":
        return _star(self, self._require_face_mask(mask))

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Faces tau disjoint from sigma with sigma | tau a face."""
        return _link(self, self._require_face(face))

    def link_by_mask(self, mask: int) -> "SimplicialComplex":
        return _link(self, self._require_face_mask(mask))

    def contrastar_by_mask(self, mask: int) -> "SimplicialComplex":
        return _contrastar(self, self._require_face_mask(mask))

    def induced(self, vertex_subset: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex on a vertex subset: faces contained in it."""
        return _induced(self, _mask_of(vertex_subset, self._vmask.bit_length()) & self._vmask)

    def contrastar(self, face: Iterable[int]) -> "SimplicialComplex":
        """Faces not containing the nonempty face sigma; the complement of
        an inner point of sigma deformation retracts onto it."""
        return _contrastar(self, self._require_face(face))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._face_set <= other._face_set


def _maximal(faces: Sequence[int]) -> list[int]:
    """The inclusion-maximal members of a downward-closed face list, in its
    order: faces that no face of the list covers, found by dropping each
    vertex of each face once, at a cost in the faces' sizes, not in m."""
    covered = set()
    for g in faces:
        m = g
        while m:
            b = m & -m
            m ^= b
            covered.add(g ^ b)
    return [f for f in faces if f not in covered]


def _star(K: "SimplicialComplex", s: int) -> "SimplicialComplex":
    face_set = K._face_set
    return SimplicialComplex([f for f in K._faces if (f | s) in face_set], _closed=True)


def _link(K: "SimplicialComplex", s: int) -> "SimplicialComplex":
    # dropping s from the faces that hold it keeps the canonical order: two
    # equal-size faces compare by the least vertex of their symmetric
    # difference, which s misses
    return SimplicialComplex([f ^ s for f in K._faces if f & s == s], _closed=True)


def _induced(K: "SimplicialComplex", w: int) -> "SimplicialComplex":
    return SimplicialComplex([f for f in K._faces if f & ~w == 0], _closed=True)


def _contrastar(K: "SimplicialComplex", s: int) -> "SimplicialComplex":
    if not s:
        raise EmptyFace("the contrastar of the empty face has no faces")
    return SimplicialComplex([f for f in K._faces if f & s != s], _closed=True)


# -- validated construction ---------------------------------------------------


def validate(raw_facets: Sequence[Sequence[int]], m: int) -> SimplicialComplex:
    """Canonicalize raw facet input into a complex on vertex set {1..m}.

    Builds the face list generated by the facets, so repeated and contained
    facets leave no trace, and rejects declared vertices that occur in no
    facet and non-integer (including boolean) m or vertices.  The complex
    {-} is declared via m=0, facets=[[]]; an empty facet list is invalid
    input.  The face-count bound of :class:`SimplicialComplex` applies.
    Every label 1..m must occur, so m is checked against the number of
    distinct labels before any bitmask is built: a huge declared m costs
    time linear in the input, not in m.
    """
    _require_int(m, 0, "m")
    if not raw_facets:
        raise EmptyInput("no facets given; the complex {-} is declared as [[]] with m=0")
    labels = set()
    for facet in raw_facets:
        for v in facet:
            if type(v) is not int or v < 1 or v > m:
                raise VertexOutOfRange(f"vertex {_quote(v)} outside 1..{_quote(m)}")
        labels.update(facet)
    if len(labels) != m:
        # at most len(labels) of 1..len(labels)+5 occur: the first gaps lie there
        missing = [v for v in range(1, min(m, len(labels) + 5) + 1) if v not in labels][:5]
        raise UnusedVertex(
            f"{_quote(m - len(labels))} of the vertices 1..{_quote(m)} occur in no facet, first {missing}"
        )
    return SimplicialComplex([_mask_of(facet) for facet in raw_facets])


def _validate_input(raw_facets, m: int) -> SimplicialComplex:
    """:func:`validate` for file input, where a facet that repeats a vertex
    is a typo rather than a set to canonicalize."""
    K = validate(raw_facets, m)
    for facet in raw_facets:
        if len(set(facet)) != len(facet):
            raise RepeatedVertex(f"facet {_quote(list(facet))} repeats a vertex")
    return K


# -- generators ----------------------------------------------------------------


def _require_subsets(facets: int, size: int) -> None:
    """Refuse ``facets`` generators of ``size`` vertices each when their
    subsets pass the constructor's bound, without shifting by a huge size."""
    if size > FACE_BOUND or facets << size > 2**FACE_BOUND:
        raise TooLarge(f"the facets have {_quote(facets)} * 2^{_quote(size)} subsets; more than 2^{FACE_BOUND}")


def simplex(m: int) -> SimplicialComplex:
    """Full simplex on m vertices; simplex(0) is the complex {-}."""
    _require_subsets(1, _require_int(m, 0, "m"))
    return SimplicialComplex([(1 << m) - 1])


def boundary_simplex(m: int) -> SimplicialComplex:
    """Boundary of the m-simplex: a sphere of dimension m-1 on m+1 vertices."""
    _require_subsets(_require_int(m, 1, "m") + 1, m)
    full = (1 << (m + 1)) - 1
    return SimplicialComplex([full & ~(1 << i) for i in range(m + 1)])


def cycle(n: int) -> SimplicialComplex:
    """The n-gon: n vertices and n edges."""
    _require_subsets(_require_int(n, 3, "n"), 2)
    edges = [_mask_of((i, i % n + 1)) for i in range(1, n + 1)]
    return SimplicialComplex(edges)


def disjoint_points(k: int) -> SimplicialComplex:
    _require_subsets(_require_int(k, 1, "k"), 1)
    return SimplicialComplex([1 << i for i in range(k)])


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertices are relabeled 1..mK then mK+1..mK+mL."""
    kmap = {v: i + 1 for i, v in enumerate(K.vertices)}
    lmap = {v: K.m + i + 1 for i, v in enumerate(L.vertices)}
    facets = []
    for fk in K.facets:
        mk = _mask_of(kmap[v] for v in fk)
        for fl in L.facets:
            facets.append(mk | _mask_of(lmap[v] for v in fl))
    return SimplicialComplex(facets)


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """Join of a point with K; the apex is vertex 1."""
    return join(simplex(1), K)


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join of two points with K; the poles are vertices 1 and 2."""
    return join(disjoint_points(2), K)


def rp2_minimal() -> SimplicialComplex:
    """The 6-vertex, 10-triangle triangulation of the real projective plane."""
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    return SimplicialComplex([_mask_of(t) for t in triangles])


def random_complex(m: int, d: int, density: float, seed: int) -> SimplicialComplex:
    """Pseudorandom complex of dimension <= d on m vertices.

    Each (d+1)-subset of {1..m} is kept as a facet with probability
    ``density``; uncovered vertices are added as isolated points so the
    result is canonical.  Deterministic for a fixed seed.  More than
    ``2**RANDOM_SUBSET_BOUND`` candidate subsets raise ``TooLarge`` before
    any draw.
    """
    _require_int(m, 1, "m")
    _require_int(d, 0, "d")
    if type(density) not in (int, float) or not 0 <= density <= 1:
        raise BadParameter(f"density must be an int or float in [0, 1], got {_quote(density)}")
    _require_int(seed, None, "the seed")
    candidates = comb(m, d + 1)
    if candidates > 2**RANDOM_SUBSET_BOUND:
        raise TooLarge(
            f"random_complex draws from C({_quote(m)}, {_quote(d + 1)}) = {_quote(candidates)} subsets; "
            f"more than 2^{RANDOM_SUBSET_BOUND}"
        )
    rng = random.Random(seed)
    facets = [
        _mask_of(c)
        for c in combinations(range(1, m + 1), d + 1)
        if rng.random() < density
    ]
    covered = 0
    for f in facets:
        covered |= f
    for i in range(m):
        if not covered & (1 << i):
            facets.append(1 << i)
    return SimplicialComplex(facets)


# -- file formats ---------------------------------------------------------------


def parse_facet_text(text: str) -> SimplicialComplex:
    """Facet-list format: one facet per line of whitespace-separated positive
    integers, ``#`` comments, optional header line ``m <count>`` (default:
    max vertex seen)."""
    m = None
    facets = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "m" and m is None and not facets:
            if len(parts) != 2:
                raise EmptyInput(f"bad header line: {_quote(raw_line)}")
            try:
                m = _parse_int(parts[1])
            except ValueError:
                raise EmptyInput(f"bad header line: {_quote(raw_line)}") from None
            continue
        try:
            facets.append([_parse_int(p) for p in parts])
        except ValueError:
            raise EmptyInput(f"bad facet line: {_quote(raw_line)}") from None
    if m is None:
        m = max((v for f in facets for v in f), default=0)
    return _validate_input(facets, m)


def complex_from_json(obj) -> SimplicialComplex:
    """JSON format: {"m": int, "facets": [[int, ...], ...]}."""
    try:
        m = obj["m"]
        facets = obj["facets"]
    except (TypeError, KeyError) as exc:
        raise EmptyInput(f"JSON complex needs keys 'm' and 'facets': {exc}") from None
    if type(m) is not int or not isinstance(facets, list) or not all(
        isinstance(f, list) for f in facets
    ):
        raise EmptyInput("'m' must be an int and 'facets' a list of integer lists")
    return _validate_input(facets, m)


def to_facet_text(K: SimplicialComplex) -> str:
    lines = [f"m {max(K.vertices, default=0)}"]
    lines.extend(" ".join(str(v) for v in f) for f in K.facets if f)
    return "\n".join(lines) + "\n"


def to_json_obj(K: SimplicialComplex):
    return {"m": max(K.vertices, default=0), "facets": [list(f) for f in K.facets]}


def load_complex(path) -> SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise EmptyInput(f"{path} is not UTF-8 text: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a decode error, or an integer past the digit limit
            raise EmptyInput(f"bad JSON in {path}: {exc}") from None
        except RecursionError:
            raise EmptyInput(f"the JSON in {path} is nested too deeply") from None
        return complex_from_json(obj)
    return parse_facet_text(text)
