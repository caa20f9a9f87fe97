"""Three independent engines for the depth of a face ring, plus the
verification harnesses for the structural identities they are built on.

* ``depth_reisner``: the largest r such that every link has vanishing
  reduced cohomology in degrees <= r - card - 2 (the combinatorial
  criterion).  Each link is built from its parent's: lk sigma is the link
  of v in lk(sigma - v), v the top vertex of sigma.
* ``depth_topological``: the largest r such that the complex itself and all
  local cohomology groups at inner points vanish in degrees <= r - 2; the
  local group at sigma is H*(K, contrastar sigma), computed on its relative
  cochains, the face filter of sigma, not through the link shift.  Those
  are rows of K's own coboundary, assembled and checked once per call; the
  filter of sigma is the part of the filter of sigma - v that holds v.
* ``depth_ab``: number of ring generators minus the projective dimension,
  a third, resolution-theoretic route.  By Hochster's formula pd is the
  largest |W| - c - 1 over vertex subsets W, with c the lowest degree of
  nonvanishing reduced cohomology of the induced subcomplex K_W.  The
  subsets are walked by size from m downward, and the walk stops once no
  smaller W can beat the best value found.  As pd >= m - dim K - 1, it
  visits only the subsets of size >= m - dim K, and ranks only the
  non-faces among them (a face is skipped with one set lookup): their
  number, sum of C(m, k) - f_k over those sizes, is checked up front
  against ``2**HOCHSTER_VERTEX_BOUND``; the subsets are those and the
  faces that large, at most 2^18 (``FACE_BOUND``).  The engine reads
  induced subcomplexes only, never links or face filters.

The first two walks read the faces through one descent, ``_descend``: it
hands each face the link or face filter of its parent sigma - v and frees
a parent once the walk has moved past its children, so at most about one
level of them is alive and none outlives the call.

Each engine only needs the lowest nonvanishing degree below a bound, and
asks for no more: the link and face-filter walks cap every cohomology call
at the degree that could still lower their own running bound, and the
Hochster walk at the degree that could still raise pd (j - 2 - pd at size
j).  The cochain kernel then stops there.  No engine reads another's bound.

Depth depends on the field only through these cohomology groups.  A walk
is *certified* when every cohomology answer it read was certified, off
the face list or by the cochain kernel of ``linalg`` (``_lowest_nonzero``
for the links, complexes and induced subcomplexes; the kernel's own flag
for the face filters): its answer then holds over every field, by the
universal coefficient theorem.  GF(2) ranks bitset rows, which certify
nothing, so a GF(2) walk is certified only when it ranked no row, as when
every answer it read came off the face list (caps <= 0).

``_MEMO`` is the one table kept across calls: under (L, field) what the
walks read of L's cohomology (``_lowest_nonzero``), and beside it a
certified depth under (walk, K) and any other under (walk, K, field), so
a complex whose walks over GF(3) were certified is not walked again over
Q, and a GF(2) walk reads every certified depth.  The field and the size
guards are checked before the memo is read.

The three must agree (the equivalence is a theorem); disagreement raises
``EngineDisagreement`` as a bug signal, never as a legitimate outcome.
The first two engines visit at most one face per pair sigma <= tau, sum of
f_k 2^k, checked up front against ``2**FACE_PAIR_BOUND``.  As each condition
only weakens as r falls, the link condition at r is depth_reisner >= r and
the point condition at r is depth_topological >= r.

Depth is always computed through these criteria, never by searching for
explicit regular sequences: over small finite fields low-degree regular
elements may not exist even when the depth is high, while the criteria are
exact and depend only on the characteristic.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .cohomology import HarnessReport, _coboundaries, _lowest_degrees, reduced_cohomology
from .complexes import SimplicialComplex, _popcount
from .errors import BadParameter, EngineDisagreement, TooLarge
from .limits import LimitsProfile, derived_limit_dims
from .linalg import FieldSpec, _cohomology, _require_field

HOCHSTER_VERTEX_BOUND = 14  # log2 of the most induced subcomplexes one call may rank
FACE_PAIR_BOUND = 21  # log2 of the most face pairs one link or face-filter walk may visit


def _check_face_pairs(K: SimplicialComplex) -> None:
    """Refuse, before any work, a complex whose links (or face filters)
    hold more than ``2**FACE_PAIR_BOUND`` faces together: one per pair
    sigma <= tau of faces, sum of f_k 2^k over the f-vector."""
    pairs = sum(f << k for k, f in enumerate(K.f_vector))
    if pairs > 2**FACE_PAIR_BOUND:
        raise TooLarge(
            f"the link and face-filter engines walk {pairs} face pairs "
            f"(m={K.m}); more than 2^{FACE_PAIR_BOUND}"
        )


# every answer kept across calls, least recently used first
_MEMO: dict = {}


def _recall(key):
    """The value kept under ``key``, now the most recently used, or None."""
    got = _MEMO.pop(key, None)
    if got is not None:
        _MEMO[key] = got
    return got


def _keep(key, value):
    """Keep ``value`` under ``key``, a key not kept or just recalled, as the
    most recently used, dropping the least recently used past 200,000, and
    return it."""
    _MEMO[key] = value
    if len(_MEMO) > 200_000:
        del _MEMO[next(iter(_MEMO))]
    return value


def _lowest_nonzero(L: SimplicialComplex, field: FieldSpec, until: int) -> tuple[int | None, bool]:
    """The lowest degree <= ``until`` where L's reduced cohomology over
    ``field`` is nonzero, or None, and whether that holds over every field.
    A cap <= 0 is read off the face list and never kept.  Under (L, field)
    the memo keeps the lowest nonzero degree or None, the highest degree
    known and the certificate: a nonzero degree answers every cap, a zero
    prefix each cap up to its reach, and a complete one every cap.  Any
    other cap calls ``reduced_cohomology``, whose longer answer is kept."""
    if until <= 0:
        return next((i for i, h in enumerate(_lowest_degrees(L, until), -1) if h), None), True
    kept = _recall((L, field))
    if kept is None or kept[0] is None and kept[1] < min(until, L.dim):
        profile = reduced_cohomology(L, field, until)
        kept = _keep((L, field), (profile.first_nonzero(), max(profile.dims), profile.certified))
    c, _, certified = kept
    return (c if c is not None and c <= until else None), certified


def _remembered(walk, K: SimplicialComplex, field: FieldSpec) -> int:
    """The depth ``walk`` finds for K over ``field``, from the memo if it
    holds one for every field or for this one.  A walk returns its depth and
    whether every cohomology prefix it read was certified for every field;
    it is then kept under (walk, K), else under (walk, K, field)."""
    for key in ((walk, K), (walk, K, field)):
        r = _recall(key)
        if r is not None:
            return r
    r, certified = walk(K, field)
    return _keep((walk, K) if certified else (walk, K, field), r)


# -- engine 1: link criterion ---------------------------------------------------


def depth_reisner(K: SimplicialComplex, field: FieldSpec) -> int:
    """Largest r in [0, dim K + 1] such that for every face sigma the link
    has vanishing reduced cohomology in degrees <= r - card(sigma) - 2.
    A link with lowest nonzero degree c lowers the running bound r to
    c + card(sigma) + 1 >= 0, and is computed only through degree
    r - card(sigma) - 2; the walk ends at the first card(sigma) >= r.
    The field and the face pairs are checked before the memo is read."""
    _require_field(field)
    _check_face_pairs(K)
    return _remembered(_reisner_walk, K, field)


def _descend(K: SimplicialComplex, root, child):
    """Each face of K in canonical order, as (mask, cardinality, item): the
    empty face's item is ``root``, any other face's is
    ``child(item of sigma - v, v, card)``, v the top vertex bit of sigma.
    In the canonical order the parents of one cardinality come in order and
    each one's children are contiguous, so a parent's item is freed, with
    those of the childless faces before it, once the walk has moved past
    its children: at most about one level of items is alive."""
    yield 0, 0, root
    parents, items, card, at = None, [(0, root)], 0, 0
    for mask in K.face_masks[1:]:
        s = _popcount(mask)
        if s > card:
            parents, items, card, at = items, [], s, 0
        top = 1 << (mask.bit_length() - 1)
        while parents[at][0] != mask ^ top:
            parents[at] = None
            at += 1
        item = child(parents[at][1], top, s)
        items.append((mask, item))
        yield mask, s, item


def _reisner_walk(K: SimplicialComplex, field: FieldSpec) -> tuple[int, bool]:
    r, certified = K.krull_dim, True
    # lk sigma is the link of v in lk(sigma - v): one scan of the parent link
    # past the bound no link is made: the walk ends at the first such face
    for _, s, link in _descend(K, K, lambda parent, v, s: parent.link_by_mask(v) if s < r else None):
        if s >= r:
            break
        c, ok = _lowest_nonzero(link, field, r - s - 2)
        certified &= ok
        if c is not None:
            r = c + s + 1
    return r, certified


# -- engine 2: topological criterion via relative pairs -------------------------


def depth_topological(K: SimplicialComplex, field: FieldSpec) -> int:
    """Largest r in [0, dim K + 1] such that reduced cohomology of K and the
    relative cohomology of (K, contrastar sigma) for every nonempty sigma
    vanish in degrees <= r - 2.  A group with lowest nonzero degree c lowers
    the running bound r to c + 1 and is computed only through degree r - 2.
    The cochains at sigma, the faces containing sigma, start in degree
    card(sigma) - 1: the walk ends at the first card(sigma) >= r.  They are
    the rows of K's coboundary matrices that hold sigma, found among the
    rows that hold its parent sigma - v (v its top vertex) as those that
    also hold v, ranked for the field as ``reduced_cohomology`` ranks K's.
    The field and the face pairs are checked before the memo is read."""
    _require_field(field)
    _check_face_pairs(K)
    return _remembered(_topological_walk, K, field)


def _topological_walk(K: SimplicialComplex, field: FieldSpec) -> tuple[int, bool]:
    r = K.krull_dim
    c, certified = _lowest_nonzero(K, field, r - 2)
    if c is not None:
        r = c + 1
    # the walk ranks d_n for n <= r - 2 only: cardinality n + 1 to n + 2
    levels = K.levels()[1 : r + 1]
    mats = list(_coboundaries(levels, field))

    def held(parent, v, s):
        # a face's filter: for k = 0, 1, ... the ids of the faces of
        # cardinality s + k that hold it, those of its parent's that hold v,
        # through the levels the running bound r still ranks
        return [[i for i in ids if level[i] & v] for ids, level in zip(parent[1:], levels[s - 1 : r - 1])]

    # the empty face's filter holds every face
    for _, s, rows in _descend(K, [range(1)] + [range(len(level)) for level in levels[:-1]], held):
        if s >= r:
            break
        if not s:  # K itself, ranked above with the empty face
            continue
        dims, ok = _cohomology(mats, field, r - 2, [()] * (s - 1) + rows)
        certified &= ok
        c = next((i for i, h in enumerate(dims) if h), None)
        if c is not None:
            r = c + 1
    return r, certified


# -- engine 3: Betti table and the Auslander-Buchsbaum count --------------------


class BettiTable(NamedTuple):
    """Graded Betti numbers beta(i, j) of the face ring over the polynomial
    ring, from induced-subcomplex cohomology (Hochster's formula)."""

    m: int
    field: FieldSpec
    beta: dict[tuple[int, int], int]

    @property
    def projective_dimension(self) -> int:
        return max((i for (i, _), v in self.beta.items() if v), default=0)

    def __getitem__(self, key) -> int:
        return self.beta.get(tuple(key), 0)


def betti_table(K: SimplicialComplex, field: FieldSpec) -> BettiTable:
    """beta(i, j) = sum over j-element vertex subsets W of the dimension of
    reduced cohomology of the induced subcomplex K_W in degree j - i - 1."""
    _require_field(field)
    if K.m > HOCHSTER_VERTEX_BOUND:
        raise TooLarge(f"Betti oracle enumerates 2^m subsets; m={K.m} > {HOCHSTER_VERTEX_BOUND}")
    beta: dict[tuple[int, int], int] = {}
    verts = K.vertices
    for j in range(K.m + 1):
        for subset in combinations(verts, j):
            sub = K.induced(subset)
            for deg, h in reduced_cohomology(sub, field).dims.items():
                if h:
                    key = (j - deg - 1, j)
                    beta[key] = beta.get(key, 0) + h
    return BettiTable(K.m, field, beta)


def _hochster_walk_estimate(K: SimplicialComplex) -> int:
    """Most induced subcomplexes ``depth_ab`` ranks: the non-faces among the
    vertex subsets of size >= m - krull + 1, sum of C(m, k) - f_k over those
    sizes k.  A W that attains pd has |W| - 1 >= pd >= m - krull
    (Auslander-Buchsbaum), so the walk has found pd before it reaches size
    m - krull.  It skips a face with one set lookup."""
    f = K.f_vector
    return sum(comb(K.m, k) - (f[k] if k < len(f) else 0) for k in range(K.m - K.krull_dim + 1, K.m + 1))


def depth_ab(K: SimplicialComplex, field: FieldSpec) -> int:
    """Depth as (number of generators) - (projective dimension), with pd
    the largest |W| - c_W - 1 over the vertex subsets W whose induced
    subcomplex has lowest nonvanishing reduced cohomology degree c_W.  The
    field and the walk's size are checked before the memo is read: at most
    ``2**HOCHSTER_VERTEX_BOUND`` non-faces to rank."""
    _require_field(field)
    estimate = _hochster_walk_estimate(K)
    if estimate > 2**HOCHSTER_VERTEX_BOUND:
        raise TooLarge(
            f"the Hochster walk may rank {estimate} non-faces "
            f"(m={K.m}, krull dimension {K.krull_dim}); more than 2^{HOCHSTER_VERTEX_BOUND}"
        )
    return _remembered(_hochster_walk, K, field)


def _hochster_walk(K: SimplicialComplex, field: FieldSpec) -> tuple[int, bool]:
    pd, certified = 0, True  # beta(0, 0) = 1 from the empty subset
    verts = K.vertices
    for j in range(K.m, 0, -1):
        # c_W >= 0 for nonempty W, so no subset of size <= j beats j - 1
        if j - 1 <= pd:
            break
        for subset in combinations(verts, j):
            if K.has_face(subset):  # K_W is a simplex: acyclic
                continue
            # only a degree c <= j - 2 - pd can raise pd
            c, ok = _lowest_nonzero(K.induced(subset), field, j - 2 - pd)
            certified &= ok
            if c is not None:
                pd = j - c - 1
                if pd == j - 1:
                    break
    return K.m - pd, certified


# -- the aggregate report --------------------------------------------------------


class DepthReport(NamedTuple):
    field: FieldSpec
    reisner: int
    topological: int
    auslander_buchsbaum: int
    krull_dim: int
    cohen_macaulay: bool
    agree: bool

    @property
    def depth(self) -> int:
        return self.reisner


def depth(K: SimplicialComplex, field: FieldSpec) -> DepthReport:
    """Run all three engines and assert agreement.  The face pairs are
    checked, and ``depth_ab`` runs, before the other engines: every up-front
    ``TooLarge`` check then comes before any engine spends time.
    ``cache_clear`` empties the memo, the one table kept across calls."""
    _check_face_pairs(K)
    r3 = depth_ab(K, field)
    r1 = depth_reisner(K, field)
    r2 = depth_topological(K, field)
    if not (r1 == r2 == r3):
        raise EngineDisagreement(K, field, r1, r2, r3)
    return DepthReport(
        field=field,
        reisner=r1,
        topological=r2,
        auslander_buchsbaum=r3,
        krull_dim=K.krull_dim,
        cohen_macaulay=(r1 == K.krull_dim),
        agree=True,
    )


depth.cache_clear = _MEMO.clear


# -- harnesses --------------------------------------------------------------------


def verify_star_link(K: SimplicialComplex, field: FieldSpec) -> HarnessReport:
    """Check depth(link) + card = depth(star) >= depth(K) at every face.
    The witness is (face, depth_link, depth_star, depth_K)."""
    d_k = depth_reisner(K, field)
    for face in K.faces():
        d_link = depth_reisner(K.link(face), field)
        d_star = depth_reisner(K.star(face), field)
        if d_link + len(face) != d_star or d_star < d_k:
            return HarnessReport(field, False, (face, d_link, d_star, d_k))
    return HarnessReport(field, True)


class LimitDepthReport(NamedTuple):
    """Instance check of the vanishing criterion: with every star ring of
    depth >= r, depth of the face ring is >= r exactly when the modules
    L^{-1}..L^{r-2} (comparison kernel, cokernel, higher limits) vanish.
    Only the regime r <= min star depth is asserted."""

    field: FieldSpec
    passed: bool
    depth: int
    min_star_depth: int
    l_totals: dict[int, int]
    almost_trivial: bool
    corollary_checked: bool
    witness: tuple | None = None


def verify_limit_depth_criterion(
    K: SimplicialComplex,
    field: FieldSpec,
    d_max: int | None = None,
    *,
    profile: LimitsProfile | None = None,
) -> LimitDepthReport:
    """Check the vanishing criterion against depth; ``profile``, when given,
    is K's limits profile over ``field`` and is used instead of computing
    one up to ``d_max``.  One over another field or with lim^i for other i
    than 0..dim K raises ``BadParameter``; one of another complex of the
    same dimension goes undetected.  The witness is (r, depth_side, vanishing_side).
    ``corollary_checked`` marks a pass with every L^i zero: there the
    r-loop has already asserted depth >= min star depth, as a depth below
    it fails at r = depth + 1."""
    _require_field(field)
    if profile is None:
        profile = derived_limit_dims(K, field, d_max)
    elif profile.field != field:
        raise BadParameter(f"the profile is over {profile.field}, not {field}")
    elif set(profile.lim) != set(range(max(K.dim, 0) + 1)):
        raise BadParameter(f"the profile lists lim^i for i in {sorted(profile.lim)}, not 0..{max(K.dim, 0)}")
    d_k = depth_reisner(K, field)
    star_depths = [
        depth_reisner(K.star_by_mask(mask), field) for mask in K.face_masks if mask
    ]
    r_min = min(star_depths)
    l_totals = {i: profile.l_total(i) for i in range(-1, max(K.dim, 0) + 1)}
    # hypothesis observation: every nonzero L^i is finite dimensional, i.e.
    # has finite support; in all computed degrees the support sits in 0
    almost_trivial = (
        all(v == 0 for v in profile.rho_kernel.values())
        and all(v == 0 for d, v in profile.rho_cokernel.items() if d > 0)
        and all(
            v == 0
            for i in profile.lim
            if i >= 1
            for d, v in profile.lim[i].items()
            if d > 0
        )
    )
    witness = None
    passed = True
    for r in range(0, r_min + 1):
        depth_side = d_k >= r
        vanishing_side = all(l_totals.get(i, 0) == 0 for i in range(-1, r - 1))
        if depth_side != vanishing_side:
            passed = False
            witness = (r, depth_side, vanishing_side)
            break
    corollary_checked = passed and all(v == 0 for v in l_totals.values())
    return LimitDepthReport(
        field, passed, d_k, r_min, l_totals, almost_trivial, corollary_checked, witness
    )
