"""Independent reference computations used only by the test suite."""

from srdepth import depth_reisner, join
from srdepth.limits import _functor_matrix, _nonempty_faces, _require_vertex, _star_index
from srdepth.linalg import cohomology_dims


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
