"""Deterministic corpora: the named generator family plus seeded random
complexes.  All output is reproducible byte for byte from the seed."""

from __future__ import annotations

from math import comb

from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    cone,
    cycle,
    disjoint_points,
    join,
    random_complex,
    rp2_minimal,
    simplex,
    suspension,
)
from .errors import _require_int

DEFAULT_SEED = 20240101


def named_corpus() -> list[tuple[str, SimplicialComplex]]:
    """Fixed list of named complexes: simplices, sphere boundaries, cycles,
    point sets, the projective plane, and cone/suspension/join combinations."""
    entries: list[tuple[str, SimplicialComplex]] = []
    for m in range(2, 6):
        entries.append((f"simplex_{m}", simplex(m)))
    for m in range(2, 5):
        entries.append((f"boundary_simplex_{m}", boundary_simplex(m)))
    for n in range(3, 9):
        entries.append((f"cycle_{n}", cycle(n)))
    for k in range(2, 5):
        entries.append((f"points_{k}", disjoint_points(k)))
    entries.append(("rp2", rp2_minimal()))
    entries.append(("cone_cycle_4", cone(cycle(4))))
    entries.append(("cone_points_3", cone(disjoint_points(3))))
    entries.append(("cone_rp2", cone(rp2_minimal())))
    entries.append(("susp_cycle_4", suspension(cycle(4))))
    entries.append(("susp_points_3", suspension(disjoint_points(3))))
    entries.append(("join_cycle3_points2", join(cycle(3), disjoint_points(2))))
    entries.append(("join_edge_cycle4", join(simplex(2), cycle(4))))
    return entries


def random_corpus(
    count: int = 200, seed: int = DEFAULT_SEED, max_m: int = 8
) -> list[tuple[str, dict, SimplicialComplex]]:
    """`count` pseudorandom complexes with at most `max_m` vertices.

    Parameters cycle deterministically through vertex counts 4..max_m,
    dimensions 1..3 and a ladder of densities; each entry gets its own
    derived seed so single complexes can be regenerated in isolation.
    The entries are built largest first and returned in index order.
    """
    _require_int(max_m, 4, "the vertex bound")
    _require_int(count, 0, "the count")
    _require_int(seed, None, "the seed")
    n = max_m - 3  # vertex counts 4..max_m, cycled by arithmetic, never listed
    dims = [1, 2, 3, 2]
    densities = [0.2, 0.35, 0.5, 0.65]
    params = [
        {
            "m": 4 + i % n,
            "d": dims[(i // n) % len(dims)],
            "density": densities[(i // (n * len(dims))) % len(densities)],
            "seed": seed + i,
        }
        for i in range(count)
    ]
    # built largest first, by expected faces density * C(m, d+1) * 2^(d+1):
    # a corpus that holds one too large is refused before the rest is built
    order = sorted(params, key=lambda p: p["density"] * comb(p["m"], p["d"] + 1) * 2 ** (p["d"] + 1), reverse=True)
    built = {p["seed"]: random_complex(**p) for p in order}
    return [(f"random_{i:03d}", p, built[p["seed"]]) for i, p in enumerate(params)]
