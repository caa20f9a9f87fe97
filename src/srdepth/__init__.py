"""Exact-arithmetic depth of Stanley-Reisner face rings.

The package computes the depth of the face ring of a finite simplicial
complex by three independent methods (link cohomology, local cohomology at
inner points via relative pairs, and the projective dimension from induced
subcomplexes), computes the higher derived limits of the star functor over
the face poset, and ships harnesses checking the structural identities
relating all of these.
"""

from .cohomology import (
    CohomologyProfile,
    local_cohomology,
    reduced_cohomology,
    relative_cohomology,
    verify_munkres_shift,
)
from .complexes import (
    Face,
    SimplicialComplex,
    boundary_simplex,
    complex_from_json,
    cone,
    cycle,
    disjoint_points,
    join,
    load_complex,
    parse_facet_text,
    random_complex,
    rp2_minimal,
    simplex,
    suspension,
    to_facet_text,
    to_json_obj,
    validate,
)
from .corpus import DEFAULT_SEED, named_corpus, random_corpus
from .depth import (
    BettiTable,
    DepthReport,
    betti_table,
    depth,
    depth_ab,
    depth_reisner,
    depth_topological,
    verify_limit_depth_criterion,
    verify_star_link,
)
from .errors import (
    BadParameter,
    EmptyFace,
    EmptyInput,
    EngineDisagreement,
    FaceNotInComplex,
    InputError,
    InternalInvariantError,
    NotAComplex,
    NotASubcomplex,
    OddDegree,
    RepeatedVertex,
    SrdepthError,
    TooLarge,
    UnusedVertex,
    VertexOutOfRange,
)
from .face_ring import graded_dim, monomial_basis
from .limits import (
    LimitsProfile,
    derived_limit_dims,
    flag_chains,
    limits_complex,
    rho,
    verify_limit_decomposition,
)
from .linalg import GF2, GF3, GF5, QQ, ExactMatrix, FieldSpec, cohomology_dims

__version__ = "0.1.0"
