import importlib
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth import (
    GF2,
    QQ,
    EmptyInput,
    FaceNotInComplex,
    FieldSpec,
    OddDegree,
    RepeatedVertex,
    SimplicialComplex,
    UnusedVertex,
    VertexOutOfRange,
    boundary_simplex,
    cone,
    cycle,
    derived_limit_dims,
    disjoint_points,
    graded_dim,
    join,
    local_cohomology,
    named_corpus,
    parse_facet_text,
    random_complex,
    random_corpus,
    rp2_minimal,
    simplex,
    suspension,
    to_facet_text,
    to_json_obj,
    validate,
)
import srdepth
from srdepth import complexes as complexes_module
from srdepth.complexes import complex_from_json
from srdepth.depth import _descend
from srdepth.errors import BadParameter, EmptyFace, InputError, TooLarge

from oracles import link_by_scan, small_complexes


def faces_set(K):
    return set(K.faces())


def refuse(*args, **kwargs):
    raise AssertionError("work started before the size check")


def test_validate_dedups_and_closes():
    K = validate([[1, 2], [2, 3], [1, 2]], 3)
    assert K.facets == ((1, 2), (2, 3))
    assert faces_set(K) == {(), (1,), (2,), (3,), (1, 2), (2, 3)}


def test_validate_full_simplex_power_set():
    K = validate([[1, 2, 3]], 3)
    assert sum(K.f_vector) == 8


def test_validate_rejects_unused_vertex():
    with pytest.raises(UnusedVertex):
        validate([[1], [3]], 3)


def test_validate_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        validate([[1, 4]], 3)
    with pytest.raises(VertexOutOfRange):
        validate([[0, 1]], 3)


def test_validate_contained_facet_dropped():
    K = validate([[1, 2, 3], [1, 2]], 3)
    assert K.facets == ((1, 2, 3),)


def test_empty_input_vs_irrelevant_complex():
    with pytest.raises(EmptyInput):
        validate([], 0)
    K = validate([[]], 0)
    assert K.is_irrelevant
    assert K.dim == -1 and K.krull_dim == 0
    assert faces_set(K) == {()}


def test_star_examples():
    C4 = cycle(4)
    assert C4.star((1,)).facets == ((1, 2), (1, 4))
    assert C4.star(()) == C4
    full = simplex(3)
    assert full.star((1, 2, 3)) == full


def test_link_examples():
    C4 = cycle(4)
    assert C4.link((1,)).facets == ((2,), (4,))
    assert simplex(3).link((1,)).facets == ((2, 3),)
    # link of a facet is the complex {-}
    assert C4.link((1, 2)).is_irrelevant


def test_link_of_empty_face_is_whole_complex():
    K = rp2_minimal()
    assert K.link(()) == K


@settings(max_examples=40, deadline=None)
@given(small_complexes)
def test_links_from_parent_links_match_the_full_scan(K):
    # the links made from their parents', as the walk of depth_reisner
    # makes them, and each link asked of K on its own
    links = [(mask, link) for mask, _, link in _descend(K, K, lambda parent, v, s: parent.link_by_mask(v))]
    assert [mask for mask, _ in links] == list(K.face_masks)
    for s, link in links:
        assert link == link_by_scan(K, s)
        assert K.link_by_mask(s) == link_by_scan(K, s)


class _ScannedFaces(tuple):
    """A face tuple that records its length whenever it is iterated."""

    scans = []

    def __iter__(self):
        self.scans.append(len(self))
        return super().__iter__()


def test_a_link_scans_only_its_parent_link():
    K = boundary_simplex(8)

    def child(parent, v, s):
        _ScannedFaces.scans.clear()
        link = parent.link_by_mask(v)
        assert _ScannedFaces.scans == [len(parent.face_masks)]
        link._faces = _ScannedFaces(link._faces)
        return link

    # each link scans its parent's face list alone: the 511 faces of K for
    # a vertex, 63 for a face of four vertices
    root = boundary_simplex(8)
    root._faces = _ScannedFaces(root._faces)
    links = [(mask, link) for mask, _, link in _descend(K, root, child)]
    assert len(links) == 511
    assert all(link == link_by_scan(K, mask) for mask, link in links)


def test_star_link_membership_law():
    for K in [cycle(5), rp2_minimal(), random_complex(6, 2, 0.4, 7)]:
        all_faces = faces_set(K)
        for sigma in K.faces():
            star = K.star(sigma)
            link = K.link(sigma)
            assert faces_set(link) <= faces_set(star) <= all_faces
            for tau in K.faces():
                in_star = tuple(sorted(set(sigma) | set(tau))) in all_faces
                assert star.has_face(tau) == in_star


def test_star_is_join_of_simplex_with_link():
    for K in [cycle(4), rp2_minimal(), random_complex(6, 2, 0.5, 3)]:
        for sigma in K.faces():
            star = K.star(sigma)
            link = K.link(sigma)
            # faces of the star are exactly (subset of sigma) | (link face)
            expected = set()
            for picked in range(1 << len(sigma)):
                part = tuple(v for i, v in enumerate(sigma) if picked & (1 << i))
                for tau in link.faces():
                    expected.add(tuple(sorted(set(part) | set(tau))))
            assert faces_set(star) == expected


def test_face_not_in_complex():
    with pytest.raises(FaceNotInComplex):
        cycle(4).star((1, 3))
    with pytest.raises(FaceNotInComplex):
        cycle(4).link((5,))
    # labels below 1 are an input error, not a bare shift-count ValueError
    for call in (
        lambda: cycle(4).has_face((0,)),
        lambda: cycle(4).star((0,)),
        lambda: cycle(4).link((-1,)),
        lambda: local_cohomology(cycle(4), (0,), QQ),
    ):
        with pytest.raises(VertexOutOfRange):
            call()


def test_face_arguments_are_checked_like_facets():
    K = cycle(4)
    # a label must be an int, so a bool is not vertex 1
    for label in (True, False, 1.0, "a", None):
        for call in (K.star, K.link, K.contrastar, K.induced, K.has_face):
            with pytest.raises(VertexOutOfRange):
                call([label])
        with pytest.raises(VertexOutOfRange):
            local_cohomology(K, [label], QQ)
    # a label past K's vertices, however large, names no face of K
    for label in (5, 2**64, 10**5000):
        for call in (K.star, K.link, K.contrastar):
            with pytest.raises(FaceNotInComplex):
                call([1, label])
        with pytest.raises(FaceNotInComplex):
            local_cohomology(K, [label], QQ)
        assert not K.has_face([label]) and not K.has_face([1, label])
        assert K.induced([1, 2, label]) == K.induced([1, 2])
    # two labels past the vertices do not read as a repeated vertex
    with pytest.raises(FaceNotInComplex, match="not a face"):
        K.star([7, 9])
    with pytest.raises(FaceNotInComplex) as err:
        K.star([10**5000])
    assert len(str(err.value)) < 100
    # a face written with a repeated vertex is refused as in star, not
    # deduplicated into another face
    with pytest.raises(RepeatedVertex):
        K.has_face((1, 1))
    assert not K.has_face((1, 1, 3))


def test_induced_examples():
    C4 = cycle(4)
    ind = C4.induced((1, 3))
    assert ind.facets == ((1,), (3,))
    assert C4.induced((1, 2, 3, 4)) == C4
    assert C4.induced(()).is_irrelevant


def test_induced_composition():
    K = rp2_minimal()
    W = (1, 2, 3, 5)
    U = (2, 3, 5)
    assert K.induced(W).induced(U) == K.induced(U)


def test_contrastar_is_downward_closed_and_misses_face():
    K = rp2_minimal()
    for sigma in K.faces():
        if not sigma:
            continue
        cs = K.contrastar(sigma)
        assert not cs.has_face(sigma)
        for f in cs.faces():
            assert K.has_face(f)
    with pytest.raises(EmptyFace):
        K.contrastar(())
    with pytest.raises(EmptyFace):
        K.contrastar_by_mask(0)


def test_cycle_generator():
    C4 = cycle(4)
    assert C4.m == 4 and C4.f_vector[2] == 4
    assert C4.euler_characteristic() == 0
    with pytest.raises(BadParameter):
        cycle(2)


def test_boundary_simplex():
    S2 = boundary_simplex(3)
    assert S2.m == 4 and S2.dim == 2
    assert S2.f_vector == (1, 4, 6, 4)
    assert S2.euler_characteristic() == 2


def test_rp2_fvector_and_edge_incidences():
    K = rp2_minimal()
    assert K.f_vector == (1, 6, 15, 10)
    triangles = [f for f in K.faces(3)]
    # each of the 15 edges lies in exactly two triangles, so the number of
    # edge-triangle incidences is 2 * 15 = 3 * (#triangles)
    incidences = 0
    for e in K.faces(2):
        count = sum(1 for t in triangles if set(e) <= set(t))
        assert count == 2
        incidences += count
    assert incidences == 3 * len(triangles) == 2 * 10 * 3 // 2


def test_join_point_is_cone():
    for K in [cycle(3), disjoint_points(2), rp2_minimal()]:
        assert join(simplex(1), K) == cone(K)


def test_suspension_of_two_points_is_four_cycle():
    S = suspension(disjoint_points(2))
    assert S.m == 4
    assert S.f_vector == (1, 4, 4)
    assert S.euler_characteristic() == 0


def test_join_with_irrelevant_complex():
    K = cycle(3)
    assert join(K, validate([[]], 0)).f_vector == K.f_vector


def test_random_complex_deterministic():
    a = random_complex(7, 2, 0.5, 123)
    b = random_complex(7, 2, 0.5, 123)
    c = random_complex(7, 2, 0.5, 124)
    assert a == b
    assert a != c
    assert a.m == 7


def test_random_complex_bad_parameters():
    with pytest.raises(BadParameter):
        random_complex(0, 2, 0.5, 1)
    with pytest.raises(BadParameter):
        random_complex(5, -1, 0.5, 1)
    with pytest.raises(BadParameter):
        random_complex(5, 2, 1.5, 1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: validate([[1]], 10**5000), UnusedVertex),
        (lambda: random_complex(10**5000, 1, 0.5, 1), TooLarge),
        (lambda: FieldSpec(10**5000), BadParameter),
        (lambda: derived_limit_dims(cycle(4), GF2, -(10**5000)), BadParameter),
        (lambda: graded_dim(cycle(4), 10**5000 + 1), OddDegree),
        (lambda: random_corpus(-(10**5000)), BadParameter),
    ],
    ids=["validate", "random_complex", "FieldSpec", "derived_limit_dims", "graded_dim", "random_corpus"],
)
def test_ints_past_the_print_limit_raise_short_input_errors(call, error):
    # 10**5000 has more digits than Python prints by default: the message
    # names its bit length instead of raising a bare ValueError
    with pytest.raises(error) as err:
        call()
    assert "<int of 16610 bits>" in str(err.value) and len(str(err.value)) < 200


# each scalar int parameter, with the call that takes it and the bool that
# lies in its range where one does; a str, a float and that bool are refused
_SCALAR_GATES = [
    ("validate([[1]], {})", "BadParameter", "True"),
    ("simplex({})", "BadParameter", "True"),
    ("boundary_simplex({})", "BadParameter", "True"),
    ("cycle({})", "BadParameter", "True"),
    ("disjoint_points({})", "BadParameter", "True"),
    ("random_complex({}, 1, 0.5, 1)", "BadParameter", "True"),
    ("random_complex(5, {}, 0.5, 1)", "BadParameter", "True"),
    ("random_complex(5, 1, 0.5, {})", "BadParameter", "True"),
    ("random_corpus({})", "BadParameter", "True"),
    ("random_corpus(3, max_m={})", "BadParameter", "True"),
    ("random_corpus(3, seed={})", "BadParameter", "True"),
    ("derived_limit_dims(cycle(4), GF2, {})", "BadParameter", "True"),
    ("reduced_cohomology(cycle(4), GF2, {})", "BadParameter", "True"),
    ("graded_dim(cycle(4), {})", "OddDegree", "False"),
    ("_d_max(Namespace(d_max={}), cycle(4))", "BadParameter", "True"),
    ("hilbert_series(cycle(4)).expansion({})", "BadParameter", "True"),
    ("cycle(4).faces({})", "BadParameter", "True"),
]
_MASK_GATES = [
    "cycle(4).star_by_mask({})",
    "cycle(4).link_by_mask({})",
    "cycle(4).contrastar_by_mask({})",
    "SimplicialComplex([3, {}])",
]
# (call, error, isolated): an isolated call can hang or exhaust memory where
# its gate is missing, so it runs in a child with a 1 GB address space and a
# timeout, and must also answer within a CPU second
_PROBES = (
    [(call.format(bad), error, False) for call, error, bool_ in _SCALAR_GATES for bad in ("'6'", "6.0", bool_)]
    + [("random_complex(5, 1, {}, 1)".format(bad), "BadParameter", False) for bad in ("'1'", "float('nan')", "True")]
    + [
        (call, "BadParameter", False)
        for call in ("random_complex(5, 1, 0.5, [1])", "hilbert_series(cycle(4)).expansion(-3)", "cycle(4).faces(-1)")
    ]
    + [(call.format(bad), "BadParameter", bad == "-1") for call in _MASK_GATES for bad in ("'1'", "1.0", "True", "-1")]
    + [
        (call, "TooLarge", True)
        for call in (
            "simplex(10**12)",
            "boundary_simplex(10**5)",
            "cycle(10**5)",
            "cycle(10**6)",
            "disjoint_points(10**6)",
        )
    ]
)
_PROBE_NAMES = "from argparse import Namespace\nfrom srdepth import *\nfrom srdepth.cli import _d_max\n"
_PROBE_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from srdepth.errors import InputError
""" + _PROBE_NAMES + """
start = time.process_time()
try:
    eval(sys.argv[1])
except InputError as exc:
    print(type(exc).__name__, len(str(exc)), time.process_time() - start)
"""


@pytest.mark.parametrize("call, error, isolated", _PROBES, ids=[p[0] for p in _PROBES])
def test_parameter_gates_refuse_non_ints_and_bad_masks(call, error, isolated):
    if isolated:
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srdepth.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", _PROBE_CHILD, call], env=env, capture_output=True, text=True, timeout=10
        )
        name, length, cpu = result.stdout.split()
        assert float(cpu) < 1.0
    else:
        names = {}
        exec(_PROBE_NAMES, names)
        with pytest.raises(InputError) as err:
            eval(call, names)
        name, length = type(err.value).__name__, len(str(err.value))
    assert name == error and int(length) < 200


def test_level_cuts_match_a_popcount_recount():
    # levels, f-vector and faces(card) read the cuts kept on the complex;
    # each must equal the faces of that cardinality counted one by one
    cases = [K for _, K in named_corpus()] + [K for _, _, K in random_corpus(60, 7, 8)]
    cases += [simplex(0), boundary_simplex(6)]
    for K in cases:
        by_card = [[] for _ in range(K.dim + 2)]
        for mask in K.face_masks:
            by_card[mask.bit_count()].append(mask)
        assert K._cuts is None
        assert K.levels() == [tuple(level) for level in by_card], K
        assert K._cuts is not None
        assert K.f_vector == tuple(map(len, by_card)), K
        for card in range(K.dim + 4):
            level = by_card[card] if card < len(by_card) else []
            assert list(K.faces(card)) == [complexes_module._verts_of(f) for f in level], (K, card)


def test_membership_queries_build_the_face_set_on_first_use():
    # a complex keeps its face list alone until asked whether a face is in
    # it; every query answers the same before and after the set is built
    faces = set(rp2_minimal().face_masks)
    probes = [t for k in range(4) for t in combinations(range(1, 8), k)]
    queries = [
        lambda L: [L.has_face(t) for t in probes],
        lambda L: [L.has_face_mask(mask) for mask in range(1 << 7)],
        lambda L: L.star((1,)),
        lambda L: L.star_by_mask(0b11),
        lambda L: L.link((1, 2)),
        lambda L: L.link_by_mask(0b101),
        lambda L: L.contrastar((4,)),
        lambda L: L.contrastar_by_mask(0b1000),
        lambda L: L.is_subcomplex_of(cycle(6)),
        lambda L: L.induced((1, 2, 5)).is_subcomplex_of(L),
    ]
    for query in queries:
        fresh, built = rp2_minimal(), rp2_minimal()
        assert built._face_set == faces
        assert fresh._members is None
        assert query(fresh) == query(built)
        assert fresh._face_set is fresh._face_set == faces
    assert queries[0](rp2_minimal()) == [complexes_module._mask_of(t) in faces for t in probes]
    assert queries[1](rp2_minimal()) == [mask in faces for mask in range(1 << 7)]
    with pytest.raises(FaceNotInComplex):
        rp2_minimal().link((1, 2, 3))
    with pytest.raises(RepeatedVertex):
        rp2_minimal().has_face((1, 1))


def test_has_face_mask_answers_false_for_a_non_mask():
    K = cycle(4)
    assert K.has_face_mask(1) and not K.has_face_mask(True)
    assert not any(K.has_face_mask(x) for x in (-1, 1.0, "1", None))


def test_random_corpus_cycles_its_parameters():
    params = [p for _, p, _ in random_corpus(13, 7, 6)]
    assert [p["m"] for p in params] == [4, 5, 6] * 4 + [4]
    assert [p["d"] for p in params] == [1] * 3 + [2] * 3 + [3] * 3 + [2] * 3 + [1]
    assert [p["seed"] for p in params] == list(range(7, 20))


def test_random_corpus_builds_its_largest_entry_first(monkeypatch):
    # max_m 40 holds entries whose faces pass 2^18: the first complex built
    # is refused, before any of the small ones is drawn
    corpus_module = importlib.import_module("srdepth.corpus")
    calls = []
    draw = corpus_module.random_complex
    monkeypatch.setattr(corpus_module, "random_complex", lambda *a, **k: calls.append(k) or draw(*a, **k))
    with pytest.raises(TooLarge):
        random_corpus(200, 20240101, 40)
    assert len(calls) == 1 and calls[0]["m"] == 40
    # the entries still come in index order, each from its own seed
    calls.clear()
    entries = random_corpus(13, 7, 6)
    assert [name for name, _, _ in entries] == [f"random_{i:03d}" for i in range(13)]
    assert calls[0] == entries[8][1]  # m=6, d=3: C(6, 4) * 2^4 * 0.2, the largest
    assert all(K == random_complex(**p) for _, p, K in entries)


def test_every_int_is_a_seed():
    assert [p["seed"] for _, p, _ in random_corpus(2, seed=-7)] == [-7, -6]
    assert random_complex(5, 1, 0.5, 10**5000).m == 5


def test_random_complex_too_many_subsets_fails_before_any_draw(monkeypatch):
    # C(72, 4) = 1,028,790 candidates are drawn; C(73, 4) = 1,088,430 > 2^20
    assert random_complex(72, 3, 0.0, 1).m == 72
    monkeypatch.setattr(complexes_module.random, "Random", refuse)
    with pytest.raises(TooLarge, match="1088430"):
        random_complex(73, 3, 0.5, 1)


def test_face_index_bound_counts_subsets_of_distinct_generators():
    # 2^18 subsets build; one more vertex beside them is refused at once
    assert SimplicialComplex([(1 << 18) - 1, (1 << 18) - 1]).f_vector[18] == 1
    start = time.process_time()
    with pytest.raises(TooLarge, match="262146"):
        SimplicialComplex([(1 << 18) - 1, 1 << 18])
    assert time.process_time() - start < 0.5


@given(
    st.lists(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_constructor_invariants_hold(raw):
    used = sorted({v for f in raw for v in f})
    relabel = {v: i + 1 for i, v in enumerate(used)}
    facets = [[relabel[v] for v in f] for f in raw]
    K = validate(facets, len(used))
    face_set = set(K.face_masks)
    # downward closed
    for f in face_set:
        m = f
        while m:
            b = m & -m
            m ^= b
            assert (f ^ b) in face_set
    # facets form an antichain
    fm = K.facet_masks
    for a in fm:
        for b in fm:
            assert a == b or (a & b) != a
    # every vertex occurs
    assert K.m == len(used)


def _assert_canonical(K):
    face_set = set(K.face_masks)
    for f in face_set:
        m = f
        while m:
            b = m & -m
            m ^= b
            assert (f ^ b) in face_set
    for a in K.facet_masks:
        for b in K.facet_masks:
            assert a == b or (a & b) != a


def test_invariants_after_every_constructor():
    built = [
        simplex(4),
        boundary_simplex(3),
        cycle(6),
        disjoint_points(3),
        rp2_minimal(),
        cone(cycle(4)),
        suspension(disjoint_points(2)),
        join(cycle(3), simplex(2)),
        random_complex(7, 2, 0.5, 77),
    ]
    derived = []
    for K in built:
        for sigma in list(K.faces())[:6]:
            derived.append(K.star(sigma))
            derived.append(K.link(sigma))
            if sigma:
                derived.append(K.contrastar(sigma))
        derived.append(K.induced(K.vertices[: max(K.m - 1, 0)]))
    for K in built + derived:
        _assert_canonical(K)
        # the facets generate the same face list, in the same canonical order
        rebuilt = SimplicialComplex(K.facet_masks)
        assert rebuilt.face_masks == K.face_masks
        assert (rebuilt.dim, rebuilt.vertices) == (K.dim, K.vertices)


def test_text_roundtrip():
    for K in [cycle(5), rp2_minimal(), disjoint_points(3)]:
        assert parse_facet_text(to_facet_text(K)) == K


def test_text_header_and_comments():
    K = parse_facet_text("# a square\nm 4\n1 2\n2 3\n3 4\n1 4\n")
    assert K == cycle(4)
    # default m is the max vertex seen
    assert parse_facet_text("1 2\n2 3\n1 3\n") == cycle(3)


def test_json_roundtrip():
    for K in [cycle(5), validate([[]], 0)]:
        assert complex_from_json(to_json_obj(K)) == K


def parses_or_refuses(parse, arg):
    try:
        K = parse(arg)
    except InputError:
        return
    assert isinstance(K, SimplicialComplex)


labels = st.one_of(st.integers(-2, 12), st.integers(0, 10**20))
tokens = st.one_of(labels.map(str), st.sampled_from(["m", "#", "-", "--1", "1#2"]))
facet_lines = st.lists(st.lists(tokens, max_size=6).map(" ".join), max_size=5).map("\n".join)


@given(st.one_of(st.text(alphabet="0123456789m#- \n", max_size=40), facet_lines))
@settings(max_examples=300, deadline=None)
def test_facet_text_parses_or_raises_input_error(text):
    parses_or_refuses(parse_facet_text, text)


@given(labels, st.lists(st.lists(labels, max_size=5), max_size=4))
@settings(max_examples=300, deadline=None)
def test_json_complex_parses_or_raises_input_error(m, facets):
    parses_or_refuses(complex_from_json, {"m": m, "facets": facets})


def quadratic_maximal(masks):
    """Reference facet detection: members contained in no other member."""
    return [f for f in masks if not any(f != g and f & g == f for g in masks)]


def _subcomplexes(K):
    """K with every star, link and contrastar of a face and every induced
    subcomplex of it."""
    subs = [K]
    for mask in K.face_masks:
        subs += [K.star_by_mask(mask), K.link_by_mask(mask)]
        if mask:  # the empty face has no contrastar
            subs.append(K.contrastar_by_mask(mask))
    for k in range(K.m + 1):
        subs += [K.induced(w) for w in combinations(K.vertices, k)]
    return subs


def test_maximal_matches_quadratic_definition_on_named_subcomplexes():
    from srdepth import named_corpus
    from srdepth.complexes import _maximal

    checked = 0
    for name, K in named_corpus():
        subs = _subcomplexes(K)
        face_set = set(K.face_masks)
        for mask in K.face_masks:
            # the link as it was first defined: disjoint faces whose union is a face
            expected = [f for f in K.face_masks if f & mask == 0 and f | mask in face_set]
            assert list(K.link_by_mask(mask).face_masks) == expected, name
        for sub in subs:
            expected = quadratic_maximal(sub.face_masks)
            assert _maximal(sub.face_masks) == expected, name
            assert list(sub.facet_masks) == expected, name
            checked += 1
    assert checked > 2000


@given(small_complexes)
@settings(max_examples=30, deadline=None)
def test_levels_cut_the_canonical_order_by_cardinality(K):
    for sub in _subcomplexes(K):
        faces = sub.face_masks
        levels = sub.levels()
        assert len(levels) == sub.dim + 2
        assert [f for level in levels for f in level] == list(faces)
        assert all(f.bit_count() == k for k, level in enumerate(levels) for f in level)
        assert sub.f_vector == tuple(len(level) for level in levels)
        vmask = 0
        for f in faces:
            vmask |= f
        assert sub.vertices == tuple(i + 1 for i in range(vmask.bit_length()) if vmask >> i & 1)
        for c in range(0, sub.dim + 4):
            expected = [f for f in sub.faces() if len(f) == c]
            assert list(sub.faces(c)) == expected, c
        for c in (-2, -1):
            with pytest.raises(BadParameter):
                sub.faces(c)
