"""Span tracing of srdepth's public functions, installed from outside the package.

``install()`` replaces each traced function or method with a wrapper that
records one span per call: name, start, end, the index of the enclosing
span, the op id, and an optional tag and amount (matrix entries, faces,
monomials, ...).  A function is replaced under every name that binds it in
an ``srdepth`` module, so calls through ``from .x import f`` aliases are
seen too.  Spans stay in memory; ``write_spans`` stores them once at the end.

``layer_counters`` reduces the spans to additive per-layer counters, and
``layer_metrics`` derives the reported per-layer metrics (ratios included)
from counters summed over any number of processes.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

NAME, START, END, PARENT, OP, TAG, AMOUNT = range(7)

SUBCOMPLEX = (
    "complexes.star", "complexes.star_by_mask", "complexes.link", "complexes.link_by_mask",
    "complexes.induced", "complexes.contrastar", "complexes.contrastar_by_mask",
)


def _faces(args, kwargs, result):
    return None, len(args[0].face_masks)


def _entries(args, kwargs, result):
    m = args[0]
    return None, m.rows * m.cols


def _rank_field(args, kwargs, result):
    m = args[0]
    p = m.field.p
    return ("q" if p is None else "gf2" if p == 2 else "gfp"), m.rows * m.cols


def _length(args, kwargs, result):
    return None, len(result)


def _flag_count(args, kwargs, result):
    return None, sum(len(level) for level in result)


def _method(args, kwargs, result):
    return kwargs.get("method", args[3] if len(args) > 3 else "grouped"), 0


# (module, attribute path, span name, describe); every public function or
# method whose cost a per-layer metric reports
TARGETS = (
    ("complexes", "SimplicialComplex.__init__", "complexes.build", _faces),
    ("complexes", "SimplicialComplex.star", "complexes.star", None),
    ("complexes", "SimplicialComplex.star_by_mask", "complexes.star_by_mask", None),
    ("complexes", "SimplicialComplex.link", "complexes.link", None),
    ("complexes", "SimplicialComplex.link_by_mask", "complexes.link_by_mask", None),
    ("complexes", "SimplicialComplex.induced", "complexes.induced", None),
    ("complexes", "SimplicialComplex.contrastar", "complexes.contrastar", None),
    ("complexes", "SimplicialComplex.contrastar_by_mask", "complexes.contrastar_by_mask", None),
    ("complexes", "load_complex", "complexes.load_complex", None),
    ("cohomology", "reduced_cohomology", "cohomology.reduced", None),
    ("cohomology", "relative_cohomology", "cohomology.relative", None),
    ("cohomology", "verify_munkres_shift", "cohomology.munkres", None),
    ("linalg", "ExactMatrix.__init__", "linalg.build", _entries),
    ("linalg", "ExactMatrix.rank", "linalg.rank", _rank_field),
    ("linalg", "cohomology_dims", "linalg.cohomology_dims", None),
    ("face_ring", "star_basis", "face_ring.star_basis", _length),
    ("face_ring", "monomial_basis", "face_ring.monomial_basis", _length),
    ("face_ring", "graded_dim", "face_ring.graded_dim", None),
    ("limits", "derived_limit_dims", "limits.derived_limit_dims", _method),
    ("limits", "limits_complex", "limits.limits_complex", None),
    ("limits", "flag_chains", "limits.flag_chains", _flag_count),
    ("limits", "rho", "limits.rho", None),
    ("limits", "verify_limit_decomposition", "limits.decomposition", None),
    ("depth", "depth_reisner", "depth.reisner", None),
    ("depth", "depth_topological", "depth.topological", None),
    ("depth", "depth_ab", "depth.ab", None),
    ("depth", "betti_table", "depth.betti_table", None),
    ("depth", "verify_star_link", "depth.star_link", None),
    ("depth", "verify_limit_depth_criterion", "depth.key_lemma", None),
    ("cli", "main", "cli.main", None),
)


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def wrap(self, name, fn, describe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if describe is not None:
                rec[TAG], rec[AMOUNT] = describe(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target under every srdepth binding of it."""
    importlib.import_module("srdepth")
    modules = [m for n, m in list(sys.modules.items()) if n == "srdepth" or n.startswith("srdepth.")]
    for mod_name, path, span_name, describe in TARGETS:
        owner = importlib.import_module(f"srdepth.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, recorder.wrap(span_name, getattr(cls, attr), describe))
            continue
        original = getattr(owner, path)
        wrapper = recorder.wrap(span_name, original, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def write_spans(spans, path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


INCLUSIVE = {
    "cohomology.munkres": "cohomology.munkres_s",
    "limits.rho": "limits.rho_s",
    "limits.decomposition": "limits.decomposition_s",
    "depth.reisner": "depth.reisner_s",
    "depth.topological": "depth.topological_s",
    "depth.ab": "depth.ab_s",
    "depth.star_link": "depth.star_link_s",
    "depth.key_lemma": "depth.key_lemma_s",
    "complexes.load_complex": "cli.load_s",
}

SELF = {
    "complexes.build": "complexes.build_s",
    "cohomology.reduced": "cohomology.reduced_self_s",
    "cohomology.relative": "cohomology.relative_self_s",
    "linalg.build": "linalg.build_s",
    "linalg.cohomology_dims": "linalg.d2_check_s",
    "face_ring.star_basis": "face_ring.basis_s",
    "face_ring.monomial_basis": "face_ring.basis_s",
    "face_ring.graded_dim": "face_ring.graded_dim_s",
    "limits.limits_complex": "limits.direct_assembly_s",
    "cli.main": "cli.self_s",
}

CALLS = {
    "complexes.build": "complexes.built",
    "cohomology.reduced": "cohomology.reduced_calls",
    "cohomology.relative": "cohomology.relative_calls",
    "linalg.build": "linalg.matrices_built",
    "linalg.cohomology_dims": "linalg.cohomology_dims_calls",
    "face_ring.star_basis": "face_ring.basis_calls",
    "face_ring.monomial_basis": "face_ring.basis_calls",
    **{name: "complexes.subcomplex_calls" for name in SUBCOMPLEX},
}

AMOUNTS = {
    "complexes.build": "complexes.faces_built",
    "linalg.build": "linalg.entries_built",
    "face_ring.star_basis": "face_ring.monomials",
    "face_ring.monomial_basis": "face_ring.monomials",
    "limits.flag_chains": "limits.flags",
}

FIELDS = ("gf2", "gfp", "q")

# additive counters; layer_metrics derives the reported metrics from them
COUNTERS = sorted(
    set(INCLUSIVE.values()) | set(SELF.values()) | set(CALLS.values()) | set(AMOUNTS.values())
    | {f"linalg.{k}.{f}" for k in ("rank_calls", "rank_s", "rank_entries") for f in FIELDS}
    | {"complexes.subcomplex_built", "limits.grouped_calls", "limits.grouped_self_s",
       "limits.assembled_entries", "depth.hochster_subsets", "cli.main_s", "trace.spans"}
)


def layer_counters(spans) -> dict:
    """Additive per-layer counters of one span list."""
    out = dict.fromkeys(COUNTERS, 0)
    child = [0.0] * len(spans)
    built_child = [False] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            if s[NAME] == "complexes.build":
                built_child[s[PARENT]] = True
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if name in INCLUSIVE and not _has_ancestor(spans, i, name):
            out[INCLUSIVE[name]] += dur
        if name in SELF:
            out[SELF[name]] += dur - child[i]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name in AMOUNTS:
            out[AMOUNTS[name]] += s[AMOUNT]
        if name in SUBCOMPLEX and built_child[i]:
            out["complexes.subcomplex_built"] += 1
        if name == "complexes.induced" and _has_ancestor(spans, i, "depth.betti_table"):
            out["depth.hochster_subsets"] += 1
        if name == "linalg.rank":
            out[f"linalg.rank_calls.{s[TAG]}"] += 1
            out[f"linalg.rank_s.{s[TAG]}"] += dur
            out[f"linalg.rank_entries.{s[TAG]}"] += s[AMOUNT]
        if name == "linalg.build" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "limits.limits_complex":
            out["limits.assembled_entries"] += s[AMOUNT]
        if name == "limits.derived_limit_dims" and s[TAG] == "grouped":
            out["limits.grouped_calls"] += 1
            out["limits.grouped_self_s"] += dur - child[i]
        if name == "cli.main":
            out["cli.main_s"] += dur
    out["trace.spans"] = len(spans)
    return out


def add_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def layer_metrics(counters: dict, process_s: float, overhead_s: float) -> dict:
    """Reported per-layer metrics from summed counters.  ``process_s`` is the
    CLI op wall time not spent inside ``main``; ``overhead_s`` is traced
    minus untraced wall time of the same pass."""
    out = {k: v for k, v in counters.items() if k not in ("complexes.subcomplex_built", "cli.main_s")}
    calls = counters["complexes.subcomplex_calls"]
    out["complexes.subcomplex_reuse"] = 1 - counters["complexes.subcomplex_built"] / calls if calls else 0.0
    out["cli.process_s"] = process_s
    out["trace.overhead_s"] = overhead_s
    return out
