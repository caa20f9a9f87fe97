"""Command-line front end.

Subcommands: ``depth`` (three-engine depth report), ``limits`` (derived
limit dimensions per degree plus the decomposition verdict), ``verify``
(all verification harnesses), ``corpus`` (deterministic corpus emission).

Exit codes: 0 success / all verdicts pass, 1 a verification verdict failed,
2 invalid input or too little memory, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .cohomology import reduced_cohomology, verify_munkres_shift
from .complexes import SimplicialComplex, load_complex, to_facet_text
from .depth import depth, verify_limit_depth_criterion, verify_star_link
from .errors import InputError, InternalInvariantError, _parse_int, _quote, _require_int
from .limits import default_degree_bound, verify_limit_decomposition
from .linalg import FieldSpec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _complex_summary(K: SimplicialComplex) -> dict:
    return {
        "m": K.m,
        "dim": K.dim,
        "f_vector": list(K.f_vector),
    }


def _depth_json(rep) -> dict:
    return {
        "reisner": rep.reisner,
        "topological": rep.topological,
        "auslander_buchsbaum": rep.auslander_buchsbaum,
        "agree": rep.agree,
    }


def _cohomology_json(K, field) -> dict:
    dims = reduced_cohomology(K, field).dims
    return {str(i): dims.get(i, 0) for i in range(-1, max(K.dim, -1) + 1)}


def _print_report_text(report: dict):
    print(f"complex: m={report['m']} dim={report['dim']} f_vector={tuple(report['f_vector'])}")
    print(f"field: {report['field']}")
    if "depth" in report:
        d = report["depth"]
        print(
            "depth: reisner={reisner} topological={topological} "
            "auslander_buchsbaum={auslander_buchsbaum} agree={agree}".format(**{
                **d, "agree": str(d["agree"]).lower()
            })
        )
        print(f"cohen_macaulay: {str(report['cohen_macaulay']).lower()}")
    coh = report.get("reduced_cohomology")
    if coh is not None:
        parts = " ".join(f"H^{i}={coh[i]}" for i in sorted(coh, key=int))
        print(f"reduced_cohomology: {parts}")
    lims = report.get("limits")
    if lims is not None:
        # internal degree d, algebraic (halved) degree in parentheses
        print("limits (i: d(d/2):dim, nonzero entries):")
        for i in sorted(lims, key=int):
            pairs = [
                f"{d}({int(d) // 2}):{v}"
                for d, v in sorted(lims[i].items(), key=lambda kv: int(kv[0]))
                if v
            ]
            print(f"  lim^{i}: {' '.join(pairs) if pairs else '0'}")
    verdicts = report.get("verdicts")
    if verdicts is not None:
        parts = " ".join(f"{k}={verdicts[k]}" for k in sorted(verdicts))
        print(f"verdicts: {parts}")


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_report_text(report)


def _depth_report(K, field) -> dict:
    rep = depth(K, field)
    return {
        **_complex_summary(K),
        "field": str(field),
        "depth": _depth_json(rep),
        "cohen_macaulay": rep.cohen_macaulay,
        "reduced_cohomology": _cohomology_json(K, field),
    }


def cmd_depth(args) -> int:
    K = load_complex(args.input)
    _emit(_depth_report(K, FieldSpec.parse(args.field)), args.json)
    return EXIT_OK


def _limits_json(profile) -> dict:
    return {
        str(i): {str(d): v for d, v in sorted(profile.lim[i].items())}
        for i in sorted(profile.lim)
    }


def _d_max(args, K) -> int:
    """The --d-max value or its default, rejected when negative even where
    no limits get computed (the complex without vertices)."""
    if args.d_max is None:
        return default_degree_bound(K)
    return _require_int(args.d_max, 0, "--d-max")


def cmd_limits(args) -> int:
    K = load_complex(args.input)
    field = FieldSpec.parse(args.field)
    d_max = _d_max(args, K)
    report = {**_complex_summary(K), "field": str(field), "limits": {}, "verdicts": {"srdec": "pass"}}
    if not K.is_irrelevant:  # else no nonempty face indexes the limit complex
        dec = verify_limit_decomposition(K, field, d_max)
        report["limits"] = _limits_json(dec.profile)
        report["rho"] = {
            "kernel": {str(d): v for d, v in sorted(dec.profile.rho_kernel.items())},
            "cokernel": {str(d): v for d, v in sorted(dec.profile.rho_cokernel.items())},
        }
        report["verdicts"]["srdec"] = "pass" if dec.passed else "fail"
    report["reduced_cohomology"] = _cohomology_json(K, field)
    _emit(report, args.json)
    return EXIT_OK if report["verdicts"]["srdec"] == "pass" else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    K = load_complex(args.input)
    field = FieldSpec.parse(args.field)
    d_max = _d_max(args, K)
    report = _depth_report(K, field)
    passed = dict.fromkeys(("srdec", "star_link", "key_lemma", "munkres"), True)
    if not K.is_irrelevant:  # else no nonempty faces: every harness holds vacuously
        dec = verify_limit_decomposition(K, field, d_max)
        passed["srdec"] = dec.passed
        passed["star_link"] = verify_star_link(K, field).passed
        passed["key_lemma"] = verify_limit_depth_criterion(K, field, profile=dec.profile).passed
        passed["munkres"] = verify_munkres_shift(K, field).passed
        report["limits"] = _limits_json(dec.profile)
    report["verdicts"] = {k: "pass" if v else "fail" for k, v in passed.items()}
    _emit(report, args.json)
    return EXIT_OK if all(passed.values()) else EXIT_VERIFY_FAILED


def cmd_corpus(args) -> int:
    # every complex is built before OUT is made, so bad arguments leave no trace
    if args.kind == "named":
        entries = [(name, None, K) for name, K in corpus_mod.named_corpus()]
        manifest = {"kind": "named"}
    else:
        entries = corpus_mod.random_corpus(args.count, args.seed, args.m)
        manifest = {"kind": "random", "seed": args.seed, "count": args.count, "max_m": args.m}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest["entries"] = []
    for name, params, K in entries:
        path = out / f"{name}.facets"
        path.write_text(to_facet_text(K), encoding="utf-8")
        entry = {"name": name, "file": path.name, "m": K.m, "dim": K.dim}
        if params is not None:
            entry["params"] = params
        manifest["entries"].append(entry)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(entries)} complexes to {out}")
    return EXIT_OK


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:  # argparse's own message would repeat the whole text
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdepth",
        description="Exact depth of face rings, derived limits over the face poset, and verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="facet-list or JSON complex file")
        p.add_argument("--field", default="p=2", help="coefficient field: q or p=<prime> (default p=2)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")

    p_depth = sub.add_parser("depth", help="three-engine depth report")
    add_common(p_depth)
    p_depth.set_defaults(func=cmd_depth)

    p_limits = sub.add_parser("limits", help="derived limit dimensions per degree")
    add_common(p_limits)
    p_limits.add_argument("--d-max", type=_int_arg, default=None, help="top internal degree (default 4m)")
    p_limits.set_defaults(func=cmd_limits)

    p_verify = sub.add_parser("verify", help="run all verification harnesses")
    add_common(p_verify)
    p_verify.add_argument("--d-max", type=_int_arg, default=None, help="top internal degree (default 4m)")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="emit a deterministic corpus")
    corpus_sub = p_corpus.add_subparsers(dest="kind", required=True)
    p_named = corpus_sub.add_parser("named", help="the fixed named family")
    p_named.add_argument("out", help="output directory")
    p_named.set_defaults(func=cmd_corpus, kind="named")
    p_random = corpus_sub.add_parser("random", help="seeded random complexes")
    p_random.add_argument("out", help="output directory")
    p_random.add_argument("--m", type=_int_arg, default=8, help="max vertex count (default 8)")
    p_random.add_argument("--count", type=_int_arg, default=200)
    p_random.add_argument("--seed", type=_int_arg, default=corpus_mod.DEFAULT_SEED)
    p_random.set_defaults(func=cmd_corpus, kind="random")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        # the input path and the field reproduce the run
        rerun = f" ({args.input}, --field {args.field})" if hasattr(args, "field") else ""
        print(f"internal invariant violated: {exc}{rerun}", file=sys.stderr)
        return EXIT_INTERNAL
    # an allocation that fails inside a C call may surface as SystemError,
    # "error return without exception set", instead of MemoryError
    except (MemoryError, SystemError):
        pass  # reported below, once the frames of the failed call are freed
    print("error: out of memory", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
