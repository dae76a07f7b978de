"""Command-line front end.

Exit codes: 0 success / claim confirmed; 1 countermodel found / claim
refuted; 2 usage or parse error; 3 internal invariant violation.  The
--json output is stable (sorted keys) and byte-identical for any
--workers value.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import hierarchy, liecheck, search
from .carriers import (
    algebra_from_dict,
    algebra_to_dict,
    magma_from_dict,
    magma_to_dict,
)
from .errors import HomLabError, InvariantViolation
from .evaluate import (
    first_violation,
    first_violation_multilinear,
    is_lie,
    jacobiator,
    type_profile,
)
from .terms import (
    ALL_TAGS,
    Identity,
    builtin,
    parse_identity,
    render_identity,
    tag_from_string,
)

OK, REFUTED, USAGE, INTERNAL = 0, 1, 2, 3


def _load_structure(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "p" in data and "c" in data:
        return algebra_from_dict(data)
    return magma_from_dict(data)


def _parse_identity_arg(text: str) -> Identity:
    if "=" in text:
        return parse_identity(text)
    return builtin(tag_from_string(text))


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _cmd_check(args) -> int:
    structure = _load_structure(args.file)
    identity = _parse_identity_arg(args.identity)
    if hasattr(structure, "table"):
        witness = first_violation(structure, identity)
        names = structure.names
        witness_out = None if witness is None else [names[i] for i in witness]
    else:
        witness = first_violation_multilinear(structure, identity)
        witness_out = None if witness is None else [f"e{i+1}" for i in witness]
    ok = witness is None
    payload = {
        "identity": render_identity(identity),
        "holds": ok,
        "witness": witness_out,
    }
    text = f"{render_identity(identity)}: " + (
        "holds" if ok else f"fails at ({', '.join(witness_out)})"
    )
    _emit(args, payload, text)
    return OK if ok else REFUTED


def _cmd_profile(args) -> int:
    structure = _load_structure(args.file)
    profile = type_profile(structure)
    if profile.family == "assoc":
        payload = {"assoc": sorted(profile.names("assoc"))}
        text = "assoc types: " + (", ".join(sorted(profile.names("assoc"))) or "(none)")
    else:
        payload = {
            "assoc": sorted(profile.names("assoc")),
            "lie": sorted(profile.names("lie")),
        }
        text = (
            "assoc types: " + (", ".join(sorted(profile.names("assoc"))) or "(none)")
            + "\nlie types:   " + (", ".join(sorted(profile.names("lie"))) or "(none)")
        )
    _emit(args, payload, text)
    return OK


def _cmd_search(args) -> int:
    with open(args.specfile, "r", encoding="utf-8") as fh:
        spec = search.spec_from_dict(json.load(fh))
    verdict = search.find_model(spec, workers=args.workers)
    payload = search.verdict_to_dict(verdict)
    if verdict.found:
        text = "countermodel found:\n" + verdict.model.describe()
    else:
        text = f"exhausted: no model with at most {verdict.bound} nonzero elements"
    text += (
        f"\n[{verdict.stats.nodes} nodes, {verdict.stats.models} models tested, "
        f"{verdict.stats.cells} cells evaluated, "
        f"{verdict.stats.leaf_cells} in the leaf check, {verdict.stats.seconds:.3f}s]"
    ) if not args.json else ""
    _emit(args, payload, text)
    return REFUTED if verdict.found else OK


def _cmd_reproduce(args) -> int:
    report = hierarchy.verify_hierarchy(max_n=args.max_n, workers=args.workers)
    lie_part = _lie_reports(liecheck.DEFAULT_PRIME, seed=0, samples=50)
    lie_ok = all(v for v in lie_part.values())
    payload = report.to_dict()
    payload["lie"] = lie_part
    payload["passed"] = report.passed and lie_ok
    text = report.to_text() + "\nlie suite: " + ", ".join(
        f"{k}={'pass' if v else 'FAIL'}" for k, v in sorted(lie_part.items())
    )
    _emit(args, payload, text)
    return OK if payload["passed"] else REFUTED


def _lie_reports(p: int, seed: int, samples: int) -> dict:
    fixtures = liecheck.lie_fixtures(p)
    out = {"fixtures-load": True}
    lie_ones = [
        liecheck.abelian_algebra(3, p),
        liecheck.solvable2_algebra(p),
        liecheck.sl2_algebra(p),
    ]
    out["jacobiator-sums"] = all(
        liecheck.sweep_jacobiator_sums(a, samples, seed) for a in lie_ones
    )
    out["expansion"] = all(
        r.nine_term_matches and r.residual_equals_omitted
        for r in (liecheck.expansion_residuals(f.algebra) for f in fixtures)
    )
    out["twisted-bracket"] = all(
        liecheck.verify_twisted_bracket_lie(a).passed
        for a in lie_ones + [liecheck.solvable_morphism_algebra(p)]
    )
    out["type-implications"] = all(
        liecheck.sweep_lie_type_implications(a, samples, seed) for a in lie_ones
    )
    return out


def _cmd_lie_verify(args) -> int:
    algebra = _load_structure(args.file)
    if not hasattr(algebra, "c"):
        raise HomLabError("lie-verify needs an algebra file, not a magma file")
    rows = {}
    lie = is_lie(algebra)
    rows["is-lie"] = lie
    if lie:
        rows["jacobiator-sums"] = liecheck.verify_jacobiator_sums(algebra)
        rows["type-implications"] = liecheck.verify_lie_type_implications(algebra).passed
        rows["twisted-bracket"] = liecheck.verify_twisted_bracket_lie(algebra).passed
    expansion = liecheck.expansion_residuals(algebra)
    rows["expansion-nine-term"] = expansion.nine_term_matches
    rows["expansion-residual-accounted"] = expansion.residual_equals_omitted
    if algebra.p != 2:  # the probe needs odd characteristic
        probe = liecheck.self_adjointness_probe(algebra, seed=args.seed)
        rows["self-adjoint"] = probe.self_adjoint
        rows["self-adjoint-consequences"] = probe.passed
    checked = {k: v for k, v in rows.items() if k not in ("is-lie", "self-adjoint")}
    payload = dict(rows)
    payload["passed"] = all(checked.values())
    text = "\n".join(f"{k}: {v}" for k, v in rows.items())
    _emit(args, payload, text)
    return OK if payload["passed"] else REFUTED


def _parse_at(text: str, algebra) -> list:
    parts = [p.strip() for p in text.split(";")] if ";" in text else [
        p.strip() for p in text.split(",")
    ]
    if len(parts) != 3:
        raise HomLabError("--at needs three vectors (semicolons) or basis names (commas)")
    vecs = []
    for part in parts:
        if part.startswith("e") and part[1:].isdigit():
            idx = int(part[1:]) - 1
            if not 0 <= idx < algebra.dim:
                raise HomLabError(f"basis name {part} out of range")
            vecs.append(np.eye(algebra.dim, dtype=np.int64)[idx])
        else:
            vec = np.array([int(v) % algebra.p for v in part.split(",")], dtype=np.int64)
            if vec.shape != (algebra.dim,):
                raise HomLabError(f"vector {part!r} has wrong length")
            vecs.append(vec)
    return vecs


def _cmd_jacobiator(args) -> int:
    algebra = _load_structure(args.file)
    if not hasattr(algebra, "c"):
        raise HomLabError("jacobiator needs an algebra file")
    tag = tag_from_string(args.type, default_family="lie")
    x, y, z = _parse_at(args.at, algebra)
    value = jacobiator(algebra, tag, x, y, z)
    payload = {"tag": str(tag), "value": value.tolist()}
    _emit(args, payload, f"{tag} at {args.at}: {value.tolist()}")
    return OK


def _cmd_export(args) -> int:
    payload = {}
    if args.what in ("identities", "all"):
        payload["identities"] = {
            str(tag): render_identity(builtin(tag)) for tag in ALL_TAGS
        }
    if args.what in ("fixtures", "all"):
        payload["fixtures"] = {
            str(f.num): {
                "claim": f.claim,
                "relations": f.relations,
                "satisfied": sorted(f.satisfied),
                "violated": sorted(f.violated),
                "structure": magma_to_dict(f.magma()),
            }
            for f in hierarchy.counterexample_fixtures()
        }
        payload["lie_fixtures"] = {
            f.name: algebra_to_dict(f.algebra)
            for f in liecheck.lie_fixtures(liecheck.DEFAULT_PRIME)
        }
    _emit(args, payload, json.dumps(payload, sort_keys=True, indent=2))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="evaluate, profile and search twisted algebraic identities on finite carriers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one identity on a structure file")
    p.add_argument("file")
    p.add_argument("--identity", required=True, help='type tag ("I1", "lie:III") or identity text')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("profile", help="print every built-in type a structure satisfies")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("search", help="countermodel search from a spec file")
    p.add_argument("specfile")
    p.add_argument("--workers", type=int, default=1, help="kept for compatibility: the search runs"
                   " in the calling process, with the same verdicts and statistics for every value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reproduce", help="run the whole hierarchy + bracket suite")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument("--workers", type=int, default=1, help="kept for compatibility: the search runs"
                   " in the calling process, with the same verdicts and statistics for every value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("lie-verify", help="bracket-side checks on an algebra file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lie_verify)

    p = sub.add_parser("jacobiator", help="evaluate a twisted-Jacobi cyclic sum")
    p.add_argument("file")
    p.add_argument("--type", required=True)
    p.add_argument("--at", required=True, help='"e1,e2,e3" or "1,0,0;0,1,0;0,0,1"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_jacobiator)

    p = sub.add_parser("export", help="dump built-in identities and fixtures")
    p.add_argument("--what", choices=("identities", "fixtures", "all"), default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except (HomLabError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
