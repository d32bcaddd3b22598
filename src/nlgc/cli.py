"""Command line front end.

Exit codes: 0 success, 2 invalid input, 3 compilation fell back to the
teleportation-cost expansion, 4 protocol not certified deterministic (or a
report failed re-verification). All numeric output uses 12 significant
digits.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import CompilerError, DimensionError, ValidationError
from .expansion import compile_unitary
from .groups import FiniteGroup, builtin_catalog, catalog_recipe, save_group_file
from .protocol import random_states, simulate_protocol
from .report import (build_report, canonical_json, encode_matrix, expansion_from_report,
                     parse_matrix_payload, parse_state_payload, verify_report)
from .representations import irrep_dimensions
from .schmidt import BipartiteUnitary, schmidt_decompose

CATALOG_ENV = "NLGC_CATALOG_DIR"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FALLBACK = 3
EXIT_UNCERTIFIED = 4


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:       # not UTF-8, or not JSON
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_unitary(path: str, dims) -> BipartiteUnitary:
    data = _read_json(path)
    return parse_matrix_payload(data, tuple(dims) if dims else None)


def _extra_groups() -> list:
    """The groups registered in the NLGC_CATALOG_DIR directory, by file name."""
    extra = []
    cat_dir = os.environ.get(CATALOG_ENV)
    if cat_dir and os.path.isdir(cat_dir):
        for name in sorted(os.listdir(cat_dir)):
            if name.endswith(".json"):
                extra.append(FiniteGroup.from_dict(_read_json(os.path.join(cat_dir, name))))
    return extra


def _checked(convert, ok, need: str):
    """argparse type rejecting values that fail ok: they exit 2 like any parse error."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {need}")
    return parse


_tol_type = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
_seed_type = _checked(int, lambda x: x >= 0, "an integer >= 0")
_positive_type = _checked(int, lambda x: x >= 1, "an integer >= 1")


def _compile_args(parser: argparse.ArgumentParser):
    parser.add_argument("--dims", nargs=2, type=int, metavar=("DA", "DB"),
                        help="tensor factor dimensions, overriding the file")
    parser.add_argument("--side", choices=["A", "B", "both"], default="both",
                        help="which side carries the group representation")
    parser.add_argument("--tol", type=_tol_type, default=1e-9,
                        help="numerical tolerance (block tolerance is "
                             "min(10x this, 1e-8))")
    parser.add_argument("--seed", type=_seed_type, default=0)
    parser.add_argument("--max-order", type=_positive_type, default=32,
                        help="largest group order the search will consider")
    parser.add_argument("--projective", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="allow projective representations (default on)")


def _compile_from_args(args, bu: BipartiteUnitary):
    return compile_unitary(bu, side=args.side, tol=args.tol, seed=args.seed,
                           allow_projective=args.projective,
                           catalog=catalog_recipe(args.max_order, _extra_groups()))


def cmd_compile(args) -> int:
    bu = _load_unitary(args.matrix, args.dims)
    exp = _compile_from_args(args, bu)
    psi = random_states(exp.unitary.dim, 1, seed=args.seed)[0]
    trace = simulate_protocol(exp, psi)
    meta = {"seed": args.seed, "tol": args.tol, "sideRequested": args.side,
            "maxOrder": args.max_order, "projectiveAllowed": args.projective}
    report = build_report(exp, trace, meta=meta, original=bu)
    _write_text(canonical_json(report), args.out)
    if not trace.deterministic:
        return EXIT_UNCERTIFIED
    return EXIT_FALLBACK if exp.fallback else EXIT_OK


def _frame_state(psi: np.ndarray, bu: BipartiteUnitary, side: str) -> np.ndarray:
    if side == "A":
        return psi
    d_a, d_b = bu.dim_b, bu.dim_a    # original orientation dims
    return psi.reshape(d_a, d_b).T.reshape(-1)


def cmd_simulate(args) -> int:
    data = _read_json(args.source)
    if data.get("format") == "nlgc-report":
        exp = expansion_from_report(data)
    else:
        bu = parse_matrix_payload(data, tuple(args.dims) if args.dims else None)
        exp = _compile_from_args(args, bu)
    dim = exp.unitary.dim
    if args.state is not None:
        states = [parse_state_payload(_read_json(args.state))]
    else:
        states = list(random_states(dim, args.random, seed=args.seed))
    lines = []
    results = []
    all_ok = True
    for idx, psi in enumerate(states):
        if psi.size != dim:
            raise ValidationError(
                f"state has dimension {psi.size}, the gate needs {dim}")
        framed = _frame_state(psi, exp.unitary, exp.side)
        trace = simulate_protocol(exp, framed)
        summary = trace.summary()
        all_ok = all_ok and trace.deterministic
        lines.append(f"state {idx}: branches={summary['branches']} "
                     f"minFidelity={_fmt(summary['minFidelity'])} "
                     f"probabilitySum={_fmt(summary['probabilitySum'])} "
                     f"deterministic={'yes' if trace.deterministic else 'NO'}")
        branches = [[int(h), int(g), float(p), float(f)]
                    for (h, g), p, f in zip(trace.branch_outcomes, trace.branch_probabilities,
                                            trace.branch_fidelities)]
        lines += [f"  h={h} g={g} p={_fmt(p)} fidelity={_fmt(f)}" for h, g, p, f in branches]
        lines += [f"  warning: {w}" for w in trace.warnings]
        results.append({"state": idx, "summary": summary, "branches": branches,
                        "warnings": list(trace.warnings)})
    # priced off the simulated group, not off a report's stored costEbits
    lines.append(f"ebits={_fmt(trace.ebits)} cbits={_fmt(trace.cbits)} "
                 f"group={exp.group.name} order={exp.group.order}")
    if args.out is not None:
        _write_text(canonical_json({"results": results,
                                    "group": exp.group.name,
                                    "ebits": trace.ebits}), args.out)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_UNCERTIFIED


def cmd_schmidt(args) -> int:
    bu = _load_unitary(args.matrix, args.dims)
    dec = schmidt_decompose(bu)
    payload = {
        "dimA": bu.dim_a,
        "dimB": bu.dim_b,
        "rank": len(dec),
        "coefficients": [float(c) for c in dec.coefficients],
        "aOps": encode_matrix(dec.a_ops),
        "bOps": encode_matrix(dec.b_ops),
    }
    _write_text(canonical_json(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _read_json(args.report)
    ok, checks = verify_report(report, tol=args.tol)
    for name in sorted(checks):
        print(f"{name}: {'ok' if checks[name] else 'FAIL'}")
    print("verified" if ok else "verification failed")
    return EXIT_OK if ok else EXIT_UNCERTIFIED


def cmd_groups(args) -> int:
    if args.group_action == "list":
        catalog = builtin_catalog(args.max_order, _extra_groups())
        for g in sorted(catalog, key=lambda g: (g.order, g.name)):
            dims = irrep_dimensions(g)
            kind = "abelian" if g.is_abelian else "nonabelian"
            print(f"{g.name}  order={g.order}  {kind}  irrepDims={dims}")
        return EXIT_OK
    if args.group_action == "show":
        matches = [g for g in builtin_catalog(args.max_order, _extra_groups())
                   if g.name == args.name]
        if not matches:
            raise ValidationError(f"no group named {args.name!r} in the catalog")
        g = matches[0]
        print(f"name: {g.name}")
        print(f"order: {g.order}")
        print(f"identity: {g.identity}")
        print(f"abelian: {'yes' if g.is_abelian else 'no'}")
        print("table:")
        for row in g.table:
            print("  " + " ".join(f"{int(x):3d}" for x in row))
        print("inverses: " + " ".join(str(int(x)) for x in g.inverses))
        dims = irrep_dimensions(g)
        print(f"irrep dimensions: {dims}")
        print("identity characters: " + " ".join(_fmt(d) for d in dims))
        return EXIT_OK
    # load: validate an external group file, register it when a catalog
    # directory is configured
    g = FiniteGroup.from_dict(_read_json(args.file))
    if g.name in ("", ".", "..") or any(s and s in g.name for s in ("/", os.sep, os.altsep)):
        raise ValidationError(f"group name {g.name!r} cannot be a catalog file name")
    irrep_dimensions(g)
    print(f"valid group: {g.name} (order {g.order})")
    cat_dir = os.environ.get(CATALOG_ENV)
    if cat_dir:
        os.makedirs(cat_dir, exist_ok=True)
        dest = os.path.join(cat_dir, f"{g.name}.json")
        save_group_file(g, dest)
        print(f"registered at {dest}")
    else:
        print(f"set {CATALOG_ENV} to register it for compile runs")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgc",
        description="Compile bipartite unitaries into finite-group expansions "
                    "for entanglement-assisted local protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="find the cheapest group expansion")
    p.add_argument("matrix", help="JSON file with the gate matrix and dims")
    _compile_args(p)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run every measurement branch")
    p.add_argument("source", help="report JSON or matrix JSON")
    _compile_args(p)
    p.add_argument("--state", help="JSON state file to simulate on")
    p.add_argument("--random", type=_positive_type, default=1, metavar="N",
                   help="number of random input states (default 1)")
    p.add_argument("--out", help="also write branch data as JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("schmidt", help="print the operator Schmidt data")
    p.add_argument("matrix")
    p.add_argument("--dims", nargs=2, type=int, metavar=("DA", "DB"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("verify", help="re-check a report from its own data")
    p.add_argument("report")
    p.add_argument("--tol", type=_tol_type, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("groups", help="inspect or extend the group catalog")
    gsub = p.add_subparsers(dest="group_action", required=True)
    gl = gsub.add_parser("list", help="list catalog groups")
    gl.add_argument("--max-order", type=_positive_type, default=32)
    gs = gsub.add_parser("show", help="print one group in full")
    gs.add_argument("name")
    gs.add_argument("--max-order", type=_positive_type, default=32)
    gload = gsub.add_parser("load", help="validate and register a group file")
    gload.add_argument("file")
    p.set_defaults(func=cmd_groups)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValidationError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CompilerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED


if __name__ == "__main__":
    sys.exit(main())
