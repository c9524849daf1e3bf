"""Command-line front end.

Reports go to standard output as JSON (CSV for sweeps with --format csv);
everything else, including timing, goes to standard error so stdout stays
machine-parseable and byte-stable across runs.  Exit codes: 0 all requested
checks passed, 1 usage error, 2 invalid input or a failed verification,
3 enumeration budget / tolerance exhausted.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time

from . import arakelov, ghost, numfield
from .errors import (
    ArithcohError,
    EnumerationBudgetExceeded,
    InvalidFieldSpec,
    InvalidGhostSpace,
    ToleranceUnreachable,
)
from .lattice import DEFAULT_BUDGET

_USAGE_EXIT = 1
_INVALID_EXIT = 2
_BUDGET_EXIT = 3


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _coh_dict(v: arakelov.CohomologyValue) -> dict:
    return {"value": v.value, "tail_bound": v.tail_bound,
            "points_enumerated": v.points_enumerated}


def _cmd_field_info(args) -> int:
    fld = numfield.load_field_file(args.field)
    deg_k = arakelov.degree(arakelov.canonical_divisor(fld))
    lat = numfield.embed_ideal(fld, numfield.unit_ideal(fld),
                               [0.0] * (fld.r1 + fld.r2))
    expected = math.sqrt(fld.abs_discriminant)
    check_ok = abs(lat.covolume - expected) <= 1e-8 * expected
    _emit({
        "command": "field-info",
        "inputs": {"field": _digest(args.field)},
        "results": {
            "degree": fld.n,
            "signature": [fld.r1, fld.r2],
            "abs_discriminant": fld.abs_discriminant,
            "different": {"numerator_basis": [list(r) for r in fld.different.num],
                          "denominator": fld.different.den,
                          "norm": str(fld.different.norm())},
            "deg_canonical": deg_k,
            "covolume_check": {"covolume": lat.covolume, "expected": expected,
                               "passed": check_ok},
        },
        "pass": check_ok,
    })
    return 0 if check_ok else _INVALID_EXIT


def _cmd_h(args, which: str) -> int:
    fld = numfield.load_field_file(args.field)
    D = arakelov.load_divisor_file(fld, args.divisor)
    fn = arakelov.h0 if which == "h0" else arakelov.h1
    value = fn(D, tol=args.tol, budget=args.budget)
    _emit({
        "command": which,
        "inputs": {"field": _digest(args.field), "divisor": _digest(args.divisor)},
        "tol": args.tol,
        "results": {which: _coh_dict(value), "degree": arakelov.degree(D)},
        "pass": True,
    })
    return 0


def _cmd_verify(args) -> int:
    fld = numfield.load_field_file(args.field)
    D = arakelov.load_divisor_file(fld, args.divisor)
    results: dict = {"degree": arakelov.degree(D)}
    ok = True
    rr, sd = arakelov.verify_duality(D, tol=args.tol, budget=args.budget)
    if args.what in ("rr", "both"):
        results["riemann_roch"] = {
            "lhs": rr.lhs, "rhs": rr.rhs, "delta": rr.delta, "tol": rr.tol,
            "h0_D": _coh_dict(rr.h0_d), "h0_KD": _coh_dict(rr.h0_kd),
            "passed": rr.passed,
        }
        ok = ok and rr.passed
    if args.what in ("duality", "both"):
        results["serre_duality"] = {
            "delta": sd.delta, "tol": sd.tol,
            "h1_direct": _coh_dict(sd.h1_direct), "h0_dual": _coh_dict(sd.h0_dual),
            "passed": sd.passed,
        }
        ok = ok and sd.passed
    _emit({
        "command": "verify",
        "what": args.what,
        "inputs": {"field": _digest(args.field), "divisor": _digest(args.divisor)},
        "tol": args.tol,
        "results": results,
        "pass": ok,
    })
    return 0 if ok else _INVALID_EXIT


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number > 0."""
    tol = float(text)
    if not 0.0 < tol < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, not {text!r}")
    return tol


def _finite(text: str) -> float:
    """argparse type of --t-min and --t-max: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of --budget and --steps: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    try:
        s = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InvalidFieldSpec(f"cannot parse --s value {text!r} as a complex number") from exc
    if not cmath.isfinite(s):
        raise InvalidFieldSpec(f"--s value {text!r} is not finite")
    return s


def _cmd_zeta_sweep(args) -> int:
    if args.t_max < args.t_min:
        _log("error: --t-max must be >= --t-min")
        return _USAGE_EXIT
    s = _parse_complex(args.s)
    fld = numfield.make_field("rational")
    if args.steps == 1:
        grid = [args.t_min]
    else:
        step = (args.t_max - args.t_min) / (args.steps - 1)
        grid = [args.t_min + i * step for i in range(args.steps)]
    rows = arakelov.zeta_integrand_sweep(fld, s, grid, tol=args.tol, budget=args.budget)
    if args.format == "csv":
        sys.stdout.write("t,h0,h1,integrand_re,integrand_im\n")
        for r in rows:
            sys.stdout.write(f"{r.t!r},{r.h0!r},{r.h1!r},{r.value.real!r},{r.value.imag!r}\n")
    else:
        _emit({
            "command": "zeta-sweep",
            "s": {"re": s.real, "im": s.imag},
            "results": [{"t": r.t, "h0": r.h0, "h1": r.h1,
                         "integrand_re": r.value.real, "integrand_im": r.value.imag}
                        for r in rows],
            "pass": True,
        })
    return 0


def _parse_generators(text: str) -> list[tuple[int, ...]]:
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            gens.append(tuple(int(tok) for tok in part.split(",")))
    return gens


def _cmd_ghost(args) -> int:
    structure = ghost.load_ghost_file(args.ghost_file)
    inputs = {"ghost": _digest(args.ghost_file)}
    if args.action == "check":
        if isinstance(structure, ghost.GhostSpaceFirstKind):
            # the constructor already validated; rerun for the full report
            report = ghost.check_first_kind(structure.group, structure.u)
            _emit({
                "command": "ghost-check", "inputs": inputs,
                "results": {
                    "kind": "first",
                    "dimension": ghost.dim_first(structure),
                    "dft_min": report.dft_min,
                    "unit_subgroup": [list(x) for x in report.unit_subgroup],
                },
                "pass": report.passed,
            })
            return 0 if report.passed else _INVALID_EXIT
        _emit({
            "command": "ghost-check", "inputs": inputs,
            "results": {"kind": "second", "dimension": ghost.dim_second(structure)},
            "pass": True,
        })
        return 0
    if args.action == "dual":
        if not isinstance(structure, ghost.GhostSpaceFirstKind):
            raise InvalidGhostSpace("dualization is implemented for first-kind descriptors")
        dual = ghost.dual_ghost(structure)
        dim_primal = ghost.dim_first(structure)
        dim_dual = ghost.dim_second(dual)
        ok = abs(dim_primal - dim_dual) <= 1e-12
        _emit({
            "command": "ghost-dual", "inputs": inputs,
            "results": {"dual_mu": dual.mu.tolist(), "dim_primal": dim_primal,
                        "dim_dual": dim_dual, "dims_match": ok},
            "pass": ok,
        })
        return 0 if ok else _INVALID_EXIT
    if args.action == "quotient":
        if not isinstance(structure, ghost.GhostSpaceFirstKind):
            raise InvalidGhostSpace("subquotients are implemented for first-kind descriptors")
        gens = _parse_generators(args.subgroup or "")
        sq = ghost.sub_quotient_first(structure.group, structure.u, gens)
        # dimension additivity with the counting measures: dim G_u = dim H_u + dim (G/H)_v
        dim_h = math.log(math.fsum(
            float(structure.u[structure.group.index(x)]) for x in sq.subgroup))
        additive = abs(ghost.dim_first(structure) - dim_h
                       - ghost.dim_first(sq.space)) <= 1e-12
        _emit({
            "command": "ghost-quotient", "inputs": inputs,
            "subgroup_generators": args.subgroup or "",
            "results": {
                "quotient_orders": list(sq.quotient_group.cyclic_orders),
                "subgroup_order": len(sq.subgroup),
                "v": sq.space.u.tolist(),
                "dim_quotient": ghost.dim_first(sq.space),
                "dimension_additive": additive,
            },
            "pass": additive,
        })
        return 0 if additive else _INVALID_EXIT
    # assoc
    report = ghost.check_associativity(structure)
    _emit({
        "command": "ghost-assoc", "inputs": inputs,
        "results": {
            "max_associativity_defect": report.max_associativity_defect,
            "max_commutativity_defect": report.max_commutativity_defect,
            "triples_checked": report.triples_checked,
        },
        "pass": report.passed,
    })
    return 0 if report.passed else _INVALID_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcoh",
        description="Arithmetic cohomology of Arakelov divisors and ghost-space checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, divisor=True):
        p.add_argument("--field", required=True, help="field descriptor JSON file")
        if divisor:
            p.add_argument("--divisor", required=True, help="divisor descriptor JSON file")
        p.add_argument("--tol", type=_tolerance, default=1e-9, help="h-value tolerance")
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                       help="lattice enumeration point cap")

    p = sub.add_parser("field-info", help="print field data and run the covolume self-check")
    p.add_argument("--field", required=True)

    add_common(sub.add_parser("h0", help="compute h0 of a divisor"))
    add_common(sub.add_parser("h1", help="compute h1 of a divisor"))

    p = sub.add_parser("verify", help="verify Riemann-Roch and/or Serre duality")
    add_common(p)
    p.add_argument("--what", choices=["rr", "duality", "both"], default="both")

    p = sub.add_parser("zeta-sweep", help="zeta integrand along the degree line over Q")
    p.add_argument("--s", default="0.5", help="complex parameter, e.g. '0.5' or '0.5+0.3j'")
    p.add_argument("--t-min", type=_finite, default=-3.0)
    p.add_argument("--t-max", type=_finite, default=3.0)
    p.add_argument("--steps", type=_positive_int, default=13)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("ghost", help="finite-group ghost-space operations")
    p.add_argument("action", choices=["check", "dual", "quotient", "assoc"])
    p.add_argument("ghost_file", help="ghost-space descriptor JSON file")
    p.add_argument("--subgroup", default="",
                   help="subgroup generators, e.g. '2' or '1,0;0,3'")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; our convention is 1
        return 0 if exc.code in (0, None) else _USAGE_EXIT
    start = time.perf_counter()
    try:
        if args.command == "field-info":
            code = _cmd_field_info(args)
        elif args.command in ("h0", "h1"):
            code = _cmd_h(args, args.command)
        elif args.command == "verify":
            code = _cmd_verify(args)
        elif args.command == "zeta-sweep":
            code = _cmd_zeta_sweep(args)
        else:
            code = _cmd_ghost(args)
    except (EnumerationBudgetExceeded, ToleranceUnreachable) as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return _BUDGET_EXIT
    except FileNotFoundError as exc:
        _log(f"error: {exc}")
        return _INVALID_EXIT
    except ArithcohError as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return _INVALID_EXIT
    _log(f"wall-time: {time.perf_counter() - start:.3f}s")
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
