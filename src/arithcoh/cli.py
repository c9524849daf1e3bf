"""Command-line front end.

Reports go to standard output as JSON (CSV for sweeps with --format csv);
everything else, including timing, goes to standard error so stdout stays
machine-parseable and byte-stable across runs.  Each input file is read
once: the descriptor and the sha256 in the report come from the same bytes.
Exit codes: 0 all requested checks passed, 1 usage error, 2 invalid input
(an unreadable file included) or a failed verification, 3 enumeration
budget / tolerance exhausted.
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
    InvalidDivisor,
    InvalidFieldSpec,
    InvalidGhostSpace,
    ToleranceUnreachable,
)
from .lattice import DEFAULT_BUDGET

_USAGE_EXIT = 1
_INVALID_EXIT = 2
_BUDGET_EXIT = 3
# the input kind a typed error names, as in "field file is not valid JSON"
_KIND = {InvalidFieldSpec: "field", InvalidDivisor: "divisor", InvalidGhostSpace: "ghost"}


def _read(path: str, error: type[ArithcohError]) -> tuple[object, str]:
    """The parsed JSON of the file at path and the sha256 of the same bytes.

    The file is opened once.  An OSError propagates (exit 2); bytes that are
    not UTF-8 JSON raise ``error``, the typed error of the input's kind.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{_KIND[error]} file is not valid JSON: {exc}") from exc
    return obj, hashlib.sha256(data).hexdigest()


def _report(command: str, results, ok: bool, **extra) -> int:
    """Write the JSON report envelope to stdout; the exit code of ok."""
    report = {"command": command, "results": results, "pass": ok, **extra}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else _INVALID_EXIT


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _coh_dict(v: arakelov.CohomologyValue) -> dict:
    return {"value": v.value, "tail_bound": v.tail_bound,
            "points_enumerated": v.points_enumerated}


def _field(args):
    obj, field_sha = _read(args.field, InvalidFieldSpec)
    return numfield.make_field(obj), field_sha


def _divisor(args):
    """The divisor of --field and --divisor, and the digests of both files."""
    fld, field_sha = _field(args)
    obj, divisor_sha = _read(args.divisor, InvalidDivisor)
    return arakelov.load_divisor(fld, obj), {"field": field_sha, "divisor": divisor_sha}


def _different_ok(fld) -> bool:
    """Whether the field's different inverts O^v, logging the fault if not.

    A custom descriptor's different comes from outside, while the field
    derives O^v from its trace form.  Riemann-Roch can hold with a wrong
    different where h0(K - D) is below the tolerance, so verify asks this too.
    """
    if not fld.true_different:
        _log(f"error: the different is not the inverse of the codifferent: its norm is "
             f"{fld.different.norm()}, |disc| is {fld.abs_discriminant}")
    return fld.true_different


def _cmd_field_info(args) -> int:
    fld, field_sha = _field(args)
    deg_k = arakelov.degree(arakelov.canonical_divisor(fld))
    lat = numfield.embed_ideal(fld, numfield.unit_ideal(fld), [0.0] * (fld.r1 + fld.r2))
    expected = math.sqrt(fld.abs_discriminant)
    check_ok = abs(lat.covolume - expected) <= 1e-8 * expected
    different_ok = _different_ok(fld)
    return _report("field-info", {
        "degree": fld.n,
        "signature": [fld.r1, fld.r2],
        "abs_discriminant": fld.abs_discriminant,
        "different": {"numerator_basis": [list(r) for r in fld.different.num],
                      "denominator": fld.different.den,
                      "norm": str(fld.different.norm())},
        "deg_canonical": deg_k,
        "covolume_check": {"covolume": lat.covolume, "expected": expected,
                           "passed": check_ok},
    }, check_ok and different_ok, inputs={"field": field_sha})


def _cmd_h(args) -> int:
    D, inputs = _divisor(args)
    fn = arakelov.h0 if args.command == "h0" else arakelov.h1
    value = fn(D, tol=args.tol, budget=args.budget)
    return _report(args.command, {args.command: _coh_dict(value), "degree": arakelov.degree(D)},
                   True, inputs=inputs, tol=args.tol)


def _cmd_verify(args) -> int:
    D, inputs = _divisor(args)
    results: dict = {"degree": arakelov.degree(D)}
    ok = _different_ok(D.field)
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
    return _report("verify", results, ok, what=args.what, inputs=inputs, tol=args.tol)


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
    if args.steps == 1:
        grid = [args.t_min]
    else:
        step = (args.t_max - args.t_min) / (args.steps - 1)
        grid = [args.t_min + i * step for i in range(args.steps)]
    rows = arakelov.zeta_integrand_sweep(s, grid, tol=args.tol, budget=args.budget)
    if args.format == "json":
        return _report("zeta-sweep", [{"t": r.t, "h0": r.h0, "h1": r.h1,
                                       "integrand_re": r.value.real, "integrand_im": r.value.imag}
                                      for r in rows], True, s={"re": s.real, "im": s.imag})
    sys.stdout.write("t,h0,h1,integrand_re,integrand_im\n")
    for r in rows:
        sys.stdout.write(f"{r.t!r},{r.h0!r},{r.h1!r},{r.value.real!r},{r.value.imag!r}\n")
    return 0


def _parse_generators(text: str) -> list[tuple[int, ...]]:
    """argparse type of --subgroup: ';'-separated generators of ','-separated ints."""
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            try:
                gens.append(tuple(int(tok) for tok in part.split(",")))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"generators must be integers like '2' or '1,0;0,3', not {text!r}") from None
    return gens


def _cmd_ghost(args) -> int:
    obj, ghost_sha = _read(args.ghost_file, InvalidGhostSpace)
    structure = ghost.load_ghost(obj)
    command, inputs = f"ghost-{args.action}", {"ghost": ghost_sha}
    first = isinstance(structure, ghost.GhostSpaceFirstKind)
    if args.action == "assoc":
        report = ghost.check_associativity(structure)
        return _report(command, {
            "max_associativity_defect": report.max_associativity_defect,
            "max_commutativity_defect": report.max_commutativity_defect,
            "triples_checked": report.triples_checked,
        }, report.passed, inputs=inputs)
    if args.action == "check" and not first:
        return _report(command, {"kind": "second", "dimension": ghost.dim_second(structure)},
                       True, inputs=inputs)
    if args.action == "check":
        report = structure.check  # the constructor's own, passed
        return _report(command, {
            "kind": "first",
            "dimension": ghost.dim_first(structure),
            "dft_min": report.dft_min,
            "unit_subgroup": [list(x) for x in report.unit_subgroup],
        }, report.passed, inputs=inputs)
    if not first:
        what = "dualization is" if args.action == "dual" else "subquotients are"
        raise InvalidGhostSpace(f"{what} implemented for first-kind descriptors")
    if args.action == "dual":
        dual = ghost.dual_ghost(structure)
        dim_primal = ghost.dim_first(structure)
        dim_dual = ghost.dim_second(dual)
        ok = abs(dim_primal - dim_dual) <= 1e-12
        return _report(command, {"dual_mu": dual.mu.tolist(), "dim_primal": dim_primal,
                                 "dim_dual": dim_dual, "dims_match": ok}, ok, inputs=inputs)
    sq = structure.sub_quotient(args.subgroup)
    # dimension additivity with the counting measures: dim G_u = dim H_u + dim (G/H)_v
    dim_h = math.log(math.fsum(
        float(structure.u[structure.group.index(x)]) for x in sq.subgroup))
    additive = abs(ghost.dim_first(structure) - dim_h - ghost.dim_first(sq.space)) <= 1e-12
    return _report(command, {
        "quotient_orders": list(sq.quotient_group.cyclic_orders),
        "subgroup_order": len(sq.subgroup),
        "v": sq.space.u.tolist(),
        "dim_quotient": ghost.dim_first(sq.space),
        "dimension_additive": additive,
    }, additive, inputs=inputs,
        subgroup_generators=";".join(",".join(map(str, g)) for g in args.subgroup))


_OPTIONS = {
    "field": {"required": True, "help": "field descriptor JSON file"},
    "divisor": {"required": True, "help": "divisor descriptor JSON file"},
    "tol": {"type": _tolerance, "default": 1e-9, "help": "h-value tolerance"},
    "budget": {"type": _positive_int, "default": DEFAULT_BUDGET,
               "help": "lattice enumeration point cap"},
}


def _add_options(p, *names) -> None:
    """Declare the options shared between subcommands, in the order named."""
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcoh",
        description="Arithmetic cohomology of Arakelov divisors and ghost-space checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="print field data and run the covolume self-check")
    _add_options(p, "field")
    p.set_defaults(run=_cmd_field_info)

    for name in ("h0", "h1"):
        p = sub.add_parser(name, help=f"compute {name} of a divisor")
        _add_options(p, "field", "divisor", "tol", "budget")
        p.set_defaults(run=_cmd_h)

    p = sub.add_parser("verify", help="verify Riemann-Roch and/or Serre duality")
    _add_options(p, "field", "divisor", "tol", "budget")
    p.add_argument("--what", choices=["rr", "duality", "both"], default="both")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("zeta-sweep", help="zeta integrand along the degree line over Q")
    p.add_argument("--s", default="0.5", help="complex parameter, e.g. '0.5' or '0.5+0.3j'")
    p.add_argument("--t-min", type=_finite, default=-3.0)
    p.add_argument("--t-max", type=_finite, default=3.0)
    p.add_argument("--steps", type=_positive_int, default=13)
    _add_options(p, "tol", "budget")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=_cmd_zeta_sweep)

    p = sub.add_parser("ghost", help="finite-group ghost-space operations")
    p.add_argument("action", choices=["check", "dual", "quotient", "assoc"])
    p.add_argument("ghost_file", help="ghost-space descriptor JSON file")
    p.add_argument("--subgroup", type=_parse_generators, default=[],
                   help="subgroup generators, e.g. '2' or '1,0;0,3'")
    p.set_defaults(run=_cmd_ghost)

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
        code = args.run(args)
    except (EnumerationBudgetExceeded, ToleranceUnreachable) as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return _BUDGET_EXIT
    except OSError as exc:
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
