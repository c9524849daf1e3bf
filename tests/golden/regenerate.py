"""Golden corpus of arithcoh outputs: recompute it, diff it, or redraw it.

corpus.json holds four record families.  Each record is an input and the
output the code gave for it, with every float written as float.hex, so a
comparison is bit for bit:

- ``h``: verify_duality at tol 1e-8 on the 150 seed-1 ``rr_quadratic``
  divisors of bench/inputs.py, and on five a * b^-1 divisors over each
  degree >= 3 field of tests/conftest.py.  Output: h0 of D and of K - D, h1
  of D, both deltas and both point counts.
- ``zeta``: one zeta_integrand_sweep window over Q.
- ``ghost``: the FirstKindCheck of a first-kind u and the AssociativityCheck
  of the first kind u, the second kind mu and the mixed pair (u, mu), for
  one (u, mu) on each group of GROUP_POOL.
- ``cli``: stdout and exit code of the determinism battery of
  tests/test_acceptance.py.

The corpus stores every input (field descriptors, prime exponents, ideals,
x_sigma, u and mu), so checking it draws nothing at random and needs no
module outside ``arithcoh``.

    python tests/golden/regenerate.py           # recompute every output, write
    python tests/golden/regenerate.py --diff    # recompute, report, write nothing
    python tests/golden/regenerate.py --draw    # redraw the inputs, recompute, write

--diff prints, per family, how many records changed and the largest |delta|
of a changed number (points and exit codes included), then that largest
|delta| per leaf name: the last key on the path to a number (h0, points,
tail_bound, ...), or its list index where no key names it, as in the
[h0, h1, re, im] rows of ``zeta``.  A CLI stdout is read as its JSON or CSV
first, so its numbers are named too.  It exits 1 when any record changed
and 0 otherwise, so it can gate a script.  A change that rewrites the
corpus states these in CHANGES.md.

Which records depend on the CPU.  From an ideal's HNF rows to the Cholesky
factor of its lattice every step runs in Python floats in a fixed order, so
the h and cli records come out bit for bit whatever BLAS or SIMD kernels
numpy picks.  The steps that still run in such kernels are theta's level
products (V + c) @ U[i, i+1:], which add two or more terms only for n >= 3,
the shift's L.T @ c and the nearest-plane solve of a shifted sum, np.exp of
each block of terms, and the ghost family's GEMM.  To check, run --diff
under an AVX2-only CPU's kernels, which both variables select for this
process only:

    OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        python tests/golden/regenerate.py --diff

tests/test_golden.py runs it for the h and cli families and expects 0
changed records.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from arithcoh.arakelov import (  # noqa: E402
    divisor_from_ideal,
    divisor_from_primes,
    verify_duality,
    zeta_integrand_sweep,
)
from arithcoh.cli import main as cli_main  # noqa: E402
from arithcoh.ghost import (  # noqa: E402
    FiniteAbelianGroup,
    GhostSpaceFirstKind,
    GhostSpaceSecondKind,
    MixedGhostSpace,
    check_associativity,
    check_first_kind,
)
from arithcoh.numfield import FractionalIdeal, make_field, primes_above  # noqa: E402

CORPUS = Path(__file__).with_name("corpus.json")
FAMILIES = ("h", "zeta", "ghost", "cli")
TOL = 1e-8  # identity tolerance of the acceptance suite
SEED = 1
# a * b^-1 divisors over the degree >= 3 fields: per field, spread cap on
# |deg(D) - (1/2) log|disc||, which keeps each lattice small
CUSTOM_DIVISORS = 5
CUSTOM_SPREAD_CAP = 3.0


def _encode(x):
    """JSON form of an output: floats as float.hex, dataclasses as dicts."""
    if dataclasses.is_dataclass(x):
        return {f.name: _encode(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in x.items()}
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_encode(v) for v in x]
    return x


def _floats(hexes) -> list[float]:
    return [float.fromhex(h) for h in hexes]


# ---------------------------------------------------------------------------
# one output per record


def _h(fields, inp):
    fld = fields[inp["field"]]
    xs = _floats(inp["infinite"])
    if "ideal" in inp:
        ideal = FractionalIdeal.from_rows(fld, inp["ideal"]["num"], inp["ideal"]["den"])
        D = divisor_from_ideal(fld, ideal, xs)
    else:
        D = divisor_from_primes(
            fld, [(primes_above(fld, p)[i], e) for p, i, e in inp["primes"]], xs)
    rr, sd = verify_duality(D, TOL)
    return {"h0": rr.h0_d.value, "h0_dual": rr.h0_kd.value, "h1": sd.h1_direct.value,
            "rr_delta": rr.delta, "sd_delta": sd.delta,
            "points": [rr.h0_d.points_enumerated, rr.h0_kd.points_enumerated]}


def _zeta(fields, inp):
    rows = zeta_integrand_sweep(complex(*_floats(inp["s"])), _floats(inp["t"]))
    return [[r.h0, r.h1, r.value.real, r.value.imag] for r in rows]


def _ghost(fields, inp):
    group = FiniteAbelianGroup(tuple(inp["orders"]))
    u, mu = _floats(inp["u"]), _floats(inp["mu"])
    structures = {"first": GhostSpaceFirstKind(group, u),
                  "second": GhostSpaceSecondKind(group, mu),
                  "mixed": MixedGhostSpace(group, u, mu)}
    out = {"first_kind_check": check_first_kind(group, u)}
    out.update((kind, check_associativity(s)) for kind, s in structures.items())
    return out


def _cli(fields, inp):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in inp["files"]}
        for name, obj in inp["files"].items():
            paths[name].write_text(json.dumps(obj))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([arg.format(**paths) for arg in inp["argv"]])
    return {"code": code, "stdout": out.getvalue()}


def outputs(corpus: dict, family: str) -> list:
    """The outputs the current code gives for the family's stored inputs."""
    fields = {label: make_field(spec) for label, spec in corpus["fields"].items()}
    compute = {"h": _h, "zeta": _zeta, "ghost": _ghost, "cli": _cli}[family]
    # through JSON, so tuples and lists compare as the stored form does
    return [json.loads(json.dumps(_encode(compute(fields, rec["in"]))))
            for rec in corpus[family]]


def load() -> dict:
    return json.loads(CORPUS.read_text())


def dump(corpus: dict) -> str:
    """One record per line, so a diff of the file shows the changed records."""
    parts = [f'"fields": {json.dumps(corpus["fields"])}']
    for family in FAMILIES:
        records = ",\n".join(json.dumps(rec) for rec in corpus[family])
        parts.append(f'"{family}": [\n{records}\n]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


# ---------------------------------------------------------------------------
# --diff


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _parsed(text: str):
    """A CLI stdout as data: its JSON, or its CSV rows as dicts of floats."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    head, *rows = [line.split(",") for line in text.splitlines()] or [[]]
    try:
        return [dict(zip(head, map(float, row), strict=True)) for row in rows]
    except ValueError:
        return text


def _leaves(x, path=()):
    """(path, leaf) pairs; a path is a tuple of keys and list indices."""
    if isinstance(x, str) and path and path[-1] == "stdout":
        x = _parsed(x)
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, path + (i,))
    else:
        yield path, x


def _leaf_name(path) -> str:
    keys = [k for k in path if isinstance(k, str)]
    return keys[-1] if keys else f"[{path[-1]}]"


def _number(x):
    if isinstance(x, bool) or x is None:
        return None
    if isinstance(x, (int, float)):
        return float(x)
    try:
        return float.fromhex(x)
    except (TypeError, ValueError):
        return None


def _leaf_delta(a, b) -> float:
    """|a - b| for two numbers, the largest |delta| of the numbers in two
    texts that agree between their numbers (CLI stdout), else inf."""
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        return abs(x - y)
    if isinstance(a, str) and isinstance(b, str) and _NUMBER.split(a) == _NUMBER.split(b):
        return max((abs(float(s) - float(t))
                    for s, t in zip(_NUMBER.findall(a), _NUMBER.findall(b)) if s != t),
                   default=0.0)
    return math.inf


def _deltas(old, new) -> dict[str, float]:
    """Largest |delta| per leaf name between two outputs; {"shape": inf}
    where they differ in shape."""
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(new))
    if old_leaves.keys() != new_leaves.keys():
        return {"shape": math.inf}
    out: dict[str, float] = {}
    for path, a in old_leaves.items():
        if a != new_leaves[path]:
            name = _leaf_name(path)
            out[name] = max(out.get(name, 0.0), _leaf_delta(a, new_leaves[path]))
    return out


def diff(old: dict, new: dict) -> list[str]:
    """Per family: changed records, their largest |delta| and their indices,
    then the largest |delta| per leaf name."""
    lines = []
    for family in FAMILIES:
        if len(old[family]) != len(new[family]):
            lines.append(f"{family}: {len(old[family])} records became {len(new[family])}")
            continue
        changed = {i: _deltas(a["out"], b["out"])
                   for i, (a, b) in enumerate(zip(old[family], new[family])) if a != b}
        line = f"{family}: {len(changed)} of {len(new[family])} records changed"
        if changed:
            by_name: dict[str, float] = {}
            for deltas in changed.values():
                for name, d in deltas.items():
                    by_name[name] = max(by_name.get(name, 0.0), d)
            line += (f", largest |delta| {max(by_name.values(), default=0.0):.3g}, "
                     f"records {sorted(changed)}"
                     "\n  by leaf: " + ", ".join(f"{name} {d:.3g}" for name, d in by_name.items()))
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# --draw


def draw() -> dict:
    """Fresh inputs: seed-1 bench divisors, conftest fields and groups, the
    acceptance battery."""
    for path in (ROOT, ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from bench.inputs import rr_quadratic, zeta_q_cli
    from conftest import (GROUP_POOL, cbrt2_descriptor, random_first_kind,
                          zeta7_plus_descriptor, zeta8_descriptor)
    from test_acceptance import BATTERY, BATTERY_FILES

    from arithcoh.arakelov import degree
    from arithcoh.ghost import dual_ghost
    from arithcoh.numfield import ideal_inv, ideal_mul, principal_ideal

    def hexes(xs):
        return [float(x).hex() for x in xs]

    fields = {"Q": {"type": "rational"}}
    h = []
    for case in rr_quadratic(random.Random(SEED)):
        D = case.divisor
        fields[D.field.label] = {"type": "quadratic", "d": D.field.quad_d}
        h.append({"field": D.field.label, "infinite": hexes(D.infinite),
                  "primes": [[pr.p, pr.index, e] for pr, e in D.primes]})
    rng = random.Random(SEED)
    for desc in (cbrt2_descriptor(), zeta7_plus_descriptor(), zeta8_descriptor()):
        fld = make_field(desc)
        fields[fld.label] = desc
        made = 0
        while made < CUSTOM_DIVISORS:
            a, b = ([rng.randint(-1, 1) for _ in range(fld.n)] for _ in range(2))
            if not (any(a) and any(b)):
                continue
            ideal = ideal_mul(principal_ideal(fld, a), ideal_inv(principal_ideal(fld, b)))
            xs = [rng.uniform(-1.0, 1.0) for _ in range(fld.r1 + fld.r2)]
            D = divisor_from_ideal(fld, ideal, xs)
            if abs(degree(D) - 0.5 * math.log(fld.abs_discriminant)) > CUSTOM_SPREAD_CAP:
                continue
            made += 1
            h.append({"field": fld.label, "infinite": hexes(xs),
                      "ideal": {"num": [list(r) for r in ideal.num], "den": ideal.den}})
    argv = zeta_q_cli(random.Random(SEED))[0].argv
    opt = dict(zip(argv[1::2], argv[2::2]))
    t_min, t_max, steps = float(opt["--t-min"]), float(opt["--t-max"]), int(opt["--steps"])
    step = (t_max - t_min) / (steps - 1)  # the grid of the zeta-sweep command
    zeta = [{"s": hexes([float(opt["--s"]), 0.0]),
             "t": hexes(t_min + i * step for i in range(steps))}]
    rng = random.Random(SEED)
    ghost = []
    for orders in GROUP_POOL:
        gs = random_first_kind(rng, orders)
        ghost.append({"orders": list(orders), "u": hexes(gs.u), "mu": hexes(dual_ghost(gs).mu)})
    cli = [{"argv": argv, "files": {name: BATTERY_FILES[name]
                                    for name in re.findall(r"\{(\w+)\}", " ".join(argv))}}
           for argv in BATTERY]
    families = {"h": h, "zeta": zeta, "ghost": ghost, "cli": cli}
    return {"fields": fields,
            **{name: [{"in": inp} for inp in inputs] for name, inputs in families.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="report the records whose output changed, write nothing, "
                             "and exit 1 if any did")
    parser.add_argument("--draw", action="store_true",
                        help="redraw the inputs before recomputing the outputs")
    args = parser.parse_args(argv)
    corpus = draw() if args.draw else load()
    for family in FAMILIES:
        for rec, out in zip(corpus[family], outputs(corpus, family)):
            rec["out"] = out
    if args.diff:
        old = load()
        print("\n".join(diff(old, corpus)))
        return int(any(old[family] != corpus[family] for family in FAMILIES))
    CORPUS.write_text(dump(corpus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
