"""Arakelov divisors, h0/h1, and the duality / Riemann-Roch verifiers.

An Arakelov divisor D determines a metrized lattice: the fractional ideal
I = prod P^(-x_P) embedded with per-place weights exp(-2 x_sigma) (real) and
2 exp(-x_sigma) (complex).  Then

    h0(D) = log sum over x in I of exp(-pi ||x||_D^2)

and h1(D) is the logarithmic density at 0 of the quotient measure, which in
closed form is  h1(D) = log sqrt(disc) - deg(D) + h0(D).  So Serre duality
h1(D) = h0(K - D) is Riemann-Roch written another way, and both verifiers
read one pair of direct enumerations, of D and of K - D.  The independence
that keeps the identity falsifiable is between those two lattices.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CertificationFailed, EnumerationBudgetExceeded, InvalidDivisor,
                     UnsupportedField)
from .intmat import exact_int
from .lattice import DEFAULT_BUDGET, theta_sum
from .numfield import (
    FractionalIdeal,
    NumberFieldDescriptor,
    PrimeIdeal,
    embed_ideal,
    ideal_inv,
    ideal_mul,
    ideal_pow,
    infinite_weights,
    primes_above,
    unit_ideal,
)


@dataclass(frozen=True)
class ArakelovDivisor:
    """Finite part (prime exponents or an explicit ideal) + x_sigma list."""

    field: NumberFieldDescriptor
    primes: tuple[tuple[PrimeIdeal, int], ...] | None
    explicit: FractionalIdeal | None
    infinite: tuple[float, ...]

    def __post_init__(self):
        if (self.primes is None) == (self.explicit is None):
            raise InvalidDivisor("divisor needs exactly one of prime exponents or an explicit ideal")
        if len(self.infinite) != self.field.r1 + self.field.r2:
            raise InvalidDivisor(
                f"divisor needs {self.field.r1 + self.field.r2} infinite components")
        try:
            weights = infinite_weights(self.field, self.infinite)
        except OverflowError:  # exp(-2 x_sigma) beyond the float range
            weights = [math.inf]
        if not all(sys.float_info.min <= w < math.inf for w in weights):  # subnormal: inexact
            raise InvalidDivisor(f"infinite components {self.infinite} give metric weights "
                                 "that are not normal positive finite floats")
        if self.primes is not None:
            for _, e in self.primes:
                if not isinstance(e, int):
                    raise InvalidDivisor("prime exponents must be integers")

    def ideal(self) -> FractionalIdeal:
        """Associated fractional ideal prod P^(-x_P)."""
        if self.explicit is not None:
            return self.explicit
        result = unit_ideal(self.field)
        for prime, e in self.primes:
            if e:
                result = ideal_mul(result, ideal_pow(prime.ideal, -e))
        return result


def divisor_from_primes(fld, prime_exponents, infinite) -> ArakelovDivisor:
    return ArakelovDivisor(fld, tuple(prime_exponents), None, tuple(float(t) for t in infinite))


def divisor_from_ideal(fld, ideal: FractionalIdeal, infinite) -> ArakelovDivisor:
    return ArakelovDivisor(fld, None, ideal, tuple(float(t) for t in infinite))


def zero_divisor(fld) -> ArakelovDivisor:
    return divisor_from_primes(fld, (), [0.0] * (fld.r1 + fld.r2))


def degree(D: ArakelovDivisor) -> float:
    """deg(D) = sum x_P log N(P) + sum x_sigma."""
    if D.primes is not None:
        finite = math.fsum(e * math.log(p.residue_norm) for p, e in D.primes)
    else:
        nrm = D.explicit.norm()
        finite = -(math.log(nrm.numerator) - math.log(nrm.denominator))
    return finite + math.fsum(D.infinite)


def canonical_divisor(fld: NumberFieldDescriptor) -> ArakelovDivisor:
    """K: associated ideal is the inverse different, zero infinite part."""
    return divisor_from_ideal(fld, ideal_inv(fld.different),
                              [0.0] * (fld.r1 + fld.r2))


def sub(D1: ArakelovDivisor, D2: ArakelovDivisor) -> ArakelovDivisor:
    """D1 - D2, staying in prime form when both arguments are."""
    if D1.field is not D2.field:
        raise InvalidDivisor("divisors live over different fields")
    inf = tuple(a - b for a, b in zip(D1.infinite, D2.infinite))
    if D1.primes is not None and D2.primes is not None:
        exps: dict = {}
        for sign, primes in ((1, D1.primes), (-1, D2.primes)):
            for prime, e in primes:
                key = (prime.p, prime.index)
                first, total = exps.get(key, (prime, 0))
                exps[key] = (first, total + sign * e)
        merged = tuple((p, e) for p, e in exps.values() if e)
        return ArakelovDivisor(D1.field, merged, None, inf)
    ideal = ideal_mul(D1.ideal(), ideal_inv(D2.ideal()))
    return ArakelovDivisor(D1.field, None, ideal, inf)


@dataclass(frozen=True)
class CohomologyValue:
    """h-value in natural-log units with its certified error bound."""

    value: float
    tail_bound: float
    points_enumerated: int


def _theta_of_divisor(D: ArakelovDivisor, log_tol: float, budget: int, center=None):
    """Theta sum of the divisor lattice, with the absolute tolerance picked so
    the log-level error stays below log_tol.

    theta >= max(1, 1/covolume) holds rigorously (the zero vector, resp.
    Poisson summation against the dual), which turns a relative target into
    an absolute one in a single pass.
    """
    lat = embed_ideal(D.field, D.ideal(), D.infinite)
    try:
        theta_floor = math.exp(max(0.0, -lat.log_covolume))
    except OverflowError:  # terms are <= 1: more points than a float can count
        raise EnumerationBudgetExceeded(
            f"lattice of covolume exp({lat.log_covolume:.6g}) has over 1e308 points") from None
    abs_tol = 0.5 * log_tol * theta_floor
    res = theta_sum(lat.gram, center, abs_tol, budget=budget)
    return res, lat


def h0(D: ArakelovDivisor, tol: float = 1e-9,
       budget: int = DEFAULT_BUDGET) -> CohomologyValue:
    """h0(D) = log of the theta sum over the divisor lattice."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    res, _ = _theta_of_divisor(D, tol, budget)
    log_err = res.tail_bound / (res.value - res.tail_bound)
    value = math.log(res.value)
    if value < 0.0:  # the zero vector alone contributes 1 to the sum
        raise CertificationFailed(
            f"theta sum {res.value!r} is below 1 (tail bound {res.tail_bound:.3e})")
    return CohomologyValue(value=value, tail_bound=log_err,
                           points_enumerated=res.points_enumerated)


def h1(D: ArakelovDivisor, tol: float = 1e-9,
       budget: int = DEFAULT_BUDGET) -> CohomologyValue:
    """h1(D) from the closed-form quotient density:

        h1(D) = log sqrt(disc) - deg(D) + h0(D)
    """
    return _h1_from_h0(D, h0(D, tol, budget))


def _h1_from_h0(D: ArakelovDivisor, base: CohomologyValue) -> CohomologyValue:
    value = 0.5 * math.log(D.field.abs_discriminant) - degree(D) + base.value
    return CohomologyValue(value=value, tail_bound=base.tail_bound,
                           points_enumerated=base.points_enumerated)


def effectivity_u(D: ArakelovDivisor, coords) -> float:
    """u(x) = exp(-pi ||x||_D^2) for x given over the ideal's Z-basis."""
    lat = embed_ideal(D.field, D.ideal(), D.infinite)
    vec = np.asarray([float(c) for c in coords]) @ lat.basis
    return math.exp(-math.pi * float(vec @ vec))


def effectivity_v(D: ArakelovDivisor, coords, tol: float = 1e-9,
                  budget: int = DEFAULT_BUDGET) -> float:
    """Quotient effectivity: shifted over centered theta sum.

    Both enumerations carry tails below tol times the denominator, so the
    ratio is correct to ~2*tol.  Periodic under the ideal by construction.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    den, lat = _theta_of_divisor(D, tol, budget)
    abs_tol = 0.5 * tol * den.value
    num = theta_sum(lat.gram, [float(c) for c in coords], abs_tol, budget=budget)
    return num.value / den.value


@dataclass(frozen=True)
class SerreDualityReport:
    h1_direct: CohomologyValue
    h0_dual: CohomologyValue
    delta: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class RiemannRochReport:
    h0_d: CohomologyValue
    h0_kd: CohomologyValue
    lhs: float
    rhs: float
    delta: float
    tol: float
    passed: bool


def verify_duality(D: ArakelovDivisor, tol: float = 1e-9, budget: int = DEFAULT_BUDGET
                   ) -> tuple[RiemannRochReport, SerreDualityReport]:
    """Riemann-Roch h0(D) - h0(K-D) = deg(D) - (1/2) log disc and Serre duality
    h1(D) = h0(K - D), both read from one pair of direct enumerations.

    h1(D) is the closed form over h0(D), so both views compare the same two
    numbers and a second pair of enumerations would only repeat them.  Each
    is a theta sum over its own lattice: h0(K - D) taken from h0(D), e.g. by
    Poisson summation, would make the identity hold by construction.

    The ideal I of D is built once.  K has the ideal d^-1, so K - D has the
    ideal (d I)^-1, with d the descriptor's own different rather than the
    field's O^v: a descriptor whose different is wrong must still break the
    identity.
    """
    F, I = D.field, D.ideal()
    a = h0(divisor_from_ideal(F, I, D.infinite), tol / 4.0, budget)
    b = h0(divisor_from_ideal(F, ideal_inv(ideal_mul(F.different, I)),
                              [0.0 - x for x in D.infinite]), tol / 4.0, budget)
    lhs = a.value - b.value
    rhs = degree(D) - 0.5 * math.log(D.field.abs_discriminant)
    rr_delta = abs(lhs - rhs)
    h1_d = _h1_from_h0(D, a)
    sd_delta = abs(h1_d.value - b.value)  # rounds apart from rr_delta on some divisors
    return (RiemannRochReport(h0_d=a, h0_kd=b, lhs=lhs, rhs=rhs, delta=rr_delta,
                              tol=tol, passed=rr_delta <= tol),
            SerreDualityReport(h1_direct=h1_d, h0_dual=b, delta=sd_delta,
                               tol=tol, passed=sd_delta <= tol))


def verify_riemann_roch(D: ArakelovDivisor, tol: float = 1e-9,
                        budget: int = DEFAULT_BUDGET) -> RiemannRochReport:
    """The Riemann-Roch view of verify_duality."""
    return verify_duality(D, tol, budget)[0]


def verify_serre_duality(D: ArakelovDivisor, tol: float = 1e-9,
                         budget: int = DEFAULT_BUDGET) -> SerreDualityReport:
    """The Serre duality view of verify_duality."""
    return verify_duality(D, tol, budget)[1]


@dataclass(frozen=True)
class ZetaRow:
    t: float
    h0: float
    h1: float
    value: complex  # exp(s*h0 + (1-s)*h1)


def zeta_integrand_sweep(fld: NumberFieldDescriptor, s: complex, t_grid,
                         tol: float = 1e-9,
                         budget: int = DEFAULT_BUDGET) -> list[ZetaRow]:
    """Integrand e^{s h0(D_t) + (1-s) h1(D_t)} along the degree line over Q."""
    if fld.label != "Q":
        raise UnsupportedField("the zeta integrand sweep is only defined over the rationals")
    s = complex(s)
    rows = []
    for t in t_grid:
        D = divisor_from_primes(fld, (), [float(t)])
        a = h0(D, tol, budget)
        b = _h1_from_h0(D, a).value
        zval = cmath.exp(s * a.value + (1.0 - s) * b)
        rows.append(ZetaRow(t=float(t), h0=a.value, h1=b, value=zval))
    return rows


# ---------------------------------------------------------------------------
# divisor descriptor files


def load_divisor(fld: NumberFieldDescriptor, obj: dict) -> ArakelovDivisor:
    """Parse {finite: [{p, index, exponent}] | {ideal: ...}, infinite: [...]}"""
    if not isinstance(obj, dict) or "infinite" not in obj:
        raise InvalidDivisor("divisor descriptor needs an 'infinite' list")
    try:
        infinite = [float(t) for t in obj["infinite"]]
    except (TypeError, ValueError) as exc:
        raise InvalidDivisor("infinite components must be reals") from exc
    finite = obj.get("finite", [])
    if isinstance(finite, dict):
        if "ideal" not in finite:
            raise InvalidDivisor("explicit finite part needs an 'ideal' entry")
        spec = finite["ideal"]
        try:
            rows = [[exact_int(x) for x in row] for row in spec["numerator_basis"]]
            den = exact_int(spec.get("denominator", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDivisor(f"malformed ideal basis: {exc}") from exc
        if den <= 0:
            raise InvalidDivisor("ideal denominator must be positive")
        ideal = FractionalIdeal.from_rows(fld, rows, den)
        return divisor_from_ideal(fld, ideal, infinite)
    if not isinstance(finite, list):
        raise InvalidDivisor("finite part must be a list of prime terms or an ideal")
    terms = []
    for entry in finite:
        try:
            p = exact_int(entry["p"])
            index = exact_int(entry.get("index", 0))
            e = exact_int(entry["exponent"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDivisor(f"malformed prime term: {exc}") from exc
        try:
            above = primes_above(fld, p)
        except ValueError as exc:
            raise InvalidDivisor(str(exc)) from exc
        if not 0 <= index < len(above):
            raise InvalidDivisor(f"no prime of index {index} above {p}")
        terms.append((above[index], e))
    return divisor_from_primes(fld, terms, infinite)


def load_divisor_file(fld: NumberFieldDescriptor, path) -> ArakelovDivisor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidDivisor(f"divisor file is not valid JSON: {exc}") from exc
    return load_divisor(fld, obj)
