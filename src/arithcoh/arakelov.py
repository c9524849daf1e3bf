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
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationFailed, InvalidDivisor
from .intmat import adjugate, det_int, exact_int, exact_reals
from .lattice import DEFAULT_BUDGET, EmbeddedLattice, theta_sum
from .numfield import (
    FractionalIdeal,
    NumberFieldDescriptor,
    PrimeIdeal,
    _embed_reduced,
    _trace_dual,
    embed_ideal,
    ideal_inv,
    ideal_mul,
    infinite_weights,
    make_field,
    primes_above,
    unit_ideal,
)

# n log 2^1024 caps sum |e| log N(P) over the exponents of each sign of a
# prime-exponent divisor, as listed, so that the rational factor p^-k and
# the two one-sign products of ideal() stay cheap.  Such divisors exist only
# over Q and quadratic fields (primes_above), so n <= 2 wherever the cap is
# read.  One product beyond it has an HNF entry above 2^1024 or below
# 2^-1024, out of the float range or subnormal; the two signs may cancel
# (2^700 3^-442 is near 1), and an ideal that is still too large meets the
# typed errors of embed_ideal and LLL
_LOG_FLOAT_RANGE = 1024 * math.log(2)


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
            sides = [0.0, 0.0]  # sum |e| log N(P) over e <= 0 and over e > 0
            for prime, e in self.primes:
                if isinstance(e, bool) or not isinstance(e, int):
                    raise InvalidDivisor(f"prime exponents must be integers, not {e!r}")
                try:
                    sides[e > 0] += abs(e) * math.log(prime.residue_norm)
                except OverflowError:  # an exponent beyond the float range
                    sides[e > 0] = math.inf
            size = max(sides)
            bound = self.field.n * _LOG_FLOAT_RANGE
            if size > bound:
                raise InvalidDivisor(
                    f"prime exponents of one sign give sum |e| log N(P) = {size:.6g}, beyond "
                    f"the cap {bound:.6g} = {self.field.n} * 1024 log 2 on exact ideal powers")

    def ideal(self) -> FractionalIdeal:
        """Associated fractional ideal prod P^(-x_P).

        The exponents of a prime listed more than once are added first.  Then,
        for each p whose primes in D are all the primes above p (sum e(P) f(P)
        = n) with exponents a_P of one sign, pO = prod P^e(P) (Cohen, GTM 138,
        4.8) takes out of prod P^(-a_P) the rational factor p^-k for positive
        a_P and p^k for negative ones, k = min floor(|a_P| / e(P)); over Q
        every prime term is such a power.  The remainders b_P, a_P less
        k e(P) in size, are built as N * M^-1 with
        N = prod P^(-b) over the negative ones and M^-1 = prod (P^-1)^b over
        the positive ones, from the inverse each prime carries: sum |b_P| - 1
        products, none when every b_P is 0, and no inverse.  Each sign is its
        own chain, joined by one last product: a chain that alternates signs
        carries the large entries of both through every step.  A positive
        integer multiple of an HNF basis is an HNF basis, so the factor
        up / down scales the rows by up and the denominator by down, and the
        pair keeps content 1: the product R of the chains is integral at
        each p in up, so p does not divide its den, and R has no valuation
        above 0 at any prime above a p in down, so p does not divide all of
        its rows.  HNF bases are canonical, so neither the order of the
        products nor the split shows in the result.
        """
        if self.explicit is not None:
            return self.explicit
        fld = self.field
        if not self.primes:
            return unit_ideal(fld)
        by_p: dict = {}
        for prime, e in _merged(self.primes):
            by_p.setdefault(prime.p, []).append((prime, e))
        up = down = 1  # the rational factor up / down
        neg, pos = [], []
        for p, terms in by_p.items():
            k = 0
            if (len({e > 0 for _, e in terms}) == 1
                    and sum(P.ramification * P.residue_degree for P, _ in terms) == fld.n):
                k = min(abs(e) // P.ramification for P, e in terms)
            sign = 1 if terms[0][1] > 0 else -1
            if sign > 0:
                down *= p ** k
            else:
                up *= p ** k
            for prime, e in terms:
                b = e - sign * k * prime.ramification
                if b < 0:
                    neg += [prime.ideal] * -b
                else:
                    pos += [prime.inverse] * b
        sides = [functools.reduce(ideal_mul, side) for side in (neg, pos) if side]
        I = functools.reduce(ideal_mul, sides) if sides else unit_ideal(fld)
        if up == down:
            return I
        return FractionalIdeal(fld, tuple(tuple(up * x for x in row) for row in I.num),
                               down * I.den)


def _merged(terms) -> tuple:
    """The (prime, exponent) terms with the exponents of each prime added,
    in the order of each prime's first term, and the zero totals dropped."""
    exps: dict = {}
    for prime, e in terms:
        key = (prime.p, prime.index)
        first, total = exps.get(key, (prime, 0))
        exps[key] = (first, total + e)
    return tuple((p, e) for p, e in exps.values() if e)


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
        merged = _merged(D1.primes + tuple((p, -e) for p, e in D2.primes))
        return ArakelovDivisor(D1.field, merged, None, inf)
    ideal = ideal_mul(D1.ideal(), ideal_inv(D2.ideal()))
    return ArakelovDivisor(D1.field, None, ideal, inf)


@dataclass(frozen=True)
class CohomologyValue:
    """h-value in natural-log units with its certified error bound."""

    value: float
    tail_bound: float
    points_enumerated: int


def _theta_of_divisor(lat: EmbeddedLattice, log_tol: float, budget: int):
    """Centred theta sum of a divisor lattice, with the relative tolerance
    picked so the log-level error stays below log_tol.

    The enumerated value V is at most theta, so the log error is
    log(theta / V) <= log1p(tail / V).  theta_sum bounds tail / V by
    r / (1 - r) with r <= a = min(log_tol, 1) / 2 <= 1/2, which is at most
    2a <= log_tol, for every log_tol > 0.
    """
    return theta_sum(lat.gram, None, 0.5 * min(log_tol, 1.0), budget=budget)


def h0(D: ArakelovDivisor, tol: float = 1e-9,
       budget: int = DEFAULT_BUDGET) -> CohomologyValue:
    """h0(D) = log of the theta sum over the divisor lattice.

    The enumerated sum V misses at most the theta tail, so the certified
    error of log V is log1p(tail / V) (see _theta_of_divisor).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    res = _theta_of_divisor(embed_ideal(D.field, D.ideal(), D.infinite), tol, budget)
    value = math.log(res.value)
    if value < 0.0:  # the zero vector alone contributes 1 to the sum
        raise CertificationFailed(
            f"theta sum {res.value!r} is below 1 (tail bound {res.tail_bound:.3e})")
    return CohomologyValue(value=value, tail_bound=math.log1p(res.tail_bound / res.value),
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


def _reduced_coords(D: ArakelovDivisor, coords) -> tuple[EmbeddedLattice, list[Fraction]]:
    """The divisor lattice, and coords over the ideal's HNF basis H as exact
    coordinates over the lattice's reduced basis B = M H.

    x = c H = (c M^-1) B, and M^-1 = det(M) adj(M) with det(M) = +-1, so the
    new coordinates are sums of integer multiples of the given floats, kept
    as Fractions: rounding them here would let a large integer part swallow
    the fractional part that a shifted theta sum reads.  A nan or infinite
    coordinate raises ValueError.
    """
    xs = [float(x) for x in coords]
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"coords must be finite reals, not {coords!r}")
    lat, M = _embed_reduced(D.field, D.ideal(), D.infinite)
    c = list(map(Fraction, xs))
    det = det_int(M)
    return lat, [det * sum(a * x for a, x in zip(col, c, strict=True))
                 for col in zip(*adjugate(M))]


def effectivity_u(D: ArakelovDivisor, coords) -> float:
    """u(x) = exp(-pi ||x||_D^2) for x given by its coordinates over the
    ideal's HNF basis (the rows of FractionalIdeal)."""
    lat, c = _reduced_coords(D, coords)
    with np.errstate(over="ignore"):  # a norm beyond the float range gives u = 0
        vec = np.array([float(x) for x in c]) @ lat.basis
        return math.exp(-math.pi * float(vec @ vec))


def effectivity_v(D: ArakelovDivisor, coords, tol: float = 1e-9,
                  budget: int = DEFAULT_BUDGET) -> float:
    """Quotient effectivity: shifted over centered theta sum.

    The centred denominator's value plus its tail bound is the bound on
    theta_0 that the shifted numerator's relative tolerance needs.  Both
    tails stay below tol times the denominator, so the ratio is correct to
    about 2 tol.  The shift is given by its coordinates over the ideal's HNF
    basis (the rows of FractionalIdeal), as for effectivity_u.  Periodic
    under the ideal: the exact reduced coordinates are taken mod 1 before
    they are rounded to floats, so a shift by an element of the ideal, however
    large, gives the same float.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lat, c = _reduced_coords(D, coords)
    den = _theta_of_divisor(lat, tol, budget)
    num = theta_sum(lat.gram, [float(x % 1) for x in c], 0.5 * min(tol, 1.0),
                    budget=budget, theta0=den.value + den.tail_bound)
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
    identity.  That ideal is one trace dual: J^v = J^-1 O^v, so
    (I d O^v)^v = (d I)^-1, with d O^v formed once by the field.  For the
    true different d O^v = O and the dual is I^v.  The dual is taken of
    I d O^v, not of I alone, because I^v is the ideal for the true different
    whatever the descriptor says; a wrong d leaves d O^v != O, h0(K - D) is
    then summed over the lattice of that d, and Riemann-Roch fails wherever
    h0(K - D) is large enough to show it.
    """
    F, I = D.field, D.ideal()
    a = h0(divisor_from_ideal(F, I, D.infinite), tol / 4.0, budget)
    kd = _trace_dual(I if F.true_different else ideal_mul(I, F.different_codifferent))
    b = h0(divisor_from_ideal(F, kd, [0.0 - x for x in D.infinite]), tol / 4.0, budget)
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


def zeta_integrand_sweep(s: complex, t_grid, tol: float = 1e-9,
                         budget: int = DEFAULT_BUDGET) -> list[ZetaRow]:
    """Integrand e^{s h0(D_t) + (1-s) h1(D_t)} along the degree line over Q.

    D_t is the divisor of Q with no finite part and x_infinity = t, one row
    per t in t_grid.  Tate's integrand lives over Q alone, so the sweep
    builds Q itself and takes no field.  An integrand beyond the float
    range raises InvalidDivisor naming t, s and its exponent.
    """
    fld = make_field("rational")
    s = complex(s)
    rows = []
    for t in t_grid:
        D = divisor_from_primes(fld, (), [float(t)])
        a = h0(D, tol, budget)
        b = _h1_from_h0(D, a).value
        exponent = s * a.value + (1.0 - s) * b
        try:
            zval = cmath.exp(exponent)
        except (OverflowError, ValueError):  # ValueError: an infinite imaginary part
            raise InvalidDivisor(
                f"the integrand at t = {float(t)!r}, s = {s!r} overflows: Re(s*h0 + "
                f"(1-s)*h1) = {exponent.real:.6g}, Im = {exponent.imag:.6g}") from None
        rows.append(ZetaRow(t=float(t), h0=a.value, h1=b, value=zval))
    return rows


def load_divisor(fld: NumberFieldDescriptor, obj: dict) -> ArakelovDivisor:
    """Parse {finite: [{p, index, exponent}] | {ideal: ...}, infinite: [...]}"""
    try:
        infinite = exact_reals(obj["infinite"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDivisor(f"divisor needs an 'infinite' list of reals: {exc}") from exc
    finite = obj.get("finite", [])
    if isinstance(finite, dict):
        try:
            spec = finite["ideal"]
            rows = [[exact_int(x) for x in row] for row in spec["numerator_basis"]]
            den = exact_int(spec.get("denominator", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDivisor(f"malformed explicit ideal: {exc}") from exc
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
