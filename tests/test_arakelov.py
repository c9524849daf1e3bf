"""Divisors, cohomology values, and the duality / Riemann-Roch verifiers."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from arithcoh.arakelov import (
    canonical_divisor,
    degree,
    divisor_from_ideal,
    divisor_from_primes,
    effectivity_u,
    effectivity_v,
    h0,
    h1,
    load_divisor,
    sub,
    verify_duality,
    verify_riemann_roch,
    verify_serre_duality,
    zero_divisor,
    zeta_integrand_sweep,
)
from arithcoh import arakelov, intmat, numfield
from arithcoh.errors import (
    ArithcohError,
    CertificationFailed,
    DescriptorInconsistent,
    EnumerationBudgetExceeded,
    InvalidDivisor,
    NotPositiveDefinite,
)
from arithcoh.lattice import DEFAULT_BUDGET, ThetaResult, theta_sum
from arithcoh.numfield import (
    FractionalIdeal,
    embed_ideal,
    ideal_inv,
    ideal_mul,
    ideal_norm,
    infinite_weights,
    make_field,
    primes_above,
    principal_ideal,
    unit_ideal,
)

from conftest import (
    brute_force_theta,
    cbrt2_descriptor,
    fraction_trace_dual,
    product_oracle,
    zeta7_plus_descriptor,
    zeta8_descriptor,
)

Q = make_field("rational")
QI = make_field(("quadratic", -1))


def degree_divisor(t):
    return divisor_from_primes(Q, (), [float(t)])


def test_degree_zero_divisor():
    assert degree(zero_divisor(QI)) == 0.0


def test_degree_prime_plus_infinite():
    P = primes_above(QI, 2)[0]
    D = divisor_from_primes(QI, [(P, 1)], [0.3])
    assert degree(D) == pytest.approx(math.log(2) + 0.3, abs=1e-12)


def test_degree_prime_and_ideal_forms_agree():
    rng = random.Random(55)
    for _ in range(10):
        F = make_field(("quadratic", rng.choice([-5, -1, 2, 13])))
        terms = [(pr, rng.randint(-2, 2))
                 for p in (2, 3, 5) for pr in primes_above(F, p)]
        xs = [rng.uniform(-1, 1) for _ in range(F.r1 + F.r2)]
        D = divisor_from_primes(F, terms, xs)
        E = divisor_from_ideal(F, D.ideal(), xs)
        assert degree(D) == pytest.approx(degree(E), abs=1e-10)


def test_canonical_divisor():
    assert degree(canonical_divisor(Q)) == 0.0
    assert ideal_norm(canonical_divisor(Q).ideal()) == 1
    K_i = canonical_divisor(QI)
    assert degree(K_i) == pytest.approx(math.log(4), abs=1e-12)
    F5 = make_field(("quadratic", 5))
    assert degree(canonical_divisor(F5)) == pytest.approx(math.log(5), abs=1e-12)
    assert ideal_norm(canonical_divisor(F5).ideal()) == Fraction(1, 5)


def test_sub_trivial_identities():
    P = primes_above(QI, 5)[0]
    D = divisor_from_primes(QI, [(P, 2)], [0.7])
    zero = sub(D, D)
    assert zero.primes == ()
    assert degree(zero) == 0.0
    K = canonical_divisor(QI)
    assert degree(sub(K, zero_divisor(QI))) == degree(K)
    assert degree(sub(K, K)) == 0.0
    # a prime listed twice: its exponents add up on both sides of the difference
    D = divisor_from_primes(QI, [(P, 1), (P, 2)], [0.0])
    assert sub(D, zero_divisor(QI)).ideal() == D.ideal()
    assert degree(sub(D, zero_divisor(QI))) == pytest.approx(degree(D), abs=1e-14)
    assert sub(D, D).primes == ()
    assert degree(sub(D, D)) == 0.0
    with pytest.raises(InvalidDivisor, match="different fields"):
        sub(zero_divisor(QI), zero_divisor(make_field(("quadratic", -1))))


def test_divisor_needs_one_finite_part_and_integer_exponents():
    P = primes_above(QI, 5)[0]
    for primes, explicit in (((), unit_ideal(QI)), (None, None)):
        with pytest.raises(InvalidDivisor, match="exactly one of prime exponents"):
            arakelov.ArakelovDivisor(QI, primes, explicit, (0.0,))
    # True loaded as the exponent 1, while load_divisor refused JSON true
    for e in (1.5, Fraction(1), 2.0, True):
        with pytest.raises(InvalidDivisor, match="exponents must be integers"):
            divisor_from_primes(QI, [(P, e)], [0.0])


def test_h0_rational_zero_divisor():
    res = h0(zero_divisor(Q), 1e-10)
    assert res.value == pytest.approx(math.log(brute_force_theta([[1.0]], None)), abs=1e-10)
    assert res.value == pytest.approx(0.08290152003105464, abs=1e-12)
    assert res.tail_bound <= 1e-10


def test_h0_large_degree_matches_functional_equation():
    # theta(1/x) = sqrt(x) theta(x): h0(D_t) = t + h0(D_-t)
    res = h0(degree_divisor(5.0), 1e-9)
    assert res.value == pytest.approx(5.0, abs=1e-8)


def test_h0_shrinking_metric_kills_sections():
    res = h0(degree_divisor(-10.0), 1e-9)
    assert 0.0 <= res.value < 1e-6


def test_h1_equals_h0_at_zero_divisor():
    a = h0(zero_divisor(Q), 1e-10)
    b = h1(zero_divisor(Q), 1e-10)
    assert a.value == b.value


def test_h1_large_degree_vanishes():
    assert h1(degree_divisor(5.0), 1e-9).value == pytest.approx(0.0, abs=1e-8)


def test_h1_gaussian_zero_divisor():
    b = h1(zero_divisor(QI), 1e-9)
    a = h0(zero_divisor(QI), 1e-9)
    assert b.value == pytest.approx(math.log(2) + a.value, abs=1e-12)


def test_h_values_nonnegative():
    rng = random.Random(2)
    for _ in range(10):
        t = rng.uniform(-3, 3)
        D = degree_divisor(t)
        assert h0(D).value >= 0.0
        assert h1(D).value >= -1e-9


def test_h0_rejects_theta_below_one(monkeypatch):
    fake = ThetaResult(value=0.75, tail_bound=2.5e-11, points_enumerated=1, radius=1.0)
    monkeypatch.setattr(arakelov, "theta_sum", lambda *args, **kwargs: fake)
    with pytest.raises(CertificationFailed) as info:
        h0(degree_divisor(0.0))
    assert "0.75" in str(info.value)
    assert "2.500e-11" in str(info.value)


def test_h_values_reject_bad_tol():
    D = degree_divisor(0.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            h0(D, tol)
        with pytest.raises(ValueError):
            effectivity_v(D, [0.5], tol)


@pytest.mark.parametrize("field", ["Q", "Q(i)", "Q(sqrt(5))", "Q(cbrt(2))"])
def test_h0_error_is_certified_at_large_tol(field):
    # the log error bound must hold and stay below tol for every tol > 0,
    # not only for tol << 1; x_sigma moves the covolume both ways
    F = {"Q": Q, "Q(i)": QI, "Q(sqrt(5))": make_field(("quadratic", 5)),
         "Q(cbrt(2))": make_field(cbrt2_descriptor())}[field]
    places = F.r1 + F.r2
    for x in (-1.5, 0.0, 1.0, 3.0):
        D = divisor_from_primes(F, (), [x] * places)
        exact = h0(D, 1e-12).value
        for tol in (1.0, 2.0, 4.0, 50.0, 1e6):
            got = h0(D, tol)
            assert 0.0 <= got.tail_bound <= tol, (x, tol, got)
            assert abs(got.value - exact) <= got.tail_bound, (x, tol, got, exact)


@pytest.mark.parametrize("d", [-5, -14, -23, -47])
def test_h0_on_pic0_peaks_at_the_trivial_class(d):
    # van der Geer and Schoof conjecture that h0 on Pic^0 peaks at the
    # trivial class; Francini proved it for quadratic fields (J. Theor.
    # Nombres Bordeaux 13, 2001).  Over an imaginary quadratic field Pic^0 is
    # the class group, and P^e with x_sigma = -deg(P^e) has degree 0
    F = make_field(("quadratic", d))
    top = h0(zero_divisor(F), 1e-9)
    below = 0
    for p in (2, 3, 5, 7):
        for P in primes_above(F, p):
            for e in (-1, 1, 2):
                x = -degree(divisor_from_primes(F, [(P, e)], [0.0]))
                got = h0(divisor_from_primes(F, [(P, e)], [x]), 1e-9)
                assert got.value <= top.value + top.tail_bound + got.tail_bound, (d, p, e)
                below += got.value < top.value - 1e-3
    assert below  # some P^e lies in a nontrivial class


def test_h0_monotone_in_infinite_component():
    values = [h0(degree_divisor(t), 1e-10).value for t in (-2, -1, 0, 1, 2)]
    assert values == sorted(values)
    P = primes_above(QI, 3)[0]
    vals = [h0(divisor_from_primes(QI, [(P, 1)], [x]), 1e-10).value
            for x in (-1.0, 0.0, 1.0, 2.0)]
    assert vals == sorted(vals)


def test_effectivity_u_examples():
    D0 = zero_divisor(Q)
    assert effectivity_u(D0, [0]) == 1.0
    assert effectivity_u(D0, [1]) == pytest.approx(math.exp(-math.pi), abs=1e-15)
    # scaling x_sigma by t rescales the squared norm by exp(-2t)
    t = 0.6
    Dt = degree_divisor(t)
    assert effectivity_u(Dt, [1]) == pytest.approx(
        math.exp(-math.pi * math.exp(-2 * t)), rel=1e-12)


def test_effectivity_v_examples():
    D0 = zero_divisor(Q)
    assert effectivity_v(D0, [0.0]) == 1.0
    assert effectivity_v(D0, [3.0]) == pytest.approx(1.0, abs=1e-10)
    expected = brute_force_theta([[1.0]], [0.5]) / brute_force_theta([[1.0]], None)
    got = effectivity_v(D0, [0.5], 1e-9)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.8409, abs=1e-3)
    # far from the lattice v is tiny but positive: the shifted sum reaches
    # the two nearest points at Q = e^5 / 4, beyond the tail radius
    far = effectivity_v(degree_divisor(-2.5), [0.5], 1e-8)
    assert far == pytest.approx(2.0 * math.exp(-math.pi * math.exp(5.0) / 4.0), rel=1e-12, abs=0.0)


def test_effectivity_refuses_non_finite_coordinates():
    # inf gave an untyped OverflowError from Fraction, nan Fraction's own
    # ValueError; both now name the coordinates
    for F in (Q, make_field(("quadratic", 2))):
        D = zero_divisor(F)
        for bad in (math.inf, -math.inf, math.nan):
            coords = [bad] + [0.0] * (F.n - 1)
            for fn in (effectivity_u, effectivity_v):
                with pytest.raises(ValueError, match="coords must be finite reals"):
                    fn(D, coords)
    # a norm beyond the float range is u = 0, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert effectivity_u(zero_divisor(Q), [1e200]) == 0.0


def _box_theta(gram, center, box: int = 10) -> float:
    """Oracle in any dimension: direct summation over the box |v_i| <= box."""
    n = len(gram)
    y = np.array(list(itertools.product(range(-box, box + 1), repeat=n))) + np.asarray(center)
    return math.fsum(np.exp(-math.pi * np.einsum("pi,ij,pj->p", y, gram, y)).tolist())


def test_effectivity_coordinates_are_over_the_hnf_basis():
    # LLL changes the basis of both lattices, so coordinates read over the
    # reduced rows named another element; the oracles take the Gram of the
    # embedded HNF rows
    cases = [(make_field(("quadratic", 5)), [1.0, -1.0], [0, 1], ([0.5, 0.0], [0.25, 0.5])),
             (make_field(cbrt2_descriptor()), [1.0, -1.0], [0, 0, 1],
              ([0.5, 0.0, 0.25], [0.25, 0.5, -0.5]))]
    for F, xs, point, shifts in cases:
        D = divisor_from_ideal(F, unit_ideal(F), xs)
        H = np.array(unit_ideal(F).num, dtype=float) @ F.integral_basis_embeddings
        H *= np.sqrt(infinite_weights(F, xs))
        assert not np.allclose(embed_ideal(F, unit_ideal(F), xs).basis, H)
        G = H @ H.T
        p = np.array(point, dtype=float)
        assert effectivity_u(D, point) == pytest.approx(math.exp(-math.pi * (p @ G @ p)),
                                                        rel=1e-12, abs=0.0)
        zero = np.zeros(len(point))
        for c in shifts:
            assert effectivity_v(D, c) == pytest.approx(_box_theta(G, c) / _box_theta(G, zero),
                                                        abs=2e-9)


def test_effectivity_v_is_periodic_under_the_ideal():
    # the reduced coordinates were rounded to floats before the shift was
    # taken mod Z^n, so an integer part beyond 2^53 swallowed the fractional
    # part of another coordinate: over Q(sqrt 2) at x = (1, -1) the shift
    # (0, 0.5) gave 0.0799 and (1e20, 0.5), the same class, 1.0.  Adding an
    # integer, however large, to an integral coordinate moves the shift by an
    # element of the ideal and must give the same bits
    cases = [(make_field(("quadratic", 2)), [1.0, -1.0], [0.0, 0.5]),
             (QI, [0.3], [0.0, 0.25]),
             (make_field(zeta8_descriptor()), [0.2, -0.1], [0.0, 0.5, 1.0, 0.25])]
    for F, xs, base in cases:
        D = divisor_from_ideal(F, unit_ideal(F), xs)
        v = effectivity_v(D, base, 1e-10)
        assert 0.0 < v < 1.0
        for k, ck in enumerate(base):
            if ck != int(ck):
                continue
            for big in (1e20, -1e20, 1e300):
                shifted = list(base)
                shifted[k] = ck + big
                assert effectivity_v(D, shifted, 1e-10) == v, (F, shifted)


def test_serre_duality_self_dual_point():
    report = verify_serre_duality(zero_divisor(Q), 1e-10)
    assert report.delta == 0.0
    assert report.passed


def test_serre_duality_rational_line():
    report = verify_serre_duality(degree_divisor(1.5), 1e-8)
    assert report.delta < 1e-8


def test_serre_duality_sqrt_minus_five():
    F = make_field(("quadratic", -5))
    assert F.abs_discriminant == 20
    report = verify_serre_duality(zero_divisor(F), 1e-8)
    assert report.delta < 1e-8


def test_riemann_roch_rational_grid():
    for t in (-3.0, -1.5, 0.7, 2.5):
        report = verify_riemann_roch(degree_divisor(t), 1e-8)
        assert report.passed, (t, report.delta)
        assert report.rhs == pytest.approx(t, abs=1e-12)


def test_riemann_roch_gaussian_example():
    P = primes_above(QI, 2)[0]
    D = divisor_from_primes(QI, [(P, 1)], [0.4])
    report = verify_riemann_roch(D, 1e-8)
    assert report.rhs == pytest.approx(0.4, abs=1e-12)
    assert report.delta < 1e-8


def test_duality_symmetry_of_deltas():
    rng = random.Random(91)
    for _ in range(6):
        F = make_field(("quadratic", rng.choice([-5, 2, 13])))
        terms = [(pr, rng.randint(-1, 1)) for pr in primes_above(F, 3)]
        D = divisor_from_primes(F, terms, [rng.uniform(-1, 1)] * (F.r1 + F.r2))
        d1 = verify_serre_duality(D, 1e-8).delta
        d2 = verify_serre_duality(sub(canonical_divisor(F), D), 1e-8).delta
        assert abs(d1 - d2) < 1e-10


def test_verify_duality_enumerates_d_and_k_minus_d_directly(monkeypatch):
    # Riemann-Roch stays falsifiable only while h0(K - D) is its own theta sum
    # over the K - D lattice, never one derived from the sum over D
    calls = []
    real = arakelov.theta_sum

    def recording(gram, center, tol, budget=DEFAULT_BUDGET):
        calls.append((gram, center))
        return real(gram, center, tol, budget=budget)

    monkeypatch.setattr(arakelov, "theta_sum", recording)
    F = make_field(("quadratic", -5))
    D = divisor_from_primes(F, [(primes_above(F, 3)[1], 1)], [0.3])
    rr, sd = verify_duality(D, 1e-8)
    assert [center for _, center in calls] == [None, None]
    for (gram, _), E in zip(calls, (D, sub(canonical_divisor(F), D))):
        expected = embed_ideal(F, E.ideal(), E.infinite).gram.entries
        assert gram.entries.tobytes() == expected.tobytes()
    assert rr.passed and sd.passed
    assert verify_riemann_roch(D, 1e-8) == rr
    assert verify_serre_duality(D, 1e-8) == sd


# a and b of the divisors a * b^-1 below, over the first three basis elements
ELEMENT_PAIRS = (((1, 1, 0), (1, 0, 0)), ((1, 0, 1), (0, 1, 1)), ((2, 1, 0), (1, -1, 1)),
                 ((0, 1, 0), (1, 1, 1)), ((1, -1, 1), (3, 0, 0)))


@pytest.mark.parametrize("descriptor", [cbrt2_descriptor, zeta7_plus_descriptor,
                                        zeta8_descriptor])
def test_duality_on_fields_of_degree_3_and_4(descriptor):
    F = make_field(descriptor())
    places = F.r1 + F.r2
    rng = random.Random(3)
    pad = (0,) * (F.n - 3)
    shift = [0.5] + [0.25] * (F.n - 1)
    for a, b in ELEMENT_PAIRS:
        ideal = ideal_mul(principal_ideal(F, a + pad), ideal_inv(principal_ideal(F, b + pad)))
        # x_sigma around the self-dual degree keeps both lattices small
        xs = [0.5 * math.log(F.abs_discriminant) / places + rng.uniform(-1.0, 1.0)
              for _ in range(places)]
        D = divisor_from_ideal(F, ideal, xs)
        rr, sd = verify_duality(D, 1e-8)
        assert rr.delta <= 1e-8 and sd.delta <= 1e-8, (F.label, a, b, rr.delta, sd.delta)
        assert 0.0 < effectivity_v(D, shift, 1e-8) <= 1.0


def test_verify_duality_builds_the_ideal_of_k_minus_d_as_sub_does(monkeypatch):
    # verify_duality takes I(K - D) = (d I)^-1 in one product and one inverse;
    # it must give the ideal and the x_sigma of the generic sub(K, D)
    seen = []

    def recording(D, tol, budget):
        seen.append(D)
        return arakelov.CohomologyValue(value=0.0, tail_bound=0.0, points_enumerated=1)

    monkeypatch.setattr(arakelov, "h0", recording)
    rng = random.Random(5)
    divisors = []
    for d in (-1, -5, 2, 5, 13):
        F = make_field(("quadratic", d))
        primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
        divisors.append(zero_divisor(F))
        for _ in range(4):
            terms = [(pr, rng.randint(-2, 2)) for pr in primes]
            divisors.append(divisor_from_primes(
                F, terms, [rng.uniform(-2.0, 2.0) for _ in range(F.r1 + F.r2)]))
    for descriptor in (cbrt2_descriptor, zeta7_plus_descriptor, zeta8_descriptor):
        F = make_field(descriptor())
        pad = (0,) * (F.n - 3)
        for a, b in ELEMENT_PAIRS:
            ideal = ideal_mul(principal_ideal(F, a + pad), ideal_inv(principal_ideal(F, b + pad)))
            divisors.append(divisor_from_ideal(
                F, ideal, [rng.uniform(-1.0, 1.0) for _ in range(F.r1 + F.r2)]))
    for D in divisors:
        seen.clear()
        verify_duality(D)
        d_seen, kd_seen = seen
        kd = sub(canonical_divisor(D.field), D)
        assert d_seen.ideal() == D.ideal() and d_seen.infinite == D.infinite
        assert kd_seen.ideal() == kd.ideal(), (D.field.label, D)
        assert [x.hex() for x in kd_seen.infinite] == [x.hex() for x in kd.infinite]


def test_divisor_ideal_equals_the_product_of_prime_powers():
    # the oracle multiplies P^(-e) into O one factor at a time by the Fraction
    # product, each prime of positive exponent inverted as (P O^v)^v by the
    # Fraction trace dual; the terms repeat one prime and put a split pair at
    # opposite signs
    def oracle(D):
        F = D.field
        result = unit_ideal(F)
        for prime, e in D.primes:
            base = prime.ideal if e < 0 else \
                fraction_trace_dual(product_oracle(prime.ideal, F.codifferent))
            for _ in range(abs(e)):
                result = product_oracle(result, base)
        return result

    rng = random.Random(10)
    for F in [Q] + [make_field(("quadratic", d)) for d in (-1, -3, -5, 2, 3, 5, 13)]:
        primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
        split = [above for p in (2, 3, 5, 7, 11, 13) if len(above := primes_above(F, p)) == 2]
        e = rng.randint(1, 3)
        pair = [(split[0][0], e), (split[0][1], -e)] if split else []
        for _ in range(6):
            terms = [(pr, rng.randint(-3, 3)) for pr in primes]
            terms.append((rng.choice(primes), rng.choice((-3, -2, -1, 1, 2, 3))))
            D = divisor_from_primes(F, terms + pair, [0.0] * (F.r1 + F.r2))
            assert D.ideal() == oracle(D), (F.label, terms)
    # pO = prod P^e(P) lets ideal() take p^k or p^-k out of a p whose primes
    # in D are all the primes above p at one sign: every kind of prime at
    # exponents up to 4, a prime listed twice at the same and at opposite
    # signs, a split pair at one sign and at opposite signs, and random
    # mixes of them
    kinds = set()
    for F in [Q] + [make_field(("quadratic", d)) for d in (-1, -5, 2, 5, 13)]:
        primes = [P for p in (2, 3, 5, 7, 11, 13) for P in primes_above(F, p)]
        for _ in range(3):
            terms = [(P, rng.randint(-4, 4)) for P in rng.sample(primes, 3)]
            D = divisor_from_primes(F, terms, [0.0] * (F.r1 + F.r2))
            assert D.ideal() == oracle(D), (F.label, terms)
        for p in (2, 3, 5, 7, 11, 13):
            above = primes_above(F, p)
            P = above[0]
            kinds.add((F.n, "split" if len(above) == F.n else
                       "ramified" if P.ramification == 2 else "inert"))
            cases = [[(P, e)] for e in (1, -1, 2, -2, 3, -3, 4, -4)]
            cases += [[(P, 3), (P, 2)], [(P, -1), (P, -2)], [(P, 3), (P, -1)], [(P, -4), (P, 2)]]
            if len(above) == 2:
                P1, P2 = above
                cases += [[(P1, 2), (P2, 3)], [(P1, -4), (P2, -1)], [(P1, 2), (P2, -3)],
                          [(P1, -1), (P2, 4)], [(P1, 1), (P2, 1), (P1, -1)]]
            for case in cases:
                D = divisor_from_primes(F, case, [0.0] * (F.r1 + F.r2))
                assert D.ideal() == oracle(D), (F.label, case)
    assert kinds == {(1, "split"), (2, "split"), (2, "ramified"), (2, "inert")}


def _expected_products(D) -> int:
    """The products D.ideal() takes: sum |b_P| - 1 over the exponents b_P
    left once each whole (p) is taken out (see ArakelovDivisor.ideal)."""
    merged = {}
    for P, e in D.primes:
        first, total = merged.get((P.p, P.index), (P, 0))
        merged[P.p, P.index] = (first, total + e)
    left = 0
    for p in {P.p for P, _ in D.primes}:
        terms = [(P, e) for (q, _), (P, e) in merged.items() if q == p and e]
        whole = sum(P.ramification * P.residue_degree for P, _ in terms) == D.field.n
        one_sign = len({e > 0 for _, e in terms}) == 1
        k = min(abs(e) // P.ramification for P, e in terms) if whole and one_sign else 0
        left += sum(abs(e) - k * P.ramification for P, e in terms)
    return max(left - 1, 0)


def test_verify_duality_makes_no_inverse_one_trace_dual_and_k_minus_1_products(monkeypatch):
    # D's ideal takes each whole (p) out as a rational factor and makes
    # k - 1 products of the primes and the inverses they carry, k = sum |b|
    # over the exponents b that remain (_expected_products); K - D's is one
    # trace dual, of I d O^v, which takes one more product only when the
    # descriptor's different d does not invert O^v
    wrong_q = make_field({"degree": 1, "r1": 1, "r2": 0, "abs_discriminant": 1,
                          "embeddings": [1.0], "different_basis": [[2]]})
    rng = random.Random(11)
    cases = []
    for F in (make_field(("quadratic", -5)), make_field(("quadratic", 13)), Q, wrong_q):
        primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
        for exponents in ([2, 1, -1, 2, -2, 1], [-1] * 6, [3], [0] * 6,
                          [rng.randint(-2, 2) for _ in primes]):
            cases.append(divisor_from_primes(F, list(zip(primes, exponents)),
                                             [rng.uniform(-1.0, 1.0) for _ in range(F.r1 + F.r2)]))
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("ideal_inv", "ideal_mul", "_trace_dual"):
        wrapped = counting(name, getattr(numfield, name))
        for module in (numfield, arakelov):
            monkeypatch.setattr(module, name, wrapped)
    caught = 0
    for D in cases:
        calls.clear()
        rr = verify_duality(D, 1e-8)[0]
        wrong = D.field is wrong_q
        assert rr.passed or wrong, (D.field.label, D.primes, rr.delta)
        caught += not rr.passed
        assert calls.count("ideal_inv") == 0
        assert calls.count("_trace_dual") == 1
        assert calls.count("ideal_mul") == _expected_products(D) + wrong, (D.field.label, D.primes)
    assert caught >= 3  # the wrong different breaks Riemann-Roch where h0(K - D) shows it


def test_h0_of_k_minus_d_is_h0_of_the_inverse_of_d_times_i():
    # the trace dual of I d O^v gives bit for bit the h0 of the ideal
    # (d I)^-1 formed by a product and an inverse, also for the wrong
    # different of Q(cbrt 2), whose d O^v is not O
    rng = random.Random(24)
    divisors = []
    F = make_field(("quadratic", -5))
    primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
    for _ in range(6):
        divisors.append(divisor_from_primes(
            F, [(pr, rng.randint(-2, 2)) for pr in primes], [rng.uniform(-1.0, 1.0)]))
    for different in ([[0, 0, 3], [6, 0, 0], [0, 6, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        F = make_field({**cbrt2_descriptor(), "different_basis": different})
        assert F.true_different == (F.different_codifferent == unit_ideal(F)) == (different[0] == [0, 0, 3])
        for a, b in ELEMENT_PAIRS:
            ideal = ideal_mul(principal_ideal(F, a), ideal_inv(principal_ideal(F, b)))
            divisors.append(divisor_from_ideal(F, ideal, [rng.uniform(-1.0, 1.0)
                                                         for _ in range(2)]))
    tol = 1e-8
    for D in divisors:
        F = D.field
        got = verify_riemann_roch(D, tol).h0_kd
        want = h0(divisor_from_ideal(F, ideal_inv(ideal_mul(F.different, D.ideal())),
                                     [-x for x in D.infinite]), tol / 4.0)
        assert (got.value.hex(), got.tail_bound.hex(), got.points_enumerated) == \
            (want.value.hex(), want.tail_bound.hex(), want.points_enumerated), (F.label, D)


def test_verify_duality_runs_on_integers_only(monkeypatch):
    # the ideals of D and K - D come from integer HNFs and back-substitution:
    # with the Fraction and determinant helpers made to raise, verify passes
    rng = random.Random(21)
    divisors = []
    for d in (-1, -5, 2, 5, 13):
        F = make_field(("quadratic", d))
        primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
        places = F.r1 + F.r2
        for _ in range(3):
            terms = [(pr, rng.randint(-1, 1)) for pr in primes]
            divisors.append(divisor_from_primes(
                F, terms, [0.5 * math.log(F.abs_discriminant) / places + rng.uniform(-0.5, 0.5)
                           for _ in range(places)]))
    for descriptor in (cbrt2_descriptor, zeta7_plus_descriptor, zeta8_descriptor):
        F = make_field(descriptor())
        pad = (0,) * (F.n - 3)
        a, b = ELEMENT_PAIRS[0]
        ideal = ideal_mul(principal_ideal(F, a + pad), ideal_inv(principal_ideal(F, b + pad)))
        places = F.r1 + F.r2
        divisors.append(divisor_from_ideal(
            F, ideal, [0.5 * math.log(F.abs_discriminant) / places] * places))

    def forbidden(*args):
        raise AssertionError("the ideal layer took a Fraction or Bareiss path")

    for name in ("inv_fraction", "fraction_rows_to_lattice", "lattice_dual", "det_int"):
        monkeypatch.setattr(intmat, name, forbidden)
    for D in divisors:
        rr, sd = verify_duality(D, 1e-8)
        assert rr.passed and sd.passed, (D.field.label, rr.delta, sd.delta)


def test_wrong_different_fails_riemann_roch_in_degree_3():
    F = make_field({**cbrt2_descriptor(), "different_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    rr = verify_riemann_roch(divisor_from_ideal(F, unit_ideal(F), [1.2, 0.6]), 1e-8)
    assert not rr.passed
    assert rr.delta > 1e-3


def test_randomized_riemann_roch_small_suite():
    rng = random.Random(12)
    for d in (-1, 2):
        F = make_field(("quadratic", d))
        primes = [pr for p in (2, 3, 5, 7) for pr in primes_above(F, p)]
        for _ in range(5):
            terms = [(pr, rng.randint(-1, 1)) for pr in primes]
            xs = [rng.uniform(-2, 2) for _ in range(F.r1 + F.r2)]
            D = divisor_from_primes(F, terms, xs)
            report = verify_riemann_roch(D, 1e-8)
            assert report.passed, (d, report.delta)


def test_zeta_sweep_values():
    rows = zeta_integrand_sweep(0.5, [0.0])
    assert rows[0].value.real == pytest.approx(1.086434811213308, abs=1e-10)
    assert rows[0].value.imag == 0.0


def test_zeta_sweep_symmetry():
    s = 0.3
    for t in (0.4, 1.1, 2.0):
        row_p = zeta_integrand_sweep(s, [t])[0]
        row_m = zeta_integrand_sweep(1.0 - s, [-t])[0]
        assert abs(row_p.value - row_m.value) < 1e-8


def test_zeta_sweep_asymptote():
    # h0 -> t and h1 -> 0, so the integrand approaches exp(s t)
    s = 0.5
    row = zeta_integrand_sweep(s, [12.0])[0]
    assert row.value.real == pytest.approx(math.exp(s * 12.0), rel=1e-8)


def test_zeta_sweep_complex_parameter():
    row = zeta_integrand_sweep(0.5 + 14.1j, [0.5])[0]
    assert row.value != 0


def test_zeta_sweep_overflow_is_an_invalid_divisor():
    # (1 - s) h1 is about 1,800 at t = -300, s = -5: cmath.exp raised a bare
    # OverflowError, and a ValueError for the infinite imaginary part of
    # s h0 at s = 1e308 i
    for s, t in ((-5.0, -300.0), (1e300, 3.0), (1e308j, 5.0)):
        with pytest.raises(InvalidDivisor, match=r"t = .*, s = .*Re\(s\*h0 \+ \(1-s\)\*h1\) = "):
            zeta_integrand_sweep(s, [0.0, t])
    # a large negative exponent underflows to 0 and stays a row
    assert zeta_integrand_sweep(5.0, [-300.0])[0].value == 0


def _tate_integral(fld, c: float, s: float, h: float, a: float, T: float):
    """Tate's thesis on the degree line D_t = (no finite part, t): the
    integral over t of (theta(D_t) - 1) e^(-s t), and the propagated
    certified error of the h0 values it uses.

    The trapezoid rule with step h runs on [a, T].  Below a = -5, theta - 1
    is about 4 exp(-2 pi e^-t) (Q(i); Q is smaller still), so the integrand
    there is below 1e-390 and vanishes to every order at a.  Past T, theta
    = c e^t up to a relative 4 exp(-pi e^T / 2) from the dual lattice
    (Poisson), so the tail integral of f(t) = (c e^t - 1) e^(-s t) is closed
    form, and so is f'(T) = c (1 - s) e^((1 - s) T) + s e^(-s T) in the
    trapezoid's Euler-Maclaurin end term -h^2 / 12 f'(T).  The enumerated
    theta misses at most theta expm1(tail_bound) of the true one, the
    certified error of h0; each node's is propagated with its weight.
    """
    nodes = round((T - a) / h)
    terms, errors = [], []
    for k in range(nodes + 1):
        t = a + k * h
        weight = (0.5 if k in (0, nodes) else 1.0) * h * math.exp(-s * t)
        h0_t = h0(divisor_from_primes(fld, (), [t]), 1e-13)
        theta = math.exp(h0_t.value)
        terms.append(weight * (theta - 1.0))
        errors.append(weight * theta * math.expm1(h0_t.tail_bound))
    terms.append(c * math.exp((1 - s) * T) / (s - 1) - math.exp(-s * T) / s)
    terms.append(-h * h / 12 * (c * (1 - s) * math.exp((1 - s) * T) + s * math.exp(-s * T)))
    return math.fsum(terms), math.fsum(errors)


def test_tate_zeta_oracle_at_s_4():
    # the completed zeta function, pi^(-s/2) Gamma(s/2) zeta(s) over Q and,
    # with one complex place of weight 2 e^(-t), (2 pi)^(-s) Gamma(s) 4
    # zeta(s) beta(s) over Q(i), 4 counting its roots of unity.  A factor
    # common to theta(D) and theta(K - D) cancels in Riemann-Roch; here it
    # does not.  quadrature covers the trapezoid's own error (1.7e-14 over
    # Q(i) and 1e-15 over Q, measured against step h / 2), the rounding of
    # 121 terms and the closed forms.
    s, h, a, T = 4.0, 0.125, -5.0, 10.0
    quadrature = 1e-12
    zeta4 = math.pi ** 4 / 90
    beta4 = math.fsum((-1) ** k / (2 * k + 1) ** 4 for k in range(10 ** 5))  # to 1e-21
    for fld, c, exact in ((Q, 1.0, math.pi ** -2 * math.gamma(2) * zeta4),
                          (QI, 0.5, (2 * math.pi) ** -4 * math.gamma(4) * 4 * zeta4 * beta4)):
        integral, error = _tate_integral(fld, c, s, h, a, T)
        assert abs(integral - exact) <= error + quadrature, (fld.label, integral, exact)


def test_tate_zeta_oracle_at_s_2():
    # as at s = 4, but the integrand decays only like e^(-T) at T, so the
    # trapezoid's end term h^2 / 12 f'(T) is 8e-9 over Q, above the
    # certified errors (1.3e-10); _tate_integral subtracts it.  quadrature
    # covers the next term, h^4 / 720 f'''(T) with f''' = c (1 - s)^3
    # e^((1 - s) T) + s^3 e^(-s T): 2.1e-12 over Q and 1.0e-12 over Q(i), the
    # errors seen.  Over Q the nodes past t = 10.4 hold more than one block
    # of candidates.  beta(2) is Catalan's constant, by Ramanujan's series
    # pi / 8 log(2 + sqrt 3) + 3 / 8 sum 1 / ((2k + 1)^2 C(2k, k)).
    s, h, a, T = 2.0, 0.125, -5.0, 12.0
    quadrature = 1e-11
    zeta2 = math.pi ** 2 / 6
    beta2 = math.pi / 8 * math.log(2 + math.sqrt(3)) + 3 / 8 * math.fsum(
        1 / ((2 * k + 1) ** 2 * math.comb(2 * k, k)) for k in range(40))  # to 1e-25
    for fld, c, exact in ((Q, 1.0, math.pi ** -1 * math.gamma(1) * zeta2),
                          (QI, 0.5, (2 * math.pi) ** -2 * math.gamma(2) * 4 * zeta2 * beta2)):
        integral, error = _tate_integral(fld, c, s, h, a, T)
        assert abs(integral - exact) <= error + quadrature, (fld.label, integral, exact)


def test_load_divisor_prime_form():
    D = load_divisor(QI, {"finite": [{"p": 2, "index": 0, "exponent": 1}],
                          "infinite": [0.25]})
    assert degree(D) == pytest.approx(math.log(2) + 0.25)


def test_load_divisor_ideal_form():
    D = load_divisor(QI, {"finite": {"ideal": {"numerator_basis": [[2, 0], [0, 2]],
                                               "denominator": 1}},
                          "infinite": [0.0]})
    assert degree(D) == pytest.approx(-math.log(4), abs=1e-12)


def test_load_divisor_errors():
    with pytest.raises(InvalidDivisor):
        load_divisor(QI, {"finite": [], "infinite": [0.0, 0.0]})
    # index -1: above[-1] would silently pick the last prime above 5
    for index in (2, -1):
        with pytest.raises(InvalidDivisor, match=f"no prime of index {index} above 5"):
            load_divisor(QI, {"finite": [{"p": 5, "index": index, "exponent": 1}],
                              "infinite": [0.0]})
    with pytest.raises(InvalidDivisor):
        load_divisor(QI, {"finite": [{"p": 4, "index": 0, "exponent": 1}],
                          "infinite": [0.0]})
    with pytest.raises(InvalidDivisor):
        load_divisor(QI, {"infinite": [0.0], "finite": [{"p": 3}]})
    with pytest.raises(InvalidDivisor):
        load_divisor(QI, {"finite": []})
    # non-finite x_sigma, and x_sigma whose metric weight exp(-2 x) (real place)
    # or 2 exp(-x) (complex place) overflows, underflows to 0 or is subnormal
    for fld, t in [(QI, math.nan), (QI, math.inf), (QI, -math.inf),
                   (QI, 800.0), (QI, -800.0), (Q, 400.0), (Q, -400.0),
                   (QI, 745.0), (Q, 355.0)]:
        with pytest.raises(InvalidDivisor, match="finite"):
            load_divisor(fld, {"finite": [], "infinite": [t]})
    # integers that int() would truncate or fail on
    for term in ({"p": 2, "exponent": 1.5}, {"p": 2.5, "exponent": 1},
                 {"p": 5, "index": 0.5, "exponent": 1}, {"p": 2, "exponent": math.inf}):
        with pytest.raises(InvalidDivisor):
            load_divisor(QI, {"finite": [term], "infinite": [0.0]})
    for ideal in ({"numerator_basis": [[2, 0], [0, 2]], "denominator": 2.7},
                  {"numerator_basis": [[2, 0], [0, 2.5]]}):
        with pytest.raises(InvalidDivisor):
            load_divisor(QI, {"finite": {"ideal": ideal}, "infinite": [0.0]})


def test_load_divisor_needs_a_json_array_of_reals():
    # a string was read character by character: over Q(sqrt 2), "10" loaded
    # as x_sigma = (1, 0)
    F = make_field(("quadratic", 2))
    for infinite in ("10", "1", 1.0, None, {"x": 1}):
        with pytest.raises(InvalidDivisor, match="'infinite' list"):
            load_divisor(F, {"finite": [], "infinite": infinite})


def test_load_divisor_refuses_ideal_rows_of_the_wrong_length():
    # a short row raised IndexError in hnf_rows; a long one lost its extra
    # entries, and the divisor loaded
    for rows in ([[1, 0], [0]], [[1, 0], [0, 1], [5, 7, 9]]):
        with pytest.raises(DescriptorInconsistent, match="must have 2 entries"):
            load_divisor(QI, {"finite": {"ideal": {"numerator_basis": rows}},
                              "infinite": [0.0]})


def test_load_divisor_refuses_booleans():
    # JSON true was read as the integer 1 and the real 1.0
    for obj in ({"finite": [{"p": 2, "exponent": True}], "infinite": [0.0]},
                {"finite": [{"p": 5, "index": True, "exponent": 1}], "infinite": [0.0]},
                {"finite": {"ideal": {"numerator_basis": [[True, 0], [0, 1]]}},
                 "infinite": [0.0]},
                {"finite": [], "infinite": [True]}):
        with pytest.raises(InvalidDivisor):
            load_divisor(QI, obj)


def test_load_divisor_refuses_strings():
    # float() read the JSON string "0.4" as the real 0.4
    with pytest.raises(InvalidDivisor, match="item 0, '0.4', is not a real"):
        load_divisor(QI, {"finite": [], "infinite": ["0.4"]})


def test_h0_near_the_float_limit_gives_a_typed_error():
    # x_sigma = -354 scales the basis of P, P above 11, past 2^511: LLL ran
    # into NaN there, it now reduces at an exact scale 2^-e and the Gram's
    # overflow is reported
    F = make_field(("quadratic", 5))
    for P in primes_above(F, 11):
        with pytest.raises(ArithcohError):
            h0(divisor_from_primes(F, [(P, -1)], [-354.0, -354.0]))


def test_h0_and_verify_duality_refuse_a_budget_below_1_or_not_an_integer():
    D = zero_divisor(QI)
    for budget in (0, -5, math.nan, 1.5):
        for attempt in (lambda: h0(D, budget=budget), lambda: verify_duality(D, budget=budget)):
            with pytest.raises(ValueError, match="budget must be an integer >= 1"):
                attempt()


def test_h0_never_returns_a_value_from_out_of_range_bounds():
    # the Gram spans e^1200, the bounds of one coordinate reached 1e115, and
    # their int64 cast gave h0 = 0 from 1 point with two warnings.  The LLL's
    # transform has entries so large that the first coordinate of both exact
    # reduced rows, a - b sqrt(2) in floats, cancels to 0
    with pytest.raises(NotPositiveDefinite, match="Gram-Schmidt norm 0 of row 1"):
        h0(divisor_from_primes(make_field(("quadratic", 2)), (), [-300.0, 300.0]))


def test_h0_on_numerically_dependent_rows_is_not_positive_definite():
    # the LLL of this basis met a zero Gram-Schmidt norm and ended in an
    # untyped ValueError (NaN to integer)
    F = make_field(zeta8_descriptor())
    with pytest.raises(NotPositiveDefinite, match="Gram-Schmidt norm"):
        h0(divisor_from_primes(F, (), [-354.0, -100.0]))


def test_prime_exponents_are_capped_before_any_ideal_product(monkeypatch):
    # ideal_pow(P, 10^5) took seconds and 10^6 hung: the cap on
    # sum |e| log N(P) is read before any product
    monkeypatch.setattr(arakelov, "ideal_mul", None)
    P = primes_above(QI, 2)[0]
    capped = r"sum \|e\| log N\(P\) = .* beyond the cap 1419\.5"
    for e in (10**5, -10**6, 10**400):
        with pytest.raises(InvalidDivisor, match=capped):
            divisor_from_primes(QI, [(P, e)], [0.0])
    with pytest.raises(InvalidDivisor, match="beyond the cap 709"):
        divisor_from_primes(Q, [(primes_above(Q, 3)[0], 647)], [0.0])
    # the exponents of one sign add up: 1400 log 2 + 442 log 9 = 1941 > 1419.5
    with pytest.raises(InvalidDivisor, match=capped):
        divisor_from_primes(QI, [(P, 1400), (primes_above(QI, 3)[0], 442)], [0.0])


def test_prime_exponents_at_the_cap_keep_their_value():
    # (1 + i)^-1025 has norm 2^-1025, past 2^-1024, and x_sigma = -709 brings
    # its lattice back to covolume e^-1.15: the cap n log 2^1024 keeps its value
    P = primes_above(QI, 2)[0]
    assert h0(divisor_from_primes(QI, [(P, 1025)], [-709.0])).value.hex() == \
        (0.7868545642375768).hex()
    D = divisor_from_primes(QI, [(P, 2048)], [0.0])  # 2048 log 2 is the cap itself
    assert D.primes[0][1] == 2048
    # (1 + i)^1400 3^-442 = 2^700 3^-442 is near 1: each sign is under the
    # cap, though sum |e| log N(P) over both signs is 1941 > 1419.5
    D = divisor_from_primes(QI, [(P, -1400), (primes_above(QI, 3)[0], 442)], [0.0])
    assert h0(D).value.hex() == (0.2054264148077151).hex()
    assert verify_riemann_roch(D).passed


def test_an_ideal_beyond_the_float_range_is_a_typed_error():
    # P^500, P above 11 over Q(sqrt 5), is under the cap, and its HNF entry
    # 11^500 has no float: x / den raised an untyped OverflowError
    F = make_field(("quadratic", 5))
    with pytest.raises(InvalidDivisor, match="float range"):
        h0(divisor_from_primes(F, [(primes_above(F, 11)[0], -500)], [0.0, 0.0]))
    with pytest.raises(InvalidDivisor, match="2\\^1328"):
        embed_ideal(QI, FractionalIdeal.from_rows(QI, [[10**400, 0], [0, 10**400]]), [0.0])
    # 13^150 is a float, but the metric scales it past 2^1024: the product
    # overflowed with a warning
    F = make_field(("quadratic", 2))
    with pytest.raises(NotPositiveDefinite, match="float range"):
        h0(divisor_from_primes(F, [(primes_above(F, 13)[0], -150)], [-135.0, -337.0]))


def test_extreme_divisor_grid_gives_a_value_or_a_typed_error():
    # seeded x_sigma near the ends of the float range and prime exponents up
    # to 10^6, warnings as errors: every case is an h0 or an ArithcohError
    rng = random.Random(2024)
    fields = [QI] + [make_field(("quadratic", d)) for d in (2, 5, -5)] + \
        [make_field(zeta8_descriptor()), make_field(cbrt2_descriptor())]
    outcomes = {}
    for _ in range(200):
        F = rng.choice(fields)
        top = 709.0 if F.r2 else 354.0
        xs = [rng.choice((1.0, -1.0)) * rng.uniform(100.0, top) for _ in range(F.r1 + F.r2)]
        terms = []
        if F.n == 2:
            e = rng.choice((1, -1)) * rng.choice((1, 3, 12, 40, 10**4, 10**6))
            terms = [(rng.choice(primes_above(F, rng.choice((2, 3, 5, 7, 11)))), e)]
        try:
            value = h0(divisor_from_primes(F, terms, xs), budget=10**5).value
            assert math.isfinite(value) and value >= 0.0
            kind = "value"
        except ArithcohError as exc:
            kind = type(exc).__name__
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes.get("value", 0) > 0 and len(outcomes) > 2, outcomes


@pytest.mark.parametrize("field, xs", [
    ("qi", [700.0]), ("qi", [709.0]), ("qi", [-700.0]), ("qi", [745.0]),
    ("zeta8", [340.0, 340.0]), ("zeta8", [-340.0, -340.0]),
    ("zeta8", [700.0, 700.0]), ("zeta8", [-700.0, -700.0]),
    ("theta", None), ("big_d", [0.0, 0.0]),
], ids=["qi+700", "qi+709", "qi-700", "qi+745", "zeta8+340", "zeta8-340",
        "zeta8+700", "zeta8-700", "theta", "sqrt(2^53-1)"])
def test_extreme_metrics_give_a_value_or_a_typed_error(field, xs):
    # the covolume exp(-sum x_sigma) sqrt(disc) leaves the float range here,
    # the metric does not (745 makes a subnormal weight): each input must give
    # h0 or an ArithcohError that is not about the field descriptor.  Over
    # Z[sqrt(2^53 - 1)] the Gram diag(2, 2d) has condition number d; the tail
    # bound needs no eigenvalue, so h0 is a value, and only the points (k, 0)
    # have terms above the float range: h0 = log sum_k exp(-2 pi k^2)
    d = 2**53 - 1
    try:
        if field == "theta":
            value = theta_sum(1e-300 * np.eye(4), None, 1e-9, budget=10**6).value
        else:
            if field == "big_d":
                fld = make_field(("quadratic", d))
            else:
                fld = QI if field == "qi" else make_field(zeta8_descriptor())
            res = h0(divisor_from_primes(fld, (), xs), budget=10**6)
            value = res.value
    except DescriptorInconsistent as exc:
        pytest.fail(f"a valid field is blamed: {exc}")
    except ArithcohError:
        assert field != "big_d"
        return
    assert math.isfinite(value) and value >= 0.0
    if field == "big_d":
        oracle = math.log(math.fsum(math.exp(-2.0 * math.pi * k * k) for k in range(-6, 7)))
        assert abs(value - oracle) <= res.tail_bound
