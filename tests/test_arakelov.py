"""Divisors, cohomology values, and the duality / Riemann-Roch verifiers."""

import math
import random
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
from arithcoh import arakelov
from arithcoh.errors import (
    ArithcohError,
    CertificationFailed,
    DescriptorInconsistent,
    InvalidDivisor,
    UnsupportedField,
)
from arithcoh.lattice import DEFAULT_BUDGET, ThetaResult, theta_sum
from arithcoh.numfield import (
    embed_ideal,
    ideal_inv,
    ideal_mul,
    ideal_norm,
    make_field,
    primes_above,
    principal_ideal,
    unit_ideal,
)

from conftest import (
    brute_force_theta,
    cbrt2_descriptor,
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
    rows = zeta_integrand_sweep(Q, 0.5, [0.0])
    assert rows[0].value.real == pytest.approx(1.086434811213308, abs=1e-10)
    assert rows[0].value.imag == 0.0


def test_zeta_sweep_symmetry():
    s = 0.3
    for t in (0.4, 1.1, 2.0):
        row_p = zeta_integrand_sweep(Q, s, [t])[0]
        row_m = zeta_integrand_sweep(Q, 1.0 - s, [-t])[0]
        assert abs(row_p.value - row_m.value) < 1e-8


def test_zeta_sweep_asymptote():
    # h0 -> t and h1 -> 0, so the integrand approaches exp(s t)
    s = 0.5
    row = zeta_integrand_sweep(Q, s, [12.0])[0]
    assert row.value.real == pytest.approx(math.exp(s * 12.0), rel=1e-8)


def test_zeta_sweep_complex_parameter():
    row = zeta_integrand_sweep(Q, 0.5 + 14.1j, [0.5])[0]
    assert row.value != 0


def test_zeta_sweep_rejects_number_fields():
    with pytest.raises(UnsupportedField):
        zeta_integrand_sweep(QI, 0.5, [0.0])


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
    with pytest.raises(InvalidDivisor):
        load_divisor(QI, {"finite": [{"p": 5, "index": 2, "exponent": 1}],
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


@pytest.mark.parametrize("field, xs", [
    ("qi", [700.0]), ("qi", [709.0]), ("qi", [-700.0]), ("qi", [745.0]),
    ("zeta8", [340.0, 340.0]), ("zeta8", [-340.0, -340.0]),
    ("zeta8", [700.0, 700.0]), ("zeta8", [-700.0, -700.0]),
    ("theta", None),
], ids=["qi+700", "qi+709", "qi-700", "qi+745", "zeta8+340", "zeta8-340",
        "zeta8+700", "zeta8-700", "theta"])
def test_extreme_metrics_give_a_value_or_a_typed_error(field, xs):
    # the covolume exp(-sum x_sigma) sqrt(disc) leaves the float range here,
    # the metric does not (745 makes a subnormal weight): each input must give
    # h0 or an ArithcohError that is not about the field descriptor
    try:
        if field == "theta":
            value = theta_sum(1e-300 * np.eye(4), None, 1e-9, budget=10**6).value
        else:
            fld = QI if field == "qi" else make_field(zeta8_descriptor())
            value = h0(divisor_from_primes(fld, (), xs), budget=10**6).value
    except DescriptorInconsistent as exc:
        pytest.fail(f"a valid field is blamed: {exc}")
    except ArithcohError:
        return
    assert math.isfinite(value) and value >= 0.0
