"""h0 against the 50-digit references of tests/oracle.py."""

import pytest

import oracle
from arithcoh.arakelov import divisor_from_ideal, divisor_from_primes, h0
from arithcoh.numfield import make_field, primes_above, unit_ideal
from golden.regenerate import load


def test_h0_of_golden_record_83_is_within_its_certified_error():
    # a Q(sqrt 2) divisor with a skew, high-norm HNF basis: the float LLL's
    # row updates cancelled, and h0 at tol 1e-12 was off by -1.68e-13
    # against a certified error of 1.15e-13
    rec = load()["h"][83]["in"]
    assert rec["field"] == "Q(sqrt(2))"
    F = make_field(("quadratic", 2))
    xs = [float.fromhex(x) for x in rec["infinite"]]
    D = divisor_from_primes(F, [(primes_above(F, p)[i], e) for p, i, e in rec["primes"]], xs)
    I = D.ideal()
    assert (I.num, I.den) == (((2, 2166), (0, 2401)), 735)
    ref = oracle.h0_quadratic(2, I.num, I.den, xs)
    got = h0(D, 1e-12)
    assert abs(got.value - float(ref)) <= got.tail_bound


@pytest.mark.parametrize("x", [-1.0, 0.0, 0.7, 2.0])
def test_h0_over_the_gaussian_integers_is_the_closed_form(x):
    # the norm 2 e^-x (a^2 + b^2) of a + b i splits, so the theta sum of
    # D_x is theta_3(2 e^-x)^2; the oracle's own enumeration agrees with it
    # to its ball's truncation
    F = make_field(("quadratic", -1))
    ref = oracle.h0_gaussian(x)
    assert abs(oracle.h0_quadratic(-1, unit_ideal(F).num, 1, [x]) - ref) < 1e-20
    got = h0(divisor_from_ideal(F, unit_ideal(F), [x]), 1e-12)
    assert abs(got.value - float(ref)) <= got.tail_bound
