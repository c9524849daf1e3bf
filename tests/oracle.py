"""Exact references for h0, in decimal at 50 digits, sharing no numerics
with arithcoh.

Nothing here imports arithcoh or numpy.  The inputs are exact: the integer
HNF rows of an ideal and its denominator, the squarefree d of a quadratic
field, and the floats x_sigma, which Decimal converts without rounding.  The
places come from decimal square roots, the lattice points from an
enumeration of a box whose bounds are exact, and each term exp(-pi Q) from
decimal arithmetic.

- ``h0_quadratic(d, num, den, xs)``: log of the theta sum over the ideal
  num / den of Q(sqrt d), summed over every point with Q <= BALL.
- ``h0_gaussian(x)``: the closed form 2 log theta_3(2 e^-x) of h0(D_x) over
  Q(i), D_x with no finite part, where theta_3(a) = sum over n in Z of
  exp(-pi a n^2): the norm 2 e^-x (a^2 + b^2) of a + b i splits.
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext
from math import isqrt

DIGITS = 50
# the ball of h0_quadratic: the terms it drops are below exp(-pi BALL) =
# 1.4e-22 each, and a shell Q in (t, t + 1] holds about pi / covolume
# points, so for covolumes above 1e-3 the dropped sum is below 1e-17 of a
# sum of at least 1, beyond the last bit of a float h0
BALL = 16


def _pi() -> Decimal:
    """pi to the context's precision (the series of the decimal module's
    documentation)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        last, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _places(d: int, xs) -> list[tuple[Decimal, Decimal, Decimal]]:
    """(Re w, Im w, s) at each place of Q(sqrt d), for the integral basis
    1, w with w = sqrt d, or (1 + sqrt d) / 2 when d = 1 mod 4, and the
    scale s of the divisor metric there: the real places in ascending order
    of w, each with s = exp(-x_sigma), or the complex place with Im w > 0 and
    s = sqrt(2 exp(-x_sigma)).  Q(alpha) is the sum of (s sigma(alpha))^2
    over the coordinates, Re and Im at the complex place."""
    a, disc = (1, d) if d % 4 == 1 else (0, 4 * d)
    root = Decimal(abs(disc)).sqrt()
    if d > 0:
        return [((a + sign * root) / 2, Decimal(0), (-Decimal(x)).exp())
                for sign, x in zip((-1, 1), xs)]
    return [(Decimal(a) / 2, root / 2, (2 * (-Decimal(xs[0])).exp()).sqrt())]


def _norm(places, p: int, q: int, den: int) -> Decimal:
    """Q((p + q w) / den) in the metric of places."""
    total = Decimal(0)
    for re, im, s in places:
        total += ((p + q * re) * s) ** 2 + (q * im * s) ** 2
    return total / (den * den)


def h0_quadratic(d: int, num, den: int, xs) -> Decimal:
    """log sum of exp(-pi Q(alpha)) over the alpha of the ideal num / den of
    Q(sqrt d) with Q(alpha) <= BALL, alpha = sum_i v_i num_i / den over the
    integral basis 1, w, and xs the x_sigma of the divisor.

    The box: for the Gram G of the two embedded rows, Q(v) <= BALL implies
    v_2^2 <= BALL G_11 / det G, and for each v_2, v_1 lies within
    sqrt(G_11 BALL - det G v_2^2) / G_11 of -G_12 v_2 / G_11.  Both ranges
    are widened by one, and each candidate's Q is computed from its element
    and compared with the ball.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        places = _places(d, xs)
        (a, b), (c, e) = num
        g11, g22 = _norm(places, a, b, den), _norm(places, c, e, den)
        g12 = (_norm(places, a + c, b + e, den) - g11 - g22) / 2
        det = g11 * g22 - g12 * g12
        pi = _pi()
        total = Decimal(0)
        top = isqrt(int(BALL * g11 / det)) + 1
        for v2 in range(-top, top + 1):
            centre = -g12 * v2 / g11
            reach = max(g11 * BALL - det * v2 * v2, Decimal(0)).sqrt() / g11
            for v1 in range(int((centre - reach).to_integral_value("ROUND_FLOOR")) - 1,
                            int((centre + reach).to_integral_value("ROUND_CEILING")) + 2):
                q = _norm(places, v1 * a + v2 * c, v1 * b + v2 * e, den)
                if q <= BALL:
                    total += (-pi * q).exp()
        return +total.ln()


def theta3(a: Decimal) -> Decimal:
    """sum over n in Z of exp(-pi a n^2), for a > 0, to the context's
    precision: the terms are added until one drops below 10^-(prec + 5)."""
    pi = _pi()
    eps = Decimal(10) ** -(getcontext().prec + 5)
    total, n = Decimal(1), 1
    while True:
        term = (-pi * a * n * n).exp()
        total += 2 * term
        if term < eps:
            return total
        n += 1


def h0_gaussian(x: float) -> Decimal:
    """2 log theta_3(2 e^-x), h0 of the divisor of Q(i) with no finite part
    and x_sigma = x."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        return +(2 * theta3(2 * (-Decimal(x)).exp()).ln())
