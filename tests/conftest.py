"""Shared oracles, field descriptors and random-instance generators for the
test suite."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from arithcoh.ghost import FiniteAbelianGroup, GhostSpaceFirstKind, idft, quotient_group_map
from arithcoh.intmat import inv_fraction
from arithcoh.lattice import theta_sum
from arithcoh.numfield import FractionalIdeal, elem_mul, elem_trace

# group shapes with |G| <= 16 used by the randomized ghost suites
GROUP_POOL = [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
    (13,), (14,), (15,), (16,), (2, 2), (2, 4), (2, 6), (2, 8), (3, 3),
    (4, 4), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
]


def _power_basis_descriptor(r1, r2, abs_disc, different_basis, label, images):
    """Custom-field descriptor over the power basis 1, a, ..., a^(n-1).

    images(k) lists the images of a^k: r1 real places, then one root of
    each of the r2 complex pairs, which embeds as (Re, Im).
    """
    n = r1 + 2 * r2
    rows = []
    for k in range(n):
        z = images(k)
        rows.append(z[:r1] + [part for w in z[r1:] for part in (w.real, w.imag)])
    return {"degree": n, "r1": r1, "r2": r2, "abs_discriminant": abs_disc,
            "embeddings": [x for row in rows for x in row],
            "different_basis": different_basis, "label": label}


def cbrt2_descriptor():
    """Q(2^(1/3)), signature (1, 1), |disc| = 108, different (3 a^2)."""
    a = 2.0 ** (1.0 / 3.0)
    w = a * cmath.exp(2j * math.pi / 3.0)
    return _power_basis_descriptor(1, 1, 108, [[0, 0, 3], [6, 0, 0], [0, 6, 0]],
                                   "Q(cbrt2)", lambda k: [a ** k, w ** k])


def zeta7_plus_descriptor():
    """Q(zeta_7)^+ = Q(a), a^3 + a^2 - 2a - 1 = 0: totally real, |disc| = 49,
    different (f'(a)) = (3a^2 + 2a - 2)."""
    roots = sorted(2.0 * cmath.exp(2j * math.pi * k / 7.0).real for k in (1, 2, 3))
    return _power_basis_descriptor(3, 0, 49, [[-2, 2, 3], [3, 4, -1], [-1, 1, 5]],
                                   "Q(zeta7)+", lambda k: [r ** k for r in roots])


def zeta8_descriptor():
    """Q(zeta_8), signature (0, 2), |disc| = 256, different (4) = (1 - zeta)^8."""
    return _power_basis_descriptor(
        0, 2, 256, [[4 * int(i == j) for j in range(4)] for i in range(4)], "Q(zeta8)",
        lambda k: [cmath.exp(1j * math.pi * j * k / 4.0) for j in (1, 3)])


def hnf_sorting_loop(rows):
    """Oracle: row HNF by the sort-and-divide loop hnf_rows used before it
    switched to extended-gcd steps; the same canonical basis, zero rows
    dropped."""
    mat = [[int(x) for x in r] for r in rows]
    n = len(mat[0])
    row = 0
    for col in range(n):
        while True:
            idxs = [i for i in range(row, len(mat)) if mat[i][col] != 0]
            if len(idxs) <= 1:
                break
            idxs.sort(key=lambda i: abs(mat[i][col]))
            i0 = idxs[0]
            for i in idxs[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        idxs = [i for i in range(row, len(mat)) if mat[i][col] != 0]
        if not idxs:
            continue
        i0 = idxs[0]
        mat[row], mat[i0] = mat[i0], mat[row]
        if mat[row][col] < 0:
            mat[row] = [-a for a in mat[row]]
        p = mat[row][col]
        for i in range(row):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[row])]
        row += 1
    return mat[:row]


def fraction_ideal(F, frac_rows):
    """Oracle: the ideal spanned by rational rows, as the Fraction path built
    it: common denominator, sorting-loop HNF, content divided out."""
    den = math.lcm(*(Fraction(x).denominator for r in frac_rows for x in r))
    basis = hnf_sorting_loop([[int(x * den) for x in r] for r in frac_rows])
    g = math.gcd(den, *(x for r in basis for x in r))
    return FractionalIdeal(F, tuple(tuple(x // g for x in r) for r in basis), den // g)


def fraction_trace_dual(I):
    """Oracle: {x : Tr(xI) in Z} as the dot-product dual, by a Fraction
    Gauss-Jordan, of the rows Tr(b_i w_j) of I's basis times the trace form."""
    F = I.field
    basis = [[int(i == j) for j in range(F.n)] for i in range(F.n)]
    rows = [[elem_trace(F, elem_mul(F, b, w)) for w in basis] for b in I.num]
    inv = inv_fraction(rows)
    return fraction_ideal(F, [[I.den * inv[j][i] for j in range(F.n)] for i in range(F.n)])


def product_oracle(I, J):
    """Oracle: I * J as the span of the n^2 products, from the mult table."""
    F = I.field
    table = F.mult_table
    rows = [[Fraction(sum(x[i] * y[j] * table[i][j][k] for i in range(F.n) for j in range(F.n)),
                      I.den * J.den) for k in range(F.n)]
            for x in I.num for y in J.num]
    return fraction_ideal(F, rows)


def random_pd_gram(rng: random.Random, n: int):
    """Random positive-definite Gram matrix with entries in [0.2, 5]."""
    if n == 1:
        return [[rng.uniform(0.2, 5.0)]]
    a = rng.uniform(0.5, 5.0)
    c = rng.uniform(0.5, 5.0)
    b = rng.uniform(0.2, min(5.0, 0.8 * math.sqrt(a * c)))
    return [[a, b], [b, c]]


def brute_force_theta(gram, center, box: int = 60) -> float:
    """Independent oracle: direct summation over the integer box |v_i| <= box."""
    g = np.asarray(gram, dtype=float)
    n = g.shape[0]
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    ks = np.arange(-box, box + 1)
    if n == 1:
        y = ks + c[0]
        q = g[0, 0] * y * y
    else:
        X, Y = np.meshgrid(ks, ks, indexing="ij")
        y0 = X + c[0]
        y1 = Y + c[1]
        q = g[0, 0] * y0 * y0 + 2.0 * g[0, 1] * y0 * y1 + g[1, 1] * y1 * y1
    return math.fsum(np.exp(-math.pi * q).ravel().tolist())


def brute_force_points(gram, center, radius, box: int = 8):
    """All v in the box with Q(v + center) <= radius, sorted lexicographically."""
    g = np.asarray(gram, dtype=float)
    n = g.shape[0]
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    out = []
    if n == 1:
        candidates = [(v,) for v in range(-box, box + 1)]
    else:
        candidates = [(v0, v1) for v0 in range(-box, box + 1) for v1 in range(-box, box + 1)]
    for v in candidates:
        y = np.asarray(v, dtype=float) + c
        if float(y @ g @ y) <= radius:
            out.append(list(v))
    return sorted(out)


def random_even_spectrum(rng: random.Random, group: FiniteAbelianGroup,
                         mass: float) -> np.ndarray:
    """Nonnegative even spectrum with w[0] = 1 and sum of the rest = mass."""
    w = np.zeros(group.size)
    w[0] = 1.0
    neg = group.neg_table()
    raw = np.array([rng.uniform(0.0, 1.0) for _ in range(group.size)])
    raw[0] = 0.0
    raw = 0.5 * (raw + raw[neg])
    total = raw.sum()
    if total > 0:
        w += raw * (mass / total)
    return w


def random_first_kind(rng: random.Random, orders=None,
                      subgroup_prob: float = 0.3) -> GhostSpaceFirstKind:
    """Random valid first-kind structure.

    Built from a nonnegative even spectrum so positive-definiteness holds by
    construction, with the off-zero mass below 1 so u stays strictly positive.
    With probability subgroup_prob the function is lifted from a proper
    quotient, so the unit subgroup {u = 1} is nontrivial.
    """
    if orders is None:
        orders = rng.choice(GROUP_POOL)
    group = FiniteAbelianGroup(tuple(orders))
    lift = rng.random() < subgroup_prob and group.size > 2
    if lift:
        gen = rng.choice([x for x in group.elements() if any(x)])
        base_group, proj = quotient_group_map(group, [gen])
    else:
        base_group, proj = group, np.arange(group.size)
    w = random_even_spectrum(rng, base_group, mass=rng.uniform(0.05, 0.9))
    u = (idft(base_group, w * base_group.size)).real
    u = u / u[0]
    return GhostSpaceFirstKind(group, u[proj])


def centred_theta_bound(gram, tol: float) -> float:
    """Upper bound on the centred theta sum of gram, the theta0 of a shifted
    theta_sum: value plus tail_bound of a centred call at tol."""
    res = theta_sum(gram, None, tol)
    return res.value + res.tail_bound
