"""Lattice kernel tests against independent brute-force oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from arithcoh.errors import EnumerationBudgetExceeded, NotPositiveDefinite, ToleranceUnreachable
from arithcoh.lattice import (
    EmbeddedLattice,
    GramMatrix,
    cholesky,
    dual_lattice,
    enumerate_below,
    theta_sum,
)
from arithcoh import lattice
from arithcoh.lattice import (
    _certified_lambda_min,
    _enumerate_with_norms,
    _exact_partials,
    _fincke_pohst,
)

from conftest import brute_force_points, brute_force_theta, random_pd_gram

# direct 1-D summation oracle, frozen: sum over |k| <= 50 of exp(-pi k^2)
THETA_1D_CENTERED = 1.086434811213308
THETA_1D_HALF_SHIFT = 0.9135791381561168


def test_cholesky_identity():
    assert np.allclose(cholesky(np.eye(2)), np.eye(2))


def test_cholesky_diagonal():
    assert np.allclose(cholesky([[4.0, 0.0], [0.0, 9.0]]), np.diag([2.0, 3.0]))


def test_cholesky_recompose():
    g = [[2.0, 1.0], [1.0, 2.0]]
    L = cholesky(g)
    assert np.max(np.abs(L @ L.T - g)) < 1e-12
    assert np.allclose(L, np.tril(L))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky([[1.0, 2.0], [2.0, 4.0]])


def test_non_finite_gram_is_not_positive_definite():
    for bad in (math.inf, math.nan):
        g = [[bad]]
        for attempt in (lambda: theta_sum(g, None, 1e-9), lambda: GramMatrix(np.array(g)),
                        lambda: cholesky([[1.0, 0.0], [bad, 1.0]])):
            with pytest.raises(NotPositiveDefinite):
                attempt()


def test_gram_matrix_validation():
    with pytest.raises(NotPositiveDefinite):
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        GramMatrix(np.zeros((0, 0)))
    g = GramMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert g.n == 2


def test_enumerate_1d_squares():
    assert enumerate_below([[1.0]], [0.0], 4.0).ravel().tolist() == [-2, -1, 0, 1, 2]


def test_enumerate_skew_2d():
    got = enumerate_below([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], 2.0).tolist()
    assert got == brute_force_points([[2, 1], [1, 2]], None, 2.0, box=3)
    assert len(got) == 7


def test_enumerate_shifted_center():
    got = enumerate_below([[1.0]], [0.5], 0.3).ravel().tolist()
    assert got == [-1, 0]


def test_enumerate_rejects_negative_radius():
    with pytest.raises(ValueError):
        enumerate_below([[1.0]], [0.0], -1.0)


def test_enumerate_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_below([[1e-6]], [0.0], 100.0, budget=10)


def test_enumerate_matches_brute_force_randomized():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.choice([1, 2])
        g = random_pd_gram(rng, n)
        center = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        radius = rng.uniform(0.0, 12.0)
        got = enumerate_below(g, center, radius).tolist()
        assert got == brute_force_points(g, center, radius, box=12)


def test_theta_centered_1d_oracle():
    res = theta_sum([[1.0]], [0.0], 1e-12)
    assert res.value == pytest.approx(THETA_1D_CENTERED, abs=1e-12)
    assert res.tail_bound <= 1e-12
    assert res.value >= 1.0


def test_theta_shifted_1d_oracle():
    res = theta_sum([[1.0]], [0.5], 1e-12)
    assert res.value == pytest.approx(THETA_1D_HALF_SHIFT, abs=1e-12)


def test_shifted_theta_reaches_the_point_of_the_shift():
    # Q = 25 at v = 0 and v = -1, far beyond the radius tol 1e-8 needs
    res = theta_sum([[100.0]], [0.5], 1e-8)
    assert res.radius >= 25.0 and res.points_enumerated == 2
    assert res.value == pytest.approx(2.0 * math.exp(-25.0 * math.pi), rel=1e-14, abs=0.0)
    # Q(0.4, 0.4) = 19.2 at the nearest point
    g = [[60.0, 10.0], [10.0, 40.0]]
    res = theta_sum(g, [2.4, -0.6], 1e-6)
    full = brute_force_theta(g, [0.4, 0.4], box=5)
    assert math.exp(-19.2 * math.pi) * (1 - 1e-12) <= res.value <= full <= res.value + res.tail_bound


def test_theta_integer_center_is_periodic():
    base = theta_sum([[1.0]], [0.0], 1e-12)
    for shift in ([1.0], [-3.0], [7.0]):
        assert theta_sum([[1.0]], shift, 1e-12).value == base.value
    g2 = [[2.0, 1.0], [1.0, 2.0]]
    assert theta_sum(g2, [2.0, -5.0], 1e-10).value == theta_sum(g2, [0.0, 0.0], 1e-10).value


def test_theta_rejects_bad_tol():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            theta_sum([[1.0]], [0.0], tol)
    with pytest.raises(ValueError):
        theta_sum([[1.0]], None, math.nan)


def test_theta_uses_the_factor_of_a_gram_matrix(monkeypatch):
    rng = random.Random(17)
    cases = []
    for n in (1, 2, 3):
        a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
        gram = GramMatrix(a @ a.T + 0.5 * np.eye(n))
        assert np.array_equal(gram.factor, cholesky(gram.entries))
        assert not gram.factor.flags.writeable
        for center in (None, [0.3] * n):
            cases.append((gram, center, theta_sum(gram.entries, center, 1e-10)))
    factored = []
    monkeypatch.setattr(lattice, "cholesky", lambda g: factored.append(g) or cholesky(g))
    for gram, center, expected in cases:
        assert theta_sum(gram, center, 1e-10) == expected
    assert factored == []
    theta_sum(cases[0][0].entries, None, 1e-10)
    assert len(factored) == 1  # a raw array is factored once per call


def test_theta_budget_exceeded_on_flat_metric():
    with pytest.raises(EnumerationBudgetExceeded):
        theta_sum([[1e-10]], [0.0], 1e-9, budget=1000)
    # a budget beyond the float range is no limit, not an OverflowError
    unlimited = theta_sum([[1.0]], None, 1e-9, budget=10**400)
    assert unlimited == theta_sum([[1.0]], None, 1e-9)


def test_theta_oracle_equivalence_randomized():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([1, 2])
        g = random_pd_gram(rng, n)
        center = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        res = theta_sum(g, center, 1e-10)
        assert abs(res.value - brute_force_theta(g, center)) < 1e-9


def test_theta_tail_bound_soundness():
    # enlarging the enumeration radius by +4 must change the value by less
    # than the reported tail bound
    rng = random.Random(42)
    for _ in range(100):
        g = np.asarray(random_pd_gram(rng, 2), dtype=float)
        res = theta_sum(g, None, 1e-8)
        _, q1 = _enumerate_with_norms(g, np.zeros(2), res.radius, 10**8)
        _, q2 = _enumerate_with_norms(g, np.zeros(2), res.radius + 4.0, 10**8)
        v1 = math.fsum(np.exp(-math.pi * np.sort(q1)).tolist())
        v2 = math.fsum(np.exp(-math.pi * np.sort(q2)).tolist())
        assert 0.0 <= v2 - v1 < res.tail_bound


def test_theta_tail_bound_holds_at_twice_the_radius(monkeypatch):
    # the sum over the ball of twice the radius exceeds the value by at most
    # tail_bound, with every tail split in play: spectra down to 1e-3 with
    # condition numbers up to 1e4, and tolerances above 1 where a flat
    # lattice makes a large split win
    chosen = []
    real = lattice._tail_split

    def recording(*args):
        chosen.append(real(*args))
        return chosen[-1]

    monkeypatch.setattr(lattice, "_tail_split", recording)
    rng = np.random.default_rng(30)
    for n in (1, 2, 3, 4):
        for smallest in (1e-3, 0.1, 1.0):
            eigs = smallest * 10.0 ** np.concatenate([[0.0], rng.uniform(0.0, 4.0, n - 1)])
            g = _gram_with_spectrum(rng, eigs) if n > 1 else np.array([[smallest]])
            for tol in (1e-12, 1e-3, 1.0, 10.0, 1e3):
                for center in (None, rng.uniform(-0.5, 0.5, n)):
                    res = theta_sum(g, center, tol)
                    c = np.zeros(n) if center is None else center
                    _, q = _enumerate_with_norms(g, c, 2.0 * res.radius, 10**7)
                    wide = math.fsum(np.exp(-math.pi * q).tolist())
                    slack = 4 * lattice._U * wide  # two enumerations, each rounded
                    assert -slack <= wide - res.value <= res.tail_bound + slack, (n, eigs, tol)
                    assert res.tail_bound <= tol
                    # at the split's own radius (not raised to 1 or to Q(c)) the
                    # 1/2 margin costs a factor exp(-pi (1 - eps) / 2), no more
                    if res.radius == chosen[-1][0]:
                        assert res.tail_bound >= math.exp(-math.pi / 2) * tol * (1 - 1e-6)
    assert {eps for _, eps, _ in chosen} == set(lattice._TAIL_SPLITS)


def test_tail_split_radius_is_the_smallest_and_at_most_the_half_split():
    # the pruned scan picks what a full scan over the splits picks, and the
    # split 1/2 keeps every radius at most that of the fixed half split
    def full_scan(lam, n, log_tol):
        radii = []
        for eps in lattice._TAIL_SPLITS:
            log_per_dim = math.log(lattice._gauss_line_sum(math.pi * eps * lam) + 2.0)
            radii.append(((n * log_per_dim - log_tol) / (math.pi * (1.0 - eps)) + 0.5,
                          eps, log_per_dim))
        return min(radii), radii[lattice._TAIL_SPLITS.index(0.5)][0]

    for n in (1, 2, 3, 4, 8):
        for lam in np.geomspace(1e-8, 1e3, 23).tolist():
            for tol in np.geomspace(1e-300, 1e30, 34).tolist():
                best, half = full_scan(lam, n, math.log(tol))
                assert lattice._tail_split(lam, n, math.log(tol)) == best
                assert best[0] <= half


def test_gauss_line_sum_bounds_the_direct_sum():
    for a in np.geomspace(1e-4, 10.0, 41).tolist():
        direct = 1.0 + 2.0 * math.fsum(math.exp(-a * k * k)
                                       for k in range(1, int(40.0 / math.sqrt(a)) + 2))
        bound = lattice._gauss_line_sum(a)
        # the integral replaces the terms past K = 8 with an excess below
        # exp(-a K^2) per side
        excess = 2.0 * math.exp(-a * lattice._LINE_SUM_TERMS ** 2)
        assert direct <= bound <= direct + excess + 1e-13 * direct, a


def test_theta_tail_guard_raises_with_the_numbers(monkeypatch):
    # a boundary slack that eats the 1/2 margin leaves the tail above tol
    monkeypatch.setattr(lattice, "_BOUNDARY_SLACK", 0.25)
    with pytest.raises(ToleranceUnreachable, match=r"exceeds tol 1\.000e-09: split eps = "):
        theta_sum([[1.0]], None, 1e-9)


def test_theta_monotone_under_gram_scaling():
    rng = random.Random(3)
    for _ in range(20):
        g = np.asarray(random_pd_gram(rng, 2))
        lam = rng.uniform(1.01, 3.0)
        v1 = theta_sum(g, None, 1e-10).value
        v2 = theta_sum(lam * g, None, 1e-10).value
        assert v2 <= v1


def test_theta_deterministic():
    g = [[1.3, 0.4], [0.4, 2.1]]
    runs = [theta_sum(g, [0.2, -0.1], 1e-11) for _ in range(3)]
    assert len({r.value for r in runs}) == 1
    assert len({r.points_enumerated for r in runs}) == 1


def test_dual_lattice_examples():
    one = EmbeddedLattice(np.array([[1.0]]))
    assert dual_lattice(one).gram.entries[0, 0] == pytest.approx(1.0)
    two = EmbeddedLattice(np.array([[2.0]]))
    assert dual_lattice(two).gram.entries[0, 0] == pytest.approx(0.25)
    skew = EmbeddedLattice(cholesky([[2.0, 1.0], [1.0, 2.0]]))
    dual = dual_lattice(skew)
    inv = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
    assert np.max(np.abs(dual.gram.entries - inv)) < 1e-12
    assert np.max(np.abs(dual.basis @ skew.basis.T - np.eye(2))) < 1e-12


def test_dual_lattice_involution_and_covolume():
    rng = random.Random(11)
    for _ in range(25):
        g = random_pd_gram(rng, 2)
        lat = EmbeddedLattice(cholesky(g))
        dual = dual_lattice(lat)
        assert abs(dual.covolume * lat.covolume - 1.0) < 1e-9
        back = dual_lattice(dual)
        scale = np.max(np.abs(lat.gram.entries))
        assert np.max(np.abs(back.gram.entries - lat.gram.entries)) < 1e-9 * scale


def test_embedded_lattice_validation():
    # gram and covolume derive from the basis, so only the basis can be invalid
    for basis in ([1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]):
        with pytest.raises(NotPositiveDefinite):
            EmbeddedLattice(np.array(basis))
    lat = EmbeddedLattice(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert lat.log_covolume == pytest.approx(math.log(6.0), abs=1e-15)
    assert lat.covolume == pytest.approx(6.0, rel=1e-15)


def _below_lambda_min_2x2(g, lam) -> bool:
    """lam <= (a + c)/2 - sqrt(((a - c)/2)^2 + b^2), decided in exact arithmetic."""
    a, b, c = Fraction(float(g[0][0])), Fraction(float(g[1][0])), Fraction(float(g[1][1]))
    t = (a + c) / 2 - Fraction(lam)
    return t >= 0 and t * t >= ((a - c) / 2) ** 2 + b * b


def _exactly_positive_definite(m) -> bool:
    """Every pivot of Gaussian elimination is > 0, in exact arithmetic."""
    a = [list(row) for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def _gram_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    g = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (g + g.T)


def test_lambda_bound_adversarial_start_vector():
    # eigenvalues 0.05 and 0.06; the lambda_min eigenvector (1, -1) is
    # orthogonal to a power method's start vector (1, 1)
    g = np.array([[0.055, 0.005], [0.005, 0.055]])
    lam = _certified_lambda_min(cholesky(g))
    assert _below_lambda_min_2x2(g, lam)
    assert lam > 0.045


def test_lambda_bound_is_a_lower_bound_up_to_condition_1e8():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        smallest = 10.0 ** rng.uniform(-4.0, 2.0)
        eigs = smallest * 10.0 ** np.concatenate([[0.0], rng.uniform(0.0, 8.0, n - 1)])
        g = _gram_with_spectrum(rng, eigs)
        lam = _certified_lambda_min(cholesky(g))
        if n == 2:
            assert _below_lambda_min_2x2(g, lam)
        exact = [[Fraction(float(v)) for v in row] for row in g]
        for i in range(n):
            exact[i][i] -= Fraction(lam)
        assert _exactly_positive_definite(exact)
        # not vacuous: within the factor n of the infinity-norm bound
        assert lam >= 0.99 * np.linalg.eigvalsh(g)[0] / n


def _random_gram(rng: random.Random, n: int) -> np.ndarray:
    if n <= 2:
        return np.asarray(random_pd_gram(rng, n), dtype=float)
    b = np.array([[rng.uniform(-1.5, 1.5) for _ in range(n)] for _ in range(n)])
    return b @ b.T + 0.3 * np.eye(n)


def test_centred_theta_equals_full_enumeration_bit_for_bit(monkeypatch):
    # with _BIN_MIN = 0 every block reaches fsum as exact partials
    for bin_min in (lattice._BIN_MIN, 0):
        monkeypatch.setattr(lattice, "_BIN_MIN", bin_min)
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                g = _random_gram(rng, n)
                res = theta_sum(g, None, 1e-10)
                V, Q = _enumerate_with_norms(g, np.zeros(n), res.radius, 10**8)
                assert sorted(V.tolist()) == enumerate_below(g, None, res.radius).tolist()
                assert res.value == math.fsum(np.exp(-math.pi * Q).tolist())
                assert res.points_enumerated == V.shape[0]
                for center in ([3.0] * n, [-0.0] * n,
                               [float(rng.randint(-4, 4)) for _ in range(n)]):
                    again = theta_sum(g, center, 1e-10)
                    assert again.value == res.value
                    assert again.points_enumerated == res.points_enumerated


def test_block_size_does_not_change_results(monkeypatch):
    rng = random.Random(8)
    cases = [(_random_gram(rng, n), center)
             for n in (1, 2, 3, 4) for center in (None, [0.3, -0.45, 0.1, 0.2][:n])]
    before = [(theta_sum(g, c, 1e-10), _enumerate_with_norms(g, np.zeros(g.shape[0]), 9.0, 10**8))
              for g, c in cases]
    # blocks of 7 candidates split rows of the last level between blocks;
    # _BIN_MIN = 0 sends each such block, and each full one, through the
    # exact partials
    for block, bin_min in ((7, lattice._BIN_MIN), (7, 0), (lattice._BLOCK_POINTS, 0)):
        monkeypatch.setattr(lattice, "_BLOCK_POINTS", block)
        monkeypatch.setattr(lattice, "_BIN_MIN", bin_min)
        for (g, c), (res, (V, Q)) in zip(cases, before):
            assert theta_sum(g, c, 1e-10) == res
            V2, Q2 = _enumerate_with_norms(g, np.zeros(g.shape[0]), 9.0, 10**8)
            assert np.array_equal(V2, V) and np.array_equal(Q2, Q)


def _assert_partials_sum_like_fsum(terms):
    terms = np.asarray(terms, dtype=float)
    got = math.fsum(_exact_partials(terms).tolist())
    assert got.hex() == math.fsum(terms.tolist()).hex()


def test_exact_partials_sum_like_fsum():
    # the exact bin sums need at most 2^26 terms per call
    assert lattice._BLOCK_POINTS <= 2**26
    tiny = 2.0 ** -1074
    rng = np.random.default_rng(21)
    # subnormals: small multiples of 2^-1074, full 52-bit ones, and normal
    # and subnormal values near 2^-1060
    _assert_partials_sum_like_fsum(np.arange(1, 4000) * tiny)
    _assert_partials_sum_like_fsum(rng.integers(1, 2**52, 3000) * tiny)
    _assert_partials_sum_like_fsum(np.ldexp(rng.uniform(0.5, 1.0, 3000),
                                            rng.integers(-1064, -1021, 3000)))
    # zero terms, alone and mixed in
    _assert_partials_sum_like_fsum(np.zeros(50))
    _assert_partials_sum_like_fsum(np.where(rng.random(3000) < 0.4, 0.0,
                                            rng.uniform(0.0, 2.0, 3000)))
    # the doubled half-space head 2.0 lands in bin 0
    _assert_partials_sum_like_fsum(np.concatenate([[2.0, 2.0], rng.uniform(0.0, 2.0, 100)]))
    # ties at half an ulp of 1.0 round to even in either direction
    for runs in (1, 2, 3, 5, 2**15 - 1):
        _assert_partials_sum_like_fsum(np.concatenate([[1.0], np.full(runs, 2.0 ** -53)]))
        _assert_partials_sum_like_fsum(np.concatenate([[1.0, 2.0 ** -52], np.full(runs, 2.0 ** -54)]))
    # one full block of the largest term below 2: the heaviest bin load
    _assert_partials_sum_like_fsum(np.full(lattice._BLOCK_POINTS, 2.0 * (1.0 - 2.0 ** -53)))
    # random blocks of theta terms and of terms spread over every exponent,
    # up to the bound 4
    for size in (1, 7, 1000, lattice._BLOCK_POINTS):
        _assert_partials_sum_like_fsum(2.0 * np.exp(-math.pi * rng.uniform(0.0, 40.0, size)))
        _assert_partials_sum_like_fsum(np.ldexp(rng.uniform(0.5, 1.0, size),
                                                rng.integers(-1073, 3, size)))


def test_half_space_budget_matches_full_space():
    # the centred half-space must raise at exactly the budget where the full
    # enumeration does
    rng = random.Random(13)
    for n in (1, 2, 3):
        g = _random_gram(rng, n)
        U = cholesky(g).T
        zero = np.zeros(n)
        for radius in (1.0, 6.5, 15.0):
            need = 0
            while True:
                try:
                    _fincke_pohst(U, zero, radius, need)
                    break
                except EnumerationBudgetExceeded:
                    need += 1
            with pytest.raises(EnumerationBudgetExceeded):
                _fincke_pohst(U, zero, radius, need - 1, half=True)
            _fincke_pohst(U, zero, radius, need, half=True)


def test_theta_peak_memory_is_bounded():
    # about 1.3 M points; the whole point set alone would take over 30 MB
    g = [[2.4e-5, 4.8e-6], [4.8e-6, 3.6e-5]]
    for center in (None, [0.3, -0.2]):
        tracemalloc.start()
        try:
            res = theta_sum(g, center, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points_enumerated >= 1_000_000
        assert peak < 16 * 2**20
