"""Lattice kernel tests against independent brute-force oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from arithcoh.errors import EnumerationBudgetExceeded, NotPositiveDefinite
from arithcoh.lattice import (
    EmbeddedLattice,
    GramMatrix,
    cholesky,
    dual_lattice,
    enumerate_below,
    theta_sum,
)
from arithcoh import lattice
from arithcoh.lattice import _certified_lambda_min, _enumerate_with_norms, _fincke_pohst

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


def test_theta_integer_center_is_periodic():
    base = theta_sum([[1.0]], [0.0], 1e-12)
    for shift in ([1.0], [-3.0], [7.0]):
        assert theta_sum([[1.0]], shift, 1e-12).value == base.value
    g2 = [[2.0, 1.0], [1.0, 2.0]]
    assert theta_sum(g2, [2.0, -5.0], 1e-10).value == theta_sum(g2, [0.0, 0.0], 1e-10).value


def test_theta_rejects_bad_tol():
    with pytest.raises(ValueError):
        theta_sum([[1.0]], [0.0], 0.0)


def test_theta_budget_exceeded_on_flat_metric():
    with pytest.raises(EnumerationBudgetExceeded):
        theta_sum([[1e-10]], [0.0], 1e-9, budget=1000)


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
    one = EmbeddedLattice.from_basis(np.array([[1.0]]))
    assert dual_lattice(one).gram.entries[0, 0] == pytest.approx(1.0)
    two = EmbeddedLattice.from_basis(np.array([[2.0]]))
    assert dual_lattice(two).gram.entries[0, 0] == pytest.approx(0.25)
    skew = EmbeddedLattice.from_basis(cholesky([[2.0, 1.0], [1.0, 2.0]]))
    dual = dual_lattice(skew)
    inv = np.linalg.inv([[2.0, 1.0], [1.0, 2.0]])
    assert np.max(np.abs(dual.gram.entries - inv)) < 1e-12
    assert np.max(np.abs(dual.basis @ skew.basis.T - np.eye(2))) < 1e-12


def test_dual_lattice_involution_and_covolume():
    rng = random.Random(11)
    for _ in range(25):
        g = random_pd_gram(rng, 2)
        lat = EmbeddedLattice.from_basis(cholesky(g))
        dual = dual_lattice(lat)
        assert abs(dual.covolume * lat.covolume - 1.0) < 1e-9
        back = dual_lattice(dual)
        scale = np.max(np.abs(lat.gram.entries))
        assert np.max(np.abs(back.gram.entries - lat.gram.entries)) < 1e-9 * scale


def test_embedded_lattice_validation():
    with pytest.raises(NotPositiveDefinite):
        EmbeddedLattice(basis=np.eye(2), gram=GramMatrix(2.0 * np.eye(2)), covolume=1.0)
    with pytest.raises(NotPositiveDefinite):
        EmbeddedLattice(basis=np.eye(2), gram=GramMatrix(np.eye(2)), covolume=3.0)


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


def test_centred_theta_equals_full_enumeration_bit_for_bit():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            g = _random_gram(rng, n)
            res = theta_sum(g, None, 1e-10)
            V, Q = _enumerate_with_norms(g, np.zeros(n), res.radius, 10**8)
            assert sorted(V.tolist()) == enumerate_below(g, None, res.radius).tolist()
            assert res.value == math.fsum(np.exp(-math.pi * Q).tolist())
            assert res.points_enumerated == V.shape[0]
            for center in ([3.0] * n, [-0.0] * n, [float(rng.randint(-4, 4)) for _ in range(n)]):
                again = theta_sum(g, center, 1e-10)
                assert again.value == res.value
                assert again.points_enumerated == res.points_enumerated


def test_block_size_does_not_change_results(monkeypatch):
    rng = random.Random(8)
    cases = [(_random_gram(rng, n), center)
             for n in (1, 2, 3) for center in (None, [0.3, -0.45, 0.1][:n])]
    before = [(theta_sum(g, c, 1e-10), _enumerate_with_norms(g, np.zeros(g.shape[0]), 9.0, 10**8))
              for g, c in cases]
    # blocks of 7 candidates split rows of the last level between blocks
    monkeypatch.setattr(lattice, "_BLOCK_POINTS", 7)
    for (g, c), (res, (V, Q)) in zip(cases, before):
        assert theta_sum(g, c, 1e-10) == res
        V2, Q2 = _enumerate_with_norms(g, np.zeros(g.shape[0]), 9.0, 10**8)
        assert np.array_equal(V2, V) and np.array_equal(Q2, Q)


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
    # about 1.4 M points; the whole point set alone would take over 30 MB
    g = [[4e-5, 8e-6], [8e-6, 6e-5]]
    for center in (None, [0.3, -0.2]):
        tracemalloc.start()
        try:
            res = theta_sum(g, center, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points_enumerated >= 1_000_000
        assert peak < 16 * 2**20
