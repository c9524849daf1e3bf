"""Lattice kernel tests against independent brute-force oracles."""

import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from arithcoh.errors import EnumerationBudgetExceeded, NotPositiveDefinite, ToleranceUnreachable
from arithcoh.intmat import det_int
from arithcoh.lattice import (
    EmbeddedLattice,
    GramMatrix,
    cholesky,
    dual_lattice,
    lll_reduce_rows,
    theta_sum,
)
from arithcoh import lattice
from arithcoh.lattice import _exact_partials, _fincke_pohst

from conftest import brute_force_points, brute_force_theta, centred_theta_bound, random_pd_gram

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
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        GramMatrix(np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]]))
    with pytest.raises(NotPositiveDefinite):
        GramMatrix(np.zeros((0, 0)))
    g = GramMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert g.n == 2


def test_a_gram_beyond_half_the_largest_float_is_valid():
    # 0.5 (m + m^T) overflowed in m + m^T, and the Cholesky factor of the
    # infinite result refused a valid Gram after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in ([[1e308]], np.diag([1e308, 1e308]), [[1.7e308, 1e307], [1e307, 1.7e308]]):
            assert np.array_equal(GramMatrix(np.array(g)).entries, g)
            res = theta_sum(g, None, 1e-9)
            assert res.value == 1.0 and res.points_enumerated == 1


def test_raw_non_symmetric_gram_is_rejected_by_every_entry_point():
    # a raw array is validated as a GramMatrix: [[1, 100], [0, 1]] was read
    # from its lower triangle, as the identity, and theta_sum certified
    # theta of the identity for it
    for g in ([[1.0, 100.0], [0.0, 1.0]], [[1.0, 0.5], [0.4, 1.0]]):
        for attempt in (lambda: theta_sum(g, None, 1e-9),
                        lambda: theta_sum(g, [0.25, 0.0], 1e-9, theta0=2.0)):
            with pytest.raises(NotPositiveDefinite, match="not symmetric"):
                attempt()


def test_enumerate_1d_squares():
    assert _points_below([[1.0]], [0.0], 4.0) == [[-2], [-1], [0], [1], [2]]


def test_enumerate_skew_2d():
    got = _points_below([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], 2.0)
    assert got == brute_force_points([[2, 1], [1, 2]], None, 2.0, box=3)
    assert len(got) == 7


def test_enumerate_below_returns_the_zero_vector_alone():
    # every level holds only the zero row, so V stays None down to the last
    # level, whose half-space is empty: the enumeration yields no block, and
    # theta is the zero vector's term alone
    for n in (1, 2, 3, 4):
        g = 100.0 * np.eye(n)
        for center in (None, [0.0] * n, [-0.0] * n):
            assert _points_below(g, center, 1.0) == [[0] * n]
            c = np.zeros(n) if center is None else np.array(center)
            assert list(_fincke_pohst(cholesky(g).T, c, _ball(1.0), 10**8)) == []
            res = theta_sum(g, center, 1e-9)
            assert res.value == 1.0 and res.points_enumerated == 1


def test_enumerate_shifted_center():
    assert _points_below([[1.0]], [0.5], 0.3) == [[-1], [0]]
    # no integer v_1 has |v_1 + 0.5| <= 0.32: the lower level gets no rows
    assert _points_below(np.eye(2), [0.5, 0.5], 0.1) == []


def test_a_non_finite_shift_is_a_value_error():
    # nan reached the enumeration as a candidate bound of nan and blamed the
    # metric with EnumerationBudgetExceeded; inf also warned in c - round(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([math.nan], [math.inf], [-math.inf]):
            for gram in ([[1.0]], GramMatrix(np.eye(1))):
                with pytest.raises(ValueError, match="finite reals"):
                    theta_sum(gram, bad, 1e-9, theta0=2.0)
        for bad in ([0.5, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="finite reals"):
                theta_sum(np.eye(2), bad, 1e-9, theta0=2.0)


def test_enumerate_budget():
    U = cholesky([[1e-6]]).T
    for center in ([0.0], [0.5]):
        with pytest.raises(EnumerationBudgetExceeded):
            _fincke_pohst(U, np.array(center), _ball(100.0), 10)


def test_enumerate_matches_brute_force_randomized():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.choice([1, 2])
        g = random_pd_gram(rng, n)
        center = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        radius = rng.uniform(0.0, 12.0)
        assert _points_below(g, center, radius) == brute_force_points(g, center, radius, box=12)


def test_theta_centered_1d_oracle():
    res = theta_sum([[1.0]], [0.0], 1e-12)
    assert res.value == pytest.approx(THETA_1D_CENTERED, abs=1e-12)
    assert res.tail_bound <= 1e-12
    assert res.value >= 1.0


def test_theta_shifted_1d_oracle():
    res = theta_sum([[1.0]], [0.5], 1e-12, theta0=centred_theta_bound([[1.0]], 1e-12))
    assert res.value == pytest.approx(THETA_1D_HALF_SHIFT, abs=1e-12)


def test_shifted_theta_reaches_the_point_of_the_shift():
    # Q = 25 at v = 0 and v = -1, far beyond the radius tol 1e-8 needs
    res = theta_sum([[100.0]], [0.5], 1e-8, theta0=centred_theta_bound([[100.0]], 1e-8))
    assert res.radius >= 25.0 and res.points_enumerated == 2
    assert res.value == pytest.approx(2.0 * math.exp(-25.0 * math.pi), rel=1e-14, abs=0.0)
    # Q(0.4, 0.4) = 19.2 at the nearest point
    g = [[60.0, 10.0], [10.0, 40.0]]
    res = theta_sum(g, [2.4, -0.6], 1e-6, theta0=centred_theta_bound(g, 1e-6))
    full = brute_force_theta(g, [0.4, 0.4], box=5)
    assert math.exp(-19.2 * math.pi) * (1 - 1e-12) <= res.value <= full <= res.value + res.tail_bound


def test_theta_integer_center_is_periodic():
    base = theta_sum([[1.0]], [0.0], 1e-12)
    for shift in ([1.0], [-3.0], [7.0]):
        assert theta_sum([[1.0]], shift, 1e-12).value == base.value
    g2 = [[2.0, 1.0], [1.0, 2.0]]
    assert theta_sum(g2, [2.0, -5.0], 1e-10).value == theta_sum(g2, [0.0, 0.0], 1e-10).value


def test_theta_rejects_bad_tol():
    # tol is relative to the centred sum: one of 1 or more certifies nothing
    for tol in (0.0, -1.0, math.nan, 1.0, 10.0, math.inf):
        with pytest.raises(ValueError):
            theta_sum([[1.0]], [0.0], tol)
        with pytest.raises(ValueError):
            theta_sum([[1.0]], None, tol)
        with pytest.raises(ValueError):
            theta_sum([[1.0]], [0.5], tol, theta0=2.0)
    # a shifted sum needs a positive finite bound on the centred one
    for theta0 in (None, math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="theta0"):
            theta_sum([[1.0]], [0.5], 1e-9, theta0=theta0)
    # the shift is reduced mod Z^n first: an integer one is centred
    assert theta_sum([[1.0]], [2.0], 1e-9) == theta_sum([[1.0]], None, 1e-9)


def test_theta_uses_the_factor_of_a_gram_matrix(monkeypatch):
    rng = random.Random(17)
    cases = []
    for n in (1, 2, 3):
        a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
        gram = GramMatrix(a @ a.T + 0.5 * np.eye(n))
        assert np.array_equal(gram.factor, cholesky(gram.entries))
        assert not gram.factor.flags.writeable
        for center in (None, [0.3] * n):
            theta0 = centred_theta_bound(gram.entries, 1e-10)
            cases.append((gram, center, theta0,
                          theta_sum(gram.entries, center, 1e-10, theta0=theta0)))
    factored = []
    monkeypatch.setattr(lattice, "cholesky", lambda g: factored.append(g) or cholesky(g))
    for gram, center, theta0, expected in cases:
        assert theta_sum(gram, center, 1e-10, theta0=theta0) == expected
    assert factored == []
    theta_sum(cases[0][0].entries, None, 1e-10)
    assert len(factored) == 1  # a raw array is factored once per call


def test_enumerate_uses_the_factor_of_a_gram_matrix(monkeypatch):
    # theta_sum hands the enumeration the transposed factor of a GramMatrix
    # as it stands, and there the enumeration's blocks are the reference's
    rng = random.Random(19)
    cases = []
    for n in (1, 2, 3):
        a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
        gram = GramMatrix(a @ a.T + 0.5 * np.eye(n))
        theta0 = centred_theta_bound(gram.entries, 1e-10)
        cases += [(gram, center, theta0) for center in (None, [0.3] * n)]
    handed = []
    real = lattice._fincke_pohst
    monkeypatch.setattr(lattice, "_fincke_pohst", lambda U, *args: handed.append(U) or real(U, *args))
    factored = []
    monkeypatch.setattr(lattice, "cholesky", lambda g: factored.append(g) or cholesky(g))
    for gram, center, theta0 in cases:
        theta_sum(gram, center, 1e-10, theta0=theta0)
        U = handed.pop()
        assert np.shares_memory(U, gram.factor) and np.array_equal(U, gram.factor.T)
        c = np.zeros(gram.n) if center is None else np.array(center)
        _assert_blocks_match_reference(U, c, _ball(6.0))
    assert factored == []


def test_theta_budget_exceeded_on_flat_metric():
    with pytest.raises(EnumerationBudgetExceeded):
        theta_sum([[1e-10]], [0.0], 1e-9, budget=1000)
    # a budget beyond the float range is no limit, not an OverflowError
    unlimited = theta_sum([[1.0]], None, 1e-9, budget=10**400)
    assert unlimited == theta_sum([[1.0]], None, 1e-9)


def test_a_budget_that_is_not_an_integer_of_at_least_1_is_a_value_error():
    # 0 and -5 died in math.log(2 * budget) with "math domain error", and
    # nan switched the cap off and returned a value
    for budget in (0, -5, math.nan, 1.5):
        for attempt in (lambda: theta_sum([[1.0]], None, 1e-9, budget=budget),
                        lambda: theta_sum([[1.0]], [0.5], 1e-9, budget, theta0=2.0)):
            with pytest.raises(ValueError, match="budget must be an integer >= 1"):
                attempt()
    # a budget of 1 admits the zero vector alone
    assert theta_sum([[100.0]], None, 1e-9, budget=1).points_enumerated == 1


def test_theta_oracle_equivalence_randomized():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([1, 2])
        g = random_pd_gram(rng, n)
        center = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        res = theta_sum(g, center, 1e-10, theta0=centred_theta_bound(g, 1e-10))
        assert abs(res.value - brute_force_theta(g, center)) < 1e-9


def test_theta_tail_bound_soundness():
    # enlarging the enumeration radius by +4 must change the value by less
    # than the reported tail bound
    rng = random.Random(42)
    for _ in range(100):
        g = np.asarray(random_pd_gram(rng, 2), dtype=float)
        res = theta_sum(g, None, 1e-8)
        _, q1 = _reference_points(g, None, res.radius)
        _, q2 = _reference_points(g, None, res.radius + 4.0)
        v1 = math.fsum(np.exp(-math.pi * np.sort(q1)).tolist())
        v2 = math.fsum(np.exp(-math.pi * np.sort(q2)).tolist())
        assert 0.0 <= v2 - v1 < res.tail_bound


def test_theta_tail_bound_holds_at_twice_the_radius():
    # the sum over the ball of twice the radius exceeds the value by at most
    # tail_bound, centred and shifted: n = 1-4, smallest eigenvalues 1e-3 to
    # 1, condition numbers 1, 1e4 and 1e12, tolerances 1e-12 to 0.5
    eps = lattice._TAIL_EPS
    rng = np.random.default_rng(30)
    seen = set()
    for n in (1, 2, 3, 4):
        for smallest in (1e-3, 0.1, 1.0):
            for cond in (1.0, 1e4, 1e12) if n > 1 else (1.0,):
                g = _gram_with_spectrum(rng, smallest * np.geomspace(1.0, cond, n))
                # the ball of radius 24 (twice the largest radius below) must
                # stay cheap to enumerate: at most about 3e5 points
                log_points = (0.5 * n * math.log(24.0 * math.pi) - math.lgamma(0.5 * n + 1)
                              - 0.5 * np.linalg.slogdet(g)[1])
                if log_points > math.log(3e5):
                    continue
                seen.add((n, smallest, cond))
                for tol in (1e-12, 1e-6, 1e-3, 0.1, 0.5):
                    theta0 = centred_theta_bound(g, tol)
                    # a shift with Q(c) <= 4 keeps the radius near the split's
                    # own, where the bound is tightest; on a stiff axis a shift
                    # in [-1/2, 1/2]^n has Q(c) near 1e9, and the radius would
                    # follow it (the Q(c) floor, tested on its own above)
                    shift = rng.uniform(-0.5, 0.5, n)
                    shift *= min(1.0, 2.0 / math.sqrt(shift @ g @ shift))
                    for center in (None, shift):
                        res = theta_sum(g, center, tol, theta0=theta0)
                        _, q = _reference_points(g, center, 2.0 * res.radius)
                        wide = math.fsum(np.exp(-math.pi * q).tolist())
                        slack = 4 * 2.0 ** -53 * wide  # two enumerations, each rounded
                        assert -slack <= wide - res.value <= res.tail_bound + slack, (n, g, tol)
                        # r, the bound relative to theta_0: tail = r V / (1 - r)
                        # centred, r theta0 shifted
                        r = res.tail_bound / (theta0 if center is not None
                                              else res.value + res.tail_bound)
                        # r is eps^(-n/2) exp(-pi (1 - eps) R) at the radius
                        # the enumeration is sure to cover
                        safe = res.radius * (1 - 2 * lattice._BOUNDARY_SLACK) - 1e-12
                        assert r == pytest.approx(
                            eps ** (-n / 2) * math.exp(-math.pi * (1 - eps) * safe), rel=1e-9)
                        assert r <= tol * (1 + 1e-12)
                        # at the split's own radius (not raised to 1 or to Q(c)) the
                        # 1/2 margin costs a factor exp(-pi (1 - eps) / 2), no more
                        own = (-0.5 * n * math.log(eps) - math.log(tol)) / (math.pi * (1 - eps)) + 0.5
                        if math.isclose(res.radius, own, rel_tol=1e-12):
                            assert r >= math.exp(-math.pi / 2) * tol * (1 - 1e-6)
    assert {n for n, _, _ in seen} == {1, 2, 3, 4}
    assert {s for _, s, _ in seen} == {1e-3, 0.1, 1.0}
    assert {c for _, _, c in seen} == {1.0, 1e4, 1e12}


def test_theta_radius_is_the_closed_form_of_the_one_split():
    # the radius of a centred sum is max(1, R + 1/2), where the relative
    # bound 16^(n/2) exp(-pi (15/16) R) of the split eps = 1/16 meets tol,
    # and the reported relative bound r = tail / (value + tail) is that
    # bound at the radius the enumeration is sure to cover
    def log_bound(n, R):
        return 0.5 * n * math.log(16.0) - math.pi * (15.0 / 16.0) * R

    for n in range(1, 9):
        g = 1e4 * np.eye(n)  # the zero vector alone: every radius is below 300
        for tol in np.geomspace(1e-300, 0.99, 61).tolist():
            log_tol = math.log(tol)
            res = theta_sum(g, None, tol)
            assert res.value == 1.0 and res.points_enumerated == 1
            R = (0.5 * n * math.log(16.0) - log_tol) / (math.pi * 15.0 / 16.0)
            assert abs(res.radius - max(1.0, R + 0.5)) <= 1e-12 * abs(log_tol), (n, tol)
            if res.radius > 1.0:
                assert abs(log_bound(n, res.radius - 0.5) - log_tol) <= 1e-12 * abs(log_tol)
            safe = res.radius * (1 - 2 * lattice._BOUNDARY_SLACK) - 1e-12
            r = res.tail_bound / (res.value + res.tail_bound)
            assert r == pytest.approx(math.exp(log_bound(n, safe)), rel=1e-9), (n, tol)
            assert r <= tol * (1 + 1e-12)


def test_theta_enumerates_a_point_inside_the_boundary_slack():
    # Q(+-e) = a lies above the radius but within its relative slack of
    # 1e-9: the ball holds it, so the sum has 3 points, not 1.  For n = 1 the
    # point is on the last level, whose blocks theta_sum masks; for n = 2 on
    # the top level, which the enumeration masks to the bound it is handed
    for n in (1, 2):
        radius = theta_sum(np.eye(n), None, 1e-9).radius  # a function of n and tol only
        a = radius * (1.0 + 5e-10)
        assert a > radius
        res = theta_sum(np.diag([100.0] * (n - 1) + [a]), None, 1e-9)
        assert res.radius == radius and res.points_enumerated == 3
        assert res.value == pytest.approx(1.0 + 2.0 * math.exp(-math.pi * a), rel=1e-15)


def test_theta_tail_guard_raises_with_the_numbers(monkeypatch):
    # a boundary slack that eats the 1/2 margin leaves the tail above tol
    monkeypatch.setattr(lattice, "_BOUNDARY_SLACK", 0.25)
    with pytest.raises(ToleranceUnreachable, match=r"exceeds tol 1\.000e-09: split eps = 0\.0625, n = 1"):
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
    runs = [theta_sum(g, [0.2, -0.1], 1e-11, theta0=centred_theta_bound(g, 1e-11))
            for _ in range(3)]
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


def test_embedded_lattice_rejects_a_non_finite_gram_without_a_warning():
    # the Gram b b^T of a basis is checked for inf and nan by cholesky alone;
    # every n = 1 and n = 2 basis with a nan, an infinite or an overflowing
    # (1e200) entry raises NotPositiveDefinite, and inf * 0 or inf - inf in
    # the product warns of nothing
    values = (math.nan, math.inf, -math.inf, 1e200, -1e200, 1.0, 0.0)
    cases = 0
    for n in (1, 2):
        for entries in itertools.product(values, repeat=n * n):
            if all(abs(x) <= 1.0 for x in entries):
                continue
            cases += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPositiveDefinite):
                    EmbeddedLattice(np.array(entries).reshape(n, n))
    assert cases == 5 + 7 ** 4 - 2 ** 4


def test_embedded_lattice_gram_is_exactly_symmetric():
    # the Gram of a basis skips the symmetry check and the symmetrising step;
    # it must still equal, bit for bit, what a validated GramMatrix makes of
    # b b^T, factor and log-covolume included
    rng = np.random.default_rng(40)
    for n in (1, 2, 3, 4, 5):
        for _ in range(200):
            b = rng.normal(size=(n, n)) * np.exp(rng.uniform(-5.0, 5.0, size=(n, 1)))
            lat = EmbeddedLattice(b)
            g = lat.gram.entries
            assert np.array_equal(g, g.T)
            checked = GramMatrix(b @ b.T)
            assert np.array_equal(g, checked.entries)
            assert np.array_equal(lat.gram.factor, checked.factor)
            assert lat.log_covolume == checked.log_covolume
            assert not g.flags.writeable and not lat.gram.factor.flags.writeable


def test_lll_reduction_commutes_with_a_power_of_2():
    # rows near the float limit are reduced at an exact scale 2^-e: the same
    # steps as at a scale where no dot product overflows, and no warning
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        basis = np.array([[rng.uniform(-30.0, 30.0) for _ in range(n)] for _ in range(n)])
        reduced, M = lll_reduce_rows(basis)
        for k in (400, 505, 512, 600, 1000 - 5 * n):
            scaled, M_scaled = lll_reduce_rows(np.ldexp(basis, k))
            assert np.array_equal(scaled, np.ldexp(reduced, k)) and M_scaled == M


def _reference_lll(basis) -> np.ndarray:
    """Oracle: the LLL that recomputes every Gram-Schmidt row after every
    step, at the same power-of-2 scale; the rows only, and no checks."""
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    scale = 2.0 ** max(math.frexp(float(abs(b).max()))[1] - (1024 - n.bit_length()) // 2, 0)
    b /= scale

    def gso(mat):
        star = mat.copy()
        mu = np.eye(n)
        norms = np.zeros(n)
        for i in range(n):
            for j in range(i):
                mu[i, j] = float(mat[i] @ star[j]) / norms[j]
                star[i] = star[i] - mu[i, j] * star[j]
            norms[i] = float(star[i] @ star[i])
        return mu, norms

    k = 1
    for _ in range(10000):
        if k >= n:
            break
        mu, norms = gso(b)
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[k] = b[k] - q * b[j]
                mu[k, :j + 1] -= q * mu[j, :j + 1]
        if norms[k] >= (0.75 - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b * scale


def test_lll_matches_the_full_recompute_and_returns_its_transform():
    # rows bit-identical to the reference; M exact, unimodular, and M basis
    # equal to the rows up to the rounding of the row operations
    rng = np.random.default_rng(16)
    for n in range(2, 7):
        for _ in range(20):
            basis = rng.normal(size=(n, n)) * np.exp(rng.uniform(-8.0, 8.0, size=(n, 1)))
            for k in (0, 400, 505, 512, 600, 1000 - 5 * n):
                scaled = np.ldexp(basis, k)
                rows, M = lll_reduce_rows(scaled)
                assert np.array_equal(rows, _reference_lll(scaled))
                assert all(type(x) is int for row in M for x in row)
                assert abs(det_int(M)) == 1
                Mf = np.array(M, dtype=float)
                err = np.abs(Mf @ basis - np.ldexp(rows, -k))
                assert np.all(err <= 1e-12 * (np.abs(Mf) @ np.abs(basis)))


def test_lll_rejects_numerically_dependent_rows():
    # a zero Gram-Schmidt norm was a divisor: NaN, warnings, then an untyped
    # ValueError
    for basis in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                  [[3.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(NotPositiveDefinite, match="Gram-Schmidt norm"):
            lll_reduce_rows(np.array(basis))
    for bad in (np.inf, np.nan):
        with pytest.raises(NotPositiveDefinite, match="float range"):
            lll_reduce_rows(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_level_bounds_beyond_int64_exceed_the_budget():
    # the Gram of the zero divisor over Q(sqrt 2) at x_sigma = (-300, 300),
    # rounded, and a diagonal one: the bounds of v_0 reach 1e115 and 1e150,
    # and their cast to int64 gave 0 candidates and h0 = 0 with a warning
    for gram in ([[3.3e-229, -1.4e-229], [-1.4e-229, 2.4e229]], np.diag([1e-300, 1e300])):
        with pytest.raises(EnumerationBudgetExceeded, match="coordinate 0"):
            theta_sum(gram, None, 1e-9)
    # bounds beyond the float range: the divides of coordinate 0 overflowed
    # with a RuntimeWarning before the typed error, as the top level and
    # below a 1e300 axis; a bare math.ceil of inf would be an untyped
    # OverflowError.  theta_sum's radius depends on n and tol alone and its
    # centre is reduced mod 1, so these radii and centres reach the
    # enumeration only directly
    def enumerate_at(gram, radius, center=None, budget=lattice.DEFAULT_BUDGET):
        U = GramMatrix(gram).factor.T
        c = np.zeros(U.shape[0]) if center is None else np.array(center)
        return _fincke_pohst(U, c, _ball(radius), budget)

    for gram in ([[5e-324]], np.diag([5e-324, 1e300])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EnumerationBudgetExceeded, match="coordinate 0 .* of inf"):
                enumerate_at(gram, 1e308)
    # the top level, coordinate n - 1, names itself, and counts its budget
    with pytest.raises(EnumerationBudgetExceeded, match="coordinate 0"):
        enumerate_at([[1e-300]], 1e10)
    with pytest.raises(EnumerationBudgetExceeded, match="coordinate 1"):
        enumerate_at(np.diag([1.0, 1e-300]), 1e10)
    with pytest.raises(EnumerationBudgetExceeded, match="more than 10 points"):
        enumerate_at([[1e-6]], 10.0, budget=10)
    # candidates are exact float integers, so the reach is 2^52: bounds near
    # 2^61, whose int64 counts once wrapped in their sum, and a few
    # candidates near 2^55, which a float cannot all hold, raise
    with pytest.raises(EnumerationBudgetExceeded, match="coordinate 0 .* 2.29427e\\+18, beyond 2\\^52"):
        theta_sum(np.diag([1.7e-36, 1.0, 1.0 / 1.7e-36]), None, 1e-9)
    with pytest.raises(EnumerationBudgetExceeded, match="coordinate 0 .* 3.60288e\\+16, beyond 2\\^52"):
        enumerate_at([[1.0]], 1.0, [2.0 ** 55])
    # bounds near 2^51 on each row are within reach, and their counts, about
    # 2^52 a row, exceed the budget
    with pytest.raises(EnumerationBudgetExceeded, match="more than 100000000 points"):
        theta_sum(np.diag([1.5e-30, 1.0, 1.0 / 1.5e-30]), None, 1e-9)
    assert _points_below([[1.0]], [2.0 ** 51], 1.0) == [[-2 ** 51 - 1], [-2 ** 51], [-2 ** 51 + 1]]


def test_embedded_lattice_rejects_an_overflowed_gram():
    # the overflow in b b^T is rejected by a typed error, not a warning
    for basis in ([[1e200, 0.0], [0.0, 1.0]], [[1e155, 1e155], [0.0, 1.0]], [[np.inf]]):
        with pytest.raises(NotPositiveDefinite):
            EmbeddedLattice(np.array(basis))
    with pytest.raises(NotPositiveDefinite):
        EmbeddedLattice(np.zeros((0, 0)))


def _ill_conditioned_shifts():
    """A rotated Gram of spectrum (1e-3, 1e3, 1e9) and eight shifts whose
    Q(c), for c reduced into [-1/2, 1/2]^3, is 1e4 to 1e8."""
    rng = np.random.default_rng(33)
    g = _gram_with_spectrum(rng, [1e-3, 1e3, 1e9])
    U = cholesky(g).T
    soft = np.linalg.eigh(g)[1][:, 0]
    shifts = []
    for _ in range(4):
        # a random shift, and one within Q <= 1.6 of the lattice point 0
        # whose coordinates run to tens: far along the eigenvalue 1e-3
        u = rng.normal(size=3)
        u *= rng.uniform(0.0, 0.3) / np.linalg.norm(u)
        shifts += [rng.uniform(-0.5, 0.5, 3),
                   rng.uniform(5.0, 30.0) * soft + np.linalg.solve(U, u)]
    return g, shifts


def test_shifted_theta_floor_at_the_nearest_plane_point():
    # at Q(c) a ball holds up to millions of points; the floor at the
    # nearest-plane point of the reduced basis keeps the ball to a few
    # points and still reaches one
    g, shifts = _ill_conditioned_shifts()
    U = cholesky(g).T
    theta0 = centred_theta_bound(g, 1e-6)
    positive = 0
    for center in shifts:
        reduced = center - np.round(center)
        assert float(np.sum((U @ reduced) ** 2)) > 1e4
        tracemalloc.start()
        try:
            res = theta_sum(g, center, 1e-6, theta0=theta0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 <= res.points_enumerated <= 10
        assert peak < 2**20
        _, q = _reference_points(g, center, res.radius)
        assert res.value == math.fsum(np.exp(-math.pi * q).tolist())
        # the radius is Q at a lattice point, the nearest one here
        assert q.min() <= res.radius * (1 + 1e-9)
        near = float(np.sum((U @ center) ** 2))
        if near <= 1.6:
            assert res.value >= math.exp(-math.pi * near) * (1 - 1e-9) > 0.0
            positive += 1
    assert positive == 4


def _babai_point(B, M, c) -> list[int]:
    """v = M^T y for Babai's nearest-plane y over the reduced rows B = M L."""
    R = cholesky(B @ B.T).T
    z = np.linalg.solve(np.array(M, dtype=float).T, c)
    y = np.zeros_like(z)
    for i in range(z.size - 1, -1, -1):
        y[i] = np.round(-z[i] - R[i, i + 1:] @ (y[i + 1:] + z[i + 1:]) / R[i, i])
    return [sum(int(M[j][i]) * int(y[j]) for j in range(z.size)) for i in range(z.size)]


def test_nearest_plane_floor_is_q_at_the_point_of_the_lll_transform():
    # the floor is Q(v + c) at the point of the exact M, and that point is
    # the one of the reference LLL with M recovered by a float solve and a
    # round, so the value is unchanged
    g, shifts = _ill_conditioned_shifts()
    L = cholesky(g)
    B, M = lll_reduce_rows(L)
    B_ref = _reference_lll(L)
    M_ref = np.round(np.linalg.solve(L.T, B_ref.T).T)
    for center in shifts:
        c = center - np.round(center)
        v = _babai_point(B, M, c)
        assert v == _babai_point(B_ref, M_ref, c)
        q = float(np.sum((L.T @ (np.array(v, dtype=float) + c)) ** 2))
        assert lattice._nearest_plane_q(L, c) == q


def _gram_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    g = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (g + g.T)


def _random_gram(rng: random.Random, n: int) -> np.ndarray:
    if n <= 2:
        return np.asarray(random_pd_gram(rng, n), dtype=float)
    b = np.array([[rng.uniform(-1.5, 1.5) for _ in range(n)] for _ in range(n)])
    return b @ b.T + 0.3 * np.eye(n)


def test_centred_theta_equals_full_enumeration_bit_for_bit(monkeypatch):
    # the half-space sum, doubled, is the fsum over the reference's full
    # space; with _BIN_MIN = 0 every block reaches fsum as exact partials
    for bin_min in (lattice._BIN_MIN, 0):
        monkeypatch.setattr(lattice, "_BIN_MIN", bin_min)
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                g = _random_gram(rng, n)
                res = theta_sum(g, None, 1e-10)
                V, Q = _reference_points(g, None, res.radius)
                assert res.value == math.fsum(np.exp(-math.pi * Q).tolist())
                assert res.points_enumerated == V.shape[0]
                for center in ([3.0] * n, [-0.0] * n,
                               [float(rng.randint(-4, 4)) for _ in range(n)]):
                    again = theta_sum(g, center, 1e-10)
                    assert again.value == res.value
                    assert again.points_enumerated == res.points_enumerated


def test_block_size_does_not_change_results(monkeypatch):
    rng = random.Random(8)
    shift = [0.3, -0.45, 0.1, 0.2]
    cases = [(_random_gram(rng, n), center) for n in (1, 2, 3, 4) for center in (None, shift[:n])]
    # 2.5 k to 10 k points, so that full blocks of 352 terms go to fsum as
    # they are and full blocks of 353 as exact partials (_BIN_MIN = 352)
    cases += [(_random_gram(rng, n) * scale, center)
              for n, scale in ((1, 1e-5), (2, 3e-3), (3, 4e-2), (4, 0.2))
              for center in (None, shift[:n])]
    # 108 k to 114 k points: at least 3 full blocks of 2^14 candidates in
    # the last level, half-space included, and 2 of the former 2^15
    big = []
    for n, scale in ((1, 2.7e-9), (2, 7.6e-5), (3, 1.2e-2), (4, 0.038)):
        g = _random_gram(rng, n) * scale
        big += [(g, None), (g, shift[:n])]
    theta0 = [centred_theta_bound(g, 1e-10) for g, _ in cases + big]
    before = [(theta_sum(g, c, 1e-10, theta0=t0), _reference_points(g, None, 9.0))
              for (g, c), t0 in zip(cases + big, theta0)]
    assert all(res.points_enumerated > 6 * 2**14 for res, _ in before[len(cases):])
    # blocks of 7 candidates split rows of the last level between blocks;
    # _BIN_MIN = 0 sends each such block, and each full one, through the
    # exact partials
    for block, bin_min, grams in ((7, lattice._BIN_MIN, cases), (7, 0, cases),
                                  (352, lattice._BIN_MIN, cases), (353, lattice._BIN_MIN, cases),
                                  (2**14, 0, cases + big), (2**15, lattice._BIN_MIN, cases + big),
                                  (2**15, 0, cases + big)):
        monkeypatch.setattr(lattice, "_BLOCK_POINTS", block)
        monkeypatch.setattr(lattice, "_BIN_MIN", bin_min)
        for (g, c), t0, (res, (V, Q)) in zip(grams, theta0, before):
            got = theta_sum(g, c, 1e-10, theta0=t0)
            assert got == res and got.value.hex() == res.value.hex()
            V2, Q2 = _reference_points(g, None, 9.0)
            assert np.array_equal(V2, V) and np.array_equal(Q2, Q)


def test_theta_drops_a_last_level_candidate_outside_the_ball():
    # a = bound / k^2 (1 + 1e-12) puts sqrt(bound / a) within the boundary
    # slack below k, so the last level's top candidate v = k has Q = a k^2
    # just above the bound: its keep is false, and the sum stops at k - 1
    tol, k = 1e-10, 5
    radius = theta_sum([[1.0]], None, tol).radius  # a function of n and tol only
    bound = _ball(radius)
    a = bound / k**2 * (1.0 + 1e-12)
    U = np.sqrt([[a]])
    q, = _fincke_pohst(U, np.zeros(1), bound, 10**8)
    (_, _, v0, q_ref, keep), = _reference_fincke_pohst(U, np.zeros(1), bound, half=True)[1]
    assert v0.tolist() == list(range(1, k + 1)) and keep.tolist() == [True] * (k - 1) + [False]
    # the block is unmasked; theta_sum masks it, as its q.max() exceeds the
    # bound, and the reference's q is the same, bit for bit
    assert q.max() > bound and _same_bits(q, q_ref)
    V, Q = _reference_points([[a]], None, radius)
    assert sorted(V.ravel().tolist()) == list(range(1 - k, k))
    res = theta_sum([[a]], None, tol)
    assert res.value == math.fsum(np.exp(-math.pi * Q).tolist())
    assert res.points_enumerated == 2 * k - 1


def _reference_level(U, center, bound, V, T, i, half):
    """Oracle: one level of the enumeration as arrays, the top level's one
    row included, with the bounds and counts of every row; no checks."""
    s = (V + center[i + 1:]) @ U[i, i + 1:]
    rad = np.sqrt(np.maximum(bound - T, 0.0))
    uii = U[i, i]
    lo = np.ceil((-rad - s) / uii - center[i] - lattice._BOUNDARY_SLACK).astype(np.int64)
    hi = np.floor((rad - s) / uii - center[i] + lattice._BOUNDARY_SLACK).astype(np.int64)
    if half:
        lo[0] = max(lo[0], 0 if i else 1)
    counts = np.maximum(hi - lo + 1, 0)
    return s, lo, counts, int(counts.sum(dtype=float))


def _reference_expand(s, lo, counts, total, T, uii, ci, bound):
    starts = np.cumsum(counts) - counts
    vi = np.repeat(lo - starts, counts)
    vi += np.arange(total)
    Tn = vi + ci
    Tn *= uii
    Tn += np.repeat(s, counts)
    np.square(Tn, out=Tn)
    Tn += np.repeat(T, counts)
    return vi, Tn, Tn <= bound


def _ball(radius):
    """The bound on Q that theta_sum's enumeration tests for radius: radius
    plus the boundary slack, relative to radius and at least the slack."""
    return radius + lattice._BOUNDARY_SLACK * max(radius, 1.0)


def _reference_fincke_pohst(U, center, bound, half):
    """Oracle: the enumeration of Q <= bound with every level, the top one
    included, in arrays, of one half-space or, for half false, the full
    space; V, the list of its last level's blocks (r0, c, v0, q, keep) and
    the candidate total of each level."""
    n = U.shape[0]
    V = np.zeros((1, 0), dtype=np.int64)
    T = np.zeros(1)
    totals = []
    for i in range(n - 1, 0, -1):
        s, lo, counts, total = _reference_level(U, center, bound, V, T, i, half)
        totals.append(total)
        vi, Tn, keep = _reference_expand(s, lo, counts, total, T, U[i, i], center[i], bound)
        rows = np.repeat(np.arange(counts.size), counts)[keep]
        V = np.column_stack([vi[keep], V[rows]])
        T = Tn[keep]
    s, lo, counts, total = _reference_level(U, center, bound, V, T, 0, half)
    totals.append(total)
    if total <= lattice._BLOCK_POINTS:
        return V, [(0, counts) + _reference_expand(s, lo, counts, total, T, U[0, 0], center[0],
                                                   bound)], totals
    ends = np.cumsum(counts)
    blocks = []
    for a in range(0, total, lattice._BLOCK_POINTS):
        b = min(a + lattice._BLOCK_POINTS, total)
        r0 = int(np.searchsorted(ends, a, side="right"))
        r1 = int(np.searchsorted(ends, b - 1, side="right")) + 1
        start = ends[r0:r1] - counts[r0:r1]
        skip = np.maximum(a - start, 0)
        c = np.minimum(b - start, counts[r0:r1]) - skip
        blocks.append((r0, c) + _reference_expand(s[r0:r1], lo[r0:r1] + skip, c, b - a,
                                                  T[r0:r1], U[0, 0], center[0], bound))
    return V, blocks, totals


def _reference_points(gram, center, radius):
    """Oracle: the points v in Z^n with Q(v + center) within the bound of
    radius, in int64, and their Q, from the reference's full space."""
    U = GramMatrix(gram).factor.T
    n = U.shape[0]
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    V, blocks, _ = _reference_fincke_pohst(U, c, _ball(radius), half=False)
    points, norms = [np.zeros((0, n), dtype=np.int64)], [np.zeros(0)]
    for r0, counts, v0, q, keep in blocks:
        rows = V[r0 + np.repeat(np.arange(counts.size), counts)]
        points.append(np.column_stack([v0, rows])[keep])
        norms.append(q[keep])
    return np.concatenate(points), np.concatenate(norms)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_blocks_match_reference(U, center, bound):
    """The enumeration's blocks q are the reference's nonempty ones, bit for
    bit, in the half-space a zero centre selects; no block is empty."""
    got = list(_fincke_pohst(U, center, bound, 10**8))
    _, blocks, _ = _reference_fincke_pohst(U, center, bound, not center.any())
    want = [q for _, _, _, q, _ in blocks if q.size]
    assert len(got) == len(want) and all(map(_same_bits, got, want))


def _points_below(gram, center, radius) -> list:
    """The points v with Q(v + center) <= radius, sorted, from the reference,
    whose blocks the enumeration's must match there."""
    U = GramMatrix(gram).factor.T
    _assert_blocks_match_reference(U, np.zeros(U.shape[0]) if center is None
                                   else np.asarray(center, dtype=float), _ball(radius))
    return sorted(_reference_points(gram, center, radius)[0].tolist())


def test_enumeration_matches_the_array_reference_bit_for_bit(monkeypatch):
    # the float candidates and the top level in scalars give every block q
    # of the all-array int64 enumeration, bit for bit, the half-space at a
    # zero centre and the full space at any other: n = 1-4, centre 0 and
    # centres in [-1/2, 1/2]^n, one block and blocks of 7 candidates (for
    # n = 1, slices of the one row), and 1 x 1 and 2 x 2 Grams with a
    # candidate on the boundary.  A centre of -0.0s, and one with -0.0 at
    # every other coordinate, pin the skipped v + c_i of a zero shift.
    # Grams of n = 2-4 whose top one, two or all levels hold only v_i = 0,
    # at a zero centre coordinate, keep the zero row in scalars
    # (V = T = None) down to the first level that yields more; a shifted
    # centre gives those levels one candidate, 0, whose Q is not 0 and may
    # lie outside the ball
    rng = random.Random(41)
    bound = _ball(theta_sum([[1.0]], None, 1e-10).radius)
    grams = [_random_gram(rng, n) for n in (1, 2, 3, 4) for _ in range(4)]
    grams += [np.array([[bound / 25 * (1.0 + d)]]) for d in (1e-12, -1e-12)]
    # the same candidate at the top level of n = 2, which is masked only
    # when it lies outside the ball
    grams += [np.diag([0.7, bound / 25 * (1.0 + d)]) for d in (1e-12, -1e-12)]
    rng_zero = random.Random(28)
    for n in (2, 3, 4):
        for top in sorted({1, 2, n}):
            scale = np.array([1.0] * (n - top) + [40.0] * top)
            g = _random_gram(rng_zero, n) * np.outer(scale, scale)
            U = cholesky(g).T
            assert all(U[i, i] ** 2 > 4 * bound for i in range(n - top, n))
            grams.append(g)
    # [[1e-8]] has about 56 k candidates: four default blocks, two in
    # the half-space
    for block, cases in ((lattice._BLOCK_POINTS, grams + [np.array([[1e-8]])]), (7, grams)):
        monkeypatch.setattr(lattice, "_BLOCK_POINTS", block)
        for g in cases:
            n = g.shape[0]
            U = cholesky(g).T
            shifted = np.array([rng.uniform(-0.5, 0.5) for _ in range(n)])
            signed_zeros = shifted.copy()
            signed_zeros[::2] = -0.0
            for center in (np.zeros(n), -np.zeros(n), shifted, signed_zeros):
                _assert_blocks_match_reference(U, center, bound)


def _assert_partials_sum_like_fsum(terms, rungs=None):
    """The partials of terms add up to fsum of the terms, bit for bit, and
    there are rungs of them, if given: one float per rung, and one more for
    the subnormal bottom after the full ladder of 30."""
    terms = np.array(terms, dtype=float)
    want = math.fsum(terms.tolist())
    partials = list(_exact_partials(terms))
    assert math.fsum(partials).hex() == want.hex()
    assert rungs is None or len(partials) == rungs


def test_exact_partials_sum_like_fsum():
    # every rung sum is exact for at most 2^16 terms below 4
    assert lattice._BLOCK_POINTS <= 2**16
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
    # one full block of the largest term below 2
    _assert_partials_sum_like_fsum(np.full(lattice._BLOCK_POINTS, 2.0 * (1.0 - 2.0 ** -53)))
    # a full block just below 4, the heaviest rung load, with low bits on
    # both rungs such terms reach (the grids 2^-35 and 2^-70)
    size = lattice._BLOCK_POINTS
    _assert_partials_sum_like_fsum(4.0 - (rng.integers(0, 2**39, size) | 1) * 2.0 ** -51)
    # a full block of 4 - 2^-37 but one 4 - 2^-35: at a first grid of
    # 2^-37 its his would add up to 2^54 - 2^15 - 3 grid steps, which is not
    # a float, and a first term off by +-2^-51 shows either rounding of it
    block = np.full(size, 4.0 - 2.0 ** -37)
    block[0] = 4.0 - 2.0 ** -35
    for low in (2.0 ** -51, -2.0 ** -51):
        _assert_partials_sum_like_fsum(np.concatenate([[block[0] + low], block[1:]]))
    # ties: odd multiples of half a grid step of rung 1 (2^-36) and of
    # rung 2 (2^-71), which stay ties after rung 1
    _assert_partials_sum_like_fsum((2 * rng.integers(0, 2**37, size) + 1) * 2.0 ** -36)
    _assert_partials_sum_like_fsum((2 * rng.integers(0, 2**50, size) + 1) * 2.0 ** -71)
    _assert_partials_sum_like_fsum(np.concatenate([[1.0, 2.0 ** -36 + 2.0 ** -71],
                                                   np.full(5, 2.0 ** -36)]))
    # terms that reach the subnormal bottom rung: the least subnormal
    # breaks the tie of 1 + 2^-53 upward, so it must not be dropped
    _assert_partials_sum_like_fsum([1.0, 2.0 ** -53, tiny])
    _assert_partials_sum_like_fsum(np.concatenate([[1.0, 2.0 ** -53],
                                                   rng.integers(1, 2**20, 100) * tiny]))
    _assert_partials_sum_like_fsum(np.ldexp(rng.uniform(0.5, 1.0, size),
                                            rng.integers(-1074, -1040, size)))
    # the ladder stops once 2^(-35j - 1), the largest residual of rung j, is
    # below ulp(m) of the smallest term m: at rung 2 for m >= 2^-18, at rung
    # 3 for m >= 2^-53, at rung 4 for m >= 2^-88, and never for m = 0 or a
    # subnormal m; no term below 4 stops it at rung 1 (m >= 2^17), only an
    # empty block does (m = inf).  m = 2^-18 - 2^-71 is a tie at rung 2,
    # whose residual 2^-71 is lost if the ladder stops one rung early
    theta = 2.0 * np.exp(-math.pi * rng.uniform(0.0, 8.0, size))
    for m, rungs in ((2.0 ** -18, 2), (2.0 ** -18 - 2.0 ** -71, 3), (2.0 ** -19 + 2.0 ** -71, 3),
                     (2.0 ** -53, 3), (2.0 ** -53 - 2.0 ** -106, 4), (2.0 ** -88, 4),
                     (2.0 ** -88 - 2.0 ** -141, 5), (0.0, 31), (tiny, 31), (2.0 ** -1030, 31)):
        _assert_partials_sum_like_fsum([m], rungs)
        _assert_partials_sum_like_fsum(np.concatenate([[m], theta[m < theta]]), rungs)
    _assert_partials_sum_like_fsum(np.zeros(0), 1)
    # random blocks of theta terms and of terms spread over every exponent,
    # up to the bound 4
    for size in (1, 7, 1000, lattice._BLOCK_POINTS):
        _assert_partials_sum_like_fsum(2.0 * np.exp(-math.pi * rng.uniform(0.0, 40.0, size)))
        _assert_partials_sum_like_fsum(np.ldexp(rng.uniform(0.5, 1.0, size),
                                                rng.integers(-1073, 3, size)))


def test_half_space_budget_matches_full_space():
    # the centred half-space must raise at exactly the budget where the full
    # enumeration does: the largest level total of the reference's full space
    rng = random.Random(13)
    for n in (1, 2, 3):
        g = _random_gram(rng, n)
        U = cholesky(g).T
        zero = np.zeros(n)
        for bound in map(_ball, (1.0, 6.5, 15.0)):
            need = max(_reference_fincke_pohst(U, zero, bound, half=False)[2])
            with pytest.raises(EnumerationBudgetExceeded):
                _fincke_pohst(U, zero, bound, need - 1)
            _fincke_pohst(U, zero, bound, need)


def test_theta_peak_memory_is_bounded():
    # about 1.15 M points; the whole point set alone would take over 25 MB
    g = [[1.92e-5, 3.84e-6], [3.84e-6, 2.88e-5]]
    theta0 = centred_theta_bound(g, 1e-9)
    for center in (None, [0.3, -0.2]):
        tracemalloc.start()
        try:
            res = theta_sum(g, center, 1e-9, theta0=theta0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points_enumerated >= 1_000_000
        assert peak < 16 * 2**20
