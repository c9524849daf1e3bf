"""Exact linear algebra helpers: HNF, determinants, lattices, diagonalization."""

import random
from fractions import Fraction

import pytest

from arithcoh.intmat import (
    adjugate,
    det_int,
    diagonalize_int,
    hnf_rows,
    inv_fraction,
    lattice_dual,
    lattice_intersection,
    lattice_normalize,
    lattice_sum,
    triangular_adjugate,
)

from conftest import hnf_sorting_loop


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def matmul_int(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_hnf_known_case():
    assert hnf_rows([[2, 0], [1, 1]]) == [[1, 1], [0, 2]]
    assert hnf_rows([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_shape_and_invariance():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        while True:
            base = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if det_int(base) != 0:
                break
        h = hnf_rows(base)
        # upper triangular, positive pivots, entries above pivots reduced
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
            for k in range(i):
                assert 0 <= h[k][i] < h[i][i]
        # HNF is a lattice invariant: unimodular row mixes do not change it
        mixed = matmul_int(random_unimodular(rng, n), base)
        assert hnf_rows(mixed) == h
        assert abs(det_int(h)) == abs(det_int(base))


def test_hnf_equals_the_sorting_loop():
    # 2,000 random matrices of 1 to 16 rows and 1 to 4 columns, small and
    # large entries, with zero rows and rank-deficient ones mixed in
    rng = random.Random(12)
    kinds = set()
    for _ in range(2000):
        n, m = rng.randint(1, 4), rng.randint(1, 16)
        k = rng.choice([1, 3, 30, 10**6])
        rows = [[rng.randint(-k, k) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [0] * n
        if rng.random() < 0.2:  # one column a multiple of another
            j, j2 = rng.randrange(n), rng.randrange(n)
            q = rng.randint(-3, 3)
            rows = [r[:j2] + [q * r[j]] + r[j2 + 1:] for r in rows]
        h = hnf_rows(rows)
        assert h == hnf_sorting_loop(rows), rows
        full = len(h) == n
        kinds.add((full, any(not any(r) for r in rows)))
        if full:
            assert lattice_normalize(rows, 1) == (h, 1)
        else:
            with pytest.raises(ValueError, match="not full rank"):
                lattice_normalize(rows, 1)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert hnf_rows([[0, 0], [0, 0]]) == []


def test_triangular_adjugate_and_adjugate():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = det_int(mat)
        scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert matmul_int(mat, adjugate(mat)) == scalar
        h = hnf_rows(mat)
        if len(h) == n:
            adj, d = triangular_adjugate(h)
            assert d == abs(det) and d == det_int(h)
            assert matmul_int(h, adj) == matmul_int(adj, h) == \
                [[d * int(i == j) for j in range(n)] for i in range(n)]


def test_det_matches_cofactor_expansion():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        assert det_int([[a, b], [c, d]]) == a * d - b * c


def test_inv_fraction_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        while True:
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if det_int(m) != 0:
                break
        inv = inv_fraction(m)
        prod = [[sum(Fraction(m[i][k]) * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    with pytest.raises(ZeroDivisionError, match="singular"):
        inv_fraction([[1, 2], [2, 4]])


def test_lattice_dual_involution():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.choice([2, 3])
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if det_int(rows) != 0:
                break
        lat = lattice_normalize(rows, rng.randint(1, 5))
        assert lattice_dual(*lattice_dual(*lat)) == lat


def test_lattice_intersection_scaled_grids():
    two = lattice_normalize([[2, 0], [0, 2]], 1)
    three = lattice_normalize([[3, 0], [0, 3]], 1)
    assert lattice_intersection(two, three) == lattice_normalize([[6, 0], [0, 6]], 1)
    assert lattice_sum(two, three) == lattice_normalize([[1, 0], [0, 1]], 1)


def test_lattice_intersection_membership():
    rng = random.Random(23)

    def contains(lat, vec):
        rows, den = lat
        inv = inv_fraction(rows)
        coeffs = [sum(Fraction(vec[k] * den) * inv[k][j] for k in range(len(vec)))
                  for j in range(len(vec))]
        return all(c.denominator == 1 for c in coeffs)

    for _ in range(10):
        rows_a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        rows_b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if det_int(rows_a) == 0 or det_int(rows_b) == 0:
            continue
        A = lattice_normalize(rows_a, rng.randint(1, 3))
        B = lattice_normalize(rows_b, rng.randint(1, 3))
        C = lattice_intersection(A, B)
        for _ in range(25):
            vec = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(2)]
            assert contains(C, vec) == (contains(A, vec) and contains(B, vec))


def test_diagonalize_int_properties():
    # U must be unimodular, and U * mat must have the same column span as the
    # rectangular diagonal matrix built from the reported diagonal
    rng = random.Random(31)
    for _ in range(60):
        m = rng.choice([1, 2, 3])
        k = m + rng.choice([0, 1, 2])
        mat = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
        diag, U = diagonalize_int(mat)
        assert abs(det_int(U)) == 1
        assert all(d >= 0 for d in diag)
        prod = matmul_int(U, mat)
        rect = [[diag[i] if (j == i and i < len(diag)) else 0 for j in range(k)]
                for i in range(m)]
        cols_prod = [list(col) for col in zip(*prod) if any(col)]
        cols_rect = [list(col) for col in zip(*rect) if any(col)]
        if cols_prod or cols_rect:
            assert hnf_rows(cols_prod) == hnf_rows(cols_rect)
