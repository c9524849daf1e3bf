"""Exact integer and rational matrix helpers.

Everything here runs on Python ints / Fractions so ideal arithmetic and
group quotients stay exact.  Matrices are lists of row lists; lattices are
(rows, den) pairs meaning the Z-span of rows divided by den.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def exact_int(x) -> int:
    """int(x) for a value that is an integer; ValueError where int() would
    truncate (1.5), fail to convert (inf) or convert a string ("3")."""
    try:
        n = int(x)
    except OverflowError as exc:
        raise ValueError(f"{x!r} is not an integer") from exc
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the Z-span of ``rows``.

    Returns the unique basis that is upper triangular with positive pivots
    and with the entries above each pivot reduced into [0, pivot).  Zero
    rows are dropped, so the result has one row per pivot column.
    """
    mat = [[int(x) for x in r] for r in rows]
    if not mat:
        raise ValueError("empty row list")
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


def det_int(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in r] for r in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inv_fraction(mat) -> list[list[Fraction]]:
    """Exact inverse of a square matrix with int/Fraction entries."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _content(rows: list[list[int]], den: int) -> int:
    g = den
    for r in rows:
        for x in r:
            g = gcd(g, x)
    return max(g, 1)


def lattice_normalize(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Canonical (HNF rows, denominator) form of a full-rank rational lattice."""
    basis = hnf_rows(rows)
    if len(basis) != len(rows[0]):
        raise ValueError("lattice basis is not full rank")
    g = _content(basis, den)
    return [[x // g for x in r] for r in basis], den // g


def fraction_rows_to_lattice(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    int_rows = [[int(x * den) for x in r] for r in rows]
    return lattice_normalize(int_rows, den)


def lattice_dual(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Dual lattice under the standard dot product: {y : y.x in Z for x in L}."""
    inv = inv_fraction(rows)
    # L = rowspan(rows)/den, so L* has basis den * inv(rows)^T
    n = len(rows)
    dual = [[den * inv[j][i] for j in range(n)] for i in range(n)]
    return fraction_rows_to_lattice(dual)


def lattice_sum(a: tuple[list[list[int]], int], b: tuple[list[list[int]], int]):
    ra, da = a
    rb, db = b
    d = da * db // gcd(da, db)
    stacked = [[x * (d // da) for x in r] for r in ra] + [[x * (d // db) for x in r] for r in rb]
    return lattice_normalize(stacked, d)


def lattice_intersection(a, b):
    return lattice_dual(*lattice_sum(lattice_dual(*a), lattice_dual(*b)))


def diagonalize_int(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, U) with U * mat * V diagonal for some untracked unimodular
    V; only the left transform U is needed to present Z^m / colspan(mat) as a
    product of cyclic groups via x -> (U x) mod diag.
    """
    a = [[int(x) for x in r] for r in mat]
    m = len(a)
    k = len(a[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    t = 0
    while t < min(m, k):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, k) if a[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    if a[i][t]:  # remainder is smaller; promote it to the pivot
                        a[t], a[i] = a[i], a[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            for j in range(t + 1, k):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return [a[i][i] for i in range(min(m, k))], U
