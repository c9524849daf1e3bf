"""Exact integer and rational matrix helpers.

Matrices are lists of row lists; lattices are (rows, den) pairs meaning the
Z-span of rows divided by den.  Ideal arithmetic (numfield) runs on Python
ints only: hnf_rows and lattice_normalize give the canonical basis of a
product or a dual, triangular_adjugate inverts an HNF basis by
back-substitution, and adjugate and det_int invert a field's trace form
once.  diagonalize_int presents the finite group quotients of the ghost
lab.  The Fraction and rational-lattice helpers at the end serve only the
benchmark's trace hooks and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


def exact_int(x) -> int:
    """int(x) for a value that is an integer; ValueError where int() would
    truncate (1.5), fail to convert (inf) or convert a string ("3") or a
    bool (True)."""
    try:
        n = int(x)
    except OverflowError as exc:
        raise ValueError(f"{x!r} is not an integer") from exc
    if isinstance(x, bool) or n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for (a, b) != (0, 0)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the Z-span of ``rows``.

    Returns the unique basis that is upper triangular with positive pivots
    and with the entries above each pivot reduced into [0, pivot).  Zero
    rows are dropped, so the result has one row per pivot column.

    Each column is cleared by extended-gcd steps (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4): the pivot row p and a row r
    with entries a, b in the column become s*p + t*r and (a/g)*r - (b/g)*p,
    with g = s*a + t*b = gcd(a, b), a unimodular change that leaves g in p and
    0 in r.  Where a divides b this is the single subtraction r - (b/a)*p.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        raise ValueError("empty row list")
    out: list[list[int]] = []
    for col in range(len(mat[0])):
        pivot = None
        rest = []
        for r in mat:
            b = r[col]
            if not b:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            a = pivot[col]
            if b % a:
                g, s, t = _xgcd(a, b)
                ag, bg = a // g, b // g
                pivot, r = ([s * x + t * y for x, y in zip(pivot, r)],
                            [ag * y - bg * x for x, y in zip(pivot, r)])
            else:
                q = b // a
                r = [y - q * x for x, y in zip(pivot, r)]
            if any(r):
                rest.append(r)
        mat = rest
        if pivot is None:
            continue
        p = pivot[col]
        if p < 0:
            pivot, p = [-x for x in pivot], -p
        for i, r in enumerate(out):
            q = r[col] // p
            if q:
                out[i] = [x - q * y for x, y in zip(r, pivot)]
        out.append(pivot)
    return out


def triangular_adjugate(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """(adj A, det A) for an upper-triangular integer A with nonzero pivots.

    adj A = det(A) A^-1 is upper triangular with integer entries; row i
    follows from the rows below it by back-substitution in A X = det(A) I,
    and each division by the pivot a_ii is exact.
    """
    n = len(rows)
    det = prod(r[i] for i, r in enumerate(rows))
    adj = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        a = rows[i]
        adj[i][i] = det // a[i]
        for j in range(i + 1, n):
            adj[i][j] = -sum(a[k] * adj[k][j] for k in range(i + 1, j + 1)) // a[i]
    return adj, det


def adjugate(mat: list[list[int]]) -> list[list[int]]:
    """Adjugate of a square integer matrix, from its cofactors."""
    n = len(mat)

    def minor(i, j):
        return [r[:j] + r[j + 1:] for k, r in enumerate(mat) if k != i]

    return [[(-1) ** (i + j) * det_int(minor(j, i)) for j in range(n)] for i in range(n)]


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


def _content(rows: list[list[int]], den: int) -> int:
    return max(gcd(den, *(x for r in rows for x in r)), 1)


def lattice_normalize(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Canonical (HNF rows, denominator) form of a full-rank rational lattice."""
    basis = hnf_rows(rows)
    if len(basis) != len(rows[0]):
        raise ValueError("lattice basis is not full rank")
    g = _content(basis, den)
    if g == 1:
        return basis, den
    return [[x // g for x in r] for r in basis], den // g


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


# ---------------------------------------------------------------------------
# Rational-lattice helpers that no ideal operation calls.  The benchmark's
# trace (bench/spans.py) wraps inv_fraction, fraction_rows_to_lattice and
# lattice_intersection by name, and the tests use them as oracles.


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
