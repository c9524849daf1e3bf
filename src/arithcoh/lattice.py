"""Positive-definite forms, lattice point enumeration, Gaussian theta sums.

The central operation is ``theta_sum``: for a positive-definite Gram matrix
G and a shift c it evaluates

    sum over v in Z^n of exp(-pi * (v+c)^T G (v+c))

by enumerating every lattice point below an explicit radius and bounding the
discarded tail rigorously, so the returned value always carries a certified
error.  All arithmetic is IEEE-754 binary64.  The terms are added by
math.fsum, which is correctly rounded: the value depends only on the exact
sum of what it is given, not on its order, so it needs no sort, and repeated
calls are bit-identical.  A large block of terms reaches fsum as its exact
per-exponent partial sums (_exact_partials), a few floats per binary
exponent instead of one per point; their exact sum is that of the terms, so
the value is the same float either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EnumerationBudgetExceeded,
    NotPositiveDefinite,
    ToleranceUnreachable,
)

DEFAULT_BUDGET = 10**8

_SYM_RTOL = 1e-12
# relative slack on the enumeration boundary; the tail bound is evaluated at
# R*(1 - 2*slack) so points lost to roundoff at the boundary stay covered
_BOUNDARY_SLACK = 1e-9
# candidates of the last enumeration level expanded at a time; bounds the
# memory of one theta sum whatever its point count; _exact_partials needs
# it to be at most 2^26
_BLOCK_POINTS = 1 << 15
# blocks of more terms than this reach fsum as exact per-exponent partials:
# binning costs 10-20 us per call at any size, tolist + fsum about 50 ns per
# term, and the two cross between 300 and 1,000 terms
_BIN_MIN = 1 << 10
_U = 2.0 ** -53  # unit roundoff of binary64
# terms of the one-dimensional Gaussian sum taken exactly before its
# integral tail bound
_LINE_SUM_TERMS = 8
# splits eps of the tail bound that theta_sum chooses from (see there), in
# ascending order; eps = 1/2 gives the radius of the fixed half split, the
# smaller ones the shorter radii of tight tolerances
_TAIL_SPLITS = (0.0625, 0.125, 0.25, 0.5)


def _as_matrix(gram) -> np.ndarray:
    if isinstance(gram, GramMatrix):
        return gram.entries
    return np.asarray(gram, dtype=float)


def cholesky(gram) -> np.ndarray:
    """Lower-triangular L with L L^T = gram, from LAPACK's potrf.

    Raises NotPositiveDefinite when gram is not a square matrix or the
    factorization fails or leaves a non-finite entry, which is how invalid
    metrics and rank-deficient ideal bases surface.
    """
    try:
        L = np.linalg.cholesky(_as_matrix(gram))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from None
    if not np.all(np.isfinite(L)):
        raise NotPositiveDefinite("Cholesky factor has a non-finite entry")
    return L


def _log_covolume(L: np.ndarray) -> float:
    """log sqrt(det G) = sum of log L_ii, for the Cholesky factor L of G."""
    return math.fsum(math.log(d) for d in np.diag(L).tolist())


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite matrix of inner products.

    factor is the Cholesky factor of entries that validation computes; the
    theta sum enumerates with it rather than factoring again.  log_covolume
    is log sqrt(det), from that factor.
    """

    entries: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    log_covolume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise NotPositiveDefinite("Gram matrix must be square with n >= 1")
        if not np.all(np.isfinite(m)):
            raise NotPositiveDefinite("Gram matrix has a non-finite entry")
        scale = float(np.max(np.abs(m)))
        if scale == 0.0 or float(np.max(np.abs(m - m.T))) > _SYM_RTOL * scale:
            raise NotPositiveDefinite("matrix is not symmetric to 1e-12 relative")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        L = cholesky(m)
        L.setflags(write=False)
        object.__setattr__(self, "factor", L)
        object.__setattr__(self, "log_covolume", _log_covolume(L))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EmbeddedLattice:
    """A full-rank lattice given by basis row vectors in a metrized R^n.

    The coordinates already absorb the metric, so the plain dot product of
    two basis rows is their inner product and gram = basis @ basis.T.  The
    covolume is kept as its log, the sum of log diag of the Cholesky factor:
    a divisor metric scales it by exp(-deg D), which leaves the float range
    long before the metric does.
    """

    basis: np.ndarray
    gram: GramMatrix = field(init=False)

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise NotPositiveDefinite("lattice basis must be a square matrix")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "gram", GramMatrix(b @ b.T))

    @property
    def log_covolume(self) -> float:
        return self.gram.log_covolume

    @property
    def covolume(self) -> float:
        return math.exp(self.log_covolume)


@dataclass(frozen=True)
class ThetaResult:
    """Value of a theta sum together with its certified tail bound."""

    value: float
    tail_bound: float
    points_enumerated: int
    radius: float


def _level(U: np.ndarray, center: np.ndarray, bound: float, V: np.ndarray,
           T: np.ndarray, i: int, budget: int, half: bool):
    """Candidate values lo .. lo + counts - 1 of coordinate i below each row of V.

    Also returns s, the part of (U (v + center))_i fixed by the row, and the
    candidate total.  In half-space mode row 0 is the all-zero tail: it keeps
    v_i >= 0, and v_0 >= 1 at the last level, so exactly one of each pair
    +-v != 0 is enumerated.  The budget applies to the full space, whose
    level holds 2 * total - 1 candidates above the last level (the zero row
    keeps its v_i = 0) and 2 * total + 1 at it (the zero vector comes back).
    """
    s = (V + center[i + 1:]) @ U[i, i + 1:]
    rad = np.sqrt(np.maximum(bound - T, 0.0))
    uii = U[i, i]
    lo = np.ceil((-rad - s) / uii - center[i] - _BOUNDARY_SLACK).astype(np.int64)
    hi = np.floor((rad - s) / uii - center[i] + _BOUNDARY_SLACK).astype(np.int64)
    if half:
        lo[0] = max(lo[0], 0 if i else 1)
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    if (2 * total + (1 if i == 0 else -1) if half else total) > budget:
        raise EnumerationBudgetExceeded(
            f"enumeration needs more than {budget} points; the metric is too flat")
    return s, lo, counts, total


def _expand(s, lo, counts, total: int, T, uii, ci, bound: float):
    """Every candidate of one level: its v_i, its partial Q and the mask of
    those inside the ball.  Candidates come row by row, in order."""
    starts = np.cumsum(counts) - counts
    vi = np.arange(total) + np.repeat(lo - starts, counts)
    Tn = np.repeat(T, counts) + (uii * (vi + ci) + np.repeat(s, counts)) ** 2
    return vi, Tn, Tn <= bound


def _fincke_pohst(U: np.ndarray, center: np.ndarray, radius: float, budget: int,
                  half: bool = False):
    """Vectorized Fincke-Pohst enumeration of v in Z^n with Q(v + center) <= radius.

    Q(x) = ||U x||^2 with U upper triangular.  Coordinates are assigned from
    the last down.  Coordinates n-1 .. 1 are expanded in full into V (one
    row per partial assignment, v_1 first) and T (its partial Q).  The last
    coordinate, which holds almost all of the points, is expanded lazily.
    Returns V and a generator of blocks (r0, c, v0, q, keep) of at most
    _BLOCK_POINTS candidates: rows r0, r0 + 1, ... of V contribute c[k]
    candidates each, v0 and q are their last coordinate and Q, and keep
    marks those inside the ball.  Every budget check runs before this
    returns, so no level is allocated over budget.

    Points whose Q lands within roundoff of the boundary may be included;
    the caller's tail bound is evaluated at a slightly smaller radius so
    exclusions stay covered.
    """
    n = U.shape[0]
    bound = radius + _BOUNDARY_SLACK * max(radius, 1.0)
    V = np.zeros((1, 0), dtype=np.int64)
    T = np.zeros(1)
    for i in range(n - 1, 0, -1):
        s, lo, counts, total = _level(U, center, bound, V, T, i, budget, half)
        vi, Tn, keep = _expand(s, lo, counts, total, T, U[i, i], center[i], bound)
        rows = np.repeat(np.arange(counts.size), counts)[keep]
        V = np.column_stack([vi[keep], V[rows]])
        T = Tn[keep]
    s, lo, counts, total = _level(U, center, bound, V, T, 0, budget, half)
    return V, _last_level(s, lo, counts, total, T, U[0, 0], center[0], bound)


def _last_level(s, lo, counts, total: int, T, uii, ci, bound: float):
    # the blocks of _fincke_pohst, split by candidate index, so that one row
    # may span several blocks
    ends = np.cumsum(counts)
    for a in range(0, total, _BLOCK_POINTS):
        b = min(a + _BLOCK_POINTS, total)
        r0 = int(np.searchsorted(ends, a, side="right"))
        r1 = int(np.searchsorted(ends, b - 1, side="right")) + 1
        start = ends[r0:r1] - counts[r0:r1]
        skip = np.maximum(a - start, 0)
        c = np.minimum(b - start, counts[r0:r1]) - skip
        yield (r0, c) + _expand(s[r0:r1], lo[r0:r1] + skip, c, b - a, T[r0:r1], uii, ci, bound)


def _enumerate_with_norms(g: np.ndarray, center: np.ndarray, radius: float,
                          budget: int) -> tuple[np.ndarray, np.ndarray]:
    """All v in Z^n with Q(v + center) <= radius, with the Q values."""
    V, blocks = _fincke_pohst(cholesky(g).T, center, radius, budget)
    points = [np.zeros((0, V.shape[1] + 1), dtype=np.int64)]
    norms = [np.zeros(0)]
    for r0, c, v0, q, keep in blocks:
        rows = r0 + np.repeat(np.arange(c.size), c)[keep]
        points.append(np.column_stack([v0[keep], V[rows]]))
        norms.append(q[keep])
    return np.concatenate(points), np.concatenate(norms)


def enumerate_below(gram, center, radius: float,
                    budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Integer vectors v with (v+center)^T gram (v+center) <= radius.

    Returns each vector exactly once, lexicographically sorted.
    """
    g = _as_matrix(gram)
    n = g.shape[0]
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(n)
    V, _ = _enumerate_with_norms(g, c, float(radius), budget)
    order = np.lexsort(tuple(V[:, k] for k in range(n - 1, -1, -1)))
    return V[order]


def _certified_lambda_min(L: np.ndarray) -> float:
    """Rigorous lower bound on the smallest eigenvalue of G from its computed
    Cholesky factor L.

    Let u = 2^-53 and let X be the inverse of L computed by forward
    substitution, column by column.  Error analysis of both steps (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thms 10.3 and
    8.5, with gamma_k = ku / (1 - ku) <= 2ku) gives:

    - L L^T = G + E with |E| <= 2(n+1)u |L| |L|^T, so
      ||E||_2 <= 2(n+1)u ||L||_F^2.
    - Column j of X solves (L + F_j) x_j = e_j with |F_j| <= 2nu |L|, so
      R = I - L X has ||R||_2 <= ||R||_F <= r = 2nu ||L||_F ||X||_F.  When
      r < 1, L^-1 = X (I - R)^-1 gives ||L^-1||_2 <= ||X||_2 / (1 - r).
    - ||X||_2^2 is the spectral radius of X^T X (about G^-1), so it is at
      most N = ||X^T X||_inf.  The computed X^T X is off by at most
      2nu |X|^T |X| entrywise, and each row of |X|^T |X| sums to at most
      n ||X||_F^2 (Cauchy-Schwarz), so N <= ||fl(X^T X)||_inf + 2n^2 u ||X||_F^2.

    By Weyl's inequality, lambda_min(G) >= lambda_min(L L^T) - ||E||_2 =
    1 / ||L^-1||_2^2 - ||E||_2 >= (1 - r)^2 / N - 2(n+1)u ||L||_F^2.

    L comes from LAPACK's potrf (OpenBLAS under numpy), and Thm 10.3 covers
    its blocked order, FMA and reciprocal pivots: Lemma 8.4 holds for any
    order of evaluation, an FMA only drops roundings, and a reciprocal adds
    one rounding to an off-diagonal entry of row i < n, within gamma_{n+1}.

    Rounding margin: each norm above is a sum of products in which each
    term meets at most 2n^2 roundings, so its exact value is at most
    (1 + 8n^2 u) times the computed one.  The code moves every quantity,
    and the result, by a factor 1 +- 16n^2 u against itself, which also
    covers the few roundings of the formula.  The bound is within a factor
    n of lambda_min (exact for n = 1 up to the margin) until the condition
    number nears 1/u, where it stops being positive.
    """
    l = L.tolist()
    n = len(l)
    x = [[0.0] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = 1.0 / l[j][j]
        for i in range(j + 1, n):
            x[i][j] = -sum(l[i][k] * x[k][j] for k in range(j, i)) / l[i][i]
    # X is lower triangular: (X^T X)_ij sums over k >= max(i, j)
    inv = [[sum(x[k][i] * x[k][j] for k in range(max(i, j), n)) for j in range(n)]
           for i in range(n)]
    up = 1.0 + 16 * n * n * _U
    down = 1.0 - 16 * n * n * _U
    lf2 = up * sum(v * v for row in l for v in row)
    xf2 = up * sum(v * v for row in x for v in row)
    big_n = up * (max(sum(abs(v) for v in row) for row in inv) + up * (2 * n * n * _U) * xf2)
    r = up * (2 * n * _U) * math.sqrt(lf2 * xf2)
    inv_term = down * (1.0 - r) ** 2 / big_n
    err_term = up * (2 * (n + 1) * _U) * lf2
    lam = down * (inv_term - err_term)
    if r >= 0.5 or not lam > 0.0:
        raise ToleranceUnreachable(
            f"no positive certified bound on the smallest eigenvalue; the Gram matrix is "
            f"too ill-conditioned: n = {n}, ||L||_F^2 = {lf2:.6e}, r = {r:.3e}, "
            f"(1 - r)^2 / N = {inv_term:.6e} against 2(n+1)u ||L||_F^2 = {err_term:.6e}")
    return lam


def _gauss_line_sum(a: float) -> float:
    """Upper bound on S(a) = sum over k in Z of exp(-a k^2), for a > 0.

    theta_sum takes it at a = pi * eps * lam, for its tail split eps and
    the certified smallest eigenvalue lam.  The terms decrease in |k|, so
    exp(-a k^2) is at most the integral of exp(-a t^2) over [k - 1, k] for
    every k >= 1, and with K = _LINE_SUM_TERMS

        sum_{k>=1} exp(-a k^2) <= sum_{k=1}^{K} exp(-a k^2) + int_K^inf exp(-a t^2) dt
                                = sum_{k=1}^{K} exp(-a k^2) + (1/2) sqrt(pi/a) erfc(K sqrt(a)).

    The integral exceeds the terms it replaces by less than exp(-a K^2) <= 1,
    so the bound stays close to S both where the terms fall fast (that
    excess vanishes) and where they do not (S is about sqrt(pi/a) and large).
    Rounding moves the result by a few ulps, far inside the +2 slack of the
    tail formula in theta_sum.
    """
    head = math.fsum(math.exp(-a * k * k) for k in range(1, _LINE_SUM_TERMS + 1))
    tail = 0.5 * math.sqrt(math.pi / a) * math.erfc(_LINE_SUM_TERMS * math.sqrt(a))
    return 1.0 + 2.0 * (head + tail)


def _exact_partials(terms: np.ndarray) -> np.ndarray:
    """A few floats per binary exponent whose exact sum is that of terms.

    Every term must lie in [0, 4); theta terms do, as an exp(-pi Q) is at
    most 1 and a half-space sum doubles it.  frexp writes a term as m * 2^e
    with m in [1/2, 1), or m = e = 0 for a zero, so e <= 2 and the bin
    k = 2 - e is >= 0.  a = m * 2^27 lies in [2^26, 2^27), and
    (a + 2^52) - 2^52 rounds it to an integer hi; lo = a - hi is exact,
    |lo| <= 1/2, and a multiple of 2^-26, the ulp of a.  The term is
    (hi + lo) * 2^(-25-k).

    Every step is exact (Demmel and Hida, SISC 2003, bin by exponent):

    - bincount adds the his and the los of each bin.  An H partial is an
      integer below count * 2^27, and an L partial is a multiple of 2^-26
      below count / 2 in size.  While count <= 2^26 both fit in 53 bits, so
      every addition is exact in whatever order bincount makes it.
      _BLOCK_POINTS <= 2^26 keeps count there.
    - Each part of a term is a multiple of 2^-1074, the least subnormal.
      For e >= -1047, hi * 2^(e-27) is one because 2^(e-27) is, and
      lo * 2^(e-27) is the term minus it.  For e < -1047 the term is a
      multiple of 2^-1074 below 2^-1048, so a = term * 2^(27-e) is an
      integer: hi = a and lo = 0.
    - ldexp is exact.  Every partial times its scale 2^(-25-k) is a sum of
      such parts, so a multiple of 2^-1074, and with count <= 2^15 it has
      at most 42 significant bits.  Such a number is a float, subnormal or
      not.

    So the returned floats add up exactly to the terms, and math.fsum,
    correctly rounded, returns the same float for either.
    """
    a, e = np.frexp(terms)
    k = np.subtract(2, e, out=e)
    a *= 2.0 ** 27
    hi = a + 2.0 ** 52
    hi -= 2.0 ** 52
    a -= hi  # now lo
    H = np.bincount(k, weights=hi)
    L = np.bincount(k, weights=a)
    shift = -25 - np.arange(H.size)
    return np.ldexp(np.concatenate([H, L]), np.concatenate([shift, shift]))


def _log_tail(radius: float, log_per_dim: float, n: int, eps: float) -> float:
    """log of exp(-pi (1 - eps) radius) (S + 2)^n, with log_per_dim = log(S + 2)."""
    return -math.pi * (1.0 - eps) * radius + n * log_per_dim


def _tail_split(lam: float, n: int, log_tol: float) -> tuple[float, float, float]:
    """(radius, eps, log(S + 2)) for the eps of _TAIL_SPLITS whose radius
    R(eps) + 1/2 is smallest (see theta_sum); the smaller eps on a tie.

    S >= 1, so the radius computed with log 3 in place of log(S + 2) is a
    lower bound, and a split whose bound does not beat the best radius so
    far is skipped without its line sum; the choice is that of a full scan.
    """
    best = (math.inf, 0.0, 0.0)
    for eps in _TAIL_SPLITS:
        scale = math.pi * (1.0 - eps)
        if (n * math.log(3.0) - log_tol) / scale + 0.5 >= best[0]:
            continue
        log_per_dim = math.log(_gauss_line_sum(math.pi * eps * lam) + 2.0)
        radius = (n * log_per_dim - log_tol) / scale + 0.5
        if radius < best[0]:
            best = (radius, eps, log_per_dim)
    return best


def theta_sum(gram, center, tol: float,
              budget: int = DEFAULT_BUDGET) -> ThetaResult:
    """Gaussian theta sum over Z^n + center with tail certified below tol.

    The tail bound splits each term.  For eps in (0, 1) and Q > R,
    exp(-pi Q) = exp(-pi (1 - eps) Q) exp(-pi eps Q) <= exp(-pi (1 - eps) R)
    exp(-pi eps Q), so the tail over Q > R is at most exp(-pi (1 - eps) R)
    times the whole sum of exp(-pi eps Q(v + c)) (Banaszczyk, Math. Ann. 296,
    1993).  With lam <= lambda_min(G), Q(x) >= lam |x|^2 and that sum is at
    most the product over the coordinates of sum over k of
    exp(-a (k + c_i)^2), a = pi eps lam.  With |c_i| <= 1/2 the shifted
    terms pair off with the centred ones k >= 0 on each side, so each factor
    is at most S(a) + 2, for any a, where S is the centred sum bounded by
    _gauss_line_sum.  So

        tail <= exp(-pi (1 - eps) R) (S(pi eps lam) + 2)^n,

    which meets tol at R(eps) = (n log(S + 2) - log tol) / (pi (1 - eps));
    the radius is R(eps) + 1/2, at least 1, for the eps of _TAIL_SPLITS
    with the smallest such radius.  A small eps shortens the radius when
    -log tol dominates, a larger one when S is large (a flat lattice).  The
    choice depends on lam, n and tol only, so repeated calls stay
    bit-identical, and eps = 1/2 among the candidates keeps the radius at
    most that of the fixed half split.  The 1/2 margin covers the boundary
    slack of the enumeration, at whose smaller radius the tail is bounded.
    The radius is also at least Q(c) for the shift c reduced into
    [-1/2, 1/2]^n, so a shifted sum reaches the point v = 0 and its value
    is positive unless that term underflows; a sum far from the lattice
    would otherwise come out as 0, within tol but useless as a ratio.

    One Cholesky factor serves both that eigenvalue bound and the
    enumeration: a GramMatrix brings the one its validation computed, and
    its log-covolume for the point estimate; a raw array is factored here.

    A centred sum (center in Z^n) enumerates one half-space: the zero vector
    and, of each pair +-v, the v whose first nonzero coordinate in the
    enumeration order v_{n-1}, ..., v_0 is positive.  The value is fsum of 1
    and twice each term.  This equals the sum over the whole ball exactly.
    With a zero centre every step of the recurrence maps v to -v by an exact
    negation: the candidate ranges and the boundary test are symmetric, so
    the ball holds -v exactly when it holds v, and Q(-v) and Q(v) are the
    same float.  Doubling is exact, and fsum is correctly rounded, so any
    multiset of terms with the same exact sum gives the same result.
    points_enumerated still counts the ball, 1 + 2h.

    The last coordinate is expanded and summed in blocks of at most
    _BLOCK_POINTS candidates.  All blocks feed one fsum, so the sum stays
    correctly rounded over every term, and the memory of a call stays
    bounded whatever its point count.  A block of more than _BIN_MIN terms
    goes in as its exact per-exponent partials (_exact_partials), two
    floats per binary exponent present, about a hundred for a block of
    32 k theta terms.  They add up exactly to its terms, so the value is
    bit-identical, and tolist + fsum, the costly step per float, sees far
    fewer floats.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(gram, GramMatrix):
        L, log_covolume = gram.factor, gram.log_covolume
    else:
        L = cholesky(gram)
        log_covolume = _log_covolume(L)
    n = L.shape[0]
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(n)
    c = c - np.round(c)  # theta is Z^n-periodic in the shift
    half = not c.any()
    lam = _certified_lambda_min(L)
    log_tol = math.log(tol)
    radius, eps, log_per_dim = _tail_split(lam, n, log_tol)
    radius = max(1.0, radius, 0.0 if half else float(np.sum((L.T @ c) ** 2)))
    safe_radius = radius * (1.0 - 2.0 * _BOUNDARY_SLACK) - 1e-12
    log_tail = _log_tail(safe_radius, log_per_dim, n, eps)
    if not log_tail <= log_tol:
        raise ToleranceUnreachable(
            f"tail bound exp({log_tail:.6g}) at radius {radius:.6g} exceeds tol "
            f"{tol:.3e}: split eps = {eps}, n = {n}, log(S + 2) = {log_per_dim:.6g}")
    tail = math.exp(log_tail)
    # the expected point count, ellipsoid volume over covolume, in logs
    log_points = 0.5 * n * math.log(math.pi * radius) - math.lgamma(0.5 * n + 1) - log_covolume
    if log_points > math.log(2 * budget):  # an int budget may exceed the float range
        raise EnumerationBudgetExceeded(
            f"estimated point count exceeds the budget of {budget}")
    _, blocks = _fincke_pohst(L.T, c, radius, budget, half)
    kept = 0

    def term_lists():
        nonlocal kept
        if half:
            yield [1.0]  # the zero vector
        for *_, q, keep in blocks:
            terms = np.exp(-math.pi * q[keep])
            kept += terms.size
            if half:
                terms *= 2.0
            yield (_exact_partials(terms) if terms.size > _BIN_MIN else terms).tolist()

    value = math.fsum(itertools.chain.from_iterable(term_lists()))
    points = 2 * kept + 1 if half else kept
    return ThetaResult(value=value, tail_bound=tail,
                       points_enumerated=points, radius=radius)


def dual_lattice(lat: EmbeddedLattice) -> EmbeddedLattice:
    """Dual basis under the ambient pairing: <b_i, b*_j> = delta_ij.

    The dual Gram matrix is the inverse of the original and the covolumes
    multiply to 1.
    """
    return EmbeddedLattice(np.linalg.inv(lat.basis).T)


def lll_reduce_rows(basis, delta: float = 0.75) -> np.ndarray:
    """LLL-reduce the row basis (integer row operations only, same lattice).

    Skew bases of dense ideal lattices make the Gram matrix ill-conditioned,
    which hurts both the certified tail radius and the enumeration; reducing
    first keeps them proportionate.  The iteration cap is a safety valve: an
    unreduced basis is still a correct basis.
    """
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    if n < 2:
        return b

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
                # b* stays; row k of mu moves by q times row j (unit diagonal)
                b[k] = b[k] - q * b[j]
                mu[k, :j + 1] -= q * mu[j, :j + 1]
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b
