"""Positive-definite forms, lattice point enumeration, Gaussian theta sums.

The central operation is ``theta_sum``: for a positive-definite Gram matrix
G and a shift c it evaluates

    sum over v in Z^n of exp(-pi * (v+c)^T G (v+c))

by enumerating every lattice point of a ball and bounding the discarded tail
rigorously, so the returned value always carries a certified error.  The
ball's radius is one closed form in n and tol, from one split of
Banaszczyk's tail bound, and theta_sum computes the bound on Q that the
enumeration tests once, from it.  All arithmetic is IEEE-754 binary64.  The
enumeration (Fincke and Pohst, Math. Comp. 44, 1985), whose one consumer
is theta_sum, walks one half-space at a zero centre and the full space at
any other.  It holds its candidate coordinates as exact float integers,
below 2^52 in size, so every candidate v_i and every v_i + c_i is the float
an integer type would give.  Its levels run in Python scalars while they
hold only the zero row, the one partial assignment v = 0 at a zero centre,
as every level of a one-point sum does, and in arrays from the first level
that holds more.  Each level is masked to the ball only when some candidate
lies outside it.  The last level, which holds almost all of the points,
comes in blocks, and each block's Q is computed once, in place, in one float
buffer.  The terms are added by math.fsum, which is correctly rounded: the
value depends only on the exact sum of what it is given, not on its order,
so it needs no sort, and repeated calls are bit-identical.  A large block of
terms reaches fsum as the exact sums of an error-free split on a fixed
ladder of grids (_exact_partials), a few floats per block instead of one per
point, and only as many rungs as the block's smallest term needs; their
exact sum is that of the terms, so the value is the same float either way.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EnumerationBudgetExceeded,
    NotPositiveDefinite,
    ToleranceUnreachable,
)

DEFAULT_BUDGET = 10**8

_SYM_RTOL = 1e-12
# relative slack on the enumeration boundary: theta_sum enumerates the ball
# Q <= R (1 + slack) and evaluates the tail bound at R (1 - 2 slack), so
# points lost to roundoff at the boundary stay covered
_BOUNDARY_SLACK = 1e-9
# candidates of the last enumeration level expanded at a time; bounds the
# memory of one theta sum whatever its point count; the exact rung sums of
# _exact_partials need it to be at most 2^16.  2^14 floats are 128 KiB,
# glibc's default mmap threshold, and the heap reuses a block's buffers and
# temporaries.  At 2^15 (256 KiB) a seed-1 pass of the rr_quadratic
# benchmark took 8,716 minor page faults (getrusage), all in theta sums of
# 16 k points or more, at about 2.8 us each; at 2^14 it takes none
_BLOCK_POINTS = 1 << 14
# blocks of more terms than this reach fsum as the exact rung sums of
# _exact_partials.  On 2 cores, a split of 256 to 1 k theta terms takes
# 11-16 us (three rungs, a min and three or four passes per rung), and
# tolist + fsum about 37 ns per term: the two cross at 330-370 terms,
# by best-of timing of both on one block fed with 40 other floats to fsum
_BIN_MIN = 352
# the split eps of the tail bound (see theta_sum) and its log.  Of 1/16,
# 1/8, 1/4 and 1/2, 1/16 gives the shortest radius whenever tol <=
# exp(-3.81 n): every default tolerance for n <= 5
_TAIL_EPS = 0.0625
_LOG_TAIL_EPS = math.log(_TAIL_EPS)
# candidate bounds of a level must lie below this in size: candidates are
# exact float integers, so each candidate, each lo - start + k that builds
# one (start below 2^52 too, see _candidates) and each count hi - lo + 1 must
# be an integer below 2^53, where floats hold every integer
_MAX_REACH = 2.0 ** 52
# the Lovasz condition of lll_reduce_rows: |b*_k|^2 >= (delta - mu^2) |b*_k-1|^2
_LLL_DELTA = 0.75


def cholesky(gram) -> np.ndarray:
    """Lower-triangular L with L L^T = gram, from LAPACK's potrf.

    gram is a matrix of entries (an array or nested lists), never a
    GramMatrix: a GramMatrix already holds its factor.  LAPACK reads the
    lower triangle only, so symmetry is the caller's to check; GramMatrix
    does.
    Raises NotPositiveDefinite when gram is not a square matrix or the
    factorization fails or leaves a non-finite entry, which is how invalid
    metrics, non-finite Grams and rank-deficient ideal bases surface.
    """
    try:
        L = np.linalg.cholesky(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from None
    if not np.isfinite(L).all():
        raise NotPositiveDefinite("Cholesky factor has a non-finite entry")
    return L


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite matrix of inner products.

    factor is the Cholesky factor of entries that validation computes; the
    theta sum enumerates with it rather than factoring again.  log_covolume
    is log sqrt(det), the sum of log diag of that factor.  Every matrix that
    enters theta_sum is validated and factored here, once.
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
        # below 2^1023 no sum m_ij + m_ji overflows; from there on a positive
        # definite m, whose largest entry lies on its diagonal, overflows in
        # 2 m_ii, so it halves first, exactly for every entry of 2^-1021 or more
        self._factor(0.5 * (m + m.T) if scale < 2.0 ** 1023 else 0.5 * m + 0.5 * m.T)

    @classmethod
    def _of_basis(cls, b: np.ndarray) -> "GramMatrix":
        """The Gram matrix b b^T of a square basis b with n >= 1.

        numpy computes b @ b.T by a symmetric rank-k update, which fills one
        triangle and mirrors it, so the product is exactly symmetric and
        needs neither the symmetry check nor the symmetrising step.  An
        overflowed (infinite) or nan entry needs no check of its own either:
        cholesky rejects every non-finite Gram with NotPositiveDefinite.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # cholesky rejects inf and nan
            m = b @ b.T
        gram = object.__new__(cls)
        gram._factor(m)
        return gram

    def _factor(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        L = cholesky(m)
        L.setflags(write=False)
        object.__setattr__(self, "factor", L)
        object.__setattr__(self, "log_covolume", math.fsum(map(math.log, L.diagonal().tolist())))

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
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
            raise NotPositiveDefinite("lattice basis must be a square matrix with n >= 1")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "gram", GramMatrix._of_basis(b))

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


def _level(U: np.ndarray, center: np.ndarray, bound: float, V, T, i: int, budget: int,
           zero: bool):
    """Candidate values lo .. lo + counts - 1 of coordinate i below each row of V.

    Also returns s, the part of (U (v + center))_i fixed by the row, and the
    candidate total.  zero says that the whole centre is zero, +0.0 or
    -0.0, and selects the half-space.  There row 0 is the all-zero tail: it
    keeps v_i >= 0, and v_0 >= 1 at the last level, so exactly one of each
    pair +-v != 0 is enumerated.  Its lo is at most 0 at a zero centre, so
    its first candidate is v_i = 0, whose Q = 0 keeps it in the ball as row
    0 of the next level.  The budget applies to the full space, whose level
    holds 2 * total - 1 candidates above the last level (the zero row keeps
    its v_i = 0) and 2 * total + 1 at it (the zero vector comes back).

    The reach check runs on two floats before any array is divided: the
    bounds of a row are (-rad - s) / uii - c_i - slack and (rad - s) / uii -
    c_i + slack, each step monotone in the numerator and so is its rounding,
    so the least lower and the largest upper bound of all rows are those
    steps on the least and the largest numerator.  A range beyond 2^52,
    infinite or nan raises, and once it fits no divide can overflow.  The
    array path's lo is a float array of exact integers, its counts int64,
    for repeat; its bounds are computed in place, in the order above.

    At a zero centre the array path also leaves out V + c and - c_i: V
    holds exact float integers, never -0.0, so adding a zero returns it, and
    x - c_i is x or, for x = -0.0 and c_i = -0.0, +0.0, which the slack step
    that follows maps to the same float.

    V and T are None while every coordinate above i has taken only v = 0 at
    a zero centre coordinate: the one zero row, with s = T = 0, the top
    level's empty assignment included.  Then rad = sqrt(bound) and the
    numerators are -rad and rad; s, lo, counts and total come back as
    Python scalars.  These are the array path's IEEE operations on that
    row: its s is +-0.0, and -rad - s = -rad and rad - s = rad, so every
    bound is the same float.
    """
    uii, ci = float(U[i, i]), float(center[i])
    if V is None:
        s = 0.0
        largest = math.sqrt(bound)
        least = -largest
    else:
        s = (V if zero else V + center[i + 1:]) @ U[i, i + 1:]
        # every row of V has T <= bound, so rad needs no clamp at 0: a masked
        # level keeps Tn <= bound, an unmasked one has Tn.max() <= bound, and
        # Tn is never nan (s is finite past the reach check, and an
        # overflowed uii v gives +inf, which is masked)
        rad = bound - T
        np.sqrt(rad, out=rad)
        lo = np.negative(rad)
        lo -= s
        hi = rad
        hi -= s
        least = float(lo.min(initial=math.inf))  # inf and -inf when V has no rows
        largest = float(hi.max(initial=-math.inf))
    lo_min = least / uii - ci - _BOUNDARY_SLACK
    hi_max = largest / uii - ci + _BOUNDARY_SLACK
    if not (hi_max < _MAX_REACH and -lo_min < _MAX_REACH):  # a nan fails too
        raise EnumerationBudgetExceeded(
            f"coordinate {i} has a candidate bound of {max(hi_max, -lo_min):.6g}, beyond 2^52: "
            "the metric spans too wide a range")
    if V is None:
        lo = math.ceil(lo_min)
        if zero:
            lo = max(lo, 0 if i else 1)
        total = counts = max(math.floor(hi_max) - lo + 1, 0)
    else:
        lo /= uii
        hi /= uii
        if not zero:
            lo -= ci
            hi -= ci
        lo -= _BOUNDARY_SLACK
        hi += _BOUNDARY_SLACK
        np.ceil(lo, out=lo)
        np.floor(hi, out=hi)
        if zero:
            lo[0] = max(lo[0], 0 if i else 1)
        hi -= lo
        hi += 1.0
        np.maximum(hi, 0.0, out=hi)
        counts = hi.astype(np.int64)
        total = int(counts.sum(dtype=float))  # exact below 2^53, and an int64 sum could wrap
    if (2 * total + (1 if i == 0 else -1) if zero else total) > budget:
        raise EnumerationBudgetExceeded(
            f"enumeration needs more than {budget} points; the metric is too flat")
    return s, lo, counts, total


def _candidates(lo: np.ndarray, counts: np.ndarray, total: int, V=None) -> np.ndarray:
    """The candidates lo[k], lo[k] + 1, ..., lo[k] + counts[k] - 1 of each
    row k, row by row, as one array of exact float integers.  Given the rows
    V of the level, they come as column 0 of a 2-D array whose other columns
    repeat each candidate's row of V: the next level's V before its mask,
    from one repeat.

    The j-th candidate of the array is (lo[k] - start[k]) + j, start[k] the
    index of row k's first one.  lo[k] is a float integer below 2^52 in size
    (_level) and start[k] < total, the length of an array this allocates,
    so their float difference is exact; the sum is an integer of row k's
    range, below 2^52 in size, so the float add is exact too.  Each
    candidate is the float of the integer that int64 arithmetic gives, and
    so is v + c_i for a float c_i.
    """
    starts = counts.cumsum() - counts
    if V is None:
        v = (lo - starts).repeat(counts)
        v += np.arange(total, dtype=float)
        return v
    W = np.column_stack([lo - starts, V]).repeat(counts, axis=0)
    W[:, 0] += np.arange(total, dtype=float)
    return W


def _expand(v: np.ndarray, s, counts, T, uii, ci) -> np.ndarray:
    """The partial Q of the candidates v of one level, computed in v itself:
    T + (uii (v + ci) + s)^2, with the s and T of each candidate's row
    (counts[k] candidates for row k), one in-place pass per operation.

    T is None for the one zero row (see _level), where s = T = 0.  Adding 0.0
    to a value that is then squared, and to a square, changes no float (a
    -0.0 becomes +0.0, and squares to +0.0 either way), so those two adds
    are left out.  So is v + ci for a zero shift ci, +0.0 or -0.0, as in
    every level of a centred sum: the candidates are exact float integers,
    never -0.0, and adding a zero to such a float returns it unchanged.
    """
    if ci:
        v += ci
    v *= uii
    if T is not None:
        v += s.repeat(counts)
    np.square(v, out=v)
    if T is not None:
        v += T.repeat(counts)
    return v


def _fincke_pohst(U: np.ndarray, center: np.ndarray, bound: float, budget: int):
    """Vectorized Fincke-Pohst enumeration of v in Z^n with Q(v + center) <= bound.

    Q(x) = ||U x||^2 with U upper triangular.  A zero centre, +0.0 or -0.0
    in every coordinate, enumerates one half-space (see _level and
    theta_sum), any other centre the full space.  Coordinates are assigned
    from the last down.  Coordinates n-1 .. 1 are expanded in full into V
    (one row per partial assignment, v_1 first, as exact float integers) and
    T (its partial Q).  The last coordinate, which holds almost all of the
    points, is expanded lazily.  Returns a generator of the Q of its
    candidates, in blocks q of at most _BLOCK_POINTS, row by row of V, each
    computed once, in place, in one float buffer (_expand).  An empty last
    level yields no block.  q is not masked: a candidate at the end of a
    row's range can have Q above the bound, and the caller drops it, as
    theta_sum does only when q.max() exceeds the bound, since a block rarely
    holds one.  Every budget check runs before this returns, so no level is
    allocated over budget.

    Each level's bounds, reach and budget checks are those of _level, and
    its candidates those of _candidates: exact float integers, with no
    integer array built.  While the levels from the top down yield only
    v_i = 0 at a zero centre coordinate c_i, V and T stay None: that is the
    one zero row, with Q = 0, and the next level is computed in scalars like
    the top one (see _level and _expand), its candidates as one arange.  The
    first level that yields more sees V as that zero row, with a zero column
    for each coordinate it skipped; for n = 1, or a zero row down to the
    last level, the last-level blocks are slices of one arange.  A level's
    candidates are masked to the ball only when some candidate lies outside
    it; otherwise the next V is the array that _candidates builds, whole.

    Points whose Q lands within roundoff of the boundary may be included;
    the caller's tail bound is evaluated at a slightly smaller radius so
    exclusions stay covered.
    """
    n = U.shape[0]
    zero = not center.any()
    V = T = None  # the zero row (see _level)
    for i in range(n - 1, 0, -1):
        s, lo, counts, total = _level(U, center, bound, V, T, i, budget, zero)
        if T is None:
            if total == 1 and lo == 0 and center[i] == 0.0:
                continue  # v_i = 0 with Q = 0: the zero row again
            W = np.zeros((total, n - i))
            W[:, 0] = np.arange(lo, lo + total, dtype=float)
        else:
            W = _candidates(lo, counts, total, V)
        Tn = _expand(W[:, 0].copy(), s, counts, T, U[i, i], center[i])
        if Tn.max(initial=0.0) > bound:
            keep = Tn <= bound
            W, Tn = W[keep], Tn[keep]
        V, T = W, Tn
    s, lo, counts, total = _level(U, center, bound, V, T, 0, budget, zero)
    return _last_level(s, lo, counts, total, T, U[0, 0], center[0])


def _last_level(s, lo, counts, total: int, T, uii, ci):
    # the blocks of _fincke_pohst, split by candidate index, so that one row
    # may span several blocks; a level that fits one block is that block.
    # For the zero row (T is None) its blocks are slices of one arange.
    if T is None:
        for a in range(0, total, _BLOCK_POINTS):
            v = np.arange(lo + a, lo + min(a + _BLOCK_POINTS, total), dtype=float)
            yield _expand(v, s, None, None, uii, ci)
        return
    if total <= _BLOCK_POINTS:
        if total:
            yield _expand(_candidates(lo, counts, total), s, counts, T, uii, ci)
        return
    ends = counts.cumsum()
    for a in range(0, total, _BLOCK_POINTS):
        b = min(a + _BLOCK_POINTS, total)
        r0 = int(np.searchsorted(ends, a, side="right"))
        r1 = int(np.searchsorted(ends, b - 1, side="right")) + 1
        start = ends[r0:r1] - counts[r0:r1]
        skip = np.maximum(a - start, 0)
        c = np.minimum(b - start, counts[r0:r1]) - skip
        yield _expand(_candidates(lo[r0:r1] + skip, c, b - a), s[r0:r1], c, T[r0:r1], uii, ci)


def _shift(center, n: int) -> np.ndarray:
    """center as n finite floats, the zero vector for None; a nan or
    infinite entry raises ValueError."""
    if center is None:
        return np.zeros(n)
    c = np.asarray(center, dtype=float).reshape(n)
    if not np.isfinite(c).all():
        raise ValueError(f"center must be n finite reals, not {center!r}")
    return c


def _check_budget(budget) -> None:
    """Raises ValueError unless budget is an integer >= 1: a Python or numpy
    integer.  A float is refused, nan and whole ones included."""
    if not (isinstance(budget, numbers.Integral) and budget >= 1):
        raise ValueError(f"budget must be an integer >= 1, not {budget!r}")


def _exact_partials(t: np.ndarray):
    """Yields a few floats whose exact sum is that of the terms t, which it
    overwrites as it goes.

    t holds at most 2^16 terms in [0, 4); a theta block does, as an
    exp(-pi Q) is at most 1.  The terms are split on a fixed ladder of grids
    g = 2^-35, 2^-70, ..., 2^-1050 by error-free extraction (Rump, Ogita and
    Oishi, "Accurate floating-point summation I", SISC 31, 2008,
    ExtractVector).  Rung j takes hi = (t + C) - C with C = 1.5 * 2^52 * g,
    keeps the sum of the his and goes on with t - hi.  Every step is exact:

    - Before rung 1, 0 <= t < 4 = 2^37 g; before each later rung, |t| is at
      most half the previous grid, 2^34 g.  Either way t + C lies in
      [2^52 g, 2^53 g), where the floats are the multiples of g, so it
      rounds to C plus the multiple of g nearest t, and subtracting C is
      exact: hi is a multiple of g with |t - hi| <= g/2.
    - t - hi is exact.  If |t| < g/2, hi = 0.  Otherwise ulp(t) < g (or t
      is a multiple of g and hi = t), so ulp(t) divides g, and t - hi is a
      multiple of ulp(t) no larger than |t|: a float.
    - The sum of a rung is exact in whatever order numpy adds: each partial
      sum is an integer multiple of g, and with N <= 2^16 terms of |hi| at
      most 4 = 2^37 g it is at most N 2^37 g <= 2^53 g in size, so a float.
    - Below the last rung, |t| <= 2^-1051 is subnormal: a multiple of
      2^-1074 at most 2^23 times it, and N of them add up exactly below
      2^39 times it.

    So the yielded floats add up exactly to the terms, and math.fsum,
    correctly rounded, returns the same float for either.

    The ladder stops at the first rung after which every t - hi is zero,
    which the block's smallest term m decides before rung 1.  Each term is a
    float of at least m >= 0, so a multiple of ulp(m) (for m = 0 or
    subnormal, of ulp(m) = 2^-1074).  By induction, the t before each rung
    are multiples of ulp(m): if g <= ulp(m) they are multiples of g, hi
    takes them whole and leaves 0; otherwise ulp(m) divides g, so hi and
    t - hi are multiples of ulp(m) again.  After rung j every t - hi is then
    a multiple of ulp(m) of size at most g/2 = 2^(-35j-1), and so 0 once
    2^(-35j-1) < ulp(m).  The later rungs would add zeros, and the last rung
    skips its own t - hi.  No term below 4 stops the ladder at rung 1 (that
    needs ulp(m) > 2^-36, m >= 2^17): m >= 2^-18 stops it at rung 2, and
    m >= 2^-53 at rung 3, as in a theta block whose Q stay below 11.6.  For
    m = 0 or subnormal, ulp(m) = 2^-1074 lies below every grid's half, and
    the full ladder runs, its subnormal bottom included.  An empty t has
    m = inf and stops at rung 1.
    """
    hi = np.empty_like(t)
    ulp = math.ulp(float(t.min(initial=math.inf)))
    for j in range(1, 31):
        C = 1.5 * 2.0 ** (52 - 35 * j)
        np.add(t, C, out=hi)
        hi -= C
        yield float(hi.sum())
        if 2.0 ** (-35 * j - 1) < ulp:
            return
        t -= hi
    yield float(t.sum())


def theta_sum(gram, center, tol: float, budget: int = DEFAULT_BUDGET, *,
              theta0: float | None = None) -> ThetaResult:
    """Gaussian theta sum over Z^n + center with its tail certified below tol
    times the centred sum theta_0(G).

    The tail bound splits each term.  For eps in (0, 1) and Q > R,
    exp(-pi Q) = exp(-pi (1 - eps) Q) exp(-pi eps Q) <= exp(-pi (1 - eps) R)
    exp(-pi eps Q), so the tail over Q > R is at most exp(-pi (1 - eps) R)
    theta_c(eps G) (Banaszczyk, Math. Ann. 296, 1993).  Poisson summation
    writes theta_c(G) as covol(G)^-1 times the sum over the dual lattice of
    exp(-pi Q*(w)) exp(2 pi i <w, c>), with Q* the dual form: positive terms
    times characters of modulus 1.  So theta_c(G) <= theta_0(G) for every
    shift c, and theta_0(eps G) = eps^(-n/2) covol(G)^-1 sum exp(-pi Q*(w) /
    eps) <= eps^(-n/2) theta_0(G), since each dual term shrinks for
    eps <= 1.  Together

        tail <= r theta_0(G),   r = eps^(-n/2) exp(-pi (1 - eps) R),

    with no eigenvalue of G in it.  r meets tol at

        R = (n/2 log(1/eps) - log tol) / (pi (1 - eps)),

    and the radius is R + 1/2, at least 1, for the one split eps = 1/16
    (_TAIL_EPS).  A small eps shortens the radius when -log tol dominates, a
    larger one when n does: of 1/16, 1/8, 1/4 and 1/2, 1/16 is the shortest
    whenever tol <= exp(-3.81 n), as every default tolerance is for n <= 5.
    The radius depends on n and tol only, so repeated calls stay
    bit-identical.  The enumeration's ball is Q <= R' (1 + slack) for this
    radius R', and the 1/2 margin covers the boundary slack, at whose
    smaller radius R' (1 - 2 slack) r is evaluated.  A shifted sum whose
    radius falls short of Q(c), for the shift c reduced into [-1/2, 1/2]^n,
    raises it to the smaller of Q(c) and Q at the nearest-plane point of an
    LLL-reduced basis (_nearest_plane_q).  So it reaches a lattice point,
    and its value is positive unless that term underflows; a sum far from
    the lattice would otherwise come out as 0, within tol but useless as a
    ratio.  Q(c) alone can lie far above the nearest point on an
    ill-conditioned Gram, and its ball then holds millions of points.

    tol is relative, in (0, 1).  A centred sum bounds theta_0 from its own
    value V: theta_0 <= V + r theta_0, so theta_0 <= V / (1 - r) and it
    reports tail_bound = r V / (1 - r).  A shifted sum cannot see theta_0,
    so the caller passes theta0, an upper bound on it (the value plus
    tail_bound of a centred call on the same Gram), and it reports
    tail_bound = r theta0.

    Poisson summation appears only in this proof.  The value is always the
    direct sum over the lattice points of the ball, never a sum over the
    dual, so a verifier that compares the theta sums of D and of K - D
    compares two direct enumerations.

    gram is a GramMatrix, which brings the Cholesky factor its validation
    computed and its log-covolume for the point estimate, or a matrix of
    entries, which is validated and factored as a GramMatrix first: a matrix
    that is not symmetric, finite and positive definite raises
    NotPositiveDefinite.

    A centred sum (center in Z^n) enumerates one half-space: the zero vector
    and, of each pair +-v, the v whose first nonzero coordinate in the
    enumeration order v_{n-1}, ..., v_0 is positive.  The sum over the whole
    ball is that of 1 and twice each term, exactly.  With a zero centre
    every step of the recurrence maps v to -v by an exact negation: the
    candidate ranges and the boundary test are symmetric, so the ball holds
    -v exactly when it holds v, and Q(-v) and Q(v) are the same float.  The
    doubling is done on the sum, not on the terms: the value is 2 fsum(1/2,
    terms).  fsum is correctly rounded, 1 + 2 sum(terms) is exactly twice
    1/2 + sum(terms), and rounding commutes with a factor 2 in the normal
    range, where a sum of at least 1/2 lies; so the value is the float of
    fsum(1, twice each term), bit for bit.  points_enumerated still counts
    the ball, 1 + 2h.

    The last coordinate is expanded and summed in blocks q of at most
    _BLOCK_POINTS candidates (_fincke_pohst), whose Q arrive computed in one
    float buffer; a one-point sum gets none.  Only a block whose q.max()
    exceeds the bound, which few do, is masked to the ball; the rest go
    whole.  Each block's exp(-pi Q) is computed in place, and the block is
    released before the next one is built.  All blocks feed one fsum, so
    the sum stays correctly rounded over every term, and the arrays of a
    call stay bounded whatever its point count; the list fsum reads grows
    by at most 31 floats a full block.  A block of more than _BIN_MIN terms
    goes in as the exact sums of an error-free split on a fixed ladder of
    grids (_exact_partials), one float per rung, and only as many rungs as
    its smallest term needs: three for a block of theta terms above 2^-53.
    They add up exactly to its terms, so the value is bit-identical, and
    tolist + fsum, the costly step per float, sees far fewer floats.

    budget caps the candidates of any level and the estimated point count
    (EnumerationBudgetExceeded); one that is not an integer >= 1 raises
    ValueError.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol is relative to the centred sum and must lie in (0, 1)")
    _check_budget(budget)
    gram = gram if isinstance(gram, GramMatrix) else GramMatrix(gram)
    L = gram.factor
    n = gram.n
    c = _shift(center, n)
    if center is not None:
        c = c - np.rint(c)  # theta is Z^n-periodic in the shift
    half = center is None or not c.any()
    if not half and not (theta0 is not None and 0.0 < theta0 < math.inf):
        raise ValueError("a shifted sum needs theta0, a positive finite bound on the centred sum")
    log_tol = math.log(tol)
    radius = max(1.0, (-0.5 * n * _LOG_TAIL_EPS - log_tol) / (math.pi * (1.0 - _TAIL_EPS)) + 0.5)
    if not half:
        q_c = float(np.sum((L.T @ c) ** 2))
        if q_c > radius:
            radius = max(radius, min(q_c, _nearest_plane_q(L, c)))
    safe_radius = radius * (1.0 - 2.0 * _BOUNDARY_SLACK) - 1e-12
    log_r = -0.5 * n * _LOG_TAIL_EPS - math.pi * (1.0 - _TAIL_EPS) * safe_radius
    if not log_r <= log_tol:
        raise ToleranceUnreachable(
            f"relative tail bound exp({log_r:.6g}) at radius {radius:.6g} exceeds tol "
            f"{tol:.3e}: split eps = {_TAIL_EPS}, n = {n}")
    # the expected point count, ellipsoid volume over covolume, in logs
    log_points = 0.5 * n * math.log(math.pi * radius) - math.lgamma(0.5 * n + 1) - gram.log_covolume
    if log_points > math.log(2 * budget):  # an int budget may exceed the float range
        raise EnumerationBudgetExceeded(
            f"estimated point count exceeds the budget of {budget}")
    bound = radius + _BOUNDARY_SLACK * radius
    blocks = _fincke_pohst(L.T, c, bound, budget)
    parts = [0.5] if half else []  # the zero vector, halved with the rest
    kept = 0
    for q in blocks:
        if q.max(initial=0.0) > bound:
            q = q[q <= bound]
        q *= -math.pi
        np.exp(q, out=q)
        kept += q.size
        parts += _exact_partials(q) if q.size > _BIN_MIN else q.tolist()
        del q  # freed before the next block is built: one block buffer less at the peak
    value = math.fsum(parts)
    if half:
        value *= 2.0
    r = math.exp(log_r)
    tail = r * value / (1.0 - r) if half else r * theta0
    points = 2 * kept + 1 if half else kept
    return ThetaResult(value=value, tail_bound=tail,
                       points_enumerated=points, radius=radius)


def _nearest_plane_q(L: np.ndarray, c: np.ndarray) -> float:
    """Q(v + c) = ||L^T (v + c)||^2 at an integer v near -c: Babai's nearest
    plane (Combinatorica 6, 1986) on an LLL reduction of the basis rows of L.

    The reduced rows are B = M L, M unimodular.  A point x = v + c is
    M^T (y + z) with v = M^T y and z = M^-T c, and Q(x) = ||R (y + z)||^2 for
    the triangular factor R of B B^T.  The coordinates y_i are rounded from
    the last down, each against the plane the later ones fix.  M is the
    reduction's own exact transform, so v is an integer vector, and Q is
    taken in L's own coordinates: the value is Q at a lattice point.  On a
    reduced basis that point's distance is within a factor 2^(n/2) of the
    nearest one's.
    """
    B, M = lll_reduce_rows(L)
    M = np.array(M, dtype=float)
    R = cholesky(B @ B.T).T
    z = np.linalg.solve(M.T, c)
    y = np.zeros_like(z)
    for i in range(z.size - 1, -1, -1):
        y[i] = np.round(-z[i] - R[i, i + 1:] @ (y[i + 1:] + z[i + 1:]) / R[i, i])
    return float(np.sum((L.T @ (M.T @ y + c)) ** 2))


def dual_lattice(lat: EmbeddedLattice) -> EmbeddedLattice:
    """Dual basis under the ambient pairing: <b_i, b*_j> = delta_ij.

    The dual Gram matrix is the inverse of the original and the covolumes
    multiply to 1.
    """
    return EmbeddedLattice(np.linalg.inv(lat.basis).T)


def lll_reduce_rows(basis) -> tuple[np.ndarray, list[list[int]]]:
    """LLL-reduce the row basis: (rows, M) with rows = M basis, M unimodular.

    M is a list of rows of Python ints, the convention of intmat.  Every
    step on the rows (b_k -= q b_j, a swap of b_k-1 and b_k) is mirrored on
    M exactly, so M is the exact transform and the float rows equal M basis
    up to the rounding of those steps.

    Skew bases of dense ideal lattices make the Gram matrix ill-conditioned,
    which swells the upper levels of the enumeration with candidates that
    lead to no point; reducing first keeps them proportionate.  The
    iteration cap is a safety valve: an unreduced basis is still a correct
    basis.  Rows whose largest entry reaches 2^k, k = (1024 - bits(n)) / 2,
    could overflow in a dot product; they are reduced at the exact scale
    2^-e that brings that entry below 2^k, and scaled back.  Smaller bases
    keep e = 0: scaling them down further would flush their small entries,
    not gain range.  A non-finite entry, or a Gram-Schmidt norm that is not
    positive and finite (numerically dependent rows), raises
    NotPositiveDefinite.

    The Gram-Schmidt rows (b*, mu and the norms |b*_i|^2) are kept across
    steps, with the index of the lowest one that may be out of date: k + 1
    after step k recomputes, k when its size reduction changed b_k, k - 1
    when it swapped b_k-1 and b_k.  Step k recomputes the rows from there up
    to k, from the rows as they stand (Schnorr and Euchner, Math.
    Programming 66, 1994).  A row below that index is a deterministic
    function of rows of b that are unchanged since it was last computed,
    and rows above k are not read until k reaches them, so every rounded
    mu, Lovasz decision and output row is the float a full recompute at
    each step gives.  The rows and b* are kept as a list of 1-D arrays, and
    mu and the norms as Python floats: the same IEEE operations and the
    same BLAS dot as on 2-D arrays, without their indexing cost per step.
    """
    b = np.array(basis, dtype=float)
    n = b.shape[0]
    if n < 2:
        return b, [[1]] * n  # the identity of size 0 or 1
    top = float(abs(b).max())
    if not top < math.inf:  # a nan fails too
        raise NotPositiveDefinite("the basis has an entry beyond the float range")
    scale = 2.0 ** max(math.frexp(top)[1] - (1024 - n.bit_length()) // 2, 0)
    rows = list(b / scale)
    M = np.eye(n, dtype=int).tolist()
    star = [None] * n
    mu = [[0.0] * n for _ in range(n)]
    norms = [0.0] * n
    stale = 0  # the lowest Gram-Schmidt row that may be out of date
    k = 1
    for _ in range(10000):
        if k >= n:
            break
        for i in range(stale, k + 1):
            s = r = rows[i]
            mi = mu[i]
            for j in range(i):
                mi[j] = float(r.dot(star[j])) / norms[j]
                s = s - mi[j] * star[j]
            star[i] = s
            norms[i] = float(s.dot(s))
            if not 0.0 < norms[i] < math.inf:
                raise NotPositiveDefinite(
                    f"Gram-Schmidt norm {norms[i]:.6g} of row {i} is not positive and finite: "
                    "the rows are numerically dependent")
        stale = k + 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                # b* stays; row k of mu moves by q times row j (unit diagonal)
                rows[k] = rows[k] - q * rows[j]
                M[k] = [x - q * y for x, y in zip(M[k], M[j])]
                mu[k][:j] = [x - q * y for x, y in zip(mu[k][:j], mu[j])]
                mu[k][j] -= q
                stale = k
        if norms[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            M[k - 1], M[k] = M[k], M[k - 1]
            stale = k - 1
            k = max(k - 1, 1)
    return np.array(rows) * scale, M
