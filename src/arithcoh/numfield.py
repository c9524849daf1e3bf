"""Number fields, fractional ideals, prime splitting, metrized embeddings.

The rational field and quadratic fields are computed from scratch; any other
field enters through a descriptor file carrying its degree, signature,
discriminant, integral-basis embeddings and different, which this module
cross-validates rather than recomputes.  A field is known by its structure:
Q is the field of degree 1, however it was built, and a built-in quadratic
field splits primes by w^2 = b + a*w, read from its multiplication table.  A
descriptor's label is optional and only for display.

Ideal arithmetic is exact and runs on Python ints only: products and
inverses are integer HNF bases (intmat.lattice_normalize), and an inverse is
taken by trace duality, I^-1 = (I * O^v)^v with O^v the inverse different.
The trace dual of J = A / den is den adj(A)^T adj(T) / (det A det T): adj(A)
comes from back-substitution on the triangular HNF A, and the field stores
its trace form T_ij = Tr(w_i w_j), the traces of its multiplication table,
as adj T and det T.  O^v, the trace dual of O, is computed once per field
from the trace form alone when the descriptor is built; so are the covolume
self-check, the different from the descriptor's rows and the product d * O^v.
An inverse is one product and one trace dual, so the hot paths take none:
each prime carries its inverse from primes_above, a divisor's ideal is a
product of primes and their inverses, and J^v = (J d)^-1 when d * O^v = O.
The norm of an ideal is the product of its HNF pivots over den^n.  Only the
embeddings are floating point.

Conventions fixed here because descriptor files depend on them:
  * archimedean places are ordered real-first (ascending value of the
    generator under the embedding), then complex;
  * a complex place contributes one coordinate pair (Re, Im) and carries
    the weight 2*exp(-x_sigma) in the divisor metric, so the ring of
    integers at the zero divisor has covolume sqrt(|discriminant|);
  * prime ideals above p are indexed by the ascending least nonnegative
    roots of the defining quadratic mod p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from . import intmat
from .errors import DescriptorInconsistent, InvalidDivisor, InvalidFieldSpec, UnsupportedField
from .lattice import EmbeddedLattice, lll_reduce_rows

_MULT_INT_TOL = 1e-6
_COVOL_RTOL = 1e-8
# a quadratic field's embeddings are floats made from d, and 2^53 is where
# d stops being an exact float
_QUAD_D_BOUND = 2 ** 53
# Miller-Rabin on the prime bases up to 37 decides primality below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461


@dataclass
class NumberFieldDescriptor:
    """Structural data of a number field over its fixed integral basis."""

    degree: int
    signature: tuple[int, int]
    abs_discriminant: int
    integral_basis_embeddings: np.ndarray  # rows = basis elements, n coords
    mult_table: tuple  # mult_table[i][j] = integer coords of w_i * w_j
    different_basis: tuple | list  # integer rows spanning the different
    label: str  # for display only
    quad_d: int | None = None  # squarefree d, marking a built-in quadratic field
    # the nonzero entries of mult_table as (i, j, ((k, c_ijk), ...)), for elem_mul
    mul_terms: tuple = field(init=False, repr=False, compare=False)
    # the trace form T_ij = Tr(w_i w_j) as adj T and det T, with det T > 0:
    # T^-1 = trace_adj / trace_det
    trace_adj: tuple = field(init=False, repr=False, compare=False)
    trace_det: int = field(init=False, repr=False, compare=False)
    # O^v = {x : Tr(xO) in Z}, from the trace form: the descriptor's different
    # does not enter it
    codifferent: "FractionalIdeal" = field(init=False, repr=False, compare=False)
    different: "FractionalIdeal" = field(init=False, repr=False, compare=False)
    # d * O^v for the descriptor's different d: O exactly when d is the true
    # different
    different_codifferent: "FractionalIdeal" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_covolume(self)
        self.mul_terms = tuple((i, j, tuple((k, c) for k, c in enumerate(row) if c))
                               for i, row_i in enumerate(self.mult_table)
                               for j, row in enumerate(row_i))
        form = [[elem_trace(self, w) for w in row] for row in self.mult_table]
        det = intmat.det_int(form)
        self.trace_adj = tuple(tuple(x if det > 0 else -x for x in r)
                               for r in intmat.adjugate(form))
        self.trace_det = abs(det)
        self.codifferent = _trace_dual(unit_ideal(self))
        self.different = FractionalIdeal.from_rows(self, self.different_basis)
        self.different_codifferent = ideal_mul(self.different, self.codifferent)

    @property
    def n(self) -> int:
        return self.degree

    @property
    def r1(self) -> int:
        return self.signature[0]

    @property
    def r2(self) -> int:
        return self.signature[1]

    def __repr__(self):
        return f"NumberField({self.label})"


@dataclass(frozen=True)
class FractionalIdeal:
    """Fractional ideal as an HNF integer basis over the integral basis.

    Row i of ``num`` divided by ``den`` gives the coordinates of the i-th
    Z-basis element.  The (num, den) pair is normalized (content 1), so
    equality of ideals is equality of the representation.
    """

    field: NumberFieldDescriptor
    num: tuple[tuple[int, ...], ...]
    den: int

    @classmethod
    def from_rows(cls, fld: NumberFieldDescriptor, rows, den: int = 1) -> "FractionalIdeal":
        frac_rows = [[Fraction(x) for x in r] for r in rows]
        if any(len(r) != fld.n for r in frac_rows):
            raise DescriptorInconsistent(f"ideal basis rows must have {fld.n} entries each")
        scale = math.lcm(*(x.denominator for r in frac_rows for x in r))
        try:
            return cls._normalized(fld, [[int(x * scale) for x in r] for r in frac_rows],
                                   scale * den)
        except ValueError as exc:  # no rows, or rank below their length
            raise DescriptorInconsistent(f"ideal basis rejected: {exc}") from exc

    @classmethod
    def _normalized(cls, fld: NumberFieldDescriptor, rows, den: int) -> "FractionalIdeal":
        """The ideal of the integer rows over den, in its HNF (num, den) form."""
        num, den = intmat.lattice_normalize(rows, den)
        return cls(fld, tuple(map(tuple, num)), den)

    def basis_rows(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.den) for x in r] for r in self.num]

    def norm(self) -> Fraction:
        """N(I), [O : I] for integral I: the product of the HNF pivots over den^n."""
        return Fraction(math.prod(r[i] for i, r in enumerate(self.num)), self.den ** self.field.n)

    def __repr__(self):
        return f"Ideal({self.num}/{self.den})"


@dataclass(frozen=True)
class PrimeIdeal:
    """One prime above a rational prime, in the field's deterministic order."""

    p: int
    index: int
    residue_norm: int
    residue_degree: int
    ramification: int
    ideal: FractionalIdeal
    # P^-1, formed with P by primes_above: derived, like residue_norm
    inverse: FractionalIdeal = field(repr=False, compare=False)

    def __repr__(self):
        return f"Prime(p={self.p}, index={self.index}, N={self.residue_norm})"


# ---------------------------------------------------------------------------
# exact element arithmetic over the integral basis


def elem_mul(fld: NumberFieldDescriptor, x, y) -> tuple:
    out = [0] * fld.n
    for i, j, terms in fld.mul_terms:
        coeff = x[i] * y[j]
        if coeff:
            for k, c in terms:
                out[k] += coeff * c
    return tuple(out)


def elem_trace(fld: NumberFieldDescriptor, x):
    tr = 0
    for k in range(fld.n):
        if x[k]:
            tk = sum(fld.mult_table[k][i][i] for i in range(fld.n))
            tr += x[k] * tk
    return tr


def principal_ideal(fld: NumberFieldDescriptor, coords) -> FractionalIdeal:
    """(x) for x given by its coordinates over the integral basis, as the
    span of the products x * w_i."""
    coords = tuple(Fraction(c) for c in coords)
    if len(coords) != fld.n:
        raise ValueError(f"expected {fld.n} coordinates, got {len(coords)}")
    if all(c == 0 for c in coords):
        raise ValueError("zero element does not generate a fractional ideal")
    return FractionalIdeal.from_rows(fld, [elem_mul(fld, coords, w)
                                           for w in unit_ideal(fld).num])


def unit_ideal(fld: NumberFieldDescriptor) -> FractionalIdeal:
    return FractionalIdeal(fld, tuple(tuple(int(i == j) for j in range(fld.n))
                                      for i in range(fld.n)), 1)


# ---------------------------------------------------------------------------
# ideal arithmetic


def ideal_mul(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    if I.field is not J.field:
        raise ValueError("ideals live over different fields")
    rows = [elem_mul(I.field, x, y) for x in I.num for y in J.num]
    return FractionalIdeal._normalized(I.field, rows, I.den * J.den)


def _trace_dual(J: FractionalIdeal) -> FractionalIdeal:
    """{x : Tr(xJ) in Z} for J = A / den with A in HNF.

    With x = y W over the integral basis W, Tr(x * row_i(A) W) / den is
    (y T A^T)_i / den, so the dual is den (A^-1)^T T^-1 =
    den adj(A)^T adj(T) / (det A det T): adj(A) by back-substitution on the
    triangular A, adj(T) and det T stored by the field.
    """
    fld = J.field
    n = fld.n
    adj, det = intmat.triangular_adjugate(J.num)
    t_adj = fld.trace_adj
    # adj(A) is upper triangular: only k <= i contributes to row i
    rows = [[J.den * sum(adj[k][i] * t_adj[k][j] for k in range(i + 1)) for j in range(n)]
            for i in range(n)]
    return FractionalIdeal._normalized(fld, rows, det * fld.trace_det)


def ideal_inv(I: FractionalIdeal) -> FractionalIdeal:
    """Inverse ideal {x : x*I is integral}, by trace duality: (I * O^v)^v.

    Here J^v = {x : Tr(xJ) in Z}, and O^v is the inverse different, which the
    field computed once from its trace form.  For an ideal J, x in J^v iff
    Tr(xJ*O) in Z iff xJ in O^v, so J^v = J^-1 * O^v; with J = I * O^v this
    is I^-1.
    """
    return _trace_dual(ideal_mul(I, I.field.codifferent))


def ideal_pow(I: FractionalIdeal, e: int) -> FractionalIdeal:
    """I^e as one chain of |e| - 1 products of I, or of I^-1 when e < 0."""
    if e == 0:
        return unit_ideal(I.field)
    base = I if e > 0 else ideal_inv(I)
    return functools.reduce(ideal_mul, [base] * (abs(e) - 1), base)


def ideal_norm(I: FractionalIdeal) -> Fraction:
    return I.norm()


# ---------------------------------------------------------------------------
# field construction


def _is_squarefree(m: int) -> bool:
    """Whether no square of a prime divides m.

    Trial division stops once p^3 > m.  The cofactor left then has no prime
    factor below p, so at most two, and it is squarefree unless it is the
    square of a prime.
    """
    m = abs(m)
    p = 2
    while p * p * p <= m:
        if m % (p * p) == 0:
            return False
        while m % p == 0:
            m //= p
        p += 1
    return m < 2 or isqrt(m) ** 2 != m


def _check_covolume(fld: NumberFieldDescriptor):
    det = abs(float(np.linalg.det(fld.integral_basis_embeddings)))
    covol = det * (2.0 ** fld.r2)
    expected = math.sqrt(fld.abs_discriminant)
    if abs(covol - expected) > _COVOL_RTOL * expected:
        raise DescriptorInconsistent(
            f"covolume of the integral basis is {covol:.12g}, "
            f"expected sqrt(discriminant) = {expected:.12g}")


def _make_rational() -> NumberFieldDescriptor:
    return NumberFieldDescriptor(
        degree=1, signature=(1, 0), abs_discriminant=1,
        integral_basis_embeddings=np.array([[1.0]]),
        mult_table=(((1,),),), different_basis=((1,),), label="Q")


def _make_quadratic(d: int) -> NumberFieldDescriptor:
    if not isinstance(d, int) or d in (0, 1):
        raise InvalidFieldSpec("quadratic d must be a squarefree integer != 0, 1")
    if abs(d) >= _QUAD_D_BOUND:
        raise InvalidFieldSpec(
            f"quadratic |d| must be below 2^53 = {_QUAD_D_BOUND}, where d stops "
            f"being an exact float; got d = {d}")
    if not _is_squarefree(d):
        raise InvalidFieldSpec(f"quadratic d = {d} is not squarefree")
    if d % 4 == 1:
        a, b = 1, (d - 1) // 4  # w = (1 + sqrt(d))/2, w^2 = b + a*w
        disc = d
    else:
        a, b = 0, d  # w = sqrt(d)
        disc = 4 * d
    delta = abs(disc)
    if d > 0:
        signature = (2, 0)
        s = math.sqrt(disc)
        omega = sorted(((a - s) / 2.0, (a + s) / 2.0))
        emb = np.array([[1.0, 1.0], omega])
    else:
        signature = (0, 1)
        emb = np.array([[1.0, 0.0], [a / 2.0, math.sqrt(delta) / 2.0]])
    table = (((1, 0), (0, 1)), ((0, 1), (b, a)))
    return NumberFieldDescriptor(
        degree=2, signature=signature, abs_discriminant=delta,
        integral_basis_embeddings=emb, mult_table=table,
        # (f'(w)) = (2w - a), spanned by (2w - a) * 1 and (2w - a) * w = 2b + a w
        different_basis=((-a, 2), (2 * b, a)), label=f"Q(sqrt({d}))", quad_d=d)


def _make_custom(desc: dict) -> NumberFieldDescriptor:
    try:
        n = intmat.exact_int(desc["degree"])
        r1 = intmat.exact_int(desc["r1"])
        r2 = intmat.exact_int(desc["r2"])
        delta = intmat.exact_int(desc["abs_discriminant"])
        emb_flat = intmat.exact_reals(desc["embeddings"])
        diff_rows = [[intmat.exact_int(x) for x in row] for row in desc["different_basis"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidFieldSpec(f"malformed custom field descriptor: {exc}") from exc
    if not all(map(math.isfinite, emb_flat)):
        raise InvalidFieldSpec("custom field embeddings must be a list of finite reals")
    if r1 < 0 or r2 < 0 or r1 + 2 * r2 != n:
        raise DescriptorInconsistent(
            f"signature ({r1}, {r2}) is not a pair of counts with r1 + 2*r2 = {n}")
    if delta <= 0 or n < 1 or len(emb_flat) != n * n:
        raise DescriptorInconsistent("embeddings must be an n x n row-major matrix")
    emb = np.array(emb_flat).reshape(n, n)
    try:
        emb_inv = np.linalg.inv(emb)
    except np.linalg.LinAlgError as exc:
        raise DescriptorInconsistent("embedding matrix is singular") from exc
    # the integral basis must be multiplicatively closed over Z; recover the
    # multiplication table from the embeddings and insist it rounds to ints.
    # With each complex place as Re + i*Im, all products w_i * w_j are one
    # broadcast, taken back to the (Re, Im) layout of the embeddings.
    z = np.concatenate([emb[:, :r1], emb[:, r1::2] + 1j * emb[:, r1 + 1::2]], axis=1)
    zz = z[:, None, :] * z[None, :, :]
    prod = np.empty((n, n, n))
    prod[..., :r1] = zz[..., :r1].real
    prod[..., r1::2] = zz[..., r1:].real
    prod[..., r1 + 1::2] = zz[..., r1:].imag
    coords = prod @ emb_inv
    rounded = np.round(coords)
    scale = float(np.max(np.abs(emb)))
    bad = (np.max(np.abs(coords - rounded), axis=2) > _MULT_INT_TOL) | \
        (np.max(np.abs(rounded @ emb - prod), axis=2) > _MULT_INT_TOL * max(scale, 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DescriptorInconsistent(
            f"product of basis elements {i} and {j} has non-integral coordinates; "
            "embeddings do not describe a ring of integers")
    table = tuple(tuple(tuple(map(int, w)) for w in row) for row in rounded.tolist())
    return NumberFieldDescriptor(
        degree=n, signature=(r1, r2), abs_discriminant=delta,
        integral_basis_embeddings=emb, mult_table=table, different_basis=diff_rows,
        label=desc.get("label", f"custom_deg{n}"))


def make_field(spec) -> NumberFieldDescriptor:
    """Build a field from 'rational', ('quadratic', d), or a descriptor dict.

    Descriptor dicts are either {"type": "rational"}, {"type": "quadratic",
    "d": ...}, or the custom schema {degree, r1, r2, abs_discriminant,
    embeddings, different_basis} with an optional label, which is only for
    display.  Any field of degree 1 is Q: primes_above splits over it however
    it was built.
    """
    if spec == "rational":
        return _make_rational()
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "quadratic":
        return _make_quadratic(spec[1])
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "rational":
            return _make_rational()
        if kind == "quadratic":
            if "d" not in spec:
                raise InvalidFieldSpec("quadratic field descriptor needs 'd'")
            try:
                d = intmat.exact_int(spec["d"])
            except (TypeError, ValueError) as exc:
                raise InvalidFieldSpec("quadratic 'd' must be an integer") from exc
            return _make_quadratic(d)
        if kind is None and "degree" in spec:
            return _make_custom(spec)
        raise InvalidFieldSpec(f"unrecognized field descriptor type {kind!r}")
    raise InvalidFieldSpec(f"unrecognized field spec {spec!r}")


# ---------------------------------------------------------------------------
# prime splitting (Q, and the built-in quadratic fields)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin (Cohen, Alg. 8.2.2) on the bases _MR_BASES."""
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    if p >= _MR_BOUND:
        raise InvalidDivisor(f"p = {p} is not below {_MR_BOUND}, where primality is decided")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p, None for a non-residue:
    Tonelli-Shanks (Cohen, Alg. 1.5.1)."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # invariant: x^2 = n b, and y has order 2^r, which b's order divides
    y, r, x, b = pow(z, q, p), e, pow(n, (q + 1) // 2, p), pow(n, q, p)
    while b != 1:
        m, t = 0, b
        while t != 1:
            t, m = t * t % p, m + 1
        t = pow(y, 1 << (r - m - 1), p)
        y, r, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def primes_above(fld: NumberFieldDescriptor, p: int) -> list[PrimeIdeal]:
    """Primes above p in a deterministic order (ascending defining root)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if fld.n == 1:
        ideal = principal_ideal(fld, (p,))
        return [PrimeIdeal(p, 0, p, 1, 1, ideal, ideal_inv(ideal))]
    if fld.quad_d is None:
        raise UnsupportedField(
            "custom fields carry no splitting data; specify divisors by explicit ideal bases")
    b, a = fld.mult_table[1][1]  # w^2 = b + a*w
    # the roots of x^2 - a x - b are (a +- sqrt(a^2 + 4 b)) / 2 for odd p
    if p == 2:
        roots = [r for r in range(2) if (r * r - a * r - b) % 2 == 0]
    else:
        root, half = _sqrt_mod(a * a + 4 * b, p), (p + 1) // 2
        roots = [] if root is None else sorted({(a + root) * half % p, (a - root) * half % p})
    if not roots:
        ideal = principal_ideal(fld, (p, 0))
        return [PrimeIdeal(p, 0, p * p, 2, 1, ideal, ideal_inv(ideal))]
    ramified = fld.abs_discriminant % p == 0
    out = []
    for idx, r in enumerate(roots):
        # P = (p, w - r) as a Z-module: spanned by p, p*w, (w - r), (w - r)*w
        rows = [[p, 0], [0, p], [-r, 1], [b, a - r]]
        ideal = FractionalIdeal.from_rows(fld, rows)
        e = 2 if ramified else 1
        out.append(PrimeIdeal(p, idx, p, 1, e, ideal, ideal_inv(ideal)))
    return out


# ---------------------------------------------------------------------------
# metrized embedding


def infinite_weights(fld: NumberFieldDescriptor, x_inf) -> np.ndarray:
    """Per-coordinate metric weights ||1||^2_sigma for the divisor metric.

    Real places contribute exp(-2 x_sigma); each coordinate of a complex
    pair contributes 2 exp(-x_sigma).
    """
    x = [float(t) for t in x_inf]
    if len(x) != fld.r1 + fld.r2:
        raise ValueError(f"expected {fld.r1 + fld.r2} infinite components, got {len(x)}")
    w = [math.exp(-2.0 * t) for t in x[:fld.r1]]
    for t in x[fld.r1:]:
        w.extend([2.0 * math.exp(-t)] * 2)
    return np.array(w)


def embed_ideal(fld: NumberFieldDescriptor, I: FractionalIdeal, x_inf) -> EmbeddedLattice:
    """Metrized lattice of the ideal: dot products realize the divisor norm.

    The basis is LLL-reduced in the metrized coordinates (a unimodular change
    of Z-basis), which keeps the Gram matrix well conditioned however skew
    the HNF basis of a high-norm ideal is.
    """
    return _embed_reduced(fld, I, x_inf)[0]


def _embed_reduced(fld: NumberFieldDescriptor, I: FractionalIdeal,
                   x_inf) -> tuple[EmbeddedLattice, list[list[int]]]:
    """embed_ideal's lattice and the unimodular integer M of its reduction:
    the lattice's basis is M times the embedded HNF rows of I."""
    w = infinite_weights(fld, x_inf)
    try:  # int / int is correctly rounded, as float(Fraction) is
        coords = np.array([[x / I.den for x in row] for row in I.num])
    except OverflowError:
        top = max(abs(x) for row in I.num for x in row)
        raise InvalidDivisor(
            f"the ideal's basis has an entry of about 2^{top.bit_length() - I.den.bit_length()}, "
            "beyond the float range") from None
    # an entry that overflows is rejected by lll_reduce_rows, or for n = 1 by
    # the Gram matrix's own check
    with np.errstate(over="ignore"):
        basis = (coords @ fld.integral_basis_embeddings) * np.sqrt(w)
    rows, M = lll_reduce_rows(basis)
    lat = EmbeddedLattice(rows)
    nrm = I.norm()
    expected = math.log(nrm.numerator) - math.log(nrm.denominator) + \
        0.5 * math.log(fld.abs_discriminant) - math.fsum(float(t) for t in x_inf)
    if abs(lat.log_covolume - expected) > 1e-6:  # relative, in linear scale
        raise DescriptorInconsistent(
            f"embedded log-covolume {lat.log_covolume:.12g} disagrees with "
            f"log N(I) + (1/2) log(disc) - sum x_sigma = {expected:.12g}")
    return lat, M
