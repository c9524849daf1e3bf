"""Number fields, fractional ideals, prime splitting, metrized embeddings.

The rational field and quadratic fields are computed from scratch; any other
field enters through a descriptor file carrying its degree, signature,
discriminant, integral-basis embeddings and different, which this module
cross-validates rather than recomputes.  Ideal arithmetic is exact: products
and inverses are integer HNF bases, and an inverse is taken by trace duality,
I^-1 = (I * O^v)^v with O^v the inverse different.  O^v is computed once per
field, from the trace form alone, when the descriptor is built; so is the
covolume self-check.  Only the embeddings are floating point.

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

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from . import intmat
from .errors import DescriptorInconsistent, InvalidFieldSpec, UnsupportedField
from .lattice import EmbeddedLattice, lll_reduce_rows

_MULT_INT_TOL = 1e-6
_COVOL_RTOL = 1e-8


@dataclass
class NumberFieldDescriptor:
    """Structural data of a number field over its fixed integral basis."""

    degree: int
    signature: tuple[int, int]
    abs_discriminant: int
    integral_basis_embeddings: np.ndarray  # rows = basis elements, n coords
    mult_table: tuple  # mult_table[i][j] = integer coords of w_i * w_j
    label: str
    quad_d: int | None = None  # squarefree d for built-in quadratic fields
    different: "FractionalIdeal | None" = None
    # O^v = {x : Tr(xO) in Z}, from the trace form: the descriptor's different
    # does not enter it
    codifferent: "FractionalIdeal" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_covolume(self)
        self.codifferent = _trace_dual(unit_ideal(self))

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
        frac_rows = [[Fraction(x) / den for x in r] for r in rows]
        lat_num, lat_den = intmat.fraction_rows_to_lattice(frac_rows)
        if len(lat_num) != fld.n:
            raise DescriptorInconsistent("ideal basis is not full rank")
        return cls(fld, tuple(tuple(r) for r in lat_num), lat_den)

    def basis_rows(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.den) for x in r] for r in self.num]

    def norm(self) -> Fraction:
        return abs(Fraction(intmat.det_int([list(r) for r in self.num]),
                            self.den ** self.field.n))

    def __mul__(self, other):
        return ideal_mul(self, other)

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

    def __repr__(self):
        return f"Prime(p={self.p}, index={self.index}, N={self.residue_norm})"


# ---------------------------------------------------------------------------
# exact element arithmetic over the integral basis


def elem_mul(fld: NumberFieldDescriptor, x, y) -> tuple:
    n = fld.n
    out = [0] * n
    table = fld.mult_table
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            yj = y[j]
            if not yj:
                continue
            coeff = xi * yj
            row = table[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += coeff * row[k]
    return tuple(out)


def elem_trace(fld: NumberFieldDescriptor, x):
    tr = 0
    for k in range(fld.n):
        if x[k]:
            tk = sum(fld.mult_table[k][i][i] for i in range(fld.n))
            tr += x[k] * tk
    return tr


def _mult_matrix(fld: NumberFieldDescriptor, x) -> list[list]:
    """Rows are the coordinates of x * w_i over the integral basis."""
    n = fld.n
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [list(elem_mul(fld, x, e)) for e in basis]


def principal_ideal(fld: NumberFieldDescriptor, coords) -> FractionalIdeal:
    coords = tuple(Fraction(c) for c in coords)
    if all(c == 0 for c in coords):
        raise ValueError("zero element does not generate a fractional ideal")
    return FractionalIdeal.from_rows(fld, _mult_matrix(fld, coords))


def unit_ideal(fld: NumberFieldDescriptor) -> FractionalIdeal:
    return FractionalIdeal(fld, tuple(tuple(int(i == j) for j in range(fld.n))
                                      for i in range(fld.n)), 1)


# ---------------------------------------------------------------------------
# ideal arithmetic


def ideal_mul(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    if I.field is not J.field:
        raise ValueError("ideals live over different fields")
    rows = [list(elem_mul(I.field, x, y)) for x in I.num for y in J.num]
    num, den = intmat.lattice_normalize(rows, I.den * J.den)
    return FractionalIdeal(I.field, tuple(tuple(r) for r in num), den)


def _trace_dual(J: FractionalIdeal) -> FractionalIdeal:
    """{x : Tr(xJ) in Z}: the dot-product dual of J's basis times the trace form."""
    fld = J.field
    rows = [[elem_trace(fld, bw) for bw in _mult_matrix(fld, b)] for b in J.num]
    num, den = intmat.lattice_dual(rows, J.den)
    return FractionalIdeal(fld, tuple(tuple(r) for r in num), den)


def ideal_inv(I: FractionalIdeal) -> FractionalIdeal:
    """Inverse ideal {x : x*I is integral}, by trace duality: (I * O^v)^v.

    Here J^v = {x : Tr(xJ) in Z}, and O^v is the inverse different, which the
    field computed once from its trace form.  For an ideal J, x in J^v iff
    Tr(xJ*O) in Z iff xJ in O^v, so J^v = J^-1 * O^v; with J = I * O^v this
    is I^-1.
    """
    return _trace_dual(ideal_mul(I, I.field.codifferent))


def ideal_pow(I: FractionalIdeal, e: int) -> FractionalIdeal:
    if e < 0:
        return ideal_pow(ideal_inv(I), -e)
    result = unit_ideal(I.field)
    for _ in range(e):
        result = ideal_mul(result, I)
    return result


def ideal_norm(I: FractionalIdeal) -> Fraction:
    return I.norm()


# ---------------------------------------------------------------------------
# field construction


def _is_squarefree(m: int) -> bool:
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        while m % d == 0:
            m //= d
        d += 1
    return True


def _check_covolume(fld: NumberFieldDescriptor):
    det = abs(float(np.linalg.det(fld.integral_basis_embeddings)))
    covol = det * (2.0 ** fld.r2)
    expected = math.sqrt(fld.abs_discriminant)
    if abs(covol - expected) > _COVOL_RTOL * expected:
        raise DescriptorInconsistent(
            f"covolume of the integral basis is {covol:.12g}, "
            f"expected sqrt(discriminant) = {expected:.12g}")


def _make_rational() -> NumberFieldDescriptor:
    fld = NumberFieldDescriptor(
        degree=1, signature=(1, 0), abs_discriminant=1,
        integral_basis_embeddings=np.array([[1.0]]),
        mult_table=(((1,),),), label="Q", quad_d=None)
    fld.different = unit_ideal(fld)
    return fld


def _make_quadratic(d: int) -> NumberFieldDescriptor:
    if not isinstance(d, int) or d in (0, 1):
        raise InvalidFieldSpec("quadratic d must be a squarefree integer != 0, 1")
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
    fld = NumberFieldDescriptor(
        degree=2, signature=signature, abs_discriminant=delta,
        integral_basis_embeddings=emb, mult_table=table,
        label=f"Q(sqrt({d}))", quad_d=d)
    fld.different = principal_ideal(fld, (-a, 2))  # (f'(w)) = (2w - a)
    if fld.different.norm() != delta:
        raise DescriptorInconsistent("norm of the different does not equal the discriminant")
    return fld


def _complex_pair_products(emb: np.ndarray, r1: int, r2: int,
                           i: int, j: int) -> np.ndarray:
    """Embedding coordinates of basis-element product w_i * w_j."""
    out = np.empty(emb.shape[1])
    out[:r1] = emb[i, :r1] * emb[j, :r1]
    for k in range(r2):
        re_i, im_i = emb[i, r1 + 2 * k], emb[i, r1 + 2 * k + 1]
        re_j, im_j = emb[j, r1 + 2 * k], emb[j, r1 + 2 * k + 1]
        out[r1 + 2 * k] = re_i * re_j - im_i * im_j
        out[r1 + 2 * k + 1] = re_i * im_j + im_i * re_j
    return out


def _make_custom(desc: dict) -> NumberFieldDescriptor:
    try:
        n = intmat.exact_int(desc["degree"])
        r1 = intmat.exact_int(desc["r1"])
        r2 = intmat.exact_int(desc["r2"])
        delta = intmat.exact_int(desc["abs_discriminant"])
        emb_flat = [float(x) for x in desc["embeddings"]]
        diff_rows = [[intmat.exact_int(x) for x in row] for row in desc["different_basis"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidFieldSpec(f"malformed custom field descriptor: {exc}") from exc
    if r1 + 2 * r2 != n:
        raise DescriptorInconsistent(f"signature ({r1}, {r2}) does not satisfy r1 + 2*r2 = {n}")
    if delta <= 0 or n < 1 or len(emb_flat) != n * n:
        raise DescriptorInconsistent("embeddings must be an n x n row-major matrix")
    emb = np.array(emb_flat).reshape(n, n)
    try:
        emb_inv = np.linalg.inv(emb)
    except np.linalg.LinAlgError as exc:
        raise DescriptorInconsistent("embedding matrix is singular") from exc
    # the integral basis must be multiplicatively closed over Z; recover the
    # multiplication table from the embeddings and insist it rounds to ints
    scale = float(np.max(np.abs(emb)))
    table = []
    for i in range(n):
        row_i = []
        for j in range(n):
            prod = _complex_pair_products(emb, r1, r2, i, j)
            coords = prod @ emb_inv
            rounded = np.round(coords)
            if np.max(np.abs(coords - rounded)) > _MULT_INT_TOL or \
               np.max(np.abs(rounded @ emb - prod)) > _MULT_INT_TOL * max(scale, 1.0):
                raise DescriptorInconsistent(
                    f"product of basis elements {i} and {j} has non-integral coordinates; "
                    "embeddings do not describe a ring of integers")
            row_i.append(tuple(int(x) for x in rounded))
        table.append(tuple(row_i))
    fld = NumberFieldDescriptor(
        degree=n, signature=(r1, r2), abs_discriminant=delta,
        integral_basis_embeddings=emb, mult_table=tuple(table),
        label=desc.get("label", f"custom_deg{n}"), quad_d=None)
    fld.different = FractionalIdeal.from_rows(fld, diff_rows)
    return fld


def make_field(spec) -> NumberFieldDescriptor:
    """Build a field from 'rational', ('quadratic', d), or a descriptor dict.

    Descriptor dicts are either {"type": "rational"}, {"type": "quadratic",
    "d": ...}, or the custom schema {degree, r1, r2, abs_discriminant,
    embeddings, different_basis}.
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


def load_field_file(path) -> NumberFieldDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidFieldSpec(f"field file is not valid JSON: {exc}") from exc
    return make_field(obj)


# ---------------------------------------------------------------------------
# prime splitting (built-in fields only)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def primes_above(fld: NumberFieldDescriptor, p: int) -> list[PrimeIdeal]:
    """Primes above p in a deterministic order (ascending defining root)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if fld.label == "Q":
        return [PrimeIdeal(p, 0, p, 1, 1, principal_ideal(fld, (p,)))]
    if fld.quad_d is None:
        raise UnsupportedField(
            "custom fields carry no splitting data; specify divisors by explicit ideal bases")
    d = fld.quad_d
    a, b = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)
    roots = [r for r in range(p) if (r * r - a * r - b) % p == 0]
    if not roots:
        ideal = principal_ideal(fld, (p, 0))
        return [PrimeIdeal(p, 0, p * p, 2, 1, ideal)]
    ramified = fld.abs_discriminant % p == 0
    out = []
    for idx, r in enumerate(roots):
        # P = (p, w - r) as a Z-module: spanned by p, p*w, (w - r), (w - r)*w
        rows = [[p, 0], [0, p], [-r, 1], [b, a - r]]
        ideal = FractionalIdeal.from_rows(fld, rows)
        e = 2 if ramified else 1
        out.append(PrimeIdeal(p, idx, p, 1, e, ideal))
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
    w = infinite_weights(fld, x_inf)
    coords = np.array([[float(x) for x in row] for row in I.basis_rows()])
    lat = EmbeddedLattice(lll_reduce_rows((coords @ fld.integral_basis_embeddings) * np.sqrt(w)))
    nrm = I.norm()
    expected = math.log(nrm.numerator) - math.log(nrm.denominator) + \
        0.5 * math.log(fld.abs_discriminant) - math.fsum(float(t) for t in x_inf)
    if abs(lat.log_covolume - expected) > 1e-6:  # relative, in linear scale
        raise DescriptorInconsistent(
            f"embedded log-covolume {lat.log_covolume:.12g} disagrees with "
            f"log N(I) + (1/2) log(disc) - sum x_sigma = {expected:.12g}")
    return lat
