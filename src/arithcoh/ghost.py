"""Convolution structures on finite abelian groups and their duality.

Two kinds of structure live here.  A first-kind space G_u carries a strictly
positive, even, positive-definite function u with u(0) = 1 and the twisted
point convolution

    delta_x * delta_y = (u(x) u(y) / u(x+y)) delta_{x+y};

its dimension is log sum(u).  A second-kind space G^mu carries an even,
positive-definite probability measure mu and the translated convolution

    delta_x * delta_y = T_{x+y} mu;

its dimension is log(mu(0) |G|), the log-density at 0 against the uniform
probability measure.  Both are the mixed product

    delta_x * delta_y = (u(x) u(y) / u(x+y)) T_{x+y} mu,

the first kind at mu = delta_0 and the second at u = 1, and the code has one
path for the three: one convolution body, and one associativity check that
takes one x at a time, so its memory stays at |G|^3.  Quotients,
subquotients, duals (via the DFT) and quasi-characters are implemented so
that every structural claim about these spaces can be checked exhaustively
at finite scale.

Elements of Z/n1 x ... x Z/nk are tuples ordered mixed-radix
lexicographically (C order); functions and measures are flat arrays in that
order.  Characters are indexed by the same tuples via
chi_a(x) = exp(2 pi i sum a_j x_j / n_j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGhostSpace
from .intmat import diagonalize_int, exact_int

_PD_TOL = 1e-12
_EVEN_TOL = 1e-12
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/n1 x ... x Z/nk (k = 0 is the trivial group)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.cyclic_orders)
        if any(n < 2 for n in orders):
            raise InvalidGhostSpace("cyclic orders must all be >= 2")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def size(self) -> int:
        return int(np.prod(self.cyclic_orders, dtype=np.int64))

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in x) for x in np.ndindex(*self.cyclic_orders)]

    def index(self, x) -> int:
        return int(np.ravel_multi_index(self.element(x), self.cyclic_orders))

    def element(self, x) -> tuple[int, ...]:
        if isinstance(x, int) and self.rank == 1:
            x = (x,)
        x = tuple(int(v) for v in x)
        if len(x) != self.rank:
            raise InvalidGhostSpace(f"element {x} has wrong rank for orders {self.cyclic_orders}")
        return tuple(v % n for v, n in zip(x, self.cyclic_orders))

    def add(self, x, y) -> tuple[int, ...]:
        x, y = self.element(x), self.element(y)
        return tuple((a + b) % n for a, b, n in zip(x, y, self.cyclic_orders))

    def neg(self, x) -> tuple[int, ...]:
        x = self.element(x)
        return tuple((-a) % n for a, n in zip(x, self.cyclic_orders))

    def coords_matrix(self) -> np.ndarray:
        """(size, rank) int array of all elements in index order."""
        return np.array(self.elements(), dtype=np.int64).reshape(self.size, self.rank)

    def add_table(self) -> np.ndarray:
        """add_table[i, j] = index of element_i + element_j."""
        coords = self.coords_matrix()
        orders = np.array(self.cyclic_orders, dtype=np.int64)
        sums = (coords[:, None, :] + coords[None, :, :]) % orders
        return np.ravel_multi_index(
            tuple(sums[:, :, j] for j in range(self.rank)),
            self.cyclic_orders).reshape(self.size, self.size)

    def neg_table(self) -> np.ndarray:
        coords = self.coords_matrix()
        orders = np.array(self.cyclic_orders, dtype=np.int64)
        negs = (-coords) % orders
        return np.ravel_multi_index(
            tuple(negs[:, j] for j in range(self.rank)), self.cyclic_orders).reshape(self.size)

    def character_table(self) -> np.ndarray:
        """chi[a, x] = exp(2 pi i sum_j a_j x_j / n_j)."""
        coords = self.coords_matrix().astype(float)
        orders = np.array(self.cyclic_orders, dtype=float)
        phase = (coords / orders) @ coords.T
        return np.exp(2j * math.pi * phase)

    def __repr__(self):
        return "Z" + "x".join(f"/{n}" for n in self.cyclic_orders) if self.cyclic_orders else "0"


def dft(group: FiniteAbelianGroup, f) -> np.ndarray:
    """Fourier transform against counting measure: uhat(chi) = sum f(x) conj(chi(x))."""
    arr = np.asarray(f, dtype=complex).reshape(-1)
    if arr.size != group.size:
        raise InvalidGhostSpace("function not defined on all group elements")
    return np.fft.fftn(arr.reshape(group.cyclic_orders)).ravel()


def idft(group: FiniteAbelianGroup, fhat) -> np.ndarray:
    """Inverse of ``dft``: f(x) = (1/|G|) sum fhat(chi) chi(x)."""
    arr = np.asarray(fhat, dtype=complex).reshape(-1)
    return np.fft.ifftn(arr.reshape(group.cyclic_orders)).ravel()


# ---------------------------------------------------------------------------
# validity checking


@dataclass(frozen=True)
class FirstKindCheck:
    passed: bool
    failing_invariant: str | None
    dft_min: float
    unit_subgroup: tuple[tuple[int, ...], ...]
    coset_constant: bool


def check_first_kind(group: FiniteAbelianGroup, u) -> FirstKindCheck:
    """Validate all first-kind invariants, naming the first failure.

    Also reports the subgroup {x : u(x) = 1} and verifies it is closed under
    addition with u constant on its cosets (the finite-scale content of the
    u <= 1 theorem).
    """
    u = np.asarray(u, dtype=float).reshape(-1)

    def fail(reason):
        return FirstKindCheck(False, reason, math.nan, (), False)

    if u.size != group.size or not np.all(np.isfinite(u)):
        return fail("u must be a finite real function on all group elements")
    if abs(u[0] - 1.0) > _UNIT_TOL:
        return fail("u(0) != 1")
    if np.min(u) <= 0.0:
        return fail("u is not strictly positive")
    neg = group.neg_table()
    if np.max(np.abs(u[neg] - u)) > _EVEN_TOL:
        return fail("u is not even")
    uhat = dft(group, u)
    if np.max(np.abs(uhat.imag)) > 1e-10:
        return fail("DFT of u is not real")
    dft_min = float(np.min(uhat.real))
    if dft_min < -_PD_TOL:
        return fail(f"u is not positive-definite (DFT coefficient {dft_min:.3e} < 0)")
    if np.max(u) > 1.0 + _UNIT_TOL:
        return fail(f"u exceeds 1 (max {np.max(u):.12g})")
    # the unit set must be a subgroup with u constant on its cosets
    unit = u >= 1.0 - _UNIT_TOL
    idx = np.flatnonzero(unit)
    add = group.add_table()
    if not np.all(unit[add[np.ix_(idx, idx)]]):
        return fail("{u = 1} is not closed under addition")
    if np.max(np.abs(u[add[idx]] - u)) > _UNIT_TOL:
        return fail("u is not constant on the cosets of {u = 1}")
    elements = group.elements()
    return FirstKindCheck(True, None, dft_min, tuple(elements[i] for i in idx), True)


@dataclass(frozen=True)
class GhostSpaceFirstKind:
    """Group with a strictly positive, even, positive-definite u, u(0) = 1."""

    group: FiniteAbelianGroup
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float).reshape(-1)
        report = check_first_kind(self.group, u)
        if not report.passed:
            raise InvalidGhostSpace(report.failing_invariant)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class GhostSpaceSecondKind:
    """Group with an even, positive-definite probability point measure mu."""

    group: FiniteAbelianGroup
    mu: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float).reshape(-1)
        if mu.size != self.group.size or not np.all(np.isfinite(mu)):
            raise InvalidGhostSpace("mu must be a finite real measure on all group elements")
        if np.min(mu) < -_PD_TOL:
            raise InvalidGhostSpace("mu has a negative point mass")
        if abs(math.fsum(mu.tolist()) - 1.0) > 1e-12:
            raise InvalidGhostSpace("mu is not a probability measure")
        if np.max(np.abs(mu[self.group.neg_table()] - mu)) > _EVEN_TOL:
            raise InvalidGhostSpace("mu is not even")
        muhat = dft(self.group, mu)
        if float(np.min(muhat.real)) < -_PD_TOL or np.max(np.abs(muhat.imag)) > 1e-10:
            raise InvalidGhostSpace("mu is not positive-definite")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class MixedGhostSpace:
    """Pair (u, mu) for the combined convolution c(x,y) T_{x+y} mu.

    Only the requirements of the mixed structure are enforced: u even and
    strictly positive with u(0) = 1, mu an even probability measure.
    """

    group: FiniteAbelianGroup
    u: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float).reshape(-1)
        mu = np.array(self.mu, dtype=float).reshape(-1)
        if u.size != self.group.size or mu.size != self.group.size:
            raise InvalidGhostSpace("u and mu must be defined on all group elements")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(mu))):
            raise InvalidGhostSpace("u and mu must be finite")
        if abs(u[0] - 1.0) > _UNIT_TOL or np.min(u) <= 0.0:
            raise InvalidGhostSpace("mixed structure needs u > 0 with u(0) = 1")
        neg = self.group.neg_table()
        if np.max(np.abs(u[neg] - u)) > _EVEN_TOL or np.max(np.abs(mu[neg] - mu)) > _EVEN_TOL:
            raise InvalidGhostSpace("u and mu must both be even")
        if np.min(mu) < -_PD_TOL or abs(math.fsum(mu.tolist()) - 1.0) > 1e-12:
            raise InvalidGhostSpace("mu must be a probability measure")
        u.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class GhostMeasure:
    """Finitely supported signed measure arising from a convolution."""

    group: FiniteAbelianGroup
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.size != self.group.size:
            raise InvalidGhostSpace("measure not defined on all group elements")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def total(self) -> float:
        return math.fsum(self.weights.tolist())


# ---------------------------------------------------------------------------
# convolutions and dimensions


def _shift(group: FiniteAbelianGroup, arr: np.ndarray, by) -> np.ndarray:
    """T_by arr, i.e. (T_by arr)(z) = arr(z - by)."""
    if not group.cyclic_orders:
        return arr.copy()
    by = group.element(by)
    return np.roll(arr.reshape(group.cyclic_orders), shift=by,
                   axis=tuple(range(group.rank))).ravel()


def _convolve(group: FiniteAbelianGroup, u, mu, x, y) -> GhostMeasure:
    """delta_x * delta_y = (u(x) u(y) / u(x+y)) T_{x+y} mu."""
    s = group.add(x, y)
    coeff = float(u[group.index(x)]) * float(u[group.index(y)]) / float(u[group.index(s)])
    return GhostMeasure(group, coeff * _shift(group, mu, s))


def convolve_first(gs: GhostSpaceFirstKind, x, y) -> GhostMeasure:
    """delta_x * delta_y = (u(x) u(y) / u(x+y)) delta_{x+y}: the mixed product at mu = delta_0."""
    delta = np.zeros(gs.group.size)
    delta[0] = 1.0
    return _convolve(gs.group, gs.u, delta, x, y)


def convolve_second(gs: GhostSpaceSecondKind, x, y) -> GhostMeasure:
    """delta_x * delta_y = T_{x+y} mu: the mixed product at u = 1."""
    return _convolve(gs.group, np.ones(gs.group.size), gs.mu, x, y)


def mixed_convolve(group: FiniteAbelianGroup, u, mu, x, y) -> GhostMeasure:
    """delta_x * delta_y = (u(x) u(y) / u(x+y)) T_{x+y} mu."""
    ms = MixedGhostSpace(group, u, mu)
    return _convolve(group, ms.u, ms.mu, x, y)


def dim_first(gs: GhostSpaceFirstKind) -> float:
    """log of the u-mass under counting measure."""
    return math.log(math.fsum(gs.u.tolist()))


def dim_second(gs: GhostSpaceSecondKind) -> float:
    """log of the density of mu at 0 against the probability Haar measure."""
    return math.log(float(gs.mu[0]) * gs.group.size)


def quotient_by_ghost(group: FiniteAbelianGroup, u) -> GhostSpaceSecondKind:
    """G / G_u as a second-kind space: mu proportional to u.

    Dimension additivity log|G| = dim G_u + dim G^mu holds by construction
    and is asserted here to 1e-12.
    """
    gs = GhostSpaceFirstKind(group, u)
    total = math.fsum(gs.u.tolist())
    quotient = GhostSpaceSecondKind(group, gs.u / total)
    defect = abs(math.log(group.size) - dim_first(gs) - dim_second(quotient))
    if defect > 1e-12:
        raise InvalidGhostSpace(f"dimension additivity violated by {defect:.3e}")
    return quotient


# ---------------------------------------------------------------------------
# subgroups, subquotients


def subgroup_from_generators(group: FiniteAbelianGroup, generators) -> tuple:
    """All elements generated by the given tuples, exhaustively closed."""
    closure = {group.element([0] * group.rank)}
    frontier = [group.element(g) for g in generators]
    closure.update(frontier)
    while True:
        new = set()
        for a in closure:
            for g in frontier:
                s = group.add(a, g)
                if s not in closure:
                    new.add(s)
        if not new:
            break
        closure.update(new)
    return tuple(sorted(closure))


@dataclass(frozen=True)
class SubQuotient:
    """First-kind structure on G/H with the projection data used to build it."""

    space: GhostSpaceFirstKind
    quotient_group: FiniteAbelianGroup
    projection: np.ndarray  # flat index map |G| -> |G/H|
    subgroup: tuple


def quotient_group_map(group: FiniteAbelianGroup, generators):
    """Present G/<generators> as a cyclic product with its projection map.

    Diagonalizing the relation lattice (the cyclic orders together with the
    generator columns) by unimodular operations gives orders d_i and a left
    transform U; x maps to (U x) mod d with the trivial factors dropped.
    """
    k = group.rank
    if k == 0:
        return FiniteAbelianGroup(()), np.zeros(1, dtype=np.int64)
    cols = [[group.cyclic_orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    gens = [group.element(g) for g in generators]
    mat = [[cols[i][j] for j in range(k)] + [g[i] for g in gens] for i in range(k)]
    diag, U = diagonalize_int(mat)
    keep = [i for i, d in enumerate(diag) if d > 1]
    qorders = tuple(diag[i] for i in keep)
    qgroup = FiniteAbelianGroup(qorders)
    coords = group.coords_matrix()
    mapped = coords @ np.array(U, dtype=np.int64).T
    dvec = np.array(diag, dtype=np.int64)
    mapped = mapped % dvec
    if keep:
        proj = np.ravel_multi_index(
            tuple(mapped[:, i] for i in keep), qorders).astype(np.int64)
    else:
        proj = np.zeros(group.size, dtype=np.int64)
    return qgroup, proj


def sub_quotient_first(group: FiniteAbelianGroup, u, generators) -> SubQuotient:
    """Quotient structure G_u / H_u on G/H:

        v(x + H) = sum_{y in H} u(x + y) / sum_{y in H} u(y)

    v(0) = 1 by construction; positive-definiteness of v is verified by the
    DFT when the result is built (a failure would be a counterexample to the
    quotient positive-definiteness claim and raises InvalidGhostSpace).
    """
    gs = GhostSpaceFirstKind(group, u)
    subgroup = subgroup_from_generators(group, generators)
    qgroup, proj = quotient_group_map(group, generators)
    if group.size != qgroup.size * len(subgroup):
        raise InvalidGhostSpace("quotient presentation does not match the subgroup order")
    coset_sums = np.zeros(qgroup.size)
    np.add.at(coset_sums, proj, gs.u)
    v = coset_sums / coset_sums[0]
    space = GhostSpaceFirstKind(qgroup, v)
    return SubQuotient(space=space, quotient_group=qgroup, projection=proj,
                       subgroup=subgroup)


# ---------------------------------------------------------------------------
# duality


def dual_ghost(gs: GhostSpaceFirstKind) -> GhostSpaceSecondKind:
    """Dual structure: uhat as a probability measure on the character group.

    The character group is presented with the same cyclic orders, characters
    indexed so that chi_a(x) = exp(2 pi i sum a_j x_j / n_j).
    """
    uhat = dft(gs.group, gs.u) / gs.group.size
    if np.max(np.abs(uhat.imag)) > 1e-10:
        raise InvalidGhostSpace("DFT of u is not real")
    dual_group = FiniteAbelianGroup(gs.group.cyclic_orders)
    return GhostSpaceSecondKind(dual_group, uhat.real)


@dataclass(frozen=True)
class QuasiCharacter:
    values: np.ndarray  # complex, indexed like the group elements
    symmetric: bool


def quasi_characters(structure) -> list[QuasiCharacter]:
    """All quasi-characters phi with phi(x) phi(y) = (delta_x * delta_y)(phi).

    First kind: exactly chi * u over all characters chi.  Second kind:
    chi scaled by the inverse transform of mu at chi.
    """
    group = structure.group
    chi = group.character_table()
    neg = group.neg_table()
    if isinstance(structure, GhostSpaceFirstKind):
        base = chi * structure.u
    elif isinstance(structure, GhostSpaceSecondKind):
        scale = dft(group, structure.mu).real  # mu even, so the transform is real
        base = chi * scale[:, None]
    else:
        raise TypeError("quasi-characters are defined for first- and second-kind spaces")
    out = []
    for row in base:
        symmetric = bool(np.max(np.abs(row[neg] - np.conj(row))) <= 1e-10)
        out.append(QuasiCharacter(values=row, symmetric=symmetric))
    return out


# ---------------------------------------------------------------------------
# exhaustive associativity / commutativity checking


@dataclass(frozen=True)
class AssociativityCheck:
    passed: bool
    max_associativity_defect: float
    max_commutativity_defect: float
    triples_checked: int


def check_associativity(structure, tol: float = 1e-11) -> AssociativityCheck:
    """Compare (dx * dy) * dz with dx * (dy * dz) for every triple, as measures.

    The extension of * to measures is the definitional double sum, evaluated
    in the two association orders; commutativity is checked on all pairs.
    Every kind runs as the mixed product c(x,y) T_{x+y} mu: the second kind
    at u = 1, the first kind at mu = delta_0, whose measure axis collapses to
    the one point x + y + z.  The triples are taken one x at a time, so no
    array is larger than |G|^3.
    """
    if not isinstance(structure, (GhostSpaceFirstKind, GhostSpaceSecondKind, MixedGhostSpace)):
        raise TypeError(f"cannot check associativity of {type(structure).__name__}")
    group = structure.group
    g = group.size
    add = group.add_table()
    u = np.ones(g) if isinstance(structure, GhostSpaceSecondKind) else structure.u
    c = (u[:, None] * u[None, :]) / u[add]
    if isinstance(structure, GhostSpaceFirstKind):
        shift_mu = np.ones((g, 1))  # T_s delta_0 on its one-point axis t = s
        lhs_core, rhs_core = c[:, :, None], c.T[:, :, None]
    else:
        shift_mu = structure.mu[add[group.neg_table(), :]]  # shift_mu[s, w] = mu(w - s)
        P = shift_mu[add, :]                                # P[w, z, t] = mu(t - w - z)
        lhs_core = np.einsum("aw,wz,wzt->azt", shift_mu, c, P)
        rhs_core = np.einsum("bw,xw,wxt->bxt", shift_mu, c, P)
    # lhs[y, z, t] = c(x, y) lhs_core[x+y, z, t], rhs[y, z, t] = c(y, z) rhs_core[y+z, x, t]
    assoc = float(np.max([np.max(np.abs(c[x, :, None, None] * lhs_core[add[x]]
                                        - c[:, :, None] * rhs_core[:, x][add]))
                          for x in range(g)]))
    pair = c[:, :, None] * shift_mu[add]
    comm = float(np.max(np.abs(pair - np.transpose(pair, (1, 0, 2)))))
    return AssociativityCheck(assoc <= tol and comm <= tol, assoc, comm, g ** 3)


# ---------------------------------------------------------------------------
# descriptor files


def load_ghost(obj: dict):
    """Parse {cyclic_orders, u} or {cyclic_orders, mu} (mixed-radix order)."""
    if not isinstance(obj, dict) or "cyclic_orders" not in obj:
        raise InvalidGhostSpace("ghost descriptor needs 'cyclic_orders'")
    try:
        orders = tuple(exact_int(n) for n in obj["cyclic_orders"])
    except (TypeError, ValueError) as exc:
        raise InvalidGhostSpace("cyclic_orders must be a list of integers") from exc
    group = FiniteAbelianGroup(orders)
    if ("u" in obj) == ("mu" in obj):
        raise InvalidGhostSpace("ghost descriptor needs exactly one of 'u' or 'mu'")
    if "u" in obj:
        return GhostSpaceFirstKind(group, np.asarray(obj["u"], dtype=float))
    return GhostSpaceSecondKind(group, np.asarray(obj["mu"], dtype=float))


def load_ghost_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidGhostSpace(f"ghost file is not valid JSON: {exc}") from exc
    return load_ghost(obj)
