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
path for the three: one convolution body, and one associativity check.  That
check compares the triples (0, a, b) only, in |G|^3 work and two |G|^3
arrays of memory held in one allocation, and it skips each scaling by an
exact 1: the second kind's twist, and c(0, a) when u(0) = 1.0.  With
J(s, z, t) = (sum_w mu(w - s) c(w, z) mu(t - w - z)) / (u(s) u(z)) and
c(x, y) = u(x) u(y) / u(x+y), the product is associative exactly when
J(a, b, t) = J(a+b, 0, t), which is the x = 0 slice of the full comparison
(proof in ``check_associativity``).  It reads commutativity off c alone, in
|G|^2 work, since add is symmetric.  Quotients, subquotients, duals (via the
DFT) and quasi-characters are implemented so that every structural claim
about these spaces can be checked exhaustively at finite scale.

Each requirement on u and mu has one validator, which raises
InvalidGhostSpace: (a) a finite function on all of G, even to _EVEN_TOL;
(b) u(0) = 1 and u > 0; (c) no point mass below -_PD_TOL, total mass 1;
(d) Bochner's test, a real DFT with no coefficient below -_PD_TOL.  The
first kind runs (a), (b), (d) in ``check_first_kind``, which adds u <= 1
and the unit subgroup; the second kind runs (a), (c), (d); the mixed pair
runs (a), (b) on u and (a), (c) on mu.  So each requirement is checked
once per space built.

Elements of Z/n1 x ... x Z/nk are tuples ordered mixed-radix
lexicographically (C order); functions and measures are flat arrays in that
order.  Characters are indexed by the same tuples via
chi_a(x) = exp(2 pi i sum a_j x_j / n_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGhostSpace
from .intmat import diagonalize_int, exact_int, exact_reals

_PD_TOL = 1e-12
_EVEN_TOL = 1e-12
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/n1 x ... x Z/nk (k = 0 is the trivial group)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        try:
            orders = tuple(map(exact_int, self.cyclic_orders))
        except (TypeError, ValueError) as exc:
            raise InvalidGhostSpace(f"cyclic orders must be integers: {exc}") from exc
        if any(n < 2 for n in orders):
            raise InvalidGhostSpace("cyclic orders must all be >= 2")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def size(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(x) for x in self.coords_matrix().tolist()]

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

    def coords_matrix(self) -> np.ndarray:
        """(size, rank) int array of all elements in index order."""
        return np.indices(self.cyclic_orders, dtype=np.int64).reshape(self.rank, self.size).T

    def _flat_index(self, coords: np.ndarray) -> np.ndarray:
        """Index of each coordinate vector along the last axis, taken mod the orders."""
        reduced = coords % self.cyclic_orders
        return np.ravel_multi_index(tuple(reduced[..., j] for j in range(self.rank)),
                                    self.cyclic_orders)

    def add_table(self) -> np.ndarray:
        """add_table[i, j] = index of element_i + element_j."""
        coords = self.coords_matrix()
        return self._flat_index(coords[:, None, :] + coords).reshape(self.size, self.size)

    def neg_table(self) -> np.ndarray:
        return self._flat_index(-self.coords_matrix()).reshape(self.size)

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
# validity checking: one validator per requirement, each raising
# InvalidGhostSpace; the constructors and check_first_kind compose them


def _even_function(group: FiniteAbelianGroup, f, name: str) -> np.ndarray:
    """f as a flat array, finite on all of G and even to _EVEN_TOL."""
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.size != group.size or not np.all(np.isfinite(f)):
        raise InvalidGhostSpace(f"{name} must be a finite real function on all group elements")
    if np.max(np.abs(f[group.neg_table()] - f)) > _EVEN_TOL:
        raise InvalidGhostSpace(f"{name} is not even")
    return f


def _positive_unit_at_zero(u: np.ndarray) -> None:
    """u(0) = 1 and u > 0."""
    if abs(u[0] - 1.0) > _UNIT_TOL:
        raise InvalidGhostSpace(f"u needs u(0) = 1, not {float(u[0])!r}")
    if np.min(u) <= 0.0:
        raise InvalidGhostSpace(f"u must be strictly positive, u > 0, but min u = {np.min(u):.3g}")


def _probability(mu: np.ndarray) -> None:
    """No point mass below -_PD_TOL, and total mass 1."""
    if np.min(mu) < -_PD_TOL:
        raise InvalidGhostSpace("mu has a negative point mass, so is not a probability measure")
    if abs(math.fsum(mu.tolist()) - 1.0) > _UNIT_TOL:
        raise InvalidGhostSpace("mu is not a probability measure: its total mass is not 1")


def _bochner(group: FiniteAbelianGroup, f: np.ndarray, name: str) -> float:
    """Bochner's test: the DFT of f is real and no coefficient lies below
    -_PD_TOL.  Returns the least coefficient."""
    fhat = dft(group, f)
    if np.max(np.abs(fhat.imag)) > 1e-10:
        raise InvalidGhostSpace(f"DFT of {name} is not real")
    low = float(np.min(fhat.real))
    if low < -_PD_TOL:
        raise InvalidGhostSpace(f"{name} is not positive-definite (DFT coefficient {low:.3e} < 0)")
    return low


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
    try:
        u = _even_function(group, u, "u")
        _positive_unit_at_zero(u)
        dft_min = _bochner(group, u, "u")
        if np.max(u) > 1.0 + _UNIT_TOL:
            raise InvalidGhostSpace(f"u exceeds 1 (max u - 1 = {np.max(u) - 1.0:.3g})")
        # the unit set must be a subgroup with u constant on its cosets
        unit = u >= 1.0 - _UNIT_TOL
        idx = np.flatnonzero(unit)
        add = group.add_table()
        if not np.all(unit[add[np.ix_(idx, idx)]]):
            raise InvalidGhostSpace("{u = 1} is not closed under addition")
        if np.max(np.abs(u[add[idx]] - u)) > _UNIT_TOL:
            raise InvalidGhostSpace("u is not constant on the cosets of {u = 1}")
    except InvalidGhostSpace as exc:
        return FirstKindCheck(False, str(exc), math.nan, (), False)
    unit_subgroup = tuple(tuple(x) for x in group.coords_matrix()[idx].tolist())
    return FirstKindCheck(True, None, dft_min, unit_subgroup, True)


@dataclass(frozen=True)
class GhostSpaceFirstKind:
    """Group with a strictly positive, even, positive-definite u, u(0) = 1."""

    group: FiniteAbelianGroup
    u: np.ndarray
    # the check_first_kind report that validated u, formed with it
    check: FirstKindCheck = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.array(self.u, dtype=float).reshape(-1)
        report = check_first_kind(self.group, u)
        if not report.passed:
            raise InvalidGhostSpace(report.failing_invariant)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "check", report)

    def sub_quotient(self, generators) -> SubQuotient:
        """sub_quotient_first of this space's group and u, which are valid
        already: only the quotient's v is checked."""
        group = self.group
        subgroup = subgroup_from_generators(group, generators)
        qgroup, proj = quotient_group_map(group, generators)
        if group.size != qgroup.size * len(subgroup):
            raise InvalidGhostSpace("quotient presentation does not match the subgroup order")
        coset_sums = np.zeros(qgroup.size)
        np.add.at(coset_sums, proj, self.u)
        v = coset_sums / coset_sums[0]
        space = GhostSpaceFirstKind(qgroup, v)
        return SubQuotient(space=space, quotient_group=qgroup, projection=proj,
                           subgroup=subgroup)


@dataclass(frozen=True)
class GhostSpaceSecondKind:
    """Group with an even, positive-definite probability point measure mu."""

    group: FiniteAbelianGroup
    mu: np.ndarray

    def __post_init__(self):
        mu = _even_function(self.group, np.array(self.mu, dtype=float), "mu")
        _probability(mu)
        _bochner(self.group, mu, "mu")
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
        u = _even_function(self.group, np.array(self.u, dtype=float), "u")
        _positive_unit_at_zero(u)
        mu = _even_function(self.group, np.array(self.mu, dtype=float), "mu")
        _probability(mu)
        for name, f in (("u", u), ("mu", mu)):
            f.setflags(write=False)
            object.__setattr__(self, name, f)


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
    """G / G_u as a second-kind space: mu = u / sum(u).

    Dimension additivity holds by construction: dim G_u + dim G^mu =
    log sum(u) + log(|G| u(0) / sum(u)) = log|G| + log u(0) exactly, and
    u(0) = 1 up to the tolerance of check_first_kind.
    """
    gs = GhostSpaceFirstKind(group, u)
    return GhostSpaceSecondKind(group, gs.u / math.fsum(gs.u.tolist()))


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
    return GhostSpaceFirstKind(group, u).sub_quotient(generators)


# ---------------------------------------------------------------------------
# duality


def dual_ghost(gs: GhostSpaceFirstKind) -> GhostSpaceSecondKind:
    """Dual structure: uhat as a probability measure on the character group.

    The character group is presented with the same cyclic orders, characters
    indexed so that chi_a(x) = exp(2 pi i sum a_j x_j / n_j).
    """
    uhat = dft(gs.group, gs.u) / gs.group.size
    return GhostSpaceSecondKind(gs.group, uhat.real)


@dataclass(frozen=True)
class QuasiCharacter:
    values: np.ndarray  # complex, indexed like the group elements
    symmetric: bool


def quasi_characters(structure) -> list[QuasiCharacter]:
    """All quasi-characters phi with phi(x) phi(y) = (delta_x * delta_y)(phi).

    First kind: exactly chi * u over all characters chi.  Second kind:
    chi scaled by sum_w mu(w) chi(w), the forward transform of mu at chi, as
    (delta_x * delta_y)(c chi) = c chi(x + y) sum_w mu(w) chi(w).
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
    """Compare (d0 * da) * db with d0 * (da * db) for every (a, b), as measures.

    Every kind runs as the mixed product c(x,y) T_{x+y} mu with
    c(x,y) = u(x) u(y) / u(x+y): the second kind at u = 1, the first kind at
    mu = delta_0, whose measure axis collapses to the one point a + b.  The
    extension of * to measures is the definitional double sum.  By c's
    symmetry both association orders of (dx * dy) * dz evaluate through one
    tensor, computed as one BLAS contraction:

        core[s, z, t] = sum_w mu(w - s) c(w, z) mu(t - w - z),
        (dx * dy) * dz at t = c(x, y) core[x+y, z, t],
        dx * (dy * dz) at t = c(y, z) core[y+z, x, t].

    Put J(s, z, t) = core[s, z, t] / (u(s) u(z)).  The two orders are then
    u(x) u(y) u(z) J(x+y, z, t) and u(x) u(y) u(z) J(y+z, x, t), and u > 0.
    So the triple (0, a, b) associates exactly when J(a, b, t) = J(a+b, 0, t)
    for every t, and if all triples (0, a, b) do, then every triple does:
    J(x+y, z, t) = J(x+y+z, 0, t) = J(y+z, x, t).  The |G|^2 triples with
    x = 0 decide all |G|^3, in |G|^3 comparisons: c(0, a) core[a, b, t]
    against c(a, b) core[a+b, 0, t].

    The check holds two |G|^3 arrays, in one allocation: the contraction's
    operand shift_mu[add] c, scaled in place, whose buffer then takes the
    right side c(a, b) core[a+b, 0, t], and core, which is scaled in place
    to the left side and holds the differences.  Each value is the float the
    out-of-place products give, as IEEE multiplication commutes.  A scaling
    whose factor is exactly 1 is skipped, since x * 1.0 = x: the second kind
    carries no twist (c = 1), and c(0, a) = u(0) u(a) / u(a) = 1 exactly
    when u(0) = 1.0, as u is positive and finite.

    ``max_associativity_defect`` is the largest |difference| of the two
    orders over the triples (0, a, b) and the points t: a real triple's
    defect, which in exact arithmetic is zero exactly when every triple
    associates.  For the first kind (mu = delta_0) and the second (u = 1),
    J depends on a + b only, so their defect measures rounding alone.

    ``max_commutativity_defect`` is the largest |dx * dy - dy * dx| over all
    pairs and points t, found in |G|^2 work.  add is symmetric, so
    (dx * dy)(t) - (dy * dx)(t) = (c(x, y) - c(y, x)) mu(t - x - y), and each
    row of shift_mu is a permutation of mu (all ones for the first kind, on
    its one-point axis), so the largest difference is max |c - c^T| times
    max |shift_mu|.  In floats c is symmetric bit for bit, as IEEE
    multiplication commutes, so the defect reads 0 unless c overflows to a
    non-finite entry; for the second kind, with no c, it is 0.0.
    ``triples_checked`` counts the |G|^3 triples the result covers.
    """
    if not isinstance(structure, (GhostSpaceFirstKind, GhostSpaceSecondKind, MixedGhostSpace)):
        raise TypeError(f"cannot check associativity of {type(structure).__name__}")
    group = structure.group
    g = group.size
    add = group.add_table()
    twisted = not isinstance(structure, GhostSpaceSecondKind)
    if twisted:
        u = structure.u
        c = (u[:, None] * u[None, :]) / u[add]
    if isinstance(structure, GhostSpaceFirstKind):
        shift_mu = np.ones((g, 1))  # T_s delta_0 on its one-point axis t = s
        core = c[:, :, None].copy()
        work = np.empty_like(core)
    else:
        shift_mu = structure.mu[add[group.neg_table(), :]]  # shift_mu[s, w] = mu(w - s)
        # One block, not two: glibc maps a block above its mmap threshold
        # afresh, then raises that threshold to the freed block's size and
        # its trim threshold to twice that.  Two 885 KiB arrays (|G| = 48)
        # were trimmed from the heap top and faulted in again on every call,
        # 3,200-3,500 minor faults a seed-1 ghost_suite pass; one 1.77 MiB
        # block stays on the heap, and the pass takes 0-2.
        work, core = np.empty((2, g, g, g))
        # mode="raise" would buffer out, a third array, here and below
        np.take(shift_mu, add, axis=0, out=work, mode="clip")  # shift_mu[add, :]
        if twisted:
            work *= c[:, :, None]
        # the GEMM np.tensordot makes; another shape would change its bits
        np.dot(shift_mu, work.reshape(g, g * g), out=core.reshape(g, g * g))
    rhs = np.take(core[:, 0], add, axis=0, out=work, mode="clip")  # core[add, 0]
    if twisted:
        rhs *= c[:, :, None]
        if u[0] != 1.0:
            core *= c[0, :, None, None]  # lhs
    core -= rhs
    assoc = float(np.max(np.abs(core, out=core)))
    comm = float(np.max(np.abs(c - c.T))) * float(np.max(np.abs(shift_mu))) if twisted else 0.0
    return AssociativityCheck(assoc <= tol and comm <= tol, assoc, comm, g ** 3)


def load_ghost(obj: dict):
    """Parse {cyclic_orders, u} or {cyclic_orders, mu} (mixed-radix order)."""
    if not isinstance(obj, dict) or "cyclic_orders" not in obj:
        raise InvalidGhostSpace("ghost descriptor needs 'cyclic_orders'")
    group = FiniteAbelianGroup(obj["cyclic_orders"])
    if ("u" in obj) == ("mu" in obj):
        raise InvalidGhostSpace("ghost descriptor needs exactly one of 'u' or 'mu'")
    key = "u" if "u" in obj else "mu"
    try:
        values = exact_reals(obj[key])
    except ValueError as exc:
        raise InvalidGhostSpace(f"'{key}' must be a list of reals: {exc}") from exc
    return (GhostSpaceFirstKind if key == "u" else GhostSpaceSecondKind)(group, values)
