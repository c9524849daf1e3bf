"""Ghost-space structures: convolutions, quotients, duals, quasi-characters."""

import cmath
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from arithcoh.errors import InvalidGhostSpace
from arithcoh.ghost import (
    AssociativityCheck,
    FiniteAbelianGroup,
    GhostMeasure,
    GhostSpaceFirstKind,
    GhostSpaceSecondKind,
    MixedGhostSpace,
    check_associativity,
    check_first_kind,
    convolve_first,
    convolve_second,
    dft,
    dim_first,
    dim_second,
    dual_ghost,
    idft,
    load_ghost,
    mixed_convolve,
    quasi_characters,
    quotient_by_ghost,
    quotient_group_map,
    sub_quotient_first,
    subgroup_from_generators,
)

from conftest import GROUP_POOL, random_first_kind

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))


def test_dft_delta_is_flat():
    f = np.zeros(4)
    f[0] = 1.0
    assert np.allclose(dft(Z4, f), np.ones(4))


def test_dft_constant_concentrates():
    got = dft(Z3, np.ones(3))
    assert got[0] == pytest.approx(3.0)
    assert np.max(np.abs(got[1:])) < 1e-12


def test_dft_z3_symmetric_pair():
    c = 0.35
    got = dft(Z3, [1.0, c, c]).real
    assert np.allclose(got, [1 + 2 * c, 1 - c, 1 - c], atol=1e-12)


def test_dft_inverse_roundtrip():
    rng = random.Random(8)
    for orders in ((5,), (2, 3), (2, 2, 2)):
        g = FiniteAbelianGroup(orders)
        f = np.array([rng.uniform(-1, 1) for _ in range(g.size)])
        assert np.max(np.abs(idft(g, dft(g, f)) - f)) < 1e-10


def test_group_tables_follow_ndindex_order():
    for orders in [()] + GROUP_POOL:
        group = FiniteAbelianGroup(orders)
        expected = list(np.ndindex(*orders))
        assert type(group.size) is int and group.size == len(expected)
        assert group.elements() == expected
        assert all(type(v) is int for x in group.elements() for v in x)
        coords = group.coords_matrix()
        assert coords.dtype == np.int64 and coords.shape == (group.size, group.rank)
        assert coords.tolist() == [list(x) for x in expected]


def test_commutativity_premises_hold_bit_for_bit():
    # check_associativity reads the commutativity defect off c alone: add is
    # symmetric, and so is c(x, y) = u(x) u(y) / u(x + y), bit for bit
    rng = random.Random(29)
    for orders in [()] + GROUP_POOL:
        group = FiniteAbelianGroup(orders)
        add = group.add_table()
        assert np.array_equal(add, add.T)
        for _ in range(3):
            u = np.exp(np.array([rng.uniform(-200.0, 200.0) for _ in range(group.size)]))
            c = (u[:, None] * u[None, :]) / u[add]
            assert c.tobytes() == np.ascontiguousarray(c.T).tobytes()
        uniform = GhostSpaceSecondKind(group, np.full(group.size, 1.0 / group.size))
        assert check_associativity(uniform).max_commutativity_defect == 0.0


def test_check_first_kind_trivial():
    report = check_first_kind(Z4, np.ones(4))
    assert report.passed
    assert len(report.unit_subgroup) == 4


def test_check_first_kind_striped():
    report = check_first_kind(Z4, [1.0, 0.5, 1.0, 0.5])
    assert report.passed
    assert report.unit_subgroup == ((0,), (2,))
    assert report.coset_constant


def test_check_first_kind_rejects_large_values():
    report = check_first_kind(Z2, [1.0, 1.5])
    assert not report.passed
    assert "positive-definite" in report.failing_invariant


def test_check_first_kind_named_failures():
    assert "u(0)" in check_first_kind(Z2, [0.9, 0.5]).failing_invariant
    assert "positive" in check_first_kind(Z2, [1.0, -0.5]).failing_invariant
    assert "even" in check_first_kind(Z3, [1.0, 0.5, 0.6]).failing_invariant
    assert "all group elements" in check_first_kind(Z4, [1.0, 0.5]).failing_invariant
    # positive-definite only up to the 1e-12 tolerances: {u = 1} = {0, 1, 3} on Z/4
    unit, near = 1.0 - 0.5e-12, 1.0 - 1.8e-12
    assert "closed" in check_first_kind(Z4, [1.0, unit, near, unit]).failing_invariant
    # on Z/15, u lifted from Z/5 plus 6.2e-13 of cos(2 pi x / 15): {u = 1} = <5>
    # within 1e-12, but u(x + 5) - u(x) reaches 1.07e-12
    x = np.arange(15)
    u = (1.0 - 6.2e-13) * np.where(x % 5 == 0, 1.0, 0.3) + 6.2e-13 * np.cos(2 * math.pi * x / 15)
    report = check_first_kind(FiniteAbelianGroup((15,)), u)
    assert "cosets" in report.failing_invariant and not report.coset_constant
    # u(0) - 1 = 0.9e-12 and the DFT (2 + 2.7e-12, -0.9e-12) pass within 1e-12,
    # but u(1) - 1 = 1.8e-12; the message names that excess, not max u
    report = check_first_kind(Z2, [1.0 + 0.9e-12, 1.0 + 1.8e-12])
    assert report.failing_invariant == "u exceeds 1 (max u - 1 = 1.8e-12)"
    # even to 9.0e-13, within 1e-12, but the odd sine term leaves
    # max |Im DFT| = 2.25e-10, above 1e-10
    x = np.arange(1000)
    d = np.minimum(x, 1000 - x)
    u = 0.5 + 0.5 * np.exp(-d**2 / 800) + 0.45e-12 * np.sin(2 * math.pi * x / 1000)
    u[0] = 1.0
    assert check_first_kind(FiniteAbelianGroup((1000,)), u).failing_invariant == \
        "DFT of u is not real"


def test_trivial_group_runs_every_operation():
    # rank 0, |G| = 1: _shift and quotient_group_map take their own branches
    group = FiniteAbelianGroup(())
    gs = GhostSpaceFirstKind(group, [1.0])
    assert check_first_kind(group, [1.0]).unit_subgroup == ((),)
    assert convolve_first(gs, (), ()).weights.tolist() == [1.0]
    assert mixed_convolve(group, [1.0], [1.0], (), ()).weights.tolist() == [1.0]
    assert dual_ghost(gs).mu.tolist() == [1.0]
    quotient = quotient_by_ghost(group, [1.0])
    assert quotient.mu.tolist() == [1.0] and dim_first(gs) == dim_second(quotient) == 0.0
    sq = sub_quotient_first(group, [1.0], [])
    assert (sq.quotient_group.cyclic_orders, sq.projection.tolist()) == ((), [0])
    assert [q.values.tolist() for q in quasi_characters(gs)] == [[1.0]]
    for structure in (gs, quotient, MixedGhostSpace(group, [1.0], [1.0])):
        assert check_associativity(structure) == AssociativityCheck(True, 0.0, 0.0, 1)


@pytest.mark.parametrize("orders", [(6.7,), ("3",), (True, 2), (2, None), 5],
                         ids=["float", "str", "bool", "none", "not-a-list"])
def test_group_orders_must_be_integers(orders):
    # int() read (6.7,) as Z/6 and ("3",) as Z/3
    with pytest.raises(InvalidGhostSpace, match="cyclic orders must be integers"):
        FiniteAbelianGroup(orders)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: dft(Z4, np.ones(3)), "function not defined", id="dft"),
    pytest.param(lambda: GhostSpaceSecondKind(Z4, [0.5, 0.25, 0.25]), "mu must be", id="second"),
    pytest.param(lambda: MixedGhostSpace(Z4, [1.0, 0.5, 0.5], [0.4, 0.2, 0.2, 0.2]),
                 "u must be a finite real function", id="mixed-u"),
    pytest.param(lambda: MixedGhostSpace(Z4, [1.0, 0.5, 0.5, 0.5], [0.4, 0.2, 0.4]),
                 "mu must be a finite real function", id="mixed-mu"),
    pytest.param(lambda: GhostMeasure(Z4, np.zeros(5)), "measure not defined", id="measure"),
])
def test_input_of_the_wrong_size_is_refused(build, message):
    with pytest.raises(InvalidGhostSpace, match=message):
        build()


def test_unsupported_structures_are_type_errors():
    mixed = MixedGhostSpace(Z3, [1.0, 0.5, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(TypeError, match="first- and second-kind"):
        quasi_characters(mixed)
    with pytest.raises(TypeError, match="of FiniteAbelianGroup"):
        check_associativity(Z3)


def test_first_kind_constructor_validates():
    with pytest.raises(InvalidGhostSpace):
        GhostSpaceFirstKind(Z2, [1.0, 1.5])


def test_second_kind_constructor_validates():
    with pytest.raises(InvalidGhostSpace):
        GhostSpaceSecondKind(Z2, [0.6, 0.3])
    with pytest.raises(InvalidGhostSpace):
        GhostSpaceSecondKind(Z3, [0.5, 0.4, 0.1])
    with pytest.raises(InvalidGhostSpace):
        GhostSpaceSecondKind(Z2, [0.1, 0.9])  # DFT = (1, -0.8)
    # even, of total mass 1, and its DFT (1.0, 1.3, 1.3) is positive
    mu = [1.2, -0.1, -0.1]
    assert np.allclose(dft(Z3, mu).real, [1.0, 1.3, 1.3])
    with pytest.raises(InvalidGhostSpace, match="negative point mass"):
        GhostSpaceSecondKind(Z3, mu)


def test_bochner_equivalence_with_matrix_definition():
    # the DFT criterion must agree with hermitian nonnegative-definiteness of
    # the matrix u(x_j - x_i) over all elements
    rng = random.Random(44)
    checked = 0
    for _ in range(200):
        orders = rng.choice([(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)])
        group = FiniteAbelianGroup(orders)
        if rng.random() < 0.5:
            u = random_first_kind(rng, orders).u.copy()
        else:
            u = np.array([rng.uniform(0.05, 1.0) for _ in range(group.size)])
            u[0] = 1.0
            neg = group.neg_table()
            u = 0.5 * (u + u[neg])
        add = group.add_table()
        neg = group.neg_table()
        matrix = u[add[neg, :]]  # entry (i, j) = u(x_j - x_i)
        psd = float(np.min(np.linalg.eigvalsh(matrix))) >= -1e-9
        dft_ok = float(np.min(dft(group, u).real)) >= -1e-12
        report = check_first_kind(group, u)
        assert dft_ok == psd or abs(float(np.min(dft(group, u).real))) < 1e-8
        if report.passed:
            assert psd
            checked += 1
    assert checked > 40


def test_convolve_first_examples():
    gs = GhostSpaceFirstKind(Z2, [1.0, 0.5])
    assert convolve_first(gs, (0,), (0,)).weights.tolist() == [1.0, 0.0]
    assert convolve_first(gs, (1,), (1,)).weights.tolist() == [0.25, 0.0]
    assert convolve_first(gs, (0,), (1,)).weights.tolist() == [0.0, 1.0]


def test_convolve_second_examples():
    delta = GhostSpaceSecondKind(Z4, [1.0, 0.0, 0.0, 0.0])
    got = convolve_second(delta, (1,), (2,))
    assert got.weights.tolist() == [0.0, 0.0, 0.0, 1.0]
    gs = GhostSpaceSecondKind(Z2, [2 / 3, 1 / 3])
    assert np.allclose(convolve_second(gs, (1,), (1,)).weights, [2 / 3, 1 / 3])
    assert np.allclose(convolve_second(gs, (1,), (0,)).weights, [1 / 3, 2 / 3])


def test_mixed_convolve_examples():
    u = [1.0, 0.5]
    mu = [0.75, 0.25]
    got = mixed_convolve(Z2, u, mu, (1,), (1,))
    assert np.allclose(got.weights, [0.25 * 0.75, 0.25 * 0.25])
    # mu = delta_0 reduces to the first kind
    got = mixed_convolve(Z2, u, [1.0, 0.0], (1,), (1,))
    assert np.allclose(got.weights, convolve_first(GhostSpaceFirstKind(Z2, u), 1, 1).weights)
    # u = 1 reduces to the second kind
    got = mixed_convolve(Z2, [1.0, 1.0], mu, (1,), (0,))
    assert np.allclose(got.weights,
                       convolve_second(GhostSpaceSecondKind(Z2, mu), 1, 0).weights)


def test_dimensions_of_plain_group():
    for orders in ((2,), (5,), (2, 3)):
        g = FiniteAbelianGroup(orders)
        assert dim_first(GhostSpaceFirstKind(g, np.ones(g.size))) == pytest.approx(
            math.log(g.size), abs=1e-14)
        delta = np.zeros(g.size)
        delta[0] = 1.0
        assert dim_second(GhostSpaceSecondKind(g, delta)) == pytest.approx(
            math.log(g.size), abs=1e-14)


def test_dim_first_direct_sum():
    gs = GhostSpaceFirstKind(Z2, [1.0, 0.5])
    assert dim_first(gs) == pytest.approx(math.log(1.5), abs=1e-15)


def test_quotient_by_ghost_examples():
    q = quotient_by_ghost(Z2, [1.0, 0.5])
    assert np.allclose(q.mu, [2 / 3, 1 / 3])
    # additivity: log 2 = log 1.5 + log(4/3)
    assert math.log(2) == pytest.approx(math.log(1.5) + dim_second(q), abs=1e-14)
    c = 0.25
    q3 = quotient_by_ghost(Z3, [1.0, c, c])
    assert abs(math.log(3) - math.log(1 + 2 * c) - dim_second(q3)) < 1e-14
    uniform = quotient_by_ghost(Z3, [1.0, 1.0, 1.0])
    assert np.allclose(uniform.mu, np.ones(3) / 3)


def test_quotient_by_ghost_takes_any_u0_that_check_first_kind_passes():
    # u(0) = 1 - 1e-12 passes check_first_kind; additivity asserted against
    # log|G| alone refused it, by 1e-12
    u = [1 - 1e-12, 0.5]
    q = quotient_by_ghost(Z2, u)
    assert q.mu.tolist() == [x / math.fsum(u) for x in u]
    additivity = dim_first(GhostSpaceFirstKind(Z2, u)) + dim_second(q) - math.log(2)
    assert abs(additivity - math.log(u[0])) <= 4 * math.ulp(math.log(2))


def test_subgroup_from_generators():
    g = FiniteAbelianGroup((2, 4))
    assert subgroup_from_generators(g, []) == ((0, 0),)
    assert subgroup_from_generators(g, [(0, 2)]) == ((0, 0), (0, 2))
    assert len(subgroup_from_generators(g, [(1, 1)])) == 4


def test_sub_quotient_trivial_subgroup():
    u = [1.0, 0.5, 1.0, 0.5]
    sq = sub_quotient_first(Z4, u, [])
    assert sq.quotient_group.cyclic_orders == (4,)
    assert np.allclose(sq.space.u, u)


def test_sub_quotient_full_group():
    sq = sub_quotient_first(Z4, [1.0, 0.5, 1.0, 0.5], [(1,)])
    assert sq.quotient_group.cyclic_orders == ()
    assert sq.space.u.tolist() == [1.0]
    # the trivial group Z^0 = {()} goes through the same code as any other
    trivial = sq.quotient_group
    assert trivial.size == 1 and trivial.elements() == [()] and trivial.index(()) == 0
    assert trivial.add_table().tolist() == [[0]]
    assert trivial.neg_table().tolist() == [0]
    assert trivial.character_table().tolist() == [[1.0 + 0.0j]]
    assert dft(trivial, [0.25]).tolist() == [0.25 + 0.0j]
    assert idft(trivial, [0.25]).tolist() == [0.25 + 0.0j]
    report = check_first_kind(trivial, [1.0])
    assert report.passed and report.unit_subgroup == ((),)
    for structure in (sq.space, GhostSpaceSecondKind(trivial, [1.0])):
        assoc = check_associativity(structure)
        assert assoc.passed and assoc.triples_checked == 1
        assert assoc.max_associativity_defect == 0.0


def test_sub_quotient_z4_example():
    sq = sub_quotient_first(Z4, [1.0, 0.5, 0.5, 0.5], [(2,)])
    assert sq.quotient_group.cyclic_orders == (2,)
    assert np.allclose(sq.space.u, [1.0, 2 * 0.5 / 1.5])
    assert np.allclose(dft(sq.quotient_group, sq.space.u).real, [5 / 3, 1 / 3])


def test_sub_quotient_randomized_additivity_and_pd():
    rng = random.Random(6)
    for _ in range(40):
        gs = random_first_kind(rng)
        group = gs.group
        gens = [rng.choice(group.elements())]
        sq = sub_quotient_first(group, gs.u, gens)
        # kernel of the projection is exactly the subgroup
        proj = sq.projection
        kernel = {group.elements()[i] for i in np.flatnonzero(proj == proj[0])}
        assert kernel == set(sq.subgroup)
        # counting-measure additivity: dim G_u = dim H_u + dim (G/H)_v
        dim_h = math.log(math.fsum(float(gs.u[group.index(x)]) for x in sq.subgroup))
        assert abs(dim_first(gs) - dim_h - dim_first(sq.space)) < 1e-12
        # Fourier coefficients of v stay nonnegative (no counterexample)
        assert float(np.min(dft(sq.quotient_group, sq.space.u).real)) >= -1e-12


def test_quotient_group_map_is_homomorphism():
    rng = random.Random(61)
    for _ in range(20):
        group = FiniteAbelianGroup(rng.choice([(4,), (2, 4), (2, 2, 2), (8,), (3, 3)]))
        gens = [rng.choice(group.elements())]
        qgroup, proj = quotient_group_map(group, gens)
        sub = subgroup_from_generators(group, gens)
        assert qgroup.size * len(sub) == group.size
        for _ in range(20):
            x = rng.choice(group.elements())
            y = rng.choice(group.elements())
            lhs = proj[group.index(group.add(x, y))]
            rhs = qgroup.index(qgroup.add(qgroup.elements()[proj[group.index(x)]],
                                          qgroup.elements()[proj[group.index(y)]]))
            assert lhs == rhs


def test_dual_ghost_examples():
    flat = dual_ghost(GhostSpaceFirstKind(Z3, np.ones(3)))
    assert np.allclose(flat.mu, [1.0, 0.0, 0.0])
    assert dim_second(flat) == pytest.approx(math.log(3), abs=1e-14)
    gs = GhostSpaceFirstKind(Z2, [1.0, 0.5])
    dual = dual_ghost(gs)
    assert np.allclose(dual.mu, [0.75, 0.25])
    assert dim_second(dual) == pytest.approx(dim_first(gs), abs=1e-14)


def test_quasi_characters_first_kind():
    # a plain group yields exactly its characters
    qs = quasi_characters(GhostSpaceFirstKind(Z3, np.ones(3)))
    chi = Z3.character_table()
    got = sorted(tuple(np.round(q.values, 10)) for q in qs)
    expected = sorted(tuple(np.round(row, 10)) for row in chi)
    assert got == expected
    assert all(q.symmetric for q in qs)

    gs = GhostSpaceFirstKind(Z2, [1.0, 0.5])
    vals = sorted(tuple(q.values.real.round(12)) for q in quasi_characters(gs))
    assert vals == [(1.0, -0.5), (1.0, 0.5)]


def brute_force_quasi_characters(gs):
    """Solve the functional equation by enumerating root-of-unity characters."""
    group = gs.group
    u = gs.u
    elements = group.elements()
    orders = group.cyclic_orders
    gens = [tuple(int(i == j) for j in range(group.rank)) for i in range(group.rank)]
    found = set()
    for choices in itertools.product(*[range(n) for n in orders]):
        phi = np.empty(group.size, dtype=complex)
        for idx, x in enumerate(elements):
            phase = sum(c * x[j] / orders[j] for j, c in enumerate(choices))
            phi[idx] = cmath.exp(2j * math.pi * phase) * u[idx]
        ok = True
        for x in elements:
            for y in elements:
                xi, yi = group.index(x), group.index(y)
                si = group.index(group.add(x, y))
                lhs = phi[xi] * phi[yi]
                rhs = phi[si] * u[xi] * u[yi] / u[si]
                if abs(lhs - rhs) > 1e-10:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(tuple(np.round(phi, 8)))
    return found


def test_quasi_characters_match_brute_force():
    rng = random.Random(29)
    for orders in ((2,), (3,), (4,), (2, 2), (2, 4), (8,)):
        gs = random_first_kind(rng, orders)
        got = {tuple(np.round(q.values, 8)) for q in quasi_characters(gs)}
        assert got == brute_force_quasi_characters(gs)


def test_quasi_characters_satisfy_functional_equation():
    # phi(x) phi(y) = (delta_x * delta_y)(phi), the product measure applied to phi
    rng = random.Random(59)
    first = random_first_kind(rng, (6,))
    for gs, convolve in ((first, convolve_first), (dual_ghost(first), convolve_second)):
        group = gs.group
        for q in quasi_characters(gs):
            for x in group.elements():
                for y in group.elements():
                    lhs = q.values[group.index(x)] * q.values[group.index(y)]
                    rhs = convolve(gs, x, y).weights @ q.values
                    assert abs(lhs - rhs) < 1e-10


def test_double_dual_recovers_quasi_characters():
    # quasi-characters of the dual structure are exactly chi(x) u(x) over x
    rng = random.Random(83)
    for orders in ((2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4)):
        gs = random_first_kind(rng, orders)
        group = gs.group
        chi = group.character_table()
        dual = dual_ghost(gs)
        got = {tuple(np.round(q.values, 9)) for q in quasi_characters(dual)}
        expected = {tuple(np.round(chi[:, group.index(x)] * gs.u[group.index(x)], 9))
                    for x in group.elements()}
        assert got == expected


def test_proposition_product_identity():
    # (chi1 u)(chi2 u) pointwise equals the uhat-weighted character sum
    rng = random.Random(37)
    for orders in ((2,), (3,), (4,), (2, 2), (8,), (2, 4)):
        gs = random_first_kind(rng, orders)
        group = gs.group
        chi = group.character_table()
        uhat = dft(group, gs.u).real / group.size
        add = group.add_table()
        size = group.size
        for a1 in range(size):
            for a2 in range(size):
                shifted = uhat[add[a1, a2]]
                # T_{chi1+chi2} uhat evaluated against chi(x) u(x)
                for xi in range(size):
                    lhs = chi[a1, xi] * gs.u[xi] * chi[a2, xi] * gs.u[xi]
                    # sum over chi of chi(x) u(x) uhat(chi - a1 - a2)
                    rhs = 0.0
                    for b in range(size):
                        rhs += chi[b, xi] * gs.u[xi] * uhat[group.index(
                            tuple((bb - s1 - s2) % n for bb, s1, s2, n in zip(
                                group.elements()[b], group.elements()[a1],
                                group.elements()[a2], group.cyclic_orders)))]
                    assert abs(lhs - rhs) < 1e-10


def test_dualized_subquotient_is_annihilator_sequence():
    # dualizing H_u -> G_u -> (G/H)_v for (Z/4, H = {0, 2}) restricts uhat to
    # the annihilator subgroup {0, 2} of the character group, renormalized
    u = np.array([1.0, 0.5, 0.8, 0.5])
    gs = GhostSpaceFirstKind(Z4, u)
    sq = sub_quotient_first(Z4, u, [(2,)])
    vhat_measure = dual_ghost(sq.space)
    uhat = dft(Z4, u).real / 4.0
    annihilator = [0, 2]  # characters trivial on {0, 2}
    restricted = uhat[annihilator] / uhat[annihilator].sum()
    assert np.allclose(vhat_measure.mu, restricted, atol=1e-12)
    assert dim_second(vhat_measure) == pytest.approx(dim_first(sq.space), abs=1e-12)
    # subgroup side: dual of H_u matches uhat pushed to the quotient by the
    # annihilator, i.e. coset sums of uhat
    h_u = GhostSpaceFirstKind(Z2, u[[0, 2]] / u[0])
    hhat = dual_ghost(h_u)
    pushed = np.array([uhat[0] + uhat[2], uhat[1] + uhat[3]])
    pushed /= pushed.sum()
    assert np.allclose(hhat.mu, pushed, atol=1e-12)
    assert dim_second(hhat) == pytest.approx(dim_first(h_u), abs=1e-12)


def test_associativity_first_and_second_kind():
    rng = random.Random(53)
    for _ in range(10):
        gs = random_first_kind(rng)
        report = check_associativity(gs)
        assert report.passed
        assert report.max_associativity_defect <= 1e-11
        quotient = quotient_by_ghost(gs.group, gs.u)
        report2 = check_associativity(quotient)
        assert report2.passed


def test_associativity_mixed_compatible():
    # u lifted from G/H with mu supported on H: the combined structure closes
    g = FiniteAbelianGroup((2, 6))
    qg, proj = quotient_group_map(g, [(0, 3)])
    rng = random.Random(15)
    base = random_first_kind(rng, qg.cyclic_orders)
    u = base.u[proj]
    mu = np.zeros(g.size)
    mu[g.index((0, 0))] = 0.7
    mu[g.index((0, 3))] = 0.3
    report = check_associativity(MixedGhostSpace(g, u, mu))
    assert report.passed


def random_mixed_pair(rng, group):
    """Even u > 0 with u(0) = 1 and an even probability measure mu, unrelated."""
    neg = group.neg_table()
    u = np.array([rng.uniform(0.1, 1.0) for _ in range(group.size)])
    u[0] = 1.0
    mu = np.array([rng.uniform(0.0, 1.0) for _ in range(group.size)])
    mu = 0.5 * (mu + mu[neg])
    return MixedGhostSpace(group, 0.5 * (u + u[neg]), mu / mu.sum())


def compatible_mixed_pair(rng, group):
    """u lifted from G/H and an even probability measure mu on H = <h>, h != 0.

    u is constant on the cosets of H, so c(w, z) = c(s, z) for w in s + H and
    the product closes: J(a, b, t) = (mu * mu)(t - a - b) / u(a + b).
    """
    h = rng.choice([x for x in group.elements() if any(x)])
    qgroup, proj = quotient_group_map(group, [h])
    u = np.ones(group.size)  # H = G leaves the trivial quotient: the second kind
    if qgroup.size > 1:
        u = random_first_kind(rng, qgroup.cyclic_orders).u[proj]
    on_h = [group.index(x) for x in subgroup_from_generators(group, [h])]
    mu = np.zeros(group.size)
    mu[on_h] = [rng.uniform(0.0, 1.0) for _ in on_h]
    mu = 0.5 * (mu + mu[group.neg_table()])
    return MixedGhostSpace(group, u, mu / mu.sum())


def structure_tensor_defects(ms):
    """Defects from K[x, y] = delta_x * delta_y, the structure tensor of the product.

    Returns the associativity defect over all triples (x, y, z), the one over
    the triples (0, y, z) alone, and the commutativity defect.
    """
    elements = ms.group.elements()
    K = np.array([[mixed_convolve(ms.group, ms.u, ms.mu, x, y).weights for y in elements]
                  for x in elements])
    lhs = np.einsum("xyw,wzt->xyzt", K, K)  # (dx * dy) * dz
    rhs = np.einsum("yzw,xwt->xyzt", K, K)  # dx * (dy * dz)
    defect = np.abs(lhs - rhs)
    return (np.max(defect), np.max(defect[0]),
            np.max(np.abs(K - np.transpose(K, (1, 0, 2)))))


def test_associativity_mixed_incompatible_pair_reports_defect():
    # for mu not supported where u is translation invariant the combined
    # convolution genuinely fails associativity; the check must say so.  On
    # Z/2 the triple (0, 1, 1) attains the exhaustive defect 9/64
    ms = MixedGhostSpace(Z2, [1.0, 0.5], [0.75, 0.25])
    report = check_associativity(ms)
    assert not report.passed
    assert report.max_associativity_defect == pytest.approx(9 / 64, abs=1e-12)
    assert structure_tensor_defects(ms)[0] == pytest.approx(9 / 64, abs=1e-12)
    # the report is the |G|^4 oracle's x = 0 slice, and decides pass/fail as
    # the whole oracle does, on an incompatible and a compatible pair
    rng = random.Random(71)
    for orders in GROUP_POOL:
        group = FiniteAbelianGroup(orders)
        for ms, closes in ((random_mixed_pair(rng, group), False),
                           (compatible_mixed_pair(rng, group), True)):
            report = check_associativity(ms)
            full, at_zero, comm = structure_tensor_defects(ms)
            assert report.passed == closes == (full <= 1e-11), (orders, full)
            assert abs(report.max_associativity_defect - at_zero) <= 1e-15
            assert at_zero <= full
            assert abs(report.max_commutativity_defect - comm) <= 1e-15


def _reference_associativity_defect(structure) -> float:
    """The associativity defect of check_associativity, by its formula in
    five |G|^3 arrays: the oracle that the two-array version must match bit
    for bit."""
    group = structure.group
    add = group.add_table()
    u = np.ones(group.size) if isinstance(structure, GhostSpaceSecondKind) else structure.u
    c = (u[:, None] * u[None, :]) / u[add]
    if isinstance(structure, GhostSpaceFirstKind):
        core = c[:, :, None]
    else:
        shift_mu = structure.mu[add[group.neg_table(), :]]
        core = np.tensordot(shift_mu, c[:, :, None] * shift_mu[add, :], axes=1)
    lhs = core * c[0, :, None, None]
    rhs = core[add, 0]
    rhs *= c[:, :, None]
    lhs -= rhs
    return float(np.max(np.abs(lhs, out=lhs)))


def random_second_kind(rng, group):
    """mu(x) = sum_y nu(x + y) nu(y) for a random probability measure nu:
    even, and positive-definite, as its transform is |nu^|^2."""
    nu = np.array([rng.uniform(0.0, 1.0) for _ in range(group.size)])
    nu /= nu.sum()
    return GhostSpaceSecondKind(group, nu[group.add_table()] @ nu)


def test_associativity_defect_matches_the_five_array_formula_bit_for_bit():
    # first kind, its quotient (second kind), a second kind of its own, a
    # compatible mixed pair, an incompatible one, whose defect is far from
    # zero, and that one at u(0) = 1 - 2^-40, where c(0, a) is not all 1.0.
    # Groups of order 42, 45 and 48 meet the GEMM's edge tiles
    rng = random.Random(29)
    for orders in GROUP_POOL + [(4, 12), (42,), (45,), (3, 15)]:
        group = FiniteAbelianGroup(orders)
        gs = random_first_kind(rng, orders)
        incompatible = random_mixed_pair(rng, group)
        u = np.array(incompatible.u)
        u[0] = 1.0 - 2.0 ** -40
        below_one = MixedGhostSpace(group, u, incompatible.mu)
        for structure in (gs, quotient_by_ghost(group, gs.u), random_second_kind(rng, group),
                          compatible_mixed_pair(rng, group), incompatible, below_one):
            report = check_associativity(structure)
            want = _reference_associativity_defect(structure)
            assert report.max_associativity_defect.hex() == want.hex()
            # c is symmetric bit for bit, so max|c - c^T| max|mu| is 0
            assert report.max_commutativity_defect.hex() == (0.0).hex()
        assert _reference_associativity_defect(incompatible) > 1e-6


def test_associativity_memory_stays_cubic():
    # |G| = 48: one |G|^3 float array is 0.9 MB, a |G|^4 one 42 MB; the
    # check holds two |G|^3 arrays at a time
    group = FiniteAbelianGroup((4, 12))
    rng = random.Random(12)
    gs = random_first_kind(rng, group.cyclic_orders)
    for structure in (quotient_by_ghost(group, gs.u), random_mixed_pair(rng, group)):
        tracemalloc.start()
        try:
            report = check_associativity(structure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.triples_checked == 48 ** 3
        assert peak < 3 * 48**3 * 8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mixed_constructor_rejects_non_finite(bad):
    u = [1.0, bad, 0.5, bad]
    with pytest.raises(InvalidGhostSpace, match="finite"):
        MixedGhostSpace(Z4, u, [0.4, 0.2, 0.2, 0.2])
    with pytest.raises(InvalidGhostSpace, match="finite"):
        MixedGhostSpace(Z4, [1.0, 0.5, 0.5, 0.5], [0.4, bad, 0.2, bad])


@pytest.mark.parametrize("u, mu, reason", [
    ([1.0, 0.5, 0.6], [1.0, 0.0, 0.0], "even"),
    ([1.0, 0.5, 0.5], [0.5, 0.3, 0.2], "even"),
    ([1.0, 0.5, 0.5], [0.5, 0.2, 0.2], "probability"),
    ([1.0, 0.5, 0.5], [1.2, -0.1, -0.1], "probability"),
    ([0.9, 0.5, 0.5], [1.0, 0.0, 0.0], r"u\(0\) = 1"),
    ([1.0, -0.5, -0.5], [1.0, 0.0, 0.0], "u > 0"),
])
def test_mixed_constructor_rejects_each_broken_requirement(u, mu, reason):
    MixedGhostSpace(Z3, [1.0, 0.5, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(InvalidGhostSpace, match=reason):
        MixedGhostSpace(Z3, u, mu)


def test_sub_quotient_cross_checks_the_quotient_order(monkeypatch):
    # a presentation of Z/3 / <1> that forgot the subgroup: order 3, not 1
    monkeypatch.setattr("arithcoh.ghost.quotient_group_map",
                        lambda group, generators: (Z3, np.arange(3)))
    with pytest.raises(InvalidGhostSpace, match="does not match the subgroup order"):
        sub_quotient_first(Z3, [1.0, 0.5, 0.5], [(1,)])


def test_load_ghost_descriptor():
    gs = load_ghost({"cyclic_orders": [2], "u": [1.0, 0.5]})
    assert isinstance(gs, GhostSpaceFirstKind)
    ms = load_ghost({"cyclic_orders": [3], "mu": [0.5, 0.25, 0.25]})
    assert isinstance(ms, GhostSpaceSecondKind)
    with pytest.raises(InvalidGhostSpace):
        load_ghost({"cyclic_orders": [2], "u": [1.0, 0.5], "mu": [0.5, 0.5]})
    with pytest.raises(InvalidGhostSpace):
        load_ghost({"u": [1.0]})
    with pytest.raises(InvalidGhostSpace):
        load_ghost({"cyclic_orders": [1], "u": [1.0]})
    with pytest.raises(InvalidGhostSpace):  # int() would truncate it to Z/6
        load_ghost({"cyclic_orders": [6.7], "u": [1.0] * 6})


def test_load_ghost_values_must_be_a_json_array():
    # np.asarray read the string "1" as the one value 1.0
    for key in ("u", "mu"):
        for values in ("1", 1.0):
            with pytest.raises(InvalidGhostSpace, match=f"'{key}' must be a list of reals"):
                load_ghost({"cyclic_orders": [], key: values})
    # nested lists were flattened by the constructors and loaded
    for key, values in (("u", [[1.0], [0.5]]), ("mu", [[0.75], [0.25]]), ("u", [[1.0, 0.5]])):
        nested = rf"'{key}' must be a list of reals: item 0, \[.*\], is not a real"
        with pytest.raises(InvalidGhostSpace, match=nested):
            load_ghost({"cyclic_orders": [2], key: values})


def test_load_ghost_refuses_strings():
    # np.asarray(..., dtype=float) read the JSON strings "1" and "0.5" as reals
    for key, values in (("u", ["1", "0.5"]), ("mu", ["0.75", 0.25])):
        with pytest.raises(InvalidGhostSpace, match=f"'{key}' must be a list of reals"):
            load_ghost({"cyclic_orders": [2], key: values})


def test_load_ghost_refuses_booleans():
    # JSON true was read as 1.0: u = (1, 0.5) and mu = delta_0 loaded
    for key, values in (("u", [True, 0.5]), ("mu", [True, False])):
        with pytest.raises(InvalidGhostSpace, match=f"'{key}' must be a list of reals"):
            load_ghost({"cyclic_orders": [2], key: values})
