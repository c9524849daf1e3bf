"""Number fields, ideals, splitting, and the metrized embedding."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from arithcoh.errors import DescriptorInconsistent, InvalidFieldSpec, UnsupportedField
from arithcoh.intmat import det_int, inv_fraction
from arithcoh.lattice import dual_lattice
from arithcoh.numfield import (
    FractionalIdeal,
    elem_mul,
    elem_trace,
    embed_ideal,
    ideal_inv,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    load_field_file,
    make_field,
    primes_above,
    principal_ideal,
    unit_ideal,
)

from conftest import cbrt2_descriptor, zeta7_plus_descriptor, zeta8_descriptor

SQUAREFREE_50 = [d for d in range(-50, 51)
                 if d not in (0, 1) and all(d % (q * q) for q in range(2, 8))]
# Q(cbrt 2), Q(zeta_7)^+ and Q(zeta_8): signatures (1, 1), (3, 0) and (0, 2)
HIGHER_DEGREE = (cbrt2_descriptor, zeta7_plus_descriptor, zeta8_descriptor)


def ratio_ideals(F, rng, count):
    """count ideals a * b^-1 for random small a, b: most have den > 1."""
    out = []
    while len(out) < count:
        a, b = ([rng.randint(-3, 3) for _ in range(F.n)] for _ in range(2))
        if any(a) and any(b):
            out.append(ideal_mul(principal_ideal(F, a), ideal_inv(principal_ideal(F, b))))
    return out


def trace_dual_of_ring(F):
    """O^v = {x : Tr(x w_j) in Z for all j}: the rows of the inverse trace form."""
    basis = [[int(i == j) for j in range(F.n)] for i in range(F.n)]
    form = [[elem_trace(F, elem_mul(F, x, y)) for y in basis] for x in basis]
    return FractionalIdeal.from_rows(F, inv_fraction(form))


def test_rational_field():
    Q = make_field("rational")
    assert Q.n == 1
    assert Q.abs_discriminant == 1
    assert Q.different == unit_ideal(Q)
    assert Q.signature == (1, 0)


def test_gaussian_field():
    Qi = make_field(("quadratic", -1))
    assert Qi.abs_discriminant == 4
    assert Qi.signature == (0, 1)
    assert Qi.different == principal_ideal(Qi, (2, 0))
    assert ideal_norm(Qi.different) == 4


def test_golden_field_basis():
    F = make_field(("quadratic", 5))
    assert F.abs_discriminant == 5
    assert F.signature == (2, 0)
    # integral basis {1, (1+sqrt 5)/2}: embedding row of w has the two roots
    got = sorted(F.integral_basis_embeddings[1])
    assert got[0] == pytest.approx((1 - math.sqrt(5)) / 2)
    assert got[1] == pytest.approx((1 + math.sqrt(5)) / 2)


def test_invalid_field_specs():
    for bad in (0, 1, 12, -12, 49):
        with pytest.raises(InvalidFieldSpec):
            make_field(("quadratic", bad))
    with pytest.raises(InvalidFieldSpec):
        make_field({"type": "cubic"})
    for d in (-1.9, 2.5, math.inf, "5"):  # int() would truncate or convert these
        with pytest.raises(InvalidFieldSpec):
            make_field({"type": "quadratic", "d": d})
    with pytest.raises(InvalidFieldSpec):
        make_field("septic")


def test_different_norm_is_discriminant():
    for d in (-1, -2, -5, -7, 2, 3, 5, 13, 17):
        F = make_field(("quadratic", d))
        assert ideal_norm(F.different) == F.abs_discriminant


def test_primes_above_gaussian():
    Qi = make_field(("quadratic", -1))
    two = primes_above(Qi, 2)
    assert len(two) == 1 and two[0].residue_norm == 2 and two[0].ramification == 2
    five = primes_above(Qi, 5)
    assert [p.residue_norm for p in five] == [5, 5]
    assert [p.index for p in five] == [0, 1]
    three = primes_above(Qi, 3)
    assert len(three) == 1 and three[0].residue_norm == 9 and three[0].residue_degree == 2


def test_primes_multiply_to_p():
    for d in (-1, -5, 2, 5, 13):
        F = make_field(("quadratic", d))
        for p in (2, 3, 5, 7):
            above = primes_above(F, p)
            prod = unit_ideal(F)
            for prime in above:
                prod = ideal_mul(prod, ideal_pow(prime.ideal, prime.ramification))
            assert prod == principal_ideal(F, (p, 0))


def test_primes_above_requires_prime():
    Qi = make_field(("quadratic", -1))
    with pytest.raises(ValueError):
        primes_above(Qi, 6)


def test_ideal_identities_gaussian():
    Qi = make_field(("quadratic", -1))
    P = primes_above(Qi, 2)[0]
    assert ideal_mul(P.ideal, unit_ideal(Qi)) == P.ideal
    assert ideal_mul(P.ideal, P.ideal) == principal_ideal(Qi, (2, 0))
    assert ideal_norm(principal_ideal(Qi, (2, 0))) == 4


def test_ideal_inverse_and_norm_multiplicativity():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.choice([-1, -5, -7, 2, 5, 13])
        F = make_field(("quadratic", d))
        primes = [pr for p in (2, 3, 5) for pr in primes_above(F, p)]
        I = unit_ideal(F)
        for pr in primes:
            I = ideal_mul(I, ideal_pow(pr.ideal, rng.randint(-1, 1)))
        assert ideal_mul(I, ideal_inv(I)) == unit_ideal(F)
        J = primes_above(F, 7)[0].ideal
        assert ideal_norm(ideal_mul(I, J)) == ideal_norm(I) * ideal_norm(J)
    for descriptor in HIGHER_DEGREE:
        F = make_field(descriptor())
        ideals = ratio_ideals(F, rng, 6) + [ideal_inv(F.different)]
        assert sum(I.den > 1 for I in ideals) >= 3
        for I, J in zip(ideals, reversed(ideals)):
            assert ideal_mul(I, ideal_inv(I)) == unit_ideal(F)
            assert ideal_norm(ideal_mul(I, J)) == ideal_norm(I) * ideal_norm(J)


def test_embed_rational():
    Q = make_field("rational")
    lat = embed_ideal(Q, unit_ideal(Q), [0.0])
    assert lat.gram.entries[0, 0] == pytest.approx(1.0)
    t = 0.8
    lat_t = embed_ideal(Q, unit_ideal(Q), [t])
    assert lat_t.gram.entries[0, 0] == pytest.approx(math.exp(-2 * t), rel=1e-12)


def test_embed_gaussian_covolume():
    Qi = make_field(("quadratic", -1))
    lat = embed_ideal(Qi, unit_ideal(Qi), [0.0])
    assert lat.covolume == pytest.approx(2.0, rel=1e-10)


def test_integral_basis_covolume_is_sqrt_disc():
    for d in SQUAREFREE_50:
        F = make_field(("quadratic", d))
        lat = embed_ideal(F, unit_ideal(F), [0.0] * (F.r1 + F.r2))
        assert lat.covolume == pytest.approx(math.sqrt(F.abs_discriminant), rel=1e-8)


def test_trace_pairing_integrality():
    rng = random.Random(19)
    cases = []
    for _ in range(30):
        d = rng.choice(SQUAREFREE_50)
        F = make_field(("quadratic", d))
        pr = rng.choice(primes_above(F, rng.choice([2, 3, 5, 7])))
        cases.append((F, ideal_pow(pr.ideal, rng.randint(-2, 2))))
    for descriptor in HIGHER_DEGREE:
        F = make_field(descriptor())
        cases += [(F, I) for I in ratio_ideals(F, rng, 5)]
    for F, I in cases:
        J = ideal_mul(ideal_inv(F.different), ideal_inv(I))
        pairing = []
        for x in I.basis_rows():
            pairing.append([])
            for y in J.basis_rows():
                tr = elem_trace(F, elem_mul(F, x, y))
                assert tr.denominator == 1
                pairing[-1].append(int(tr))
        assert abs(det_int(pairing)) == 1  # J is all of the trace dual of I
    # the inverse different is the trace dual of the ring of integers
    for F in [make_field(("quadratic", d)) for d in SQUAREFREE_50] + \
             [make_field(descriptor()) for descriptor in HIGHER_DEGREE]:
        assert ideal_inv(F.different) == trace_dual_of_ring(F)
        assert F.codifferent == trace_dual_of_ring(F)


def test_codifferent_ignores_a_wrong_different():
    # O^v comes from the trace form alone: an identity different_basis, which
    # breaks Riemann-Roch, leaves it the true inverse different
    F = make_field({**cbrt2_descriptor(), "different_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert F.different == unit_ideal(F)
    assert F.codifferent == trace_dual_of_ring(F)
    assert ideal_norm(ideal_inv(F.codifferent)) == F.abs_discriminant == 108


def unimodular_match(primal_basis, dual_basis, r1, r2):
    """Find the integer change of basis between two bases of the same lattice,
    allowing the complex-conjugation flip (an isometry of the metric)."""
    for flip in (False, True):
        b = dual_basis.copy()
        if flip:
            for k in range(r2):
                b[:, r1 + 2 * k + 1] *= -1.0
        T = primal_basis @ np.linalg.inv(b)
        Ti = np.round(T)
        if np.max(np.abs(T - Ti)) < 1e-8 and abs(abs(np.linalg.det(Ti)) - 1.0) < 1e-8:
            return Ti, b
    return None, None


def test_metric_dual_is_inverse_different_lattice():
    # dual_lattice(embed(I, x)) is embed(d^-1 I^-1, -x) up to an integer
    # unimodular change of basis (and the conjugation isometry)
    from arithcoh.intmat import hnf_rows

    rng = random.Random(4)
    for _ in range(20):
        d = rng.choice([-1, -2, -5, -7, 2, 3, 5, 13])
        F = make_field(("quadratic", d))
        pr = rng.choice(primes_above(F, rng.choice([2, 3, 5])))
        I = ideal_pow(pr.ideal, rng.randint(-2, 2))
        xs = [rng.uniform(-1.0, 1.0) for _ in range(F.r1 + F.r2)]
        primal = embed_ideal(F, I, xs)
        dual = dual_lattice(primal)
        KD_ideal = ideal_mul(ideal_inv(F.different), ideal_inv(I))
        target = embed_ideal(F, KD_ideal, [-t for t in xs])
        Ti, b = unimodular_match(dual.basis, target.basis, F.r1, F.r2)
        assert Ti is not None
        assert hnf_rows([[int(v) for v in row] for row in Ti]) == \
            [[int(i == j) for j in range(2)] for i in range(2)]
        g = Ti @ (b @ b.T) @ Ti.T
        scale = np.max(np.abs(dual.gram.entries))
        assert np.max(np.abs(g - dual.gram.entries)) < 1e-8 * scale


def custom_descriptor_from(d):
    F = make_field(("quadratic", d))
    return {
        "degree": 2,
        "r1": F.r1,
        "r2": F.r2,
        "abs_discriminant": F.abs_discriminant,
        "embeddings": [float(x) for x in F.integral_basis_embeddings.ravel()],
        "different_basis": [list(r) for r in F.different.num],
    }


def test_custom_descriptor_roundtrip(tmp_path):
    desc = custom_descriptor_from(2)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(desc))
    F = load_field_file(path)
    assert F.abs_discriminant == 8
    assert F.signature == (2, 0)
    lat = embed_ideal(F, unit_ideal(F), [0.0, 0.0])
    assert lat.covolume == pytest.approx(math.sqrt(8), rel=1e-8)
    with pytest.raises(UnsupportedField):
        primes_above(F, 3)


def test_custom_descriptor_corrupted_discriminant():
    desc = custom_descriptor_from(2)
    desc["abs_discriminant"] = 9
    with pytest.raises(DescriptorInconsistent, match="covolume"):
        make_field(desc)


def test_custom_descriptor_bad_signature():
    desc = custom_descriptor_from(2)
    desc["r2"] = 1
    with pytest.raises(DescriptorInconsistent):
        make_field(desc)


def test_custom_descriptor_non_ring_embeddings():
    desc = custom_descriptor_from(2)
    emb = desc["embeddings"]
    emb[2] *= 1.3  # scale one basis element: products no longer integral
    emb[3] *= 1.3
    desc["abs_discriminant"] = 0
    with pytest.raises(DescriptorInconsistent):
        make_field(desc)


def test_custom_descriptor_malformed():
    with pytest.raises(InvalidFieldSpec):
        make_field({"degree": 2, "r1": 2})
    rational = {"degree": 1, "r1": 1, "r2": 0, "abs_discriminant": 1,
                "embeddings": [1.0], "different_basis": [[1]]}
    make_field(rational)
    # integers that int() would truncate
    for key, value in (("abs_discriminant", 1.5), ("different_basis", [[1.9]]),
                       ("degree", 1.2), ("r2", 0.5)):
        with pytest.raises(InvalidFieldSpec):
            make_field({**rational, key: value})


def test_fractional_ideal_hnf_shape():
    Qi = make_field(("quadratic", -1))
    I = principal_ideal(Qi, (Fraction(3, 2), Fraction(1, 2)))
    n = len(I.num)
    for i in range(n):
        assert I.num[i][i] > 0
        for j in range(i):
            assert I.num[i][j] == 0
        for k in range(i):
            assert 0 <= I.num[k][i] < I.num[i][i]
    assert ideal_norm(ideal_mul(I, ideal_inv(I))) == 1
