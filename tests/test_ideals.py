import builtins
import math
import random
from fractions import Fraction

import pytest

from gammaforms.classgroup import class_group, dirichlet_compose, prepare_coprime, principal_form
from gammaforms.core import Form, act
from gammaforms.errors import InvariantError, ValidationError
from gammaforms import ideals
from gammaforms.ideals import (
    OIdeal,
    QuadOrder,
    hnf_rows,
    ideal_from_form,
    ideal_mul,
)
from gammaforms.reduction import enumerate_reduced
from conftest import (
    hnf_rows_by_euclid,
    ideal_from_form_by_hnf,
    ideal_mul_by_order,
    random_form,
    random_sl2,
)


def test_quad_order_arithmetic():
    o = QuadOrder(-8)
    # delta^2 = D*delta - (D^2 - D)/4
    assert o.mul((0, 1), (0, 1)) == (-o.delta_norm, -8)
    assert o.delta_norm == 18
    assert o.conj((3, 2)) == (3 - 16, -2)
    with pytest.raises(ValidationError):
        QuadOrder(-6)


def test_hnf_canonical_shape():
    mat = hnf_rows([(6, 3), (0, 9), (2, 1)])
    (h00, h01), (z, h11) = mat
    assert z == 0 and h00 > 0 and h11 > 0 and 0 <= h01 < h11
    # order of generators is irrelevant
    assert mat == hnf_rows([(2, 1), (6, 3), (0, 9)])
    with pytest.raises(ValidationError):
        hnf_rows([(1, 1), (2, 2)])


def test_ideal_from_form_reference():
    i = ideal_from_form(Form(1, 0, 1))
    assert i.norm() == 1 and i.mat == ((1, 0), (0, 1))
    assert ideal_from_form(Form(2, 0, 1)).norm() == 2  # disc -8
    assert ideal_from_form(Form(3, 2, 1)).mat == ((3, 0), (0, 1))


def test_ideal_norm_equals_leading_coefficient(rng):
    for _ in range(200):
        d = rng.choice([-3, -4, -7, -8, -11, -15, -20, -23, -24])
        q = random_form(rng, d)
        assert ideal_from_form(q).norm() == q.a


def test_unit_ideal_and_delta_closure(rng):
    for _ in range(50):
        d = rng.choice([-3, -4, -7, -8, -20])
        q = random_form(rng, d)
        i = ideal_from_form(q)
        assert i.is_delta_stable()
        assert ideal_mul(i, ideal_from_form(principal_form(d))) == i


def test_norm_multiplicative_on_coprime_norms(rng):
    count = 0
    while count < 60:
        d = rng.choice([-3, -4, -7, -8, -15, -20, -23])
        q1, q2 = random_form(rng, d), random_form(rng, d)
        if math.gcd(q1.a, q2.a) != 1:
            continue
        i, j = ideal_from_form(q1), ideal_from_form(q2)
        assert ideal_mul(i, j).norm() == i.norm() * j.norm()
        count += 1


def test_conjugation_law(rng):
    # I * conj(I) = N(I) * O, the whole order scaled by the norm
    for _ in range(60):
        d = rng.choice([-3, -4, -7, -8, -15, -20, -23])
        q = random_form(rng, d)
        i = ideal_from_form(q)
        product = ideal_mul(i, i.conjugate())
        assert product.mat == ((1, 0), (0, 1))
        assert product.scale == q.a
        assert product.norm() == q.a * q.a
    # same thing said with forms: ideal(a, b) * ideal(a, -b)
    q = Form(3, 2, 1)
    assert ideal_mul(ideal_from_form(q), ideal_from_form(Form(3, -2, 1))) == ideal_from_form(
        Form(1, 0, 2)
    ).scaled(3)


def test_lattice_identity_for_composition():
    # with gcd(a, a') = 1 the product lattice is exactly Z*aa' + Z*Delta
    q1, q2 = Form(3, 2, 1), Form(11, -16, 6)
    composed = dirichlet_compose(q1, q2, 2)
    assert composed == Form(33, 50, 19)
    lhs = ideal_from_form(composed)
    rhs = ideal_mul(ideal_from_form(q1), ideal_from_form(q2))
    assert lhs == rhs == OIdeal(QuadOrder(-8), ((3, 3), (0, 11)), Fraction(1))


def test_oracle_agrees_with_composition_on_groups():
    for d, n in [(-8, 2), (-23, 2), (-20, 3), (-3, 5), (-24, 5)]:
        group = class_group(d, n)
        for i in range(group.order):
            for j in range(group.order):
                q1 = group.elements[i].rep
                q2 = prepare_coprime(group.elements[j].rep, q1.a * n, n)
                lhs = ideal_from_form(dirichlet_compose(q1, q2, n))
                rhs = ideal_mul(ideal_from_form(q1), ideal_from_form(q2))
                assert lhs == rhs, (d, n, i, j)


def test_fractional_scale():
    i = ideal_from_form(Form(2, 0, 1)).scaled(Fraction(1, 2))
    assert i.norm() == Fraction(1, 2)
    with pytest.raises(ValidationError):
        i.scaled(0)


def test_content_is_normalized_into_scale():
    o = QuadOrder(-4)
    i = OIdeal.make(o, [(6, 0), (0, 6), (2, 4)])
    assert math.gcd(math.gcd(i.mat[0][0], i.mat[0][1]), i.mat[1][1]) == 1
    assert i.scale == 2


def _same_as_hnf_oracle(q: Form) -> bool:
    fast, slow = ideal_from_form(q), ideal_from_form_by_hnf(q)
    return (fast.order, fast.mat, fast.scale) == (slow.order, slow.mat, slow.scale)


def test_closed_form_matches_hnf_on_reduced_forms(rng):
    # every SL2(Z)-reduced form with -1500 < D <= -3, and two random
    # SL2(Z)-translates of each
    for d in range(-3, -1500, -1):
        if d % 4 not in (0, 1):
            continue
        for f in enumerate_reduced(d, 1):
            for q in (f, act(f, random_sl2(rng)), act(f, random_sl2(rng))):
                assert _same_as_hnf_oracle(q), q


def test_closed_form_matches_hnf_on_class_reps():
    for n in (2, 3, 5, 6, 12):
        for d in range(-3, -301, -1):
            if d % 4 in (0, 1):
                for q in enumerate_reduced(d, n):
                    assert _same_as_hnf_oracle(q), (q, n)


@pytest.mark.parametrize("bad_t", [lambda t: t + 1, lambda t: -t])
def test_closed_form_check_catches_a_wrong_t(monkeypatch, bad_t):
    # (3, 1, 1): k = 5, g = 1 and a/g = 3, so t = 5^(-1) mod 3 = 2 matters;
    # the inverse is the module's one pow, shadowed here by a wrong one
    q = Form(3, 1, 1)
    assert ideal_from_form(q).mat == ((1, 2), (0, 3))
    monkeypatch.setattr(ideals, "pow", lambda x, e, m: bad_t(builtins.pow(x, e, m)), raising=False)
    with pytest.raises(InvariantError):
        ideal_from_form(q)


def test_hnf_rows_matches_euclid_oracle(rng):
    # random row lists with negative entries, zero x and repeated rows,
    # and rank-deficient ones (multiples of one row, or no row with x != 0
    # or none with y != 0 after the pivot), which raise on both
    deficient = 0
    for _ in range(20000):
        rows = [
            (rng.randint(-40, 40) * rng.choice((0, 1, 1)), rng.randint(-40, 40))
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.3:
            rows.append(rng.choice(rows))
        if rng.random() < 0.1:
            rows = [(k * rows[0][0], k * rows[0][1]) for k in range(-2, rng.randint(0, 4))]
        try:
            expected = hnf_rows_by_euclid(rows)
        except ValidationError:
            with pytest.raises(ValidationError):
                hnf_rows(rows)
            deficient += 1
            continue
        assert hnf_rows(rows) == expected, rows
    assert deficient > 1000


def test_ideal_mul_matches_order_oracle(rng):
    # random form ideals, their conjugates and their halves, over every
    # discriminant in -3..-400; equal products hash equal
    discs = [d for d in range(-3, -401, -1) if d % 4 in (0, 1)]
    scaled = 0
    for _ in range(3000):
        d = rng.choice(discs)
        pair = []
        for _ in range(2):
            i = ideal_from_form(random_form(rng, d, 4))
            if rng.random() < 0.3:
                i = i.conjugate()
            if rng.random() < 0.3:
                i = i.scaled(Fraction(1, 2))
            pair.append(i)
        product = ideal_mul(*pair)
        expected = ideal_mul_by_order(*pair)
        assert product == expected and hash(product) == hash(expected), pair
        scaled += product.scale != 1
    assert scaled > 500


def test_scaled_paths_keep_their_values():
    # the values below were those of the all-Fraction arithmetic
    i = ideal_from_form(Form(2, 0, 1))
    assert type(i.scale) is Fraction and type(i.norm()) is Fraction and i.norm() == 2
    half = i.scaled(Fraction(1, 2))
    product = ideal_mul(half, ideal_from_form(Form(3, 2, 1)))
    assert (product.mat, product.scale, product.norm()) == (
        ((6, 0), (0, 1)), Fraction(1, 2), Fraction(3, 2)
    )
    assert ideal_mul(ideal_from_form(Form(3, 2, 1)), half) == product
    product = ideal_mul(half, half.scaled(3))
    assert (product.mat, product.scale, product.norm()) == (
        ((1, 0), (0, 1)), Fraction(3, 2), Fraction(9, 4)
    )
    k = ideal_from_form(Form(6, 5, 2))
    assert k.conjugate() == OIdeal(QuadOrder(-23), ((2, 1), (0, 3)), Fraction(1))
    product = ideal_mul(k, k.conjugate())
    assert (product.mat, product.scale, product.norm()) == (
        ((1, 0), (0, 1)), Fraction(6), Fraction(36)
    )
    assert type(product.norm()) is Fraction
    m = OIdeal.make(QuadOrder(-4), [(4, 2), (0, 6)])
    assert (m.mat, m.scale, m.norm()) == (((2, 1), (0, 3)), Fraction(2), Fraction(24))
    m = OIdeal.make(QuadOrder(-4), [(4, 2), (0, 6)], Fraction(1, 3))
    assert (m.mat, m.scale, m.norm()) == (((2, 1), (0, 3)), Fraction(2, 3), Fraction(8, 3))
    for scale in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
        with pytest.raises(ValidationError):
            OIdeal.make(QuadOrder(-4), [(1, 0), (0, 1)], scale)
