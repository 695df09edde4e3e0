import random
from fractions import Fraction

import pytest

from gammaforms.core import (
    CmPoint,
    Form,
    act,
    act_by_column,
    cm_point,
    is_prime,
    kronecker,
    moebius,
    moebius_rational,
)
from gammaforms.errors import SearchBoundExceeded, ValidationError
from gammaforms.fundomain import (
    boundary_json_dict,
    boundary_svg,
    contains,
    corner_cm_point,
    elliptic_data,
    gamma_k,
    orbit3,
    r_gamma0p_boundary,
    sym_inverse,
    sym_rep,
    sym_residues,
)
from gammaforms.reduction import enumerate_reduced, equivalent_gamma0, is_reduced
from conftest import contains_all_arcs, into_strip, is_reduced_gamma0_p, random_form, random_gamma0

PRIMES = (5, 7, 11, 13, 17, 19, 23)


def test_sym_residues():
    assert sym_residues(5) == (-2, -1, 1, 2)
    assert len(sym_residues(23)) == 22
    with pytest.raises(ValidationError):
        sym_residues(9)


def test_sym_rep_and_inverse():
    assert sym_rep(5, 3) == -2
    assert sym_inverse(5, 1) == 1
    assert sym_inverse(5, 2) == -2
    assert sym_inverse(7, 3) == -2
    for p in PRIMES:
        for x in sym_residues(p):
            y = sym_inverse(p, x)
            assert y in sym_residues(p) and (x * y - 1) % p == 0
    with pytest.raises(ValidationError):
        sym_inverse(5, 10)
    with pytest.raises(ValidationError):
        sym_inverse(6, 2)  # gcd(2, 6) = 2: no inverse, and no bare ValueError


def test_gamma_k():
    assert gamma_k(5, 2).as_tuple() == (2, -1, 5, -2)
    for p in (5, 7, 11, 13):
        for k in sym_residues(p):
            g = gamma_k(p, k)
            assert g.a * g.d - g.b * g.c == 1
            assert g.c == p


def test_gamma_k_endpoint_law():
    for p in (5, 7, 11, 13):
        for k in sym_residues(p):
            g = gamma_k(p, k)
            kinv = sym_inverse(p, k)
            for sign in (1, -1):
                got = moebius_rational(g, Fraction(-kinv + sign, p))
                assert got == Fraction(k - sign, p)


def test_elliptic_data_examples():
    d5 = elliptic_data(5)
    assert set(d5.e2) == {2, -2} and d5.e3 == ()
    d7 = elliptic_data(7)
    assert d7.e2 == () and set(d7.e3) == {3, -2}


def test_elliptic_counts_match_kronecker():
    for p in PRIMES:
        data = elliptic_data(p)
        assert len(data.e2) == (2 if kronecker(-1, p) == 1 else 0)
        assert len(data.e2) == (2 if p % 4 == 1 else 0)
        assert len(data.e3) == (2 if p % 3 == 1 else 0)


def test_orbit3():
    assert orbit3(7, 3) == (3, 3, 3)
    assert set(orbit3(5, -1)) == {-1, 2, -2}
    assert min(orbit3(5, -1)) == -(5 - 1) // 2
    with pytest.raises(ValidationError):
        orbit3(7, 1)
    with pytest.raises(ValidationError):
        orbit3(7, 5)


def test_orbit_map_has_order_three():
    for p in PRIMES:
        data = elliptic_data(p)
        for k in sym_residues(p):
            if k == 1:
                continue
            k0, k1, k2 = orbit3(p, k)
            assert sym_rep(p, 1 - sym_inverse(p, k2)) == k0
            if k in data.e3:
                assert k0 == k1 == k2
                assert (k + sym_inverse(p, k) - 1) % p == 0
            else:
                assert len({k0, k1, k2}) == 3


def test_contains_interior_and_boundary():
    assert contains(5, cm_point(Form(1, 0, 1)))  # i
    # Re = -1/2 boundary kept, Re = +1/2 dropped
    assert contains(5, cm_point(Form(1, 1, 1)))
    assert not contains(5, cm_point(Form(1, -1, 1)))
    for p in (4, 3):
        with pytest.raises(ValidationError):
            contains(p, cm_point(Form(1, 0, 1)))


def test_contains_corner_selection():
    # p = 5: single corner orbit {-1, 2, -2}; only the minimum survives
    assert contains(5, corner_cm_point(5, -2))
    assert not contains(5, corner_cm_point(5, -1))
    assert not contains(5, corner_cm_point(5, 2))
    # p = 7: E3 corners are genuine elliptic points and stay
    assert contains(7, corner_cm_point(7, 3))
    assert contains(7, corner_cm_point(7, -2))
    assert contains(7, corner_cm_point(7, -3))  # min of the orbit (-1, 2, -3)
    assert not contains(7, corner_cm_point(7, -1))
    assert not contains(7, corner_cm_point(7, 2))


def test_corners_need_no_rule_of_their_own():
    # contains has no corner rule: keeping the greatest b among the same-a
    # images keeps exactly the corners the oracle's orbit-minimum rule
    # keeps, on every corner of every prime level below 400 (13,882 corners)
    for p in [p for p in range(5, 400) if is_prime(p)]:
        for k in (*sym_residues(p), (p + 1) // 2):
            t = corner_cm_point(p, k)
            assert contains(p, t) == contains_all_arcs(p, t), (p, k)


def test_corner_equivalence_under_gamma_k():
    for p in (5, 7, 11, 13):
        for k in sym_residues(p):
            kinv = sym_inverse(p, k)
            src = corner_cm_point(p, 1 - kinv)
            assert moebius(gamma_k(p, k), src) == corner_cm_point(p, k)


def test_arc_tops():
    # top of the arc at k/p is kept iff the paired arc -k^(-1) is not smaller
    for p in (5, 13, 17):
        data = elliptic_data(p)
        for k in sym_residues(p):
            if (k * k + 1) % p != 0:
                continue
            assert k in data.e2
            top = CmPoint(2 * k, 2 * p, -4)  # k/p + i/p, a disc -4 point
            assert contains(p, top)


def _on_circle(p: int, k: int, u: int, v: int) -> CmPoint:
    """The point k/p + (x + i*y)/p of the circle at k/p, with
    x = (v^2 - u^2)/w, y = 2uv/w and w = u^2 + v^2."""
    w = u * u + v * v
    numb = 2 * p * w * (k * w + v * v - u * u)
    return CmPoint(numb, 2 * p * p * w * w, -((4 * p * w * u * v) ** 2))


def _on_line(sign: int, r: int, q: int) -> CmPoint:
    """The point sign/2 + i*r/q of the line Re = sign/2."""
    return CmPoint(4 * sign * q * q, 8 * q * q, -((8 * r * q) ** 2))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 101, 1009])
def test_contains_matches_all_arcs_oracle(rng, p):
    # arc tops, corners, points of the arcs and lines, the points with the
    # same a as a walked form, and random points of height about 1/p
    points = [CmPoint(2 * k * p, 2 * p * p, -4 * p * p) for k in sym_residues(p)]
    points += [corner_cm_point(p, k) for k in (*sym_residues(p), (p + 1) // 2)]
    for _ in range(300):
        k = rng.randrange(-(p + 1) // 2, (p + 3) // 2)
        points.append(_on_circle(p, k, rng.randrange(1, 30), rng.randrange(1, 30)))
        sign = rng.choice((-1, 1))
        points.append(_on_line(sign, rng.randrange(1, 40), rng.randrange(1, 40 * p)))
    for d in (-3, -4, -7, -8, -15, -20) if p < 1000 else (-3, -4):
        for f in enumerate_reduced(d, p):
            near = -f.b * p // (2 * f.a)
            for k in range(near - 2, near + 4):
                if k % p and f(k, p) == f.a:
                    points.append(cm_point(into_strip(act_by_column(f, k, p))))
    for _ in range(400):
        a = rng.randrange(1, 2 * p * p)
        b = rng.randrange(-a, a + 1)
        c = b * b // (4 * a) + rng.randrange(0, 2 * a // (p * p) + 3)
        if b * b < 4 * a * c:
            points.append(cm_point(Form(a, b, c)))
    for t in points:
        assert contains(p, t) == contains_all_arcs(p, t), (p, t)


def test_membership_agrees_with_form_predicate(rng):
    for p in PRIMES:
        for _ in range(120):
            d = rng.choice([-3, -4, -7, -8, -11, -15, -20, -23])
            q = random_form(rng, d)
            assert is_reduced_gamma0_p(q, p) == is_reduced(q, p)


def test_exactly_one_reduced_form_per_class(rng):
    for d in (-3, -4, -7, -8, -11, -15, -20):
        for p in (5, 7):
            forms = enumerate_reduced(d, p)
            for f in forms:
                assert contains(p, cm_point(f))
            for _ in range(30):
                q = random_form(rng, d)
                hits = [f for f in forms if equivalent_gamma0(q, f, p) is not None]
                assert len(hits) == 1


def test_reduced_form_maximizes_imaginary_part(rng):
    # Im = sqrt(|D|)/(2a): the reduced representative minimizes a
    for _ in range(40):
        d = rng.choice([-3, -4, -7, -8, -11])
        p = rng.choice([5, 7])
        q = random_form(rng, d)
        forms = enumerate_reduced(d, p)
        rep = next(f for f in forms if equivalent_gamma0(q, f, p) is not None)
        for _ in range(10):
            assert rep.a <= act(rep, random_gamma0(rng, p)).a


def test_boundary_description():
    b5 = r_gamma0p_boundary(5)
    assert len(b5.arcs) == 4 and len(b5.lines) == 2
    assert len(r_gamma0p_boundary(7).arcs) == 6
    assert b5.arcs[0].radius == Fraction(1, 5)
    inventory = boundary_json_dict(5)
    assert inventory["arcs"][0] == {"k": -2, "center": "-2/5", "radius": "1/5"}
    svg = boundary_svg(11)
    assert svg.startswith("<svg") and svg.count("<path") == 10


def test_arc_bound(monkeypatch):
    # check_arc_bound bounds the boundary, which walks the arcs; the
    # membership test walks none and answers past the bound
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "10")
    elliptic_data.cache_clear()
    try:
        assert len(r_gamma0p_boundary(11).arcs) == 10
        with pytest.raises(SearchBoundExceeded, match="12 boundary arcs"):
            r_gamma0p_boundary(13)
        assert contains(13, cm_point(Form(1, 1, 1)))
    finally:
        elliptic_data.cache_clear()


def test_region_queries_skip_elliptic_data():
    # contains validates p and the boundary also bounds its arcs, neither
    # by the O(p) scan that builds E2 and E3
    elliptic_data.cache_clear()
    try:
        assert contains(99991, cm_point(Form(1, 1, 1)))
        assert len(r_gamma0p_boundary(101).arcs) == 100
        assert elliptic_data.cache_info().currsize == 0
        for p in (3, 4):
            with pytest.raises(ValidationError):
                contains(p, cm_point(Form(1, 1, 1)))
            with pytest.raises(ValidationError):
                r_gamma0p_boundary(p)
    finally:
        elliptic_data.cache_clear()
