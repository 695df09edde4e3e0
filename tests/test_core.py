import builtins
import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import gammaforms as gf
from gammaforms import core
from gammaforms.core import (
    MILLER_RABIN_LIMIT,
    CmPoint,
    Form,
    GroupElement,
    IDENTITY,
    act,
    cm_point,
    crt,
    form_from_cm,
    is_prime,
    ker_chi,
    kronecker,
    moebius,
    moebius_rational,
    require_qf,
    sqrt_mod_prime,
    unit_values,
    units_mod,
)
from gammaforms.classgroup import principal_form
from gammaforms.errors import SearchBoundExceeded, ValidationError
from gammaforms.reduction import enumerate_reduced
from conftest import (
    S,
    T,
    crt_by_euclid,
    is_prime_trial_division,
    random_form,
    random_gamma0,
    random_sl2,
    representation_values,
)

import random


words = st.lists(st.sampled_from("TtS"), min_size=0, max_size=8)
DISCS = [-3, -4, -7, -8, -11, -15, -20, -23, -24, -40]


def word_to_matrix(w):
    g = IDENTITY
    for ch in w:
        g = g * {"T": T, "t": T.inverse(), "S": S}[ch]
    return g


def test_group_element_validates_det():
    with pytest.raises(ValidationError):
        GroupElement(1, 0, 0, 2)
    assert (T * S).as_tuple() == (1, -1, 1, 0)
    assert S.inverse() * S == IDENTITY


def test_forms_and_matrices_are_their_tuples(monkeypatch):
    t = (2, -1, 3)
    assert Form(*t) == t and hash(Form(*t)) == hash(t)
    assert GroupElement(2, 1, 1, 1) == (2, 1, 1, 1)
    assert hash(GroupElement(2, 1, 1, 1)) == hash((2, 1, 1, 1))
    rng = random.Random(5)
    forms = [Form(*(rng.randrange(-3, 4) for _ in range(3))) for _ in range(60)]
    assert [tuple(f) for f in sorted(forms)] == sorted((f.a, f.b, f.c) for f in forms)
    mats = [random_sl2(rng, 3) for _ in range(60)]
    assert sorted(mats) == sorted(mats, key=lambda g: g.as_tuple())
    # repr, str and to_json_dict keep their text
    assert repr(Form(2, -1, 3)) == "Form(a=2, b=-1, c=3)"
    assert str(Form(2, -1, 3)) == "2,-1,3"
    assert Form(2, -1, 3).to_json_dict() == {"a": 2, "b": -1, "c": 3}
    assert repr(GroupElement(2, 1, 1, 1)) == "GroupElement(a=2, b=1, c=1, d=1)"
    assert str(GroupElement(2, 1, 1, 1)) == "[[2, 1], [1, 1]]"
    assert GroupElement(2, 1, 1, 1).as_tuple() == (2, 1, 1, 1)

    class Doubled(Form):
        def __call__(self, x, y):
            return 2 * super().__call__(x, y)

    assert Doubled(1, 1, 1)(1, 1) == 6 and Doubled(1, 1, 1) == Form(1, 1, 1)

    # every construction runs the determinant check, which stays patchable
    checked = []
    real = GroupElement.__post_init__
    monkeypatch.setattr(GroupElement, "__post_init__", lambda g: checked.append(g) or real(g))
    g = GroupElement(2, 1, 1, 1)
    assert len(checked) == 1
    assert g * g == (5, 3, 3, 2) and len(checked) == 2
    assert g.inverse() == (1, -1, -1, 2) and len(checked) == 3
    for bad in (
        lambda: GroupElement(1, 0, 0, 2),
        lambda: g._replace(a=3),
        lambda: GroupElement._make((2, 0, 0, 2)),
    ):
        with pytest.raises(ValidationError):
            bad()


@pytest.mark.parametrize("n", [0, -1])
def test_every_level_is_validated(n):
    # each public function that takes a level refuses n < 1 as input, not
    # with a ZeroDivisionError, a search bound or a result
    q, unit = Form(2, 1, 3), Form(1, 1, 6)  # disc -23
    rep = gf.Representation(0, 1, 3, n, True, True)
    calls = {
        "unit_values": lambda: gf.unit_values(q, n),
        "prepare_coprime": lambda: gf.prepare_coprime(q, 3, n),
        "dirichlet_compose": lambda: gf.dirichlet_compose(unit, q, n),
        "compose_classes": lambda: gf.compose_classes(q, q, n),
        "class_group": lambda: gf.class_group(-23, n),
        "oracle_pairs": lambda: gf.oracle_pairs(-23, n),
        "verify_iso_with_scaled": lambda: gf.verify_iso_with_scaled(-23, n),
        "find_representations": lambda: gf.find_representations(q, 3, n),
        "form_from_representation": lambda: gf.form_from_representation(q, rep, n),
        "ideal_of_norm_from_representation": lambda: gf.ideal_of_norm_from_representation(q, rep),
        "genus_table": lambda: gf.genus_table(-23, n),
        "classify_prime": lambda: gf.classify_prime(3, -23, n),
        "principal_genus_congruences": lambda: gf.principal_genus_congruences(-23, n),
        "brahmagupta_check": lambda: gf.brahmagupta_check(q, n),
        "canonical_rep": lambda: gf.canonical_rep(q, n),
        "coset_reps": lambda: gf.coset_reps(n),
        "enumerate_reduced": lambda: gf.enumerate_reduced(-23, n),
        "equivalent_gamma0": lambda: gf.equivalent_gamma0(q, q, n),
        "is_reduced": lambda: gf.is_reduced(q, n),
        "sym_residues": lambda: gf.sym_residues(n),
        "sym_rep": lambda: gf.sym_rep(n, 1),
        "sym_inverse": lambda: gf.sym_inverse(n, 1),
        "gamma_k": lambda: gf.gamma_k(n, 1),
        "elliptic_data": lambda: gf.elliptic_data(n),
        "orbit3": lambda: gf.orbit3(n, 2),
        "corner_cm_point": lambda: gf.corner_cm_point(n, 1),
        "contains": lambda: gf.contains(n, cm_point(q)),
        "r_gamma0p_boundary": lambda: gf.r_gamma0p_boundary(n),
        "GroupElement.in_gamma0": lambda: IDENTITY.in_gamma0(n),
    }
    accepted = []
    for name, call in calls.items():
        try:
            call()
        except ValidationError:
            continue
        accepted.append(name)
    assert accepted == []


@pytest.mark.parametrize(
    "q",
    [Form(2, 2, 6), Form(1, 4, 1), Form(-2, 1, -3)],
    ids=["non-primitive", "indefinite", "negative-definite"],
)
def test_every_form_is_validated(q):
    # each public function that takes a form refuses one that is not
    # primitive and positive definite; the predicates and cm_point need
    # only positive definiteness (contains hands is_reduced the form of a
    # CM point, whose content may exceed 1), and act is the group action
    # on every integral form
    good = Form(2, 1, 3)  # disc -23
    rep = gf.Representation(0, 1, 3, 1, True, True)
    calls = {
        "unit_values": lambda: gf.unit_values(q, 1),
        "prepare_coprime": lambda: gf.prepare_coprime(q, 3, 1),
        "dirichlet_compose": lambda: gf.dirichlet_compose(q, good, 1),
        "dirichlet_compose second": lambda: gf.dirichlet_compose(good, q, 1),
        "compose_classes": lambda: gf.compose_classes(q, good, 1),
        "compose_classes second": lambda: gf.compose_classes(good, q, 1),
        "find_representations": lambda: gf.find_representations(q, 3, 1),
        "form_from_representation": lambda: gf.form_from_representation(q, rep, 1),
        "ideal_of_norm_from_representation": lambda: gf.ideal_of_norm_from_representation(q, rep),
        "ideal_from_form": lambda: gf.ideal_from_form(q),
        "brahmagupta_check": lambda: gf.brahmagupta_check(q, 1),
        "reduce_gamma0": lambda: gf.reduce_gamma0(q, 1),
        "automorphs": lambda: gf.automorphs(q),
        "canonical_rep": lambda: gf.canonical_rep(q, 2),
        "equivalent_gamma0": lambda: gf.equivalent_gamma0(q, good, 2),
        "equivalent_gamma0 second": lambda: gf.equivalent_gamma0(good, q, 2),
    }
    if not q.is_positive_definite():
        calls.update(
            {
                "cm_point": lambda: cm_point(q),
                **{f"is_reduced {n}": partial(gf.is_reduced, q, n) for n in (1, 2, 3, 5)},
            }
        )
    accepted = []
    for name, call in calls.items():
        try:
            call()
        except ValidationError:
            continue
        accepted.append(name)
    assert accepted == []


def test_form_basics():
    q = Form(2, 2, 1)
    assert q.disc == -4
    assert q.is_qf()
    assert not Form(2, 0, 2).is_primitive()
    assert str(Form.from_string("2,-1,1")) == "2,-1,1"
    with pytest.raises(ValidationError):
        require_qf(Form(1, 0, -1))
    with pytest.raises(ValidationError):
        Form.from_string("1;0;1")


def test_act_examples():
    q = Form(1, 0, 1)
    assert act(q, IDENTITY) == q
    assert act(q, T) == Form(1, 2, 2)
    assert act(Form(2, 2, 1), GroupElement(1, 0, -1, 1)) == Form(1, 0, 1)


@given(words, words, st.sampled_from(DISCS))
@settings(max_examples=150, deadline=None)
def test_act_is_right_action_and_keeps_disc(w1, w2, d):
    rng = random.Random(1)
    q = random_form(rng, d)
    g, h = word_to_matrix(w1), word_to_matrix(w2)
    assert act(act(q, g), h) == act(q, g * h)
    out = act(q, g)
    assert out.disc == q.disc
    assert out.is_qf()


def test_cm_point_examples():
    assert cm_point(Form(1, 0, 1)) == CmPoint(0, 2, -4)
    t = cm_point(Form(2, 2, 1))
    assert (t.re, t.im_sq) == (Fraction(-1, 2), Fraction(1, 4))
    with pytest.raises(ValidationError):
        cm_point(Form(1, 4, 1))  # disc 12 > 0


def test_cm_point_equality_is_numeric():
    assert CmPoint(0, 2, -4) == CmPoint(0, 4, -16)
    assert CmPoint(0, 2, -4) != CmPoint(0, 2, -8)


def test_form_from_cm_round_trip():
    rng = random.Random(2)
    for d in DISCS:
        for _ in range(20):
            q = random_form(rng, d)
            assert form_from_cm(cm_point(q)) == q


def test_cm_point_of_form_from_cm_round_trip():
    # every valid point, odd den included, is the CM point of its form
    assert form_from_cm(CmPoint(1, 1, -3)) == Form(1, -2, 4)
    for den in range(1, 16):
        for num_b in range(-2 * den, 2 * den + 1):
            for d in range(-1, -80, -1):
                if (num_b * num_b - d) % (2 * den):
                    continue
                t = CmPoint(num_b, den, d)
                q = form_from_cm(t)
                assert q.is_qf() and cm_point(q) == t, t


def test_moebius_examples():
    i = CmPoint(0, 2, -4)
    assert moebius(IDENTITY, i) == i
    assert moebius(S, i) == i
    half = cm_point(Form(2, 2, 1))  # (-1 + i)/2
    assert moebius(T, half) == CmPoint(2, 4, -4)  # (1 + i)/2


def test_moebius_rational_cusps():
    assert moebius_rational(S, Fraction(0)) is None
    assert moebius_rational(S, None) == Fraction(0)
    assert moebius_rational(T, Fraction(1, 2)) == Fraction(3, 2)


@given(words, st.sampled_from(DISCS))
@settings(max_examples=150, deadline=None)
def test_equivariance(w, d):
    rng = random.Random(3)
    q = random_form(rng, d)
    g = word_to_matrix(w)
    assert cm_point(act(q, g)) == moebius(g.inverse(), cm_point(q))


def test_equivariance_bulk(rng):
    for _ in range(100):
        d = rng.choice(DISCS)
        q = random_form(rng, d)
        g = random_sl2(rng)
        assert cm_point(act(q, g)) == moebius(g.inverse(), cm_point(q))


# ---------------------------------------------------------------------------
# kronecker


def test_kronecker_reference_values():
    assert kronecker(-28, 9) == 1
    assert kronecker(-28, 3) == -1
    assert kronecker(-7, 1) == 1
    assert kronecker(-4, 5) == 1
    assert kronecker(5, 5) == 0


def test_kronecker_against_euler_criterion():
    primes = [p for p in range(3, 500) if all(p % q for q in range(2, p))]
    for d in DISCS + [-163, -67, 5, 8, 12]:
        for p in primes:
            if d % p == 0:
                continue
            euler = pow(d % p, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker(d, p) == expected, (d, p)


@given(st.integers(-300, 300), st.integers(-300, 300), st.sampled_from(DISCS))
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative(m1, m2, d):
    assert kronecker(d, m1 * m2) == kronecker(d, m1) * kronecker(d, m2)


def test_chi_well_defined_on_units():
    for d in DISCS:
        for m in units_mod(d):
            assert kronecker(d, m) == kronecker(d, m + abs(d))
        assert 1 in ker_chi(d)


# ---------------------------------------------------------------------------
# unit values and the residue-grid oracle


def test_representation_values_reference():
    units = units_mod(-28)
    assert representation_values(Form(1, 0, 7), 2, 28) & units == {1, 9, 25}
    assert representation_values(Form(7, 0, 1), 2, 28) & units == {11, 15, 23}
    assert representation_values(Form(1, 0, 7), 1, 1) == {0}


def test_representation_values_gamma0_invariant(rng):
    for _ in range(25):
        d = rng.choice(DISCS)
        n = rng.choice([1, 2, 3, 5])
        q = random_form(rng, d)
        q2 = act(q, random_gamma0(rng, n))
        for modulus in (4, 7, 12, 28):
            assert representation_values(q, n, modulus) == representation_values(
                q2, n, modulus
            )
        assert unit_values(q, n) == unit_values(q2, n)


# every discriminant down to -60 at small levels, then large 2-parts;
# the non-admissible reduced forms give the cases p | gcd(a, N)
UNIT_VALUE_GRID = [
    (d, n) for d in range(-3, -61, -1) if d % 4 in (0, 1) for n in (1, 2, 3, 4, 5, 6)
] + [(d, n) for d in (-64, -128, -256) for n in (1, 2, 4, 8)]


def test_unit_values_match_grid():
    for d, n in UNIT_VALUE_GRID:
        units = units_mod(d)
        for f in (*enumerate_reduced(d, n), principal_form(d)):
            want = representation_values(f, n, -d) & units
            assert unit_values(f, n) == want, (d, n, f)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(-5, 10**5) if is_prime_trial_division(n)
    ]


def test_is_prime_large():
    # strong pseudoprimes to base 2, to bases 2..7 and to bases 2..23
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    for n in (10**9 + 7, 2**61 - 1, 10**18 + 3, 9973, 10007, 1000003):
        assert is_prime(n)
    assert not is_prime(1000003 * 1000033)
    assert not is_prime(10**30)  # a small factor decides it above the limit too
    # a strong pseudoprime to all 13 bases: no exact answer, so a refusal
    with pytest.raises(SearchBoundExceeded):
        is_prime(MILLER_RABIN_LIMIT)


def test_sqrt_mod_prime_matches_squares():
    # every residue mod every odd prime below 2000: a root of each square,
    # a refusal for each non-square; 1 (mod 8) takes the longest descent
    primes = [p for p in range(3, 2000) if is_prime(p)]
    assert sum(p % 8 == 1 for p in primes) > 60
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            if a in squares:
                r = sqrt_mod_prime(a, p)
                assert 0 <= r < p and r * r % p == a, (a, p)
            else:
                with pytest.raises(ValidationError):
                    sqrt_mod_prime(a, p)


def test_sqrt_mod_prime_large():
    # 2^23 | p - 1 for 998244353; 10^12 + 39 and 2^61 - 1 are 3 (mod 4);
    # 10^12 + 61 and 2^61 + 21 are 5 (mod 8), Atkin's closed form
    for p in (
        998244353,
        7 * 2**20 + 1,
        10**12 + 39,
        2**61 - 1,
        10**18 + 9,
        1000000000061,
        2305843009213693973,
    ):
        assert is_prime(p)
        for x in (2, 3, 12345, p - 5, 10**6 + 3):
            r = sqrt_mod_prime(x * x, p)
            assert r in (x % p, -x % p), (x, p)


def test_sqrt_mod_prime_non_residue_bound(monkeypatch):
    # 2, 3 and 4 are squares mod 73, and 5 is the least non-square: four
    # candidates find it, three are refused; 3 (mod 4) needs no search
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "4")
    assert sqrt_mod_prime(2, 73) ** 2 % 73 == 2
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "3")
    with pytest.raises(SearchBoundExceeded):
        sqrt_mod_prime(2, 73)
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "0")
    assert sqrt_mod_prime(2, 71) ** 2 % 71 == 2


def test_sqrt_mod_prime_five_mod_eight_does_no_search(monkeypatch):
    # 13 = 5 (mod 8): Atkin's root searches no non-residue, so a bound of 0
    # refuses nothing
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "0")
    assert sqrt_mod_prime(3, 13) in (4, 9)


@pytest.mark.parametrize("bad_root", [lambda r: r + 1, lambda r: 2 * r])
@pytest.mark.parametrize("a, p", [(2, 23), (3, 37)])
def test_root_check_catches_a_wrong_power(monkeypatch, bad_root, a, p):
    # 23 = 3 (mod 4) and 37 = 5 (mod 8): the root is one closed-form power,
    # and only its square checks it; the module's pow is shadowed here by
    # one that is wrong at every exponent but Euler's (p - 1)/2
    r = sqrt_mod_prime(a, p)
    assert r * r % p == a

    def wrong_pow(x, e, m):
        out = builtins.pow(x, e, m)
        return out if e == (m - 1) // 2 else bad_root(out)

    monkeypatch.setattr(core, "pow", wrong_pow, raising=False)
    with pytest.raises(ValidationError, match=f"{a} is not a square modulo {p}"):
        sqrt_mod_prime(a, p)


def test_crt_matches_euclid_oracle():
    # every residue pair, one beyond each end too, on a grid of positive
    # moduli; the incompatible systems (None) among them
    incompatible = 0
    for m1 in range(1, 25):
        for m2 in range(1, 25):
            for r1 in range(-1, m1 + 1):
                for r2 in range(-1, m2 + 1):
                    got = crt(r1, m1, r2, m2)
                    assert got == crt_by_euclid(r1, m1, r2, m2), (r1, m1, r2, m2)
                    incompatible += got is None
    assert incompatible > 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**6),
    st.integers(1, 10**12),
    st.integers(1, 10**12),
)
def test_crt_matches_euclid_oracle_on_large_moduli(r1, r2, k, u, v):
    # moduli k*u and k*v share at least the factor k
    m1, m2 = k * u, k * v
    got = crt(r1, m1, r2, m2)
    assert got == crt_by_euclid(r1, m1, r2, m2)
    if got is not None:
        x, l = got
        assert 0 <= x < l == math.lcm(m1, m2) and (x - r1) % m1 == 0 and (x - r2) % m2 == 0
