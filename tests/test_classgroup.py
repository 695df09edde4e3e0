import math
import random
from fractions import Fraction

import pytest

from gammaforms import classgroup, reduction
from gammaforms.classgroup import (
    class_group,
    compose_classes,
    dirichlet_compose,
    oracle_pairs,
    prepare_coprime,
    principal_form,
    verify_iso_with_scaled,
)
from gammaforms.core import Form, act, kronecker
from gammaforms.errors import (
    CompositionError,
    DiscriminantMismatch,
    GammaFormsError,
    InvariantError,
    SearchBoundExceeded,
    ValidationError,
)
from gammaforms.genus import genus_table
from gammaforms.reduction import _gauss, _sweep, canonical_rep, class_reps, equivalent_gamma0
from conftest import (
    compose_one_pair_wrongly,
    composed_cayley,
    prepare_coprime_sorted_shells,
    random_form,
    random_gamma0,
    torsion_invariant_factors,
)

GRID = [
    (d, n)
    for d in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24)
    for n in (1, 2, 3, 5, 7)
    if abs(d * n * n) <= 2000
]


def test_principal_form():
    assert principal_form(-4) == Form(1, 0, 1)
    assert principal_form(-7) == Form(1, 1, 2)
    assert principal_form(-28) == Form(1, 0, 7)
    with pytest.raises(ValidationError):
        principal_form(-6)


def test_prepare_coprime_examples(rng):
    assert prepare_coprime(Form(1, 0, 1), 1, 3) == Form(1, 0, 1)
    q = prepare_coprime(Form(2, 2, 1), 2, 1)
    assert q.a % 2 == 1 and equivalent_gamma0(Form(2, 2, 1), q, 1) is not None
    for _ in range(100):
        d = rng.choice([-3, -4, -7, -8, -20])
        n = rng.choice([1, 2, 3, 5])
        m = rng.randrange(1, 40)
        q0 = random_form(rng, d)
        if math.gcd(q0.a, n) != 1 or math.gcd(math.gcd(m, n), q0.a) != 1:
            continue
        q1 = prepare_coprime(q0, m, n)
        assert math.gcd(q1.a, m) == 1
        assert equivalent_gamma0(q0, q1, n) is not None


def test_prepare_coprime_detects_impossible():
    # every 2-admissible value of 2x^2 + 2xy + y^2... has even leading part
    with pytest.raises(ValidationError):
        prepare_coprime(Form(2, 2, 1), 2, 2)


def test_prepare_coprime_safety_bound(monkeypatch):
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "1")
    with pytest.raises(SearchBoundExceeded):
        prepare_coprime(Form(3, 3, 1), 15, 5)
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH")
    assert prepare_coprime(Form(3, 3, 1), 15, 5).a % 15 != 0


def _outcome(prepare, q, m, n):
    try:
        return prepare(q, m, n)
    except GammaFormsError as exc:
        return type(exc), str(exc)


def test_prepare_coprime_matches_sorted_shells():
    # every class rep, admissible or not, so the refusals are compared too
    for d in range(-3, -201, -1):
        if d % 4 not in (0, 1):
            continue
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15):
            for q in class_reps(d, n):
                for m in (2, 3, 6, 10, 30, q.a * n):
                    expected = _outcome(prepare_coprime_sorted_shells, q, m, n)
                    assert _outcome(prepare_coprime, q, m, n) == expected, (q, m, n)


def test_dirichlet_compose_b_normalization():
    # gcd(a, a') = 1: B is the least nonnegative solution mod 2aa'
    q = dirichlet_compose(Form(3, 2, 1), Form(11, -16, 6), 2)
    assert q == Form(33, 50, 19)
    assert 0 <= q.b < 2 * 3 * 11
    assert q.disc == -8


def test_dirichlet_compose_validation():
    with pytest.raises(DiscriminantMismatch):
        dirichlet_compose(Form(1, 0, 1), Form(1, 0, 2), 1)
    with pytest.raises(CompositionError):
        dirichlet_compose(Form(2, 2, 3), Form(2, -2, 3), 1)  # gcd(a, a', (b+b')/2) = 2
    with pytest.raises(CompositionError):
        dirichlet_compose(Form(3, 2, 1), Form(11, -16, 6), 3)  # gcd(aa', 3) = 3


def test_compose_identity_and_inverse():
    for d, n in [(-8, 2), (-20, 1), (-3, 5), (-23, 2)]:
        group = class_group(d, n)
        e = principal_form(d)
        for cl in group.elements:
            q = cl.rep
            assert compose_classes(canonical_rep(e, n), q, n) == q
            inv = Form(q.a, -q.b, q.c)
            assert compose_classes(q, inv, n) == canonical_rep(e, n)


@pytest.mark.parametrize("d", [-3, -4, -23, -56, -84, -231])
def test_scaled_class_lookup_matches_canonical_rep(rng, d):
    # the D*N^2 map names the class of every admissible form as canonical_rep,
    # the path it replaces, does: each class rep and random translates of it
    for n in (2, 3, 4, 5, 6, 8, 9, 10, 12, 15):
        scaled = classgroup._scaled_classes(d, n)
        assert genus_table(d, n).scaled_classes is scaled
        reps = [f for f in class_reps(d, n) if math.gcd(f.a, n) == 1]
        assert len(scaled) == len(reps), (d, n)
        for f in reps:
            for q in [f] + [act(f, random_gamma0(rng, n)) for _ in range(3)]:
                key = _gauss(q.a, q.b * n, q.c * n * n)[:3]
                found = classgroup._scaled_class(scaled, key, d, n)[0]
                assert found == canonical_rep(q, n) == f, (d, n, q)


def test_admissible_counts_match_the_order_formula():
    # the admissible classes, listed and in the D*N^2 map, number
    # h(D*N^2), counted by the level-1 sweep at D*N^2 and by
    # h(D)*N*prod over p | N of (1 - (D/p)/p), divided at D = -3 and -4 by
    # the unit index 3 or 2 when N > 1, in fractions with h(D) from the
    # level-1 sweep at D
    for n in (*range(1, 11), 12, 15):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))]
        for d in range(-3, -301, -1):
            if d % 4 not in (0, 1):
                continue
            expected = Fraction(len(_sweep(d)) * n)
            for p in primes:
                expected *= 1 - Fraction(kronecker(d, p), p)
            if n > 1:
                expected /= {-3: 3, -4: 2}.get(d, 1)
            admissible = [f for f in class_reps(d, n) if math.gcd(f.a, n) == 1]
            assert len(classgroup._scaled_classes(d, n)) == len(admissible) == expected, (d, n)
            assert len(_sweep(d * n * n)) == expected, (d, n)


def test_admissible_count_check_catches_a_dropped_class(monkeypatch):
    # one admissible class swapped for a repeat of an inadmissible one
    # leaves the table's size, and so h(D), as they were; the D*N^2 map then
    # has 5 of the 3*6*(1 - 1/2)*(1 - 1/3) = 6 admissible classes
    reps = class_reps(-23, 6)
    admissible = [f for f in reps if math.gcd(f.a, 6) == 1]
    other = next(f for f in reps if math.gcd(f.a, 6) != 1)
    mutant = tuple(other if f == admissible[-1] else f for f in reps)
    monkeypatch.setattr(classgroup, "class_reps", lambda d, n: mutant)
    with pytest.raises(InvariantError, match="5 admissible classes of disc -23, level 6, not 6"):
        classgroup._scaled_classes.__wrapped__(-23, 6)


def test_group_and_composition_take_no_walk(monkeypatch):
    # with the class table built (it takes each class's minimum once), the
    # group and composition name classes through the D*N^2 map: no
    # canonical_rep, no minimum
    pairs = [(-23, 2), (-47, 5), (-56, 6), (-84, 4), (-231, 12), (-20, 9)]
    for d, n in pairs:
        class_reps(d, n)
    class_group.cache_clear()
    classgroup._scaled_classes.cache_clear()
    calls = []
    for module in (reduction, classgroup):
        for name in ("canonical_rep", "_minimum"):
            if hasattr(module, name):
                real = getattr(module, name)
                counted = lambda *args, name=name, real=real: calls.append(name) or real(*args)
                monkeypatch.setattr(module, name, counted)
    for d, n in pairs:
        reps = [e.rep for e in class_group(d, n).elements]
        for q in reps:
            compose_classes(reps[-1], q, n)
    assert calls == []


def test_square_of_disc8_class():
    assert compose_classes(Form(3, 2, 1), Form(3, 2, 1), 2) == Form(1, 0, 2)


def test_class_group_reference_orders():
    assert class_group(-7, 2).order == 1
    g = class_group(-8, 2)
    assert g.order == 2 and g.invariant_factors == (2,)
    assert class_group(-4, 1).order == 1
    assert class_group(-3, 5).invariant_factors == (2,)
    # noncyclic example: four ambiguous classes
    assert class_group(-84, 1).invariant_factors == (2, 2)


def test_derived_table_matches_composed_table():
    # the table from exponent vectors against every pair composed, and the
    # Smith normal form against the torsion counts of that composed table
    for d in range(-3, -301, -1):
        if d % 4 not in (0, 1):
            continue
        for n in (1, 2, 3, 4, 5, 6, 7, 10, 12):
            g = class_group(d, n)
            table = composed_cayley(d, n)
            assert g.cayley == table, (d, n)
            assert g.invariant_factors == torsion_invariant_factors(table), (d, n)
            e = g.identity_index
            for i in range(g.order):
                assert table[i][g.inverse_of(i)] == e, (d, n, i)
                x, k = i, 1
                while x != e:
                    x, k = table[x][i], k + 1
                assert g.element_order(i) == k, (d, n, i)


def test_composition_leaving_the_class_list(monkeypatch):
    class_group.cache_clear()
    monkeypatch.setattr(classgroup, "compose_classes", lambda q1, q2, n: Form(1, 1, 1000))
    with pytest.raises(InvariantError, match="left the class list"):
        class_group(-47, 1)


def test_group_axioms_and_commutativity():
    for d, n in [(-8, 2), (-23, 2), (-20, 3), (-24, 5)]:
        g = class_group(d, n)
        size = g.order
        e = g.identity_index
        assert g.elements[e].rep == canonical_rep(principal_form(d), n)
        for i in range(size):
            g.inverse_of(i)
            for j in range(size):
                assert g.cayley[i][j] == g.cayley[j][i]
                for k in range(size):
                    assert g.cayley[g.cayley[i][j]][k] == g.cayley[i][g.cayley[j][k]]


def test_composition_well_defined_on_classes(rng):
    for _ in range(30):
        d, n = rng.choice(GRID)
        group = class_group(d, n)
        i, j = rng.randrange(group.order), rng.randrange(group.order)
        q1 = act(group.elements[i].rep, random_gamma0(rng, n, 5))
        q2 = act(group.elements[j].rep, random_gamma0(rng, n, 5))
        assert compose_classes(q1, q2, n) == group.elements[group.cayley[i][j]].rep


def test_gcd_with_level_is_class_invariant(rng):
    for _ in range(60):
        d = rng.choice([-4, -8, -15, -20, -24])
        n = rng.choice([2, 3, 5, 6])
        q = random_form(rng, d)
        q2 = act(q, random_gamma0(rng, n))
        assert (math.gcd(q.a, n) == 1) == (math.gcd(q2.a, n) == 1)


def test_element_orders_divide_group_order():
    for d, n in [(-23, 2), (-24, 7), (-15, 7)]:
        g = class_group(d, n)
        exponent = 1
        for i in range(g.order):
            o = g.element_order(i)
            assert g.order % o == 0
            exponent = exponent * o // math.gcd(exponent, o)
        assert exponent == (g.invariant_factors[-1] if g.invariant_factors else 1)
        total = 1
        for f in g.invariant_factors:
            total *= f
        assert total == g.order


def test_verify_iso_examples():
    for d, n in [(-4, 2), (-8, 2), (-3, 2)]:
        ok, report = verify_iso_with_scaled(d, n)
        assert ok, report
    ok, report = verify_iso_with_scaled(-4, 4)  # composite level path
    assert ok and report["left_invariant_factors"] == [2]


def test_class_group_general_level_matches_scaled():
    for d, n in [(-3, 4), (-4, 6), (-7, 4)]:
        ok, report = verify_iso_with_scaled(d, n)
        assert ok, report


def test_oracle_pairs_detects_wrong_composition(monkeypatch):
    assert oracle_pairs(-23, 2) == 9
    # class_group(-23, 2) is cached now, so only the oracle composes with
    # the patched law, which returns the class of the left factor
    monkeypatch.setattr(classgroup, "dirichlet_compose", lambda q1, q2, n: q1)
    with pytest.raises(InvariantError, match="oracle mismatch"):
        oracle_pairs(-23, 2)
    # one pair sent to the wrong class is enough
    monkeypatch.undo()
    compose_one_pair_wrongly(monkeypatch, -23, 2)
    with pytest.raises(InvariantError, match="oracle mismatch at classes 0, 1"):
        oracle_pairs(-23, 2)


def test_oracle_pairs_builds_each_left_ideal_once(monkeypatch):
    # h left ideals, then per ordered pair the composed form's and the
    # right factor's: 2*h^2 + h ideals for h classes, not 3*h^2
    h = class_group(-56, 3).order
    built = []
    real = classgroup.ideal_from_form
    monkeypatch.setattr(classgroup, "ideal_from_form", lambda q: built.append(q) or real(q))
    assert oracle_pairs(-56, 3) == h * h
    assert h > 1 and len(built) == 2 * h * h + h
