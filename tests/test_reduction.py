import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from gammaforms import reduction
from gammaforms.core import Form, GroupElement, IDENTITY, act, act_by_column, act_coeffs
from gammaforms.errors import (
    DiscriminantMismatch,
    InvariantError,
    SearchBoundExceeded,
    ValidationError,
)
from gammaforms.genus import find_representations
from gammaforms.reduction import (
    _gauss,
    _lift_to_sl2,
    _minimum,
    _sweep,
    automorphs,
    canonical_rep,
    coset_reps,
    enumerate_reduced,
    equivalent_gamma0,
    is_reduced,
    reduce_gamma0,
)
from conftest import (
    S,
    T,
    automorphs_by_search,
    canonical_rep_by_table,
    class_key,
    class_table_per_pair,
    coset_reps_by_scan,
    covering_per_pair,
    equivalent_by_stabilizers,
    gauss_reduction,
    has_walk,
    into_strip,
    is_reduced_by_rules,
    is_reduced_gamma0_small,
    keyed_class_table,
    p1_label,
    random_form,
    random_gamma0,
    random_sl2,
    reduced_by_search,
    solutions_by_stabilizers,
    sweep_per_a,
    walk_by_forms,
)


def test_reduce_sl2_examples():
    r = reduce_gamma0(Form(1, 2, 2), 1)
    assert r.reduced == Form(1, 0, 1)
    assert r.transform == GroupElement(1, -1, 0, 1)
    assert reduce_gamma0(Form(3, 2, 1), 1).reduced == Form(1, 0, 2)
    assert reduce_gamma0(Form(1, 1, 1), 1).reduced == Form(1, 1, 1)


def test_reduce_sl2_witness_and_idempotence(rng):
    for _ in range(200):
        d = rng.choice([-3, -4, -7, -8, -11, -15, -20, -23, -24, -163])
        q = random_form(rng, d)
        r = reduce_gamma0(q, 1)
        assert act(q, r.transform) == r.reduced
        assert is_reduced(r.reduced, 1)
        assert reduce_gamma0(r.reduced, 1).reduced == r.reduced


def test_reduce_sl2_unique_over_small_words():
    # brute force: every word image of (3,2,1) reduces to the same form,
    # and the only reduced form among the images is (1,0,2)
    q = Form(3, 2, 1)
    seen = {q}
    frontier = [q]
    for _ in range(6):
        frontier = [
            act(f, g) for f in frontier for g in (T, T.inverse(), S) if act(f, g) not in seen
        ]
        seen.update(frontier)
    reduced_images = {f for f in seen if is_reduced(f, 1)}
    assert reduced_images == {Form(1, 0, 2)}


def test_reduce_rejects_bad_input():
    with pytest.raises(ValidationError):
        reduce_gamma0(Form(1, 4, 1), 1)
    with pytest.raises(ValidationError):
        reduce_gamma0(Form(2, 0, 2), 1)


def test_level_one_region_is_classical_reduction():
    # at level 1 is_reduced runs the strip, the unit circle k = 0 and the
    # greatest-b rule; every positive-definite form of a small grid, primitive
    # or not, against Gauss's conditions written out
    for a in range(1, 26):
        for b in range(-30, 31):
            for c in range(1, 31):
                if b * b >= 4 * a * c:
                    continue
                classical = abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)
                assert is_reduced(Form(a, b, c), 1) == classical, (a, b, c)


def test_level_one_walk_is_gauss(rng):
    # at level 1 the minimum, and the walk oracle across the unit circle,
    # end at Gauss's reduced form, and the minimum's witness carries the
    # start there: random forms with coefficients up to 10^6, and random
    # SL2(Z) translates of reduced forms, some on the boundary |b| = a or
    # a = c
    starts = []
    for _ in range(3000):
        a, c = rng.randint(1, 10**6), rng.randint(1, 10**6)
        b_max = min(10**6, math.isqrt(4 * a * c - 1))
        starts.append((a, rng.randint(-b_max, b_max), c))
    for d in (-3, -4, -7, -12, -15, -16, -20, -23, -27, -84, -420):
        for f in _sweep(d):
            starts += [tuple(act(f, random_sl2(rng, 12))) for _ in range(20)]
    for q in starts:
        a, b, c, *g = _minimum(*q, 1)
        assert (a, b, c) == _gauss(*q)[:3] == walk_by_forms(Form(*q), 1), q
        assert act_coeffs(*q, *g) == (a, b, c) and g[0] * g[3] - g[1] * g[2] == 1, q


def test_is_reduced_gamma0_small_examples():
    assert is_reduced_gamma0_small(Form(2, 2, 1), 2)
    assert not is_reduced_gamma0_small(Form(1, 2, 2), 2)
    assert is_reduced_gamma0_small(Form(3, 2, 1), 2)
    with pytest.raises(ValidationError):
        is_reduced_gamma0_small(Form(1, 0, 1), 5)


def test_small_levels_match_oracle():
    # at n = 2, 3 is_reduced applies the circle and greatest-b rules of the
    # primes; they give the answers of the oracle written for these two
    # levels on the boundary forms, |b| = a or |b| = n*c, and on a grid
    for n in (2, 3):
        forms = [
            Form(a, b, c)
            for a in range(1, 61)
            for c in range(1, 61)
            for b in {a, -a, n * c, -n * c}
        ]
        forms += [
            Form(a, b, c) for a in range(1, 16) for c in range(1, 16) for b in range(-45, 46)
        ]
        for q in forms:
            if q.disc < 0:
                assert is_reduced(q, n) == is_reduced_gamma0_small(q, n), (q, n)


def _same_a_images(f: Form, n: int) -> set[Form]:
    """f and the forms with its a reached by moves by the Gamma0(n) matrices
    with first column (k, n), k within 3 of n*Re(tau), each put into the
    strip; the boundary forms of f's class that random forms rarely hit."""
    images, todo = set(), [f]
    while todo:
        g = todo.pop()
        if g not in images:
            images.add(g)
            near = -g.b * n // (2 * g.a)
            todo += [
                into_strip(act_by_column(g, k, n))
                for k in range(near - 2, near + 4)
                if math.gcd(k, n) == 1 and g(k, n) == g.a
            ]
    return images


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 101])
def test_is_reduced_matches_rules_oracle(n):
    # is_reduced keeps the greatest b among the images with the same a, the
    # oracle writes the side-pairing tie-breaks out; they agree on each class
    # rep and its same-a images, of which the rep alone is reduced
    for d in range(-3, -400, -1):
        if d % 4 not in (0, 1):
            continue
        for f in enumerate_reduced(d, n):
            images = _same_a_images(f, n)
            assert [g for g in images if is_reduced(g, n)] == [f], (f, n)
            for q in images:
                assert is_reduced(q, n) == is_reduced_by_rules(q, n), (q, n)


def test_is_reduced_gamma0_p_examples():
    assert is_reduced(Form(1, 1, 1), 5)
    # b = -p*c violates the arc condition at k = 1
    assert not is_reduced(Form(7, -5, 1), 5)
    # every level has its reduced forms: at level 4 (1, 0, 1) and (2, 2, 1)
    # are, and (1, 2, 2), with b outside (-a, a], is not
    assert is_reduced(Form(1, 0, 1), 4) and is_reduced(Form(2, 2, 1), 4)
    assert not is_reduced(Form(1, 2, 2), 4)


@given(
    st.randoms(use_true_random=False),
    st.sampled_from([-3, -4, -7, -8, -15, -20, -23, -56, -71]),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
    st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_is_reduced_iff_canonical(r, d, n, moves):
    # a reduced form or a random one, then a few Gamma0(n) steps
    q = r.choice(enumerate_reduced(d, n)) if r.random() < 0.5 else random_form(r, d)
    for _ in range(moves):
        q = act(q, random_gamma0(r, n, 1))
    assert is_reduced(q, n) == (canonical_rep(q, n) == q), (q, n)


# ---------------------------------------------------------------------------
# cosets


def test_coset_counts():
    assert len(coset_reps(1)) == 1
    assert len(coset_reps(5)) == 6
    assert len(coset_reps(6)) == 12
    assert len(coset_reps(12)) == 24


def test_coset_reps_are_distinct_and_complete(rng):
    for n in (2, 3, 5, 6, 7, 10):
        reps = coset_reps(n)
        by_label = {p1_label(n, g.c, g.d): g for g in reps}
        assert len(by_label) == len(reps)
        # a random matrix lands in exactly one coset
        for _ in range(20):
            g = random_sl2(rng)
            rep = by_label[p1_label(n, g.c, g.d)]
            # gamma = g * rep^-1 must then be in Gamma0(n)
            gamma = g * rep.inverse()
            assert gamma.in_gamma0(n)


def test_p1_label_rejects_non_points():
    with pytest.raises(ValidationError):
        p1_label(4, 2, 2)


def test_lift_rejects_non_points():
    # the library lifts only labels it built, so a row with gcd(c, d, n) > 1
    # is an internal error
    for n, c, d in ((4, 2, 2), (6, 3, 9), (150, 10, 25)):
        with pytest.raises(InvariantError, match="cannot lift"):
            _lift_to_sl2(n, c, d)


def _p1_label_unit_loop(n, c, d):
    """Reference: the least unit multiple by trying every unit."""
    c %= n
    d %= n
    best = None
    for u in range(1, n + 1):
        if math.gcd(u, n) != 1:
            continue
        cand = (u * c % n, u * d % n)
        if best is None or cand < best:
            best = cand
    return best


def test_p1_label_and_cosets_match_unit_loop():
    for n in range(1, 61):
        labels = set()
        for c in range(n):
            for d in range(n):
                if math.gcd(math.gcd(c, d), n) == 1:
                    label = _p1_label_unit_loop(n, c, d)
                    assert p1_label(n, c, d) == label, (n, c, d)
                    labels.add(label)
        assert sorted(p1_label(n, g.c, g.d) for g in coset_reps(n)) == sorted(labels), n


def test_p1_label_zero_row_is_immediate():
    # c = 0 (mod n) labels as (0, 1) without a loop over the n units, also
    # in the class key of the test oracle
    n = 10**9 + 7
    assert p1_label(n, 0, 5) == (0, 1)
    assert class_key(Form(1, 1, 6), n) == (Form(1, 1, 6), (0, 1))


def test_coset_reps_match_scan():
    # the orbit walk against the scan that labels every point
    for n in [*range(1, 401), 1009, 1499]:
        assert coset_reps(n) == coset_reps_by_scan(n), n


def test_coset_reps_bound(monkeypatch):
    # psi(6) = 12; the bound is checked before the scan, and before
    # factoring a level that already exceeds it
    coset_reps.cache_clear()
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "11")
    for n in (6, 10**30):
        with pytest.raises(SearchBoundExceeded, match="more than 11 cosets"):
            coset_reps(n)
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "12")
    assert len(coset_reps(6)) == 12


def test_coset_reps_bound_when_warm(monkeypatch):
    # the bound is checked before every lookup: a level whose cosets are
    # cached is refused under a lower bound all the same
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    assert len(coset_reps(150)) == 360
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "10")
    with pytest.raises(SearchBoundExceeded, match="more than 10 cosets"):
        coset_reps(150)


# ---------------------------------------------------------------------------
# enumeration


PAPER_TABLES = {
    -3: {(1, 1, 1)},
    -4: {(1, 0, 1), (2, 2, 1)},
    -7: {(1, 1, 2), (2, 1, 1), (2, -1, 1)},
    -8: {(1, 0, 2), (2, 0, 1), (3, 2, 1)},
}


def test_enumerate_level2_reference_tables():
    for d, expected in PAPER_TABLES.items():
        got = {(f.a, f.b, f.c) for f in enumerate_reduced(d, 2)}
        assert got == expected, d


def test_enumerate_is_sorted_and_validates():
    forms = enumerate_reduced(-28, 2)
    assert list(forms) == sorted(forms, key=lambda f: (f.a, f.b, f.c))
    # a composite level: (psi(4) + eps2(4))/2 = (6 + 0)/2 reduced forms
    assert enumerate_reduced(-4, 4) == (Form(1, 0, 1), Form(2, 2, 1), Form(5, 4, 1))
    with pytest.raises(ValidationError):
        enumerate_reduced(-5, 2)


def test_enumerate_matches_class_count_for_primes():
    # |Gamma0(p)-RF(D)| agrees with the translate covering at higher levels,
    # class key by class key of the oracle
    for p in (5, 7, 11):
        for d in (-3, -4, -7, -8, -11):
            covering = covering_per_pair(d, p, coset_reps(p))
            assert keyed_class_table(d, p).keys() == covering, (d, p)
            assert len(enumerate_reduced(d, p)) == len(covering), (d, p)


def test_sweep_matches_per_a_oracle():
    # the level-1 b-and-divisor sweep, and the walked forms at the other
    # levels, against the per-a sweep
    levels = (1, 2, 3, 5, 7, 11, 13)
    cases = [(d, n) for d in range(-3, -301, -1) if d % 4 in (0, 1) for n in levels]
    cases += [(d, n) for d in (-2999, -3000) for n in (2, 3, 11)]
    for d, n in cases:
        forms = sweep_per_a(d, n)
        assert (_sweep(d) if n == 1 else list(enumerate_reduced(d, n))) == forms, (d, n)
        # the bound on b and the divisor start of the level-1 sweep, and
        # their analogues at level n
        for f in forms:
            assert 3 * f.b * f.b <= -n * n * d and abs(f.b) <= f.a and abs(f.b) <= n * f.c, (f, n)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 101])
def test_walk_matches_per_a_oracle(rng, n):
    # random Gamma0(n) translates of every form of the per-a sweep walk back
    # to it by the walk oracle, and the minimum gives it too
    discs = [-3, -4, -7, -8, -15, -20, -23, -47, -56, -71, -84, -127]
    for d in discs if n < 101 else discs[:6]:
        for f in sweep_per_a(d, n):
            for _ in range(4):
                q = act(f, random_gamma0(rng, n, 12))
                assert walk_by_forms(q, n) == f, (q, n)
                assert _minimum(*q, n)[:3] == f == canonical_rep(q, n), (q, n)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 101])
def test_walk_matches_form_oracle(rng, n):
    # the minimum ends at the form of the walk on Form objects, ties between
    # images on the region's boundary included, and its witness carries the
    # start there within Gamma0(n)
    for _ in range(150):
        q = random_form(rng, rng.choice([-3, -4, -7, -8, -15, -20, -23, -47, -84, -420]))
        if rng.random() < 0.5:
            q = act(q, random_gamma0(rng, n, 6))
        a, b, c, *g = _minimum(*q, n)
        assert Form(a, b, c) == walk_by_forms(q, n), (q, n)
        assert g[2] % n == 0 and act(q, GroupElement(*g)) == Form(a, b, c), (q, n)


def test_walk_checks(monkeypatch):
    # each check of the minimum fires from one patched step: a wrong Bezout
    # pair in the completion fails the witness check, and a scaled form left
    # unreduced runs the rows past their bound; a minimum that gives two
    # classes one reduced form fails the class count of the table
    def wrong_bezout(x, y, _real=reduction.xgcd):
        g, u, v = _real(x, y)
        return g, u, v + 1

    q = act(Form(1, 1, 6), GroupElement(1, 0, 5, 1))  # (156, 61, 6)
    assert _minimum(*q, 5)[:3] == (1, 1, 6)
    with monkeypatch.context() as m:
        m.setattr(reduction, "xgcd", wrong_bezout)
        with pytest.raises(InvariantError, match=r"does not carry \(156, 61, 6\) to \(1, \d+, \d+\) in Gamma0\(5\)"):
            _minimum(*q, 5)
    with monkeypatch.context() as m:
        m.setattr(reduction, "_gauss_steps", lambda a, b, c: (a, b, c, 1, 0, 0, 1))
        far = act(Form(1, 1, 1), GroupElement(1, 0, 5 * 10**6, 1))
        with pytest.raises(InvariantError, match="at level 5 passed row 4"):
            _minimum(*far, 5)
    first, second = enumerate_reduced(-23, 5)[:2]

    def merged(a, b, c, n, _real=reduction._minimum):
        out = _real(a, b, c, n)
        return (*first, *out[3:]) if out[:3] == second else out

    monkeypatch.setattr(reduction, "_minimum", merged)
    with pytest.raises(InvariantError, match="17 classes of disc -23, level 5, not 18"):
        enumerate_reduced.__wrapped__(-23, 5)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12, 15, 30, 122, 150])
def test_minimum_matches_search_at_composite_levels(rng, n):
    # at levels with no walk every class rep is its class's reduced form by
    # the brute-force search, |D| < 150 (< 40 at n > 100); the minimum of a
    # random Gamma0(n) translate of a sample of them, too far out for the
    # search, gives the rep back, with a witness in Gamma0(n) that carries
    # the translate to it
    for d in range(-3, -150 if n < 100 else -40, -1):
        if d % 4 not in (0, 1):
            continue
        reps = enumerate_reduced(d, n)
        for f in reps:
            assert reduced_by_search(f, n) == f, (f, n)
        for f in rng.sample(reps, min(len(reps), 20)):
            q = act(f, random_gamma0(rng, n, 6))
            a, b, c, *g = _minimum(*q, n)
            assert (a, b, c) == f, (q, n)
            assert g[2] % n == 0 and act(q, GroupElement(*g)) == f, (q, n, g)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 4, 6, 10, 12, 122])
def test_reduce_gamma0_witness(rng, n):
    # the witness of the canonical form lies in Gamma0(n), has determinant 1
    # and carries q to canonical_rep(q, n); the equivalence search finds one
    # that differs from it by an automorph of the canonical form
    for _ in range(60):
        q = random_form(rng, rng.choice([-3, -4, -7, -8, -15, -20, -23, -47, -84, -420]))
        if rng.random() < 0.5:
            q = act(q, random_gamma0(rng, n, 6))
        rep, g = reduce_gamma0(q, n)
        assert rep == canonical_rep(q, n) == canonical_rep_by_table(q, n), (q, n)
        assert g.in_gamma0(n) and g.a * g.d - g.b * g.c == 1 and act(q, g) == rep, (q, n, g)
        found = equivalent_gamma0(q, rep, n)
        assert found is not None and g.inverse() * found in automorphs(rep), (q, n, g, found)


def test_count_stable_under_other_coset_systems(rng):
    # the classes, and so their oracle keys, do not depend on the chosen
    # coset system
    for d, n in [(-4, 2), (-8, 2), (-3, 5), (-7, 3)]:
        base = coset_reps(n)
        twisted = tuple(random_gamma0(rng, n, 4) * g for g in reversed(base))
        covering = covering_per_pair(d, n, twisted)
        assert covering == keyed_class_table(d, n).keys(), (d, n)
        assert len(covering) == len(enumerate_reduced(d, n)), (d, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11, 12, 30, 122, 150])
def test_class_table_matches_per_pair_oracle(n):
    # on the whole grid the oracle keys of the table's forms are distinct
    # and are the keys of the covering, so the set of minima lists every
    # class once; at the levels of the walk oracle its forms are those of
    # the per-a sweep (test_minimum_matches_search_at_composite_levels
    # checks that each form is reduced elsewhere)
    reps = coset_reps_by_scan(n)
    for d in range(-3, -701, -1):
        if d % 4 in (0, 1):
            table = keyed_class_table(d, n)
            if has_walk(n):
                assert table == class_table_per_pair(d, n, reps), (d, n)
            else:
                assert table.keys() == covering_per_pair(d, n, reps), (d, n)


def test_class_table_work_counts(monkeypatch):
    # one minimum per coset translate, h(D)*psi(n) of them, which is one
    # per class below D = -4; no unit orbit, no automorph list and, as
    # coset_reps is warm, no lift
    calls = dict.fromkeys(("_units_taking", "automorphs", "_lift_to_sl2", "_minimum"), 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(reduction, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(reduction, name, counted)
    for d, n in ((-2999, 150), (-2999, 11), (-2999, 1), (-3, 12), (-4, 12)):
        psi = len(coset_reps(n))
        h = len(_sweep(d))
        calls.update(dict.fromkeys(calls, 0))
        classes = len(enumerate_reduced.__wrapped__(d, n))
        assert calls == {"_units_taking": 0, "automorphs": 0, "_lift_to_sl2": 0, "_minimum": h * psi}, (d, n)
        assert classes == h * psi if d < -4 else classes < h * psi, (d, n, classes)


def test_class_counts_match_the_index_formula():
    # h(D)*psi(n) classes below D = -4, (psi(n) + eps2(n))/2 at D = -4 and
    # (psi(n) + 2*eps3(n))/3 at D = -3, with psi(n) the cosets of the scan
    # and eps2, eps3 the roots of u^2 + 1 and u^2 + u + 1 mod n (Diamond and
    # Shurman, 3.7), not the prime products the class table checks against
    for n in (*range(1, 13), 15, 16, 18, 27, 30):
        psi = len(coset_reps_by_scan(n))
        eps2 = sum((u * u + 1) % n == 0 for u in range(n))
        eps3 = sum((u * u + u + 1) % n == 0 for u in range(n))
        for d in range(-3, -200, -1):
            if d % 4 in (0, 1):
                expected = {-4: (psi + eps2) // 2, -3: (psi + 2 * eps3) // 3}.get(d, len(_sweep(d)) * psi)
                assert len(enumerate_reduced(d, n)) == expected, (d, n)


def test_representation_counts_match_the_roots():
    # Gamma0(n) moves each proper admissible representation q(x, y) = m to
    # (1, 0) of one (m, b, (b^2 - D)/4m), b mod 2m a root of b^2 = D
    # (mod 4m); the representations that land on one such form are its
    # automorphs in Gamma0(n), whose first columns give (1, 0) back.  Summed
    # over the class reps they number, per primitive root, the stabilizer
    # of that form in Gamma0(n): +-I below D = -4, whatever n, and up to 6
    # at D = -3 and 4 at D = -4, so a class listed twice or missed shows
    discs = (-3, -4, -7, -8, -11, -12, -15, -16, -20, -23, -24, -27, -28, -31, -35)
    discs += (-39, -47, -56, -84, -95, -104, -420)
    for d in discs:
        for m in range(1, 40):
            roots = [
                Form(m, b, (b * b - d) // (4 * m))
                for b in range(2 * m)
                if (b * b - d) % (4 * m) == 0 and math.gcd(m, b, (b * b - d) // (4 * m)) == 1
            ]
            for n in (1, 2, 3, 4, 5, 6, 7, 10, 12):
                expected = sum(u.c % n == 0 for f in roots for u in automorphs(f))
                found = sum(
                    r.proper and r.admissible
                    for q in enumerate_reduced(d, n)
                    for r in find_representations(q, m, n)
                )
                assert found == expected, (d, n, m, found, expected)


def test_class_count_check_catches_a_dropped_class(monkeypatch):
    # a coset list one short drops one class per reduced form, which the
    # count check of the class table refuses: 33 classes of the 3*12
    reps = coset_reps(6)
    monkeypatch.setattr(reduction, "coset_reps", lambda n: reps[:-1])
    with pytest.raises(InvariantError, match="33 classes of disc -23, level 6, not 36"):
        enumerate_reduced.__wrapped__(-23, 6)


def test_table_and_reduction_label_no_row(monkeypatch, rng):
    # rows are labelled only where coset_reps is built, by the unit orbits
    # of _units_taking: reduce_gamma0 and a class table over warm cosets
    # take no orbit, and the library has no labelling function of its own
    assert not hasattr(reduction, "p1_label")
    # the cosets of the tables below and of random_form's level-1 tables
    for n in (1, 150, 12):
        coset_reps(n)
    calls = []

    def counted(n, c, g, _original=reduction._units_taking):
        calls.append((n, c, g))
        return _original(n, c, g)

    monkeypatch.setattr(reduction, "_units_taking", counted)
    for d in (-3, -4, -23, -2999):
        for n in (2, 5, 6, 130):
            for _ in range(5):
                reduce_gamma0(random_form(rng, d), n)
    for d, n in ((-2999, 150), (-3, 12), (-4, 12)):
        coset_reps(n)
        enumerate_reduced.__wrapped__(d, n)
    assert calls == []


def test_finiteness_bound_for_prime_levels():
    for p in (5, 7, 13):
        for d in (-3, -4, -7, -8, -15, -20, -23, -24):
            for f in enumerate_reduced(d, p):
                a, b, c = f.a, f.b, f.c
                case1 = 3 * a * a <= p * p * (-d)
                case2 = abs(b) * p <= a and abs(b) <= p * c and 3 * a * c <= -d
                assert case1 or case2, (p, d, f)
                if not case1:
                    assert 4 * a * c == b * b - d and a * c <= -d // 3


# ---------------------------------------------------------------------------
# automorphisms and equivalence


def test_automorph_sizes():
    assert len(automorphs(Form(1, 1, 1))) == 6
    assert len(automorphs(Form(1, 0, 1))) == 4
    assert len(automorphs(Form(1, 0, 2))) == 2
    assert len(automorphs(Form(2, 2, 3))) == 2  # disc -20


def test_automorphs_match_search():
    # the fixed pair (-I, I) below D = -4, in the same order as the search
    for d in range(-400, -2):
        if d % 4 in (0, 1):
            for r in enumerate_reduced(d, 1):
                assert automorphs(r) == automorphs_by_search(r), r


def test_automorphs_fix_form_and_match_word_ball():
    # exhaustive stabilizer inside the ball of word length <= 10
    ball = {IDENTITY}
    frontier = [IDENTITY]
    for _ in range(10):
        new = []
        for g in frontier:
            for h in (T, T.inverse(), S):
                k = g * h
                if k not in ball:
                    ball.add(k)
                    new.append(k)
        frontier = new
    for q in (Form(1, 0, 1), Form(1, 1, 1), Form(1, 0, 2), Form(2, 2, 3)):
        auts = set(automorphs(q))
        for g in auts:
            assert act(q, g) == q
        assert {g for g in ball if act(q, g) == q} == auts


def test_equivalent_gamma0_examples(rng):
    q = Form(2, 1, 1)
    g = equivalent_gamma0(q, q, 3)
    assert g is not None and act(q, g) == q

    # distinct reduced forms at level 2 are inequivalent, but merge at level 1
    assert equivalent_gamma0(Form(1, 0, 1), Form(2, 2, 1), 2) is None
    g = equivalent_gamma0(Form(1, 0, 1), Form(2, 2, 1), 1)
    assert g is not None and act(Form(1, 0, 1), g) == Form(2, 2, 1)

    with pytest.raises(DiscriminantMismatch):
        equivalent_gamma0(Form(1, 0, 1), Form(1, 0, 2), 1)


def test_equivalent_gamma0_detects_translates(rng):
    for _ in range(100):
        d = rng.choice([-3, -4, -7, -8, -11, -15, -20])
        n = rng.choice([1, 2, 3, 5, 7])
        q = random_form(rng, d)
        gamma = random_gamma0(rng, n)
        q2 = act(q, gamma)
        g = equivalent_gamma0(q, q2, n)
        assert g is not None and g.in_gamma0(n) and act(q, g) == q2


EQUIV_DISCS = (-3, -4, -7, -8, -11, -15, -20, -23, -84, -231, -420)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 25, 30])
def test_equivalent_gamma0_matches_stabilizer_oracle(rng, n):
    # 40 pairs per (D, n), every other one moved by a Gamma0(n) word and the
    # rest by an SL2(Z) word: None exactly where the oracle finds no element
    # of Gamma0(n) in delta1*Aut(r)*delta2^(-1), and otherwise a matrix of
    # that set that lies in Gamma0(n) and carries q1 to q2
    outcomes = set()
    for d in EQUIV_DISCS:
        for i in range(40):
            q1 = random_form(rng, d)
            q2 = act(q1, random_gamma0(rng, n) if i % 2 else random_sl2(rng))
            g = equivalent_gamma0(q1, q2, n)
            assert (g is None) == (equivalent_by_stabilizers(q1, q2, n) is None), (q1, q2, n)
            if g is not None:
                assert g.in_gamma0(n) and act(q1, g) == q2, (q1, q2, n, g)
                assert g in solutions_by_stabilizers(q1, q2), (q1, q2, n, g)
            outcomes.add(g is None)
    assert outcomes == ({False, True} if n > 1 else {False}), n


@pytest.mark.parametrize("n", [10**6 + 3, 223092870, 10**12 + 39])
def test_equivalent_gamma0_at_large_levels(rng, n):
    # the minimum needs no search bound: at a prime, the product of the
    # primes up to 23 and a prime near 10^12, where no class table can be
    # built, translated pairs are answered within the alarm, as the oracle
    # answers them
    pairs = []
    for d in EQUIV_DISCS:
        for i in range(10):
            q1 = random_form(rng, d)
            pairs.append((q1, act(q1, random_gamma0(rng, n) if i % 2 else random_sl2(rng))))
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        found = [equivalent_gamma0(q1, q2, n) for q1, q2 in pairs]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for (q1, q2), g in zip(pairs, found):
        assert (g is None) == (equivalent_by_stabilizers(q1, q2, n) is None), (q1, q2, n)
        assert g is None or g.in_gamma0(n) and act(q1, g) == q2, (q1, q2, n, g)
    assert all(g is not None for g in found[1::2]), n


def test_enumerated_forms_pairwise_inequivalent():
    for d, n in [(-4, 2), (-8, 2), (-28, 2), (-3, 5), (-4, 5), (-7, 7)]:
        forms = enumerate_reduced(d, n)
        for i, f in enumerate(forms):
            for g in forms[i + 1 :]:
                assert equivalent_gamma0(f, g, n) is None, (d, n, f, g)


def test_canonical_rep():
    assert canonical_rep(Form(1, 2, 2), 2) == Form(1, 0, 1)
    q = Form(3, 2, 1)
    assert canonical_rep(q, 1) == gauss_reduction(q).reduced
    c = canonical_rep(q, 2)
    assert canonical_rep(c, 2) == c


def test_canonical_rep_general_level(rng):
    # a composite level has its reduced forms too
    for _ in range(30):
        q = random_form(rng, -4)
        base = canonical_rep(q, 4)
        translated = act(q, random_gamma0(rng, 4))
        assert canonical_rep(translated, 4) == base


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 30, 101, 122, 150])
def test_canonical_rep_matches_table_oracle(rng, n):
    # every listed form is its own canonical form; SL2(Z) translates of a
    # sample of them land in other classes, Gamma0(n) translates in theirs
    for d in (-3, -4, -7, -20, -23, -84, -420, -2999):
        reps = enumerate_reduced(d, n)
        for f in reps:
            assert canonical_rep(f, n) == f == canonical_rep_by_table(f, n), (f, n)
        for f in rng.sample(reps, min(len(reps), 40)):
            q = act(f, random_sl2(rng))
            assert canonical_rep(q, n) == canonical_rep_by_table(q, n), (q, n)
            q = act(f, random_gamma0(rng, n))
            assert canonical_rep(q, n) == f == canonical_rep_by_table(q, n), (q, n)


def _time_out(signum, frame):
    raise TimeoutError("no answer within 10 s")


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_canonical_rep_near_a_cusp(n):
    # (1, 1, 1) moved 5*10^12 circles towards the cusp 0: a walk from the
    # form itself would cross each of them, one per step
    q = act(Form(1, 1, 1), GroupElement(1, 0, n * 5 * 10**12, 1))
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        rep = canonical_rep(q, n)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert rep == canonical_rep_by_table(q, n)


# ---------------------------------------------------------------------------
# class keys: the oracle of class identity in conftest, checked against the
# equivalence search


KEY_DISCS = [-3, -4, -7, -8, -15, -20, -23, -56]
KEY_LEVELS = [1, 2, 4, 5, 6, 12, 30]


@given(st.randoms(use_true_random=False), st.sampled_from(KEY_DISCS), st.sampled_from(KEY_LEVELS))
@settings(max_examples=150, deadline=None)
def test_class_key_invariant_under_gamma0(r, d, n):
    q = random_form(r, d)
    assert class_key(act(q, random_gamma0(r, n)), n) == class_key(q, n)


def test_class_key_decides_equivalence(rng):
    # pairs from one SL2(Z)-orbit, so at N > 1 both outcomes occur;
    # D = -3 and -4 have the larger automorphism groups
    seen = set()
    for _ in range(400):
        d = rng.choice(KEY_DISCS)
        n = rng.choice(KEY_LEVELS)
        q1 = random_form(rng, d, max_len=6)
        q2 = act(q1, random_sl2(rng, 6))
        same = equivalent_gamma0(q1, q2, n) is not None
        assert (class_key(q1, n) == class_key(q2, n)) == same, (q1, q2, n)
        seen.add((d in (-3, -4), same))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
