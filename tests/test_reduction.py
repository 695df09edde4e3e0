import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from gammaforms import reduction
from gammaforms.core import Form, GroupElement, IDENTITY, S, T, act
from gammaforms.errors import (
    DiscriminantMismatch,
    InvariantError,
    SearchBoundExceeded,
    UnsupportedLevelError,
    ValidationError,
)
from gammaforms.reduction import (
    _class_table,
    _lift_to_sl2,
    _sweep,
    _walk,
    automorphs,
    canonical_rep,
    class_key,
    class_reps,
    coset_reps,
    enumerate_reduced,
    equivalent_gamma0,
    is_reduced,
    is_reduced_sl2,
    level_supported,
    p1_label,
    reduce_sl2,
)
from conftest import (
    automorphs_by_search,
    canonical_rep_by_table,
    class_table_per_pair,
    coset_reps_by_scan,
    covering_per_pair,
    is_reduced_gamma0_small,
    random_form,
    random_gamma0,
    random_sl2,
    sweep_per_a,
)


def test_reduce_sl2_examples():
    r = reduce_sl2(Form(1, 2, 2))
    assert r.reduced == Form(1, 0, 1)
    assert r.transform == GroupElement(1, -1, 0, 1)
    assert reduce_sl2(Form(3, 2, 1)).reduced == Form(1, 0, 2)
    assert reduce_sl2(Form(1, 1, 1)).reduced == Form(1, 1, 1)


def test_reduce_sl2_witness_and_idempotence(rng):
    for _ in range(200):
        d = rng.choice([-3, -4, -7, -8, -11, -15, -20, -23, -24, -163])
        q = random_form(rng, d)
        r = reduce_sl2(q)
        assert act(q, r.transform) == r.reduced
        assert is_reduced_sl2(r.reduced)
        assert reduce_sl2(r.reduced).reduced == r.reduced


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
    reduced_images = {f for f in seen if is_reduced_sl2(f)}
    assert reduced_images == {Form(1, 0, 2)}


def test_reduce_rejects_bad_input():
    with pytest.raises(ValidationError):
        reduce_sl2(Form(1, 4, 1))
    with pytest.raises(ValidationError):
        reduce_sl2(Form(2, 0, 2))


def test_is_reduced_gamma0_small_examples():
    assert is_reduced_gamma0_small(Form(2, 2, 1), 2)
    assert not is_reduced_gamma0_small(Form(1, 2, 2), 2)
    assert is_reduced_gamma0_small(Form(3, 2, 1), 2)
    with pytest.raises(ValidationError):
        is_reduced_gamma0_small(Form(1, 0, 1), 5)


def test_small_levels_match_oracle():
    # at n = 2, 3 is_reduced applies the circle and side-pairing rules of
    # the primes; they give the answers of the oracle written for these two
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


def test_is_reduced_gamma0_p_examples():
    assert is_reduced(Form(1, 1, 1), 5)
    # b = -p*c violates the arc condition at k = 1
    assert not is_reduced(Form(7, -5, 1), 5)
    with pytest.raises(UnsupportedLevelError):
        is_reduced(Form(1, 0, 1), 4)


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
    # c = 0 (mod n) labels as (0, 1) without a loop over the n units
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
    with pytest.raises(UnsupportedLevelError):
        enumerate_reduced(-4, 4)
    with pytest.raises(ValidationError):
        enumerate_reduced(-5, 2)


def test_enumerate_matches_class_count_for_primes():
    # |Gamma0(p)-RF(D)| agrees with the translate covering at higher levels,
    # class key by class key
    for p in (5, 7, 11):
        for d in (-3, -4, -7, -8, -11):
            covering = covering_per_pair(d, p, coset_reps(p))
            assert _class_table(d, p).keys() == covering.keys(), (d, p)
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
    # random Gamma0(n) translates of every reduced form walk back to it
    discs = [-3, -4, -7, -8, -15, -20, -23, -47, -56, -71, -84, -127]
    for d in discs if n < 101 else discs[:6]:
        for f in sweep_per_a(d, n):
            for _ in range(4):
                q = act(f, random_gamma0(rng, n, 12))
                assert _walk(q, n) == f, (q, n)
                assert canonical_rep(q, n) == f, (q, n)


def test_walk_checks(monkeypatch):
    # a walk must end on exactly one reduced image, and two classes must
    # not walk to one form
    with monkeypatch.context() as m:
        m.setattr(reduction, "is_reduced", lambda q, n: False)
        with pytest.raises(InvariantError, match="0 reduced images"):
            _walk(Form(1, 1, 1), 5)
    monkeypatch.setattr(reduction, "_walk", lambda q, n: Form(1, 1, 6))
    with pytest.raises(InvariantError, match="walk to one reduced form"):
        _class_table.__wrapped__(-23, 5)


def test_count_stable_under_other_coset_systems(rng):
    # the classes, and so their keys, do not depend on the chosen coset system
    for d, n in [(-4, 2), (-8, 2), (-3, 5), (-7, 3)]:
        base = coset_reps(n)
        twisted = tuple(random_gamma0(rng, n, 4) * g for g in reversed(base))
        covering = covering_per_pair(d, n, twisted)
        assert covering.keys() == _class_table(d, n).keys(), (d, n)
        assert len(covering) == len(enumerate_reduced(d, n)), (d, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11, 12, 30, 122, 150])
def test_class_table_matches_per_pair_oracle(n):
    reps = coset_reps_by_scan(n)
    for d in range(-3, -701, -1):
        if d % 4 in (0, 1):
            assert _class_table(d, n) == class_table_per_pair(d, n, reps), (d, n)


def test_class_table_work_counts(monkeypatch):
    # one automorph list per reduced form and one label per bottom row mod n,
    # not one per (reduced form, coset) pair; no lift, as coset_reps is warm,
    # and one walk per class at a supported level
    calls = dict.fromkeys(("p1_label", "automorphs", "_lift_to_sl2", "_walk"), 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(reduction, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(reduction, name, counted)
    for d, n in ((-2999, 150), (-2999, 11)):
        psi = len(coset_reps(n))
        h = len(_sweep(d))
        calls.update(dict.fromkeys(calls, 0))
        classes = len(_class_table.__wrapped__(d, n))
        assert calls["automorphs"] <= h, (calls, d, n, h)
        assert calls["p1_label"] <= 2 * psi, (calls, d, n, psi)
        assert calls["_lift_to_sl2"] == 0, (calls, d, n)
        assert calls["_walk"] == (classes if level_supported(n) else 0), (calls, d, n, classes)


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


def test_enumerated_forms_pairwise_inequivalent():
    for d, n in [(-4, 2), (-8, 2), (-28, 2), (-3, 5), (-4, 5), (-7, 7)]:
        forms = enumerate_reduced(d, n)
        for i, f in enumerate(forms):
            for g in forms[i + 1 :]:
                assert equivalent_gamma0(f, g, n) is None, (d, n, f, g)


def test_canonical_rep():
    assert canonical_rep(Form(1, 2, 2), 2) == Form(1, 0, 1)
    q = Form(3, 2, 1)
    assert canonical_rep(q, 1) == reduce_sl2(q).reduced
    c = canonical_rep(q, 2)
    assert canonical_rep(c, 2) == c


def test_canonical_rep_general_level(rng):
    # composite level uses the coset-translate convention
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
        reps = class_reps(d, n)
        for f in reps:
            assert canonical_rep(f, n) == f == canonical_rep_by_table(f, n), (f, n)
        for f in rng.sample(reps, min(len(reps), 40)):
            q = act(f, random_sl2(rng))
            assert canonical_rep(q, n) == canonical_rep_by_table(q, n), (q, n)
            q = act(f, random_gamma0(rng, n))
            assert canonical_rep(q, n) == f == canonical_rep_by_table(q, n), (q, n)


def _time_out(signum, frame):
    raise TimeoutError("canonical_rep did not answer within 10 s")


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
# class keys


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
