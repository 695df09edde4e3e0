import dataclasses
import math
import os
import random

import pytest

from gammaforms import classgroup, genus, reduction
from gammaforms.classgroup import principal_form
from gammaforms.core import Form, GroupElement, act, is_prime, kronecker, units_mod
from gammaforms.errors import InvariantError, SearchBoundExceeded, ValidationError
from gammaforms.genus import (
    PrimeClassification,
    Representation,
    brahmagupta_check,
    classify_prime,
    exists_representing_form,
    find_representations,
    form_from_representation,
    genus_table,
    ideal_of_norm_from_representation,
    principal_genus_congruences,
)
from gammaforms.ideals import ideal_norm
from gammaforms.reduction import enumerate_reduced, equivalent_gamma0, reduce_sl2
from conftest import (
    classify_prime_by_scan,
    coprime_value,
    genus_table_by_value_sets,
    random_form,
    random_gamma0,
)


def test_find_representations_examples():
    reps = find_representations(Form(7, 0, 1), 23, 2)
    pairs = {(r.x, r.y) for r in reps}
    assert pairs == {(1, 4), (-1, 4), (1, -4), (-1, -4)}
    assert all(r.proper and r.admissible for r in reps)
    assert reps[0].x == 1 and reps[0].y == 4

    reps = find_representations(Form(1, 0, 7), 11 * 23, 2)
    assert {(1, 6), (-1, 6), (1, -6), (-1, -6)} <= {(r.x, r.y) for r in reps}

    assert find_representations(Form(1, 0, 1), 3, 1) == ()


def test_find_representations_complete(rng):
    # against a plain double loop over the positive-definiteness box
    for _ in range(40):
        d = rng.choice([-3, -4, -7, -8, -15, -20])
        q = random_form(rng, d, max_len=4)
        m = rng.randrange(0, 40)
        got = {(r.x, r.y) for r in find_representations(q, m, 2)}
        xmax = math.isqrt(4 * q.c * m // (-d)) + 1
        ymax = math.isqrt(4 * q.a * m // (-d)) + 1
        brute = {
            (x, y)
            for x in range(-xmax, xmax + 1)
            for y in range(-ymax, ymax + 1)
            if q(x, y) == m
        }
        assert got == brute


def test_representation_flags():
    (rep,) = [r for r in find_representations(Form(1, 0, 7), 28, 2) if r.y > 0 and r.x == 0]
    assert rep == Representation(0, 2, 28, 2, False, False)  # gcd(0, 2) = 2 twice


def test_form_from_representation():
    q = Form(7, 0, 1)
    r = find_representations(q, 23, 2)[0]
    out = form_from_representation(q, r, 2)
    assert out.a == 23 and out.disc == -28
    assert equivalent_gamma0(q, out, 2) is not None

    ident = find_representations(q, 7, 1)[0]
    assert ident.x == 1 and ident.y == 0
    assert form_from_representation(q, ident, 1) == q

    bad = Representation(0, 2, 28, 2, False, False)
    with pytest.raises(ValidationError):
        form_from_representation(Form(1, 0, 7), bad, 2)


def test_exists_representing_form():
    f = exists_representing_form(-28, 23)
    assert f is not None and f.a == 23 and f.disc == -28 and f.is_primitive()
    assert exists_representing_form(-28, 3) is None
    assert exists_representing_form(-4, 5) == Form(5, 4, 1)
    with pytest.raises(ValidationError):
        exists_representing_form(-28, 4)
    with pytest.raises(ValidationError):
        exists_representing_form(-28, 7)


def test_exists_representing_form_bound(monkeypatch):
    # 2m values of b: m near 10^12 is refused at once, and a bound of 10
    # refuses m = 23 (46 values) but not m = 5 (10 values)
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    for m in (10**7 + 19, 10**12 + 39):
        with pytest.raises(SearchBoundExceeded):
            exists_representing_form(-28, m)
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "10")
    with pytest.raises(SearchBoundExceeded):
        exists_representing_form(-28, 23)
    assert exists_representing_form(-4, 5) == Form(5, 4, 1)


def test_genus_table_disc28():
    t = genus_table(-28, 2)
    assert t.ker_chi == frozenset({1, 9, 11, 15, 23, 25})
    assert t.h_subgroup == frozenset({1, 9, 25})
    assert [sorted(c) for c in t.cosets] == [[1, 9, 25], [11, 15, 23]]
    assert t.coset_of_form(Form(1, 0, 7)) == 0
    assert t.coset_of_form(Form(7, 0, 1)) == 1
    assert t.genus_forms(0) == (Form(1, 0, 7),)
    assert [t.coset_of_residue(m) for m in (37, 9, -5, 23)] == [0, 0, 1, 1]
    for m in (3, 7, 14):  # a non-residue, a non-unit, and one not coprime to D
        with pytest.raises(ValidationError):
            t.coset_of_residue(m)


def test_genus_table_disc4():
    t = genus_table(-4, 1)
    assert t.ker_chi == frozenset({1}) and t.h_subgroup == frozenset({1})
    assert len(t.cosets) == 1


def test_genus_table_matches_value_set_oracle():
    # each form's genus from one represented value against the comparison
    # of its whole value set with every coset, on 1,393 tables
    for n in (1, 2, 3, 4, 5, 6, 12):
        for d in [d for d in range(-3, -400, -1) if d % 4 in (0, 1)]:
            table, oracle = genus_table(d, n), genus_table_by_value_sets(d, n)
            assert table == oracle, (d, n)
            assert table.coset_index == oracle.coset_index, (d, n)


def test_genus_table_disc65536():
    # 3.4 s when every form built its value set; one value per form now
    table = genus_table(-65536, 1)
    assert len(table.cosets) == 2 and len(table.assignment) == 64
    assert sorted(len(table.genus_forms(i)) for i in (0, 1)) == [32, 32]
    assert table.coset_of_form(principal_form(-65536)) == 0


def test_unit_values_once_per_genus_table(monkeypatch):
    # the library builds a value set for H only, never for a form
    calls = []
    unit_values = genus.unit_values

    def counting(q, n):
        calls.append(q)
        return unit_values(q, n)

    monkeypatch.setattr(genus, "unit_values", counting)
    for d, n in [(-28, 2), (-420, 1), (-1155, 2), (-3315, 3)]:
        calls.clear()
        table = genus.genus_table.__wrapped__(d, n)
        assert len(table.assignment) > 1
        assert calls == [principal_form(d)], (d, n)


def test_genus_value_outside_ker_chi(monkeypatch):
    # 3 is a non-residue of -28: a form whose value lands there breaks the
    # genus theorem and is reported, not assigned
    monkeypatch.setattr(genus, "prepare_coprime", lambda q, m, n: Form(3, 2, 5))
    with pytest.raises(InvariantError, match="outside ker"):
        genus.genus_table.__wrapped__(-28, 2)


def test_cosets_must_partition_ker_chi(monkeypatch):
    # ker(chi) of -28 is {1, 9, 25} + {11, 15, 23}: an H missing 1 leaves
    # 1 uncovered, and one holding 11 gives overlapping translates
    for h in ({9, 25}, {1, 9, 11, 25}):
        monkeypatch.setattr(genus, "unit_values", lambda q, n, h=h: frozenset(h))
        with pytest.raises(InvariantError, match="partition"):
            genus.genus_table.__wrapped__(-28, 2)


def test_coprime_value_names_the_genus():
    # the least properly N-represented value coprime to D lies in the
    # coset the table assigns, for every admissible form
    for n in (1, 2, 3, 5, 6):
        for d in [d for d in range(-3, -200, -1) if d % 4 in (0, 1)]:
            table = genus_table(d, n)
            for f, i in table.assignment:
                m, _ = coprime_value(f, d, n)
                assert table.coset_of_residue(m) == i, (d, n, f)


def test_h_subgroup_closed_under_multiplication():
    for d, n in [(-28, 2), (-28, 1), (-15, 2), (-24, 1), (-84, 1)]:
        t = genus_table(d, n)
        mod = abs(d)
        for x in t.h_subgroup:
            for y in t.h_subgroup:
                assert x * y % mod in t.h_subgroup


def test_classify_prime_examples():
    c = classify_prime(23, -28, 2)
    assert c.coset == (11, 15, 23)
    assert c.witness == Form(7, 0, 1)
    assert (c.representation.x, c.representation.y) == (1, 4)

    c = classify_prime(37, -28, 2)
    assert c.coset == (1, 9, 25) and c.witness == Form(1, 0, 7)
    assert (c.representation.x, c.representation.y) == (3, 2)

    c = classify_prime(3, -28, 2)
    assert not c.represented and c.kronecker == -1

    with pytest.raises(ValidationError):
        classify_prime(7, -28, 2)
    with pytest.raises(ValidationError):
        classify_prime(9, -28, 2)


def test_classify_prime_dividing_level():
    # p | N: the witness exists but carries no genus (p divides its leading
    # coefficient), at prime and at composite levels
    for p, d, n in [(5, -4, 5), (3, -23, 6), (5, -31, 10), (3, -8, 6)]:
        c = classify_prime(p, d, n)
        r = c.representation
        assert c.represented and c.witness.a % p == 0 and r.admissible
        assert c.witness(r.x, r.y) == p
        assert math.gcd(r.x, n) == 1 and r.y % n == 0


# D = -3 and -4 carry extra automorphs; p | N at 3 and 5
_CLASSIFY_GRID = [
    (d, n)
    for d in (-3, -4, -7, -20, -23, -84, -231)
    for n in (1, 2, 3, 4, 5, 6, 9, 10, 12)
]


@pytest.mark.parametrize("d", sorted({d for d, _ in _CLASSIFY_GRID}))
def test_classify_prime_matches_scan(d):
    # the witness solved from a square root equals the one the scan finds,
    # with the same coset and the same least representation
    primes = [p for p in range(3, 2000) if is_prime(p) and d % p]
    for n in [n for e, n in _CLASSIFY_GRID if e == d]:
        for p in primes:
            assert classify_prime(p, d, n) == classify_prime_by_scan(p, d, n), (p, d, n)


def test_witness_pairs_are_every_representation():
    # the pairs solved for are all N-admissible representations of p by the
    # witness, each once; D = -3 and -4 at N = p carry more than two
    cases = [(d, n) for d, n in _CLASSIFY_GRID if n in (1, 5, 6)]
    cases += [(-3, 7), (-3, 13), (-3, 14), (-4, 13), (-4, 26), (-23, 13)]
    for d, n in cases:
        table = genus_table(d, n)
        for p in [p for p in range(3, 400) if is_prime(p) and d % p and kronecker(d, p) == 1]:
            witness, pairs = genus._witness(table, p)
            scanned = [(r.x, r.y) for r in find_representations(witness, p, n) if r.admissible]
            assert sorted(pairs) == sorted(scanned), (p, d, n)


def test_classify_prime_never_scans(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_prime scanned a form")

    monkeypatch.setattr(genus, "find_representations", refuse)
    for d, n in _CLASSIFY_GRID:
        for p in (3, 5, 7, 11, 13, 29, 10**12 + 39):
            if d % p and kronecker(d, p) == 1:
                c = classify_prime(p, d, n)
                r = c.representation
                assert c.witness(r.x, r.y) == p, (p, d, n)
                assert math.gcd(r.x, n) == 1 and r.y % n == 0, (p, d, n)


def test_classify_prime_builds_no_reduction_objects(monkeypatch):
    # with the genus table built, a prime not dividing N is classified in
    # integers: no reduce_sl2, no automorphs and no matrix object per prime
    for d, n in _CLASSIFY_GRID:
        genus_table(d, n)
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for module in (classgroup, genus, reduction):
        for name in ("reduce_sl2", "automorphs"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        GroupElement, "__post_init__", counted("GroupElement", GroupElement.__post_init__)
    )
    classified = 0
    for d, n in _CLASSIFY_GRID:
        for p in [p for p in range(3, 400) if is_prime(p) and d % p and n % p] + [10**12 + 39]:
            c = classify_prime(p, d, n)
            classified += c.represented
    assert calls == [] and classified > 0


class _CountingEnviron(dict):
    """A copy of os.environ that counts the reads of GAMMA_FORMS_MAX_SEARCH."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "GAMMA_FORMS_MAX_SEARCH"
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == "GAMMA_FORMS_MAX_SEARCH"
        return super().__getitem__(key)


def test_classify_prime_reads_the_bound_once(monkeypatch):
    # with the tables built, a represented prime p != 1 (mod 8), p not
    # dividing N, reads the bound once, at the checked genus_table lookup
    # (p = 5 (mod 8) searches no non-residue); a prime that is not
    # represented never reads it
    grid = [(-231, 2), (-84, 5), (-23, 1), (-4, 3)]
    for d, n in grid:
        genus_table(d, n)
    env = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", env)
    seen = set()
    for d, n in grid:
        for p in [p for p in range(3, 200) if is_prime(p) and d % p and n % p and p % 8 != 1]:
            before = env.reads
            c = classify_prime(p, d, n)
            assert env.reads - before == c.represented, (p, d, n)
            seen.add((p % 8, c.represented))
    assert seen == {(r, b) for r in (3, 5, 7) for b in (True, False)}


def test_result_types():
    # value types: fields, equality and hashing between instances, and no
    # assignment to a field
    rep = Representation(1, 4, 23, 2, True, True)
    assert (rep.x, rep.y, rep.value, rep.level) == (1, 4, 23, 2)
    assert rep.proper is True and rep.admissible is True
    c = PrimeClassification(23, -28, 2, 1, (11, 15, 23), Form(7, 0, 1), rep)
    assert (c.prime, c.D, c.N, c.kronecker) == (23, -28, 2, 1)
    assert c.coset == (11, 15, 23) and c.witness == Form(7, 0, 1) and c.representation == rep
    assert c.represented
    assert not PrimeClassification(3, -28, 2, -1, None, None, None).represented
    again = classify_prime(23, -28, 2)
    assert again == c and hash(again) == hash(c) and again is not c
    assert again.representation == rep and hash(again.representation) == hash(rep)
    assert Representation(-1, 4, 23, 2, True, True) != rep
    assert len({c, again, classify_prime(37, -28, 2)}) == 2
    for obj, name in ((rep, "x"), (c, "coset"), (c, "represented")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_classify_prime_image_of_no_class(monkeypatch):
    # a reduction at disc D*N^2 that the table does not hold is reported
    table = dataclasses.replace(genus_table(-28, 2), scaled_classes={})
    monkeypatch.setattr(genus, "genus_table", lambda d, n: table)
    with pytest.raises(InvariantError, match="image of no admissible class"):
        classify_prime(23, -28, 2)


def test_classify_prime_wrong_root(monkeypatch):
    # a root of the wrong square is caught before any form is built
    monkeypatch.setattr(genus, "sqrt_mod_prime", lambda a, p: 1)
    with pytest.raises(InvariantError, match="modulo 92"):
        classify_prime(23, -28, 2)


def test_classify_prime_checks_every_candidate(monkeypatch):
    # the two admissible classes of (-28, 2) swap places in the map to disc
    # D*N^2: no first column then represents 23 by the form it names
    table = genus_table(-28, 2)
    (k1, v1), (k2, v2) = table.scaled_classes.items()
    swapped = {k1: (v2[0], v1[1]), k2: (v1[0], v2[1])}
    table = dataclasses.replace(table, scaled_classes=swapped)
    monkeypatch.setattr(genus, "genus_table", lambda d, n: table)
    with pytest.raises(InvariantError, match="N-represents 23"):
        classify_prime(23, -28, 2)


def test_scaled_classes_must_be_distinct(monkeypatch):
    # two classes landing on one SL2(Z)-class at disc D*N^2 break the
    # isomorphism and are reported
    monkeypatch.setattr(classgroup, "reduce_sl2", lambda q: reduce_sl2(Form(1, 0, 28)))
    with pytest.raises(InvariantError, match="meet at disc -112"):
        classgroup._scaled_classes.__wrapped__(-28, 2)


def test_cached_maps_are_read_only():
    # every caller shares the cached D*N^2 map and residue -> coset index
    table = genus_table(-28, 2)
    for mapping, key in ((table.scaled_classes, (1, 0, 28)), (table.coset_index, 1)):
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    assert table.scaled_classes is classgroup._scaled_classes(-28, 2)


def test_mirror_matches_reduction(rng):
    # (a, -b, c) reduced from the reduction of (a, b, c), boundary forms
    # (b = a, a = c, and both at D = -3) included
    forms = [f for d in (-3, -4, -7, -12, -15, -16, -27, -28) for f in enumerate_reduced(d, 1)]
    forms += [random_form(rng, rng.choice((-3, -4, -23, -84, -231))) for _ in range(400)]
    for q in forms:
        a, b, c, *g = genus._mirror(reduction._gauss(q.a, q.b, q.c))
        other = Form(q.a, -q.b, q.c)
        assert Form(a, b, c) == reduce_sl2(other).reduced, q
        assert act(other, GroupElement(*g)) == Form(a, b, c), q


def test_ker_criterion_small():
    for d, n in [(-28, 2), (-7, 3), (-20, 1)]:
        forms = enumerate_reduced(d, n)
        for p in [p for p in range(3, 200) if is_prime(p) and d % p]:
            represented = any(
                r.admissible for f in forms for r in find_representations(f, p, n)
            )
            assert represented == (kronecker(d, p) == 1), (d, n, p)


def test_principal_genus_congruences_examples():
    assert principal_genus_congruences(-28, 2) == frozenset({1, 9, 25})
    assert principal_genus_congruences(-28, 1) == frozenset({1, 9, 25, 11, 15, 23})
    assert principal_genus_congruences(-7, 1) == frozenset({1, 2, 4})


def test_principal_genus_congruences_match_h():
    for d in (-3, -4, -7, -8, -11, -15, -20, -24):
        for n in (1, 2, 3, 5):
            assert principal_genus_congruences(d, n) == genus_table(d, n).h_subgroup, (d, n)


def test_coprime_value_examples():
    m, rep = coprime_value(Form(1, 0, 1), 1, 1)
    assert (m, rep.x, rep.y) == (1, 1, 0)
    m, rep = coprime_value(Form(1, 0, 7), 14, 2)
    assert m == 1 and (rep.x, rep.y) == (1, 0)
    m, rep = coprime_value(Form(7, 0, 1), 14, 2)
    assert m == 11 and (rep.x, rep.y) == (1, 2)
    assert math.gcd(m, 28) == 1 and rep.proper and rep.admissible


def test_coprime_value_bound(monkeypatch):
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "3")
    with pytest.raises(SearchBoundExceeded):
        coprime_value(Form(7, 0, 1), 14, 2)


def test_brahmagupta_identity():
    assert brahmagupta_check(Form(7, 0, 1), 2)
    assert (7 * 1 * 1 - 4 * 4) ** 2 + 7 * (1 * 4 + 4 * 1) ** 2 == 23 * 23
    # other even-middle forms, various discs and levels
    for a, b2, c in [(3, 1, 5), (1, 0, 6), (5, 2, 6), (2, 1, 13)]:
        q = Form(a, 2 * b2, c)
        assert brahmagupta_check(q, 3)
    with pytest.raises(ValidationError):
        brahmagupta_check(Form(1, 1, 1), 1)


def test_brahmagupta_check_reads_the_form():
    # the nine points evaluate the form itself, so a form whose values are
    # not its coefficients' fails the identity
    class Skewed(Form):
        def __call__(self, x, y):
            return super().__call__(x, y) + x * y

    assert brahmagupta_check(Form(7, 0, 1), 1)
    assert not brahmagupta_check(Skewed(7, 0, 1), 1)


def test_ideal_of_norm_from_representation():
    q = Form(1, 0, 1)
    r = find_representations(q, 1, 1)[0]
    ideal = ideal_of_norm_from_representation(q, r)
    assert ideal_norm(ideal) == 1 and ideal.mat == ((1, 0), (0, 1))

    q = Form(7, 0, 1)
    r = find_representations(q, 23, 2)[0]
    assert ideal_norm(ideal_of_norm_from_representation(q, r)) == 23

    # imprimitive pair: gcd(x, y) = 3, norm = value
    q = Form(1, 0, 7)
    r = next(
        rep for rep in find_representations(q, 261, 2) if (rep.x, rep.y) == (3, 6)
    )
    assert not r.proper and r.admissible
    assert ideal_norm(ideal_of_norm_from_representation(q, r)) == 261

    bad = Representation(0, 2, 28, 2, False, False)
    with pytest.raises(ValidationError):
        ideal_of_norm_from_representation(Form(1, 0, 7), bad)


def test_ideal_norm_matches_value(rng):
    count = 0
    while count < 100:
        d = rng.choice([-4, -8, -15, -20])
        n = rng.choice([1, 2, 3])
        q = random_form(rng, d, max_len=4)
        if math.gcd(q.a, n) != 1:
            continue
        m = rng.randrange(1, 60)
        reps = [r for r in find_representations(q, m, n) if r.admissible]
        if not reps:
            continue
        assert ideal_norm(ideal_of_norm_from_representation(q, reps[0])) == m
        count += 1


def test_witness_genus_matches_prime_coset(rng):
    # every admissible witness of p lands in the coset of [p]
    for d, n in [(-28, 2), (-15, 2), (-24, 1), (-20, 3)]:
        table = genus_table(d, n)
        coset_by_form = dict(table.assignment)
        forms = enumerate_reduced(d, n)
        for p in [p for p in range(3, 300) if is_prime(p) and d % p and kronecker(d, p) == 1]:
            idx = table.coset_of_residue(p)
            witnesses = [
                f
                for f in forms
                if any(r.admissible for r in find_representations(f, p, n))
            ]
            assert witnesses
            for w in witnesses:
                if math.gcd(w.a, n) == 1:
                    assert coset_by_form[w] == idx, (d, n, p, w)


def test_genus_tables_past_a_thousand():
    # out of reach of the residue grid: (-420, 11) alone took 71 s with it
    for d, n in [(-420, 11), (-1155, 2), (-3315, 2), (-4004, 1)]:
        table = genus_table(d, n)
        assert table.h_subgroup == principal_genus_congruences(d, n), (d, n)
        assert len(table.cosets) > 1
        assert sum(len(c) for c in table.cosets) == len(table.ker_chi), (d, n)
        assert frozenset().union(*table.cosets) == table.ker_chi, (d, n)
        for p in [p for p in range(3, 500) if is_prime(p) and d % p]:
            c = classify_prime(p, d, n)
            assert c.represented == (kronecker(d, p) == 1), (d, n, p)
            if not c.represented:
                continue
            r = c.representation
            assert c.witness(r.x, r.y) == p and r.admissible, (d, n, p)
            if math.gcd(c.witness.a, n) == 1:
                assert table.coset_of_form(c.witness) == table.coset_of_residue(p), (d, n, p)
