"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import random
import time

from gammaforms.classgroup import class_group, oracle_pairs, verify_iso_with_scaled
from gammaforms.core import Form, act, is_prime, kronecker
from gammaforms.errors import InvariantError
from gammaforms.fundomain import (
    elliptic_data,
    gamma_k,
    orbit3,
    sym_inverse,
    sym_rep,
    sym_residues,
)
from gammaforms.genus import find_representations, genus_table, principal_genus_congruences
from gammaforms.reduction import canonical_rep, enumerate_reduced, equivalent_gamma0, is_reduced
from gammaforms.core import moebius_rational
from fractions import Fraction

from conftest import is_reduced_gamma0_p, random_form, random_gamma0

DISCS = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24)
LEVELS = (1, 2, 3, 5, 7)
GRID = [(d, n) for d in DISCS for n in LEVELS if abs(d * n * n) <= 2000]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_reference_tables():
    expected = {
        -3: {(1, 1, 1)},
        -4: {(1, 0, 1), (2, 2, 1)},
        -7: {(1, 1, 2), (2, 1, 1), (2, -1, 1)},
        -8: {(1, 0, 2), (2, 0, 1), (3, 2, 1)},
    }
    t0 = time.time()
    ok = all(
        {(f.a, f.b, f.c) for f in enumerate_reduced(d, 2)} == exp
        for d, exp in expected.items()
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"level-2 reduced forms for D in -3,-4,-7,-8 exact ({elapsed:.3f}s)")


def test_criterion_2_genus_table_disc28():
    t = genus_table(-28, 2)
    ok = (
        t.ker_chi == frozenset({1, 9, 11, 15, 23, 25})
        and t.h_subgroup == frozenset({1, 9, 25})
        and [sorted(c) for c in t.cosets] == [[1, 9, 25], [11, 15, 23]]
        and t.coset_of_form(Form(1, 0, 7)) == 0
        and t.coset_of_form(Form(7, 0, 1)) == 1
    )
    _report(2, ok, "ker(chi), H, cosets and genus assignment for D=-28, N=2 exact")


def _brute_class_number(d: int) -> int:
    count = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            if a == c and b < 0:
                continue
            count += 1
    return count


def test_criterion_3_isomorphism_grid():
    t0 = time.time()
    ok = True
    for d, n in GRID:
        good, report = verify_iso_with_scaled(d, n)
        # independent brute-force oracle for the right-hand class number
        good = good and class_group(d * n * n, 1).order == _brute_class_number(d * n * n)
        if not good:
            ok = False
            print("  grid failure:", report)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, f"C(D,Gamma0(N)) ~ C(DN^2) on all {len(GRID)} grid points ({elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    pairs = 0
    ok = True
    for d, n in GRID:
        if class_group(d, n).order > 30:
            continue
        try:
            pairs += oracle_pairs(d, n)
        except InvariantError as exc:
            ok = False
            print("  oracle mismatch:", exc)
    _report(4, ok, f"Dirichlet composition = HNF lattice product on {pairs} pairs")


def test_criterion_5_reduction_uniqueness():
    grid10 = [
        (-3, 1),
        (-4, 2),
        (-7, 2),
        (-8, 2),
        (-11, 3),
        (-15, 2),
        (-20, 3),
        (-23, 5),
        (-24, 5),
        (-19, 7),
    ]
    rng = random.Random(5)
    ok = True
    for d, n in grid10:
        forms = enumerate_reduced(d, n)
        for _ in range(1000):
            q = random_form(rng, d, max_len=6)
            hits = [f for f in forms if equivalent_gamma0(q, f, n) is not None]
            if len(hits) != 1:
                ok = False
                print("  uniqueness failure:", d, n, q, hits)
                break
            t1 = act(q, random_gamma0(rng, n, 5))
            t2 = act(q, random_gamma0(rng, n, 5))
            if not (canonical_rep(t1, n) == canonical_rep(t2, n) == hits[0]):
                ok = False
                print("  canonicalization failure:", d, n, q)
                break
    _report(5, ok, "unique reduced representative and stable canonical form, 1000 samples x 10 grid points")


def test_criterion_6_prime_representation():
    primes = [p for p in range(3, 2000) if is_prime(p)]
    ok = True
    exceptions = 0
    for d, n in GRID:
        forms = enumerate_reduced(d, n)
        table = genus_table(d, n)
        coset_by_form = dict(table.assignment)
        for p in primes:
            if d % p == 0:
                continue
            witnesses = [
                f
                for f in forms
                if any(r.admissible for r in find_representations(f, p, n))
            ]
            if (kronecker(d, p) == 1) != bool(witnesses):
                exceptions += 1
                ok = False
                continue
            if witnesses:
                idx = table.coset_of_residue(p)
                for w in witnesses:
                    if math.gcd(w.a, n) == 1 and coset_by_form[w] != idx:
                        exceptions += 1
                        ok = False
    _report(
        6,
        ok,
        f"(D/p)=1 iff p is N-represented, and witness genera match, odd p < 2000 ({exceptions} exceptions)",
    )


def test_criterion_7_fundamental_region_structure():
    rng = random.Random(7)
    ok = True
    for p in (5, 7, 11, 13, 17, 19, 23):
        data = elliptic_data(p)
        # f^3 = id on S_p - {1}
        for k in sym_residues(p):
            if k == 1:
                continue
            k0, k1, k2 = orbit3(p, k)
            if sym_rep(p, 1 - sym_inverse(p, k2)) != k0:
                ok = False
        # elliptic counts
        if (len(data.e2) == 2) != (p % 4 == 1) or (len(data.e3) == 2) != (p % 3 == 1):
            ok = False
        # determinant and endpoint law, exactly, for every k
        for k in sym_residues(p):
            g = gamma_k(p, k)
            if g.a * g.d - g.b * g.c != 1:
                ok = False
            kinv = sym_inverse(p, k)
            for sign in (1, -1):
                if moebius_rational(g, Fraction(-kinv + sign, p)) != Fraction(k - sign, p):
                    ok = False
        # predicate agreement on 500 random forms
        for _ in range(500):
            d = rng.choice(DISCS)
            q = random_form(rng, d, max_len=5)
            if is_reduced_gamma0_p(q, p) != is_reduced(q, p):
                ok = False
                print("  predicate mismatch:", p, q)
    _report(7, ok, "f^3=id, elliptic counts, gamma_k laws, and 500-form predicate agreement per p")


def test_criterion_8_principal_genus_congruences():
    ok = True
    shapes = {0: 0, 1: 0}
    for d, n in GRID:
        if principal_genus_congruences(d, n) != genus_table(d, n).h_subgroup:
            ok = False
            print("  congruence failure:", d, n)
        shapes[d % 4] += 1
    ok = ok and shapes[0] > 0 and shapes[1] > 0
    _report(8, ok, f"square congruences = H on all {len(GRID)} grid points, both discriminant shapes")
