import math
import random

import pytest

from gammaforms import classgroup, fundomain
from gammaforms.classgroup import compose_classes, principal_form
from gammaforms.core import (
    CmPoint,
    Form,
    GroupElement,
    IDENTITY,
    S,
    T,
    act,
    is_prime,
    ker_chi,
    kronecker,
    require_qf,
    search_bound,
    unit_values,
    validate_discriminant,
    validate_level,
    xgcd,
)
from gammaforms.errors import InvariantError, SearchBoundExceeded, ValidationError
from gammaforms.genus import (
    GenusTable,
    PrimeClassification,
    Representation,
    find_representations,
    genus_table,
)
from gammaforms.ideals import OIdeal, QuadOrder
from gammaforms.reduction import (
    _class_table,
    _lift_to_sl2,
    _sweep,
    automorphs,
    canonical_rep,
    class_key,
    class_reps,
    enumerate_reduced,
    is_reduced,
    level_supported,
    p1_label,
    reduce_sl2,
)

T_INV = T.inverse()


def random_sl2(rng: random.Random, max_len: int = 8) -> GroupElement:
    g = IDENTITY
    for _ in range(rng.randrange(1, max_len + 1)):
        g = g * rng.choice((T, T_INV, S))
    return g


def random_gamma0(rng: random.Random, n: int, max_len: int = 8) -> GroupElement:
    v = GroupElement(1, 0, n, 1)
    gens = (T, T_INV, v, v.inverse())
    g = IDENTITY
    for _ in range(rng.randrange(1, max_len + 1)):
        g = g * rng.choice(gens)
    return g


def random_form(rng: random.Random, d: int, max_len: int = 8):
    """A primitive positive-definite form of discriminant d, in a random
    SL2(Z)-class and at a random spot inside it."""
    base = rng.choice(enumerate_reduced(d, 1))
    return act(base, random_sl2(rng, max_len))


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division up to sqrt(n); the oracle for
    core.is_prime, which tests with Miller-Rabin above 101^2."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_reduced_gamma0_small(q: Form, p: int) -> bool:
    """Reduced predicate for Gamma0(2) and Gamma0(3):
    |b| <= a, |b| <= p*c, and on the boundary b > 0.

    The oracle for reduction.is_reduced at these levels, which applies the
    circle and side-pairing rules it shares with the primes p >= 5."""
    if p not in (2, 3):
        raise ValidationError(f"level must be 2 or 3: {p}")
    a, b, c = q.a, q.b, q.c
    if abs(b) > a or abs(b) > p * c:
        return False
    if (abs(b) == a or abs(b) == p * c) and b <= 0:
        return False
    return True


def is_reduced_gamma0_p(q: Form, p: int) -> bool:
    """Reduced predicate for Gamma0(p), p >= 5 prime, in form coordinates.

    Exact integer transcription of the region membership conditions, with
    every arc and corner tested; the oracle for reduction.is_reduced, which
    tests the two arcs next to p*Re(tau) and has no corner rule.
    """
    if p < 5 or not is_prime(p):
        raise ValidationError(f"level must be a prime >= 5: {p}")
    data = fundomain.elliptic_data(p)
    a, b, c = q.a, q.b, q.c

    # (1) and (3): |b| <= a, and b = a on the boundary
    if abs(b) > a:
        return False
    if abs(b) == a and b != a:
        return False
    # (4) the arc at 1/p is discarded
    if b == -p * c:
        return False
    for k in fundomain.sym_residues(p):
        val = b * p * k + (k * k - 1) * a + p * p * c
        # (2) outside or on every circle
        if val < 0:
            return False
        if val == 0:
            if k in data.e2:
                # (5)
                if b * p < -2 * k * a:
                    return False
            elif k not in (1, -1):
                # (6)
                if b * p < -(2 * data.k2(k) + 1) * a:
                    return False
    # (7) corner points: only the orbit minimum survives
    if p * p * (4 * a * c - b * b) == 3 * a * a:
        for k in fundomain.sym_residues(p):
            if k == 1 or k in data.e3 or k == data.k3(k):
                continue
            if b * p == (1 - 2 * k) * a:
                return False
    return True


def contains_all_arcs(p: int, t: CmPoint) -> bool:
    """Membership of t in the Gamma0(p) region with every arc k in S_p and
    every corner tested; the oracle for fundomain.contains, which hands
    the form of t to reduction.is_reduced: the two arcs next to p*Re(t)
    and no corner rule."""
    data = fundomain.elliptic_data(p)
    n, m, d = t.numB, t.den, t.D
    if 2 * abs(n) > m or (2 * abs(n) == m and n > 0):
        return False
    on_arc = []
    for k in fundomain.sym_residues(p):
        lhs = (n * p - k * m) ** 2 - d * p * p
        if lhs < m * m:
            return False
        if lhs == m * m:
            on_arc.append(k)
    for k in on_arc:
        if k == 1:
            return False
        if k in data.e2:
            if n * p > k * m:
                return False
        elif k != -1:
            if 2 * n * p > (2 * data.k2(k) + 1) * m:
                return False
    if 4 * (-d) * p * p == 3 * m * m:
        for k in fundomain.sym_residues(p):
            if k == 1 or k in data.e3 or k == data.k3(k):
                continue
            if 2 * n * p == (2 * k - 1) * m:
                return False
    return True


def representation_values(q: Form, n: int, modulus: int) -> frozenset[int]:
    """Values q(x, y) mod `modulus` over x coprime to n and y = 0 (mod n).

    The value only depends on (x, y) modulo `modulus` and the constraints
    only on (x, y) modulo n, so a full residue system modulo lcm(modulus, n)
    is exact.  These sets are invariant under Gamma0(n)-equivalence.
    """
    if modulus < 1:
        raise ValidationError(f"modulus must be >= 1: {modulus}")
    validate_level(n)
    l = modulus // math.gcd(modulus, n) * n
    good_x = [x for x in range(l) if math.gcd(x, n) == 1]
    values = set()
    for y in range(0, l, n):
        for x in good_x:
            values.add(q(x, y) % modulus)
    return frozenset(values)


def sweep_per_a(d: int, n: int) -> list[Form]:
    """All Gamma0(n)-reduced forms of discriminant d, n a supported level,
    sorted by (a, b, c).

    The per-a sweep with a separate bound on a at each kind of level; the
    oracle for reduction._sweep at level 1, which runs over b and divisor
    pairs, and for the walk into the region at the other levels.
    """
    if n == 1:
        a_max = math.isqrt(-d // 3)
    elif n in (2, 3):
        a_max = -d // (4 - n)
    else:
        a_max = max(math.isqrt(n * n * (-d) // 3), -d // 3)
    forms = []
    for a in range(1, max(a_max, 1) + 1):
        start = -a if (-a - d) % 2 == 0 else -a + 1
        for b in range(start, a + 1, 2):
            num = b * b - d
            if num % (4 * a) != 0:
                continue
            f = Form(a, b, num // (4 * a))
            if f.is_primitive() and is_reduced(f, n):
                forms.append(f)
    return forms


def coset_reps_by_scan(n: int) -> tuple[GroupElement, ...]:
    """Coset representatives of Gamma0(n) in SL2(Z), one per label, found by
    labelling every point (c : d) with c a divisor of n; the oracle for
    reduction.coset_reps, which walks each orbit once."""
    labels = sorted(
        {
            p1_label(n, c, d)
            for c in range(1, n + 1)
            if n % c == 0
            for d in range(n)
            if math.gcd(c, d) == 1
        }
    )
    return tuple(_lift_to_sl2(n, c, d) for c, d in labels)


def automorphs_by_search(q: Form) -> tuple[GroupElement, ...]:
    """The proper automorphs of q from every solution (t, u) of
    t^2 - D*u^2 = 4, sorted by as_tuple; the oracle for reduction.automorphs,
    which returns a fixed pair when D < -4."""
    require_qf(q)
    d = q.disc
    out = []
    umax = math.isqrt(4 // (-d)) if -d <= 4 else 0
    for u in range(-umax, umax + 1):
        rhs = 4 + d * u * u
        if rhs < 0:
            continue
        t = math.isqrt(rhs)
        if t * t != rhs:
            continue
        for tt in ({t, -t} if t else {0}):
            out.append(GroupElement((tt - q.b * u) // 2, -q.c * u, q.a * u, (tt + q.b * u) // 2))
    return tuple(sorted(set(out), key=lambda g: g.as_tuple()))


def key_per_pair(r: Form, delta: GroupElement, n: int) -> tuple:
    """The class key of every form q with act(q, delta) = r, r reduced, with
    the automorphs of r and the label of each product delta*u computed for
    this one pair; the oracle for the label orbit of reduction.class_key."""
    return r, min(p1_label(n, g.c, g.d) for g in (delta * u for u in automorphs(r)))


def covering_per_pair(d: int, n: int, reps: tuple[GroupElement, ...]) -> dict:
    """Class key -> least coset translate act(R, g^(-1)), over the SL2(Z)-
    reduced forms R of discriminant d and g in reps, with every key and
    inverse computed for its own pair (R, g); its keys are the oracle for
    those of reduction._class_table."""
    table: dict = {}
    for r in _sweep(d):
        for g in reps:
            t = act(r, g.inverse())
            key = key_per_pair(r, g, n)
            table[key] = min(t, table.get(key, t))
    return table


def class_table_per_pair(d: int, n: int, reps: tuple[GroupElement, ...]) -> dict:
    """Class key -> canonical form, from the per-pair covering over reps and,
    at supported levels, the per-a sweep; the oracle for
    reduction._class_table when reps is coset_reps_by_scan(n)."""
    table = covering_per_pair(d, n, reps)
    if not level_supported(n):
        return table
    reduced = {}
    for f in sweep_per_a(d, n):
        res = reduce_sl2(f)
        reduced[key_per_pair(res.reduced, res.transform, n)] = f
    if reduced.keys() != table.keys():
        raise InvariantError(f"reduced forms do not match the covering of disc {d}, level {n}")
    return reduced


def canonical_rep_by_table(q: Form, n: int) -> Form:
    """The canonical form of q's class looked up by its class key in the
    class table of all h(D)*psi(n) coset translates; the oracle for
    reduction.canonical_rep, which computes it from q alone."""
    require_qf(q)
    return _class_table(q.disc, n)[class_key(q, n)]


def torsion_invariant_factors(cayley: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a finite abelian group given by
    its Cayley table, recovered from the counts of q^j-torsion elements.

    The oracle for the Smith normal form that classgroup.class_group reads
    the factors from.
    """
    size = len(cayley)
    if size == 1:
        return ()
    identity = next(
        i for i in range(size) if all(cayley[i][j] == j for j in range(size))
    )

    def power(i: int, k: int) -> int:
        out = identity
        base = i
        while k:
            if k & 1:
                out = cayley[out][base]
            base = cayley[base][base]
            k >>= 1
        return out

    factors_by_prime: dict[int, list[int]] = {}
    remaining = size
    q = 2
    while remaining > 1:
        if remaining % q == 0:
            e = 0
            while remaining % q == 0:
                remaining //= q
                e += 1
            # counts of elements killed by q^j determine the partition
            prev_log = 0
            col_heights = []
            for j in range(1, e + 1):
                cnt = sum(1 for i in range(size) if power(i, q**j) == identity)
                log = 0
                while q**log < cnt:
                    log += 1
                col_heights.append(log - prev_log)
                prev_log = log
            # conjugate partition: number of parts >= j is col_heights[j-1]
            parts = []
            for i in range(col_heights[0]):
                part = sum(1 for h in col_heights if h > i)
                parts.append(part)
            factors_by_prime[q] = sorted(parts, reverse=True)
        q += 1 if q == 2 else 2

    width = max(len(v) for v in factors_by_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for p, parts in factors_by_prime.items():
            if i < len(parts):
                f *= p ** parts[i]
        factors.append(f)
    factors.sort()
    total = 1
    for f in factors:
        total *= f
    if total != size:
        raise InvariantError(f"invariant factors {factors} do not multiply to {size}")
    return tuple(factors)


def composed_cayley(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of C(d, Gamma0(n)) with every pair of classes
    composed, indexed like class_group(d, n).elements; the oracle for the
    table class_group derives from exponent vectors."""
    reps = [f for f in class_reps(d, n) if math.gcd(f.a, n) == 1]
    index = {f: i for i, f in enumerate(reps)}
    size = len(reps)
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            table[i][j] = table[j][i] = index[compose_classes(reps[i], reps[j], n)]
    return tuple(tuple(row) for row in table)


def prepare_coprime_sorted_shells(q: Form, m: int, n: int) -> Form:
    """A Gamma0(n)-equivalent form whose leading coefficient is coprime to m.

    Searches pairs (x, y) with gcd(x, y) = 1 and y = 0 (mod n) by growing
    max(|x|, |y|) and completes the first hit to a matrix in Gamma0(n) as
    its first column.  Solvable whenever no prime dividing both m and n
    divides q(1, 0).

    Builds each shell as a sorted set and filters y = 0 (mod n); the oracle
    for classgroup.prepare_coprime, which visits only those y.
    """
    require_qf(q)
    if m == 0:
        raise ValidationError("m must be nonzero")
    m = abs(m)
    if math.gcd(q.a, m) == 1:
        return q
    g_mn = math.gcd(m, n)
    if g_mn > 1 and math.gcd(q.a, g_mn) > 1:
        raise ValidationError(
            f"no Gamma0({n})-translate of {q} has leading coefficient coprime to {m}"
        )
    limit = search_bound(4 * m * n * abs(q.disc))
    s = 1
    while s <= limit:
        for x in range(-s, s + 1):
            ys = {-s, s} if abs(x) < s else set(range(-s, s + 1))
            for y in sorted(ys):
                if y % n != 0 or math.gcd(x, y) != 1:
                    continue
                if math.gcd(q(x, y), m) != 1:
                    continue
                _, u, v = xgcd(x, y)
                gamma = GroupElement(x, -v, y, u)
                out = act(q, gamma)
                if out.a != q(x, y):
                    raise InvariantError(f"{gamma} carries {q} to {out}, not to a = {q(x, y)}")
                return out
        s += 1
    raise SearchBoundExceeded(
        f"prepare_coprime({q}, m={m}, n={n}) exceeded max(|x|,|y|) <= {limit}"
    )


def genus_table_by_value_sets(d: int, n: int) -> GenusTable:
    """ker(chi), H, its cosets, and the genus of every admissible form.

    Each coset is split off the residues of ker(chi) not yet covered, and
    each admissible form's whole set of N-represented unit residues is
    compared with every coset; the oracle for genus.genus_table, which
    names a form's genus by one represented value.
    """
    validate_discriminant(d)
    validate_level(n)
    modulus = abs(d)
    ker = ker_chi(d)
    h = unit_values(principal_form(d), n)
    if not h <= ker:
        raise InvariantError(f"H is not inside ker(chi) for disc {d}, level {n}")
    cosets: list[frozenset[int]] = []
    remaining = set(ker)
    while remaining:
        m = min(remaining)
        coset = frozenset(m * x % modulus for x in h)
        if not coset <= remaining:
            raise InvariantError(f"H-cosets do not partition ker(chi) for disc {d}")
        cosets.append(coset)
        remaining -= coset
    assignment = []
    for f in class_reps(d, n):
        if math.gcd(f.a, n) != 1:
            continue
        values = unit_values(f, n)
        matches = [i for i, coset in enumerate(cosets) if values == coset]
        if len(matches) != 1:
            raise InvariantError(
                f"values of {f} are not exactly one H-coset (disc {d}, level {n})"
            )
        assignment.append((f, matches[0]))
    index = {r: i for i, coset in enumerate(cosets) for r in coset}
    # no class map at disc D*N^2: this table is compared, never classified against
    return GenusTable(d, n, ker, h, tuple(cosets), tuple(assignment), index, {})


def classify_prime_by_scan(p: int, d: int, n: int) -> PrimeClassification:
    """Locate the coset of an odd prime p and exhibit a representing form.

    For (D/p) = 1 the witness search runs over the forms of the matching
    genus first, then over every class representative, admissible or not
    (a witness with gcd(a, N) > 1 occurs exactly when p divides N), and
    scans each form's values with find_representations; the oracle for
    genus.classify_prime, which solves for the witness instead.
    """
    validate_discriminant(d)
    validate_level(n)
    if p == 2 or not is_prime(p):
        raise ValidationError(f"p must be an odd prime: {p}")
    if d % p == 0:
        raise ValidationError(f"p = {p} divides D = {d}")
    chi = kronecker(d, p)
    if chi != 1:
        return PrimeClassification(p, d, n, chi, None, None, None)
    table = genus_table(d, n)
    idx = table.coset_of_residue(p)
    # the fallback pool is built only when the genus holds no witness
    pools = (lambda: table.genus_forms(idx), lambda: class_reps(d, n))
    for pool in pools:
        for f in pool():
            good = [r for r in find_representations(f, p, n) if r.admissible]
            if good:
                return PrimeClassification(
                    p, d, n, chi, tuple(sorted(table.cosets[idx])), f, good[0]
                )
    raise InvariantError(f"no reduced form of disc {d} N-represents {p} at level {n}")


def coprime_value(q: Form, n_target: int, n: int) -> tuple[int, Representation]:
    """Smallest properly N-represented value coprime to n_target * N, found
    by trying m = 1, 2, ... with find_representations; the oracle for the
    represented value genus.genus_table takes from classgroup.prepare_coprime."""
    require_qf(q)
    if math.gcd(q.a, n) != 1:
        raise ValidationError(f"gcd(a, N) must be 1: {q}, N = {n}")
    limit = search_bound(4 * max(abs(n_target), 1) * n * abs(q.disc))
    for m in range(1, limit + 1):
        if math.gcd(m, n_target * n) != 1:
            continue
        good = [r for r in find_representations(q, m, n) if r.proper and r.admissible]
        if good:
            return m, good[0]
    raise SearchBoundExceeded(f"coprime_value({q}, {n_target}, {n}) exceeded m <= {limit}")


def ideal_from_form_by_hnf(q: Form) -> OIdeal:
    """The ideal Z*a + Z*(-b + sqrt(D))/2 reduced by hnf_rows through
    OIdeal.make, with its norm checked in Fraction arithmetic; the oracle
    for the closed-form ideals.ideal_from_form."""
    require_qf(q)
    d = q.disc
    rows = [(q.a, 0), (-(q.b + d) // 2, 1)]
    ideal = OIdeal.make(QuadOrder(d), rows)
    if ideal.norm() != q.a:
        raise InvariantError(f"ideal {ideal} of {q} has norm {ideal.norm()}, not {q.a}")
    return ideal


def compose_one_pair_wrongly(monkeypatch, d: int, n: int) -> None:
    """Patch classgroup.dirichlet_compose so that the oracle's pair
    (0, 1) of class_group(d, n) lands in the inverse of its true class;
    the group is built first, so only the oracle sees the wrong class."""
    group = classgroup.class_group(d, n)
    q1 = group.elements[0].rep
    q2 = classgroup.prepare_coprime(group.elements[1].rep, q1.a * n, n)
    true_compose = classgroup.dirichlet_compose
    right = true_compose(q1, q2, n)
    wrong = Form(right.a, -right.b, right.c)
    if canonical_rep(wrong, n) == canonical_rep(right, n):
        raise ValueError(f"class {right} of disc {d}, level {n} is its own inverse")

    def patched(f1: Form, f2: Form, level: int) -> Form:
        if (f1, f2, level) == (q1, q2, n):
            return wrong
        return true_compose(f1, f2, level)

    monkeypatch.setattr(classgroup, "dirichlet_compose", patched)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
