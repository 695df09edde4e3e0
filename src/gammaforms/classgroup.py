"""The form class group of discriminant D at level N.

Classes of primitive positive-definite forms of discriminant D whose
leading coefficient is coprime to N, up to Gamma0(N)-equivalence, form a
finite abelian group under Dirichlet composition.  Composing [Q] and [Q']
first moves Q' inside its class until gcd(a, a') = 1 (and gcd(a', N) = 1),
then solves

    B = b (mod 2a),   B = b' (mod 2a'),   B^2 = D (mod 4aa')

for the unique B modulo 2aa' and returns (aa', B, (B^2 - D)/(4aa')).
Coprimality of the leading coefficient to N is a class invariant: a runs
through values Q(x, y) with x invertible modulo N and y = 0 (mod N), so
its gcd with N is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .core import (
    Form,
    GroupElement,
    act,
    crt,
    require_qf,
    search_bound,
    validate_discriminant,
    validate_level,
    xgcd,
)
from .errors import (
    CompositionError,
    DiscriminantMismatch,
    InvariantError,
    SearchBoundExceeded,
    ValidationError,
)
from .ideals import ideal_from_form, ideal_mul
from .reduction import canonical_rep, class_reps


def principal_form(d: int) -> Form:
    """Identity class representative: x^2 - (D/4)y^2 or x^2 + xy + ((1-D)/4)y^2."""
    validate_discriminant(d)
    if d % 4 == 0:
        return Form(1, 0, -d // 4)
    return Form(1, 1, (1 - d) // 4)


def prepare_coprime(q: Form, m: int, n: int) -> Form:
    """A Gamma0(n)-equivalent form whose leading coefficient is coprime to m.

    Searches pairs (x, y) with gcd(x, y) = 1 and y = 0 (mod n) by growing
    max(|x|, |y|) and completes the first hit to a matrix in Gamma0(n) as
    its first column.  Solvable whenever no prime dividing both m and n
    divides q(1, 0).
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


def dirichlet_compose(q1: Form, q2: Form, n: int) -> Form:
    """Dirichlet composition of two forms of the same discriminant.

    Requires gcd(a, a', (b + b')/2) = 1 and gcd(aa', n) = 1; B is
    normalized to the least residue in [0, 2aa').  Shifting B by 2aa' only
    translates the result inside its class.
    """
    require_qf(q1)
    require_qf(q2)
    d = q1.disc
    if d != q2.disc:
        raise DiscriminantMismatch(f"disc {q1.disc} != {q2.disc}")
    a1, b1 = q1.a, q1.b
    a2, b2 = q2.a, q2.b
    if math.gcd(math.gcd(a1, a2), (b1 + b2) // 2) != 1:
        raise CompositionError(f"gcd(a, a', (b+b')/2) != 1 for {q1} and {q2}")
    if math.gcd(a1 * a2, n) != 1:
        raise CompositionError(f"gcd(aa', {n}) != 1 for {q1} and {q2}")

    mod = 2 * a1 * a2
    sol = crt(b1, 2 * a1, b2, 2 * a2)
    if sol is None:
        raise CompositionError(f"middle coefficients {b1}, {b2} have mixed parity")
    base, l = sol
    candidates = [
        b for b in range(base, mod, l) if (b * b - d) % (4 * a1 * a2) == 0
    ]
    if len(candidates) != 1:
        raise CompositionError(
            f"B is not unique mod {mod} for {q1} and {q2}: {candidates}"
        )
    big_b = candidates[0]
    return Form(a1 * a2, big_b, (big_b * big_b - d) // (4 * a1 * a2))


# ---------------------------------------------------------------------------
# the group


@dataclass(frozen=True)
class FormClass:
    rep: Form
    D: int
    N: int


@dataclass(frozen=True)
class FormClassGroup:
    D: int
    N: int
    elements: tuple[FormClass, ...]
    cayley: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity_index(self) -> int:
        for i in range(self.order):
            if all(self.cayley[i][j] == j for j in range(self.order)):
                return i
        raise InvariantError("Cayley table has no identity")

    def op(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inverse_of(self, i: int) -> int:
        e = self.identity_index
        for j in range(self.order):
            if self.cayley[i][j] == e:
                return j
        raise InvariantError(f"element {i} has no inverse")

    def power(self, i: int, k: int) -> int:
        out = self.identity_index
        for _ in range(k):
            out = self.cayley[out][i]
        return out

    def element_order(self, i: int) -> int:
        e = self.identity_index
        x = i
        k = 1
        while x != e:
            x = self.cayley[x][i]
            k += 1
        return k


def compose_classes(q1: Form, q2: Form, n: int) -> Form:
    """Composition at class level: prepare q2, compose, canonicalize."""
    q2p = prepare_coprime(q2, q1.a * n, n)
    return canonical_rep(dirichlet_compose(q1, q2p, n), n)


@lru_cache(maxsize=None)
def class_group(d: int, n: int) -> FormClassGroup:
    """The full group: elements, Cayley table, invariant factors."""
    validate_discriminant(d)
    validate_level(n)
    reps = [f for f in class_reps(d, n) if math.gcd(f.a, n) == 1]
    index = {f: i for i, f in enumerate(reps)}
    size = len(reps)
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            out = compose_classes(reps[i], reps[j], n)
            if out not in index:
                raise InvariantError(f"composition left the class list: {out}")
            table[i][j] = table[j][i] = index[out]
    group = FormClassGroup(
        d,
        n,
        tuple(FormClass(f, d, n) for f in reps),
        tuple(tuple(row) for row in table),
        _invariant_factors(tuple(tuple(row) for row in table)),
    )
    return group


def oracle_pairs(d: int, n: int) -> int:
    """Check Dirichlet composition against the lattice product of ideals on
    every ordered pair of classes of C(d, Gamma0(n)); returns the number of
    pairs checked."""
    group = class_group(d, n)
    for i, left in enumerate(group.elements):
        q1 = left.rep
        for j, right in enumerate(group.elements):
            q2 = prepare_coprime(right.rep, q1.a * n, n)
            lhs = ideal_from_form(dirichlet_compose(q1, q2, n))
            if lhs != ideal_mul(ideal_from_form(q1), ideal_from_form(q2)):
                raise InvariantError(f"oracle mismatch at classes {i}, {j} of disc {d}, level {n}")
    return group.order**2


def _invariant_factors(cayley: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a finite abelian group given by
    its Cayley table, recovered from the counts of q^j-torsion elements."""
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


def verify_iso_with_scaled(d: int, n: int) -> tuple[bool, dict]:
    """Compare C(D, Gamma0(N)) with C(D*N^2) as abstract abelian groups."""
    left = class_group(d, n)
    right = class_group(d * n * n, 1)
    ok = left.invariant_factors == right.invariant_factors
    report = {
        "disc": d,
        "level": n,
        "scaled_disc": d * n * n,
        "left_order": left.order,
        "right_order": right.order,
        "left_invariant_factors": list(left.invariant_factors),
        "right_invariant_factors": list(right.invariant_factors),
        "isomorphic": ok,
    }
    return ok, report


__all__ = [
    "principal_form",
    "prepare_coprime",
    "dirichlet_compose",
    "FormClass",
    "FormClassGroup",
    "compose_classes",
    "class_group",
    "verify_iso_with_scaled",
    "oracle_pairs",
]
