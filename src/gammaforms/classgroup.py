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

The map (a, b, c) -> (a, bN, cN^2) carries these classes one-to-one onto
the SL2(Z)-classes of discriminant D*N^2.  One cached dict per (D, N) keys
each admissible class by the reduced form of its image: it lists the
group's elements and identity, names a composed form after one Gauss
reduction of its image, whose coefficients are that key, and serves the
genus table.

class_group builds the group from generators and relations (Cohen, A
Course in Computational Algebraic Number Theory, 2.4.3; Buchmann and
Schmidt, Math. Comp. 74, 2005).  Each new generator is the least class not
yet reached; composing its powers until one falls into the subgroup so far
gives its relative order and one relation, and multiplying that subgroup
by the powers names every new class by an exponent vector.  That is about
one composition per class.  The invariant factors are the Smith normal
form of the relation matrix, and the Cayley table, inverses, powers and
element orders follow from the exponent vectors by integer arithmetic, the
table only when it is first read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .core import (
    Form,
    GroupElement,
    act_by_column,
    checked_cache,
    crt,
    kronecker,
    prime_factors,
    require_qf,
    search_bound,
    validate_discriminant,
    validate_level,
)
from .errors import (
    CompositionError,
    DiscriminantMismatch,
    InvariantError,
    SearchBoundExceeded,
    ValidationError,
)
from .ideals import ideal_from_form, ideal_mul
from .reduction import _coset_index, _gauss, automorphs, check_table_bounds, enumerate_reduced


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
    validate_level(n)
    if m == 0:
        raise ValidationError("m must be nonzero")
    m = abs(m)
    a, b, c = q
    if math.gcd(a, m) == 1:
        return q
    g_mn = math.gcd(m, n)
    if g_mn > 1 and math.gcd(a, g_mn) > 1:
        raise ValidationError(
            f"no Gamma0({n})-translate of {q} has leading coefficient coprime to {m}"
        )
    limit = search_bound(4 * m * n * (4 * a * c - b * b))
    # below s = n a shell holds only (+-s, 0), whose value a*s^2 shares a
    # factor with m, so the walk starts at shell n
    for s in range(n, limit + 1):
        # the shell max(|x|, |y|) = s, x ascending and then y ascending,
        # visiting only the y divisible by n: all of them on the sides
        # x = -s and x = s, and y = -s, s in between when n | s
        side = range(-(s // n) * n, s + 1, n)
        for x in range(-s, s + 1) if s % n == 0 else (-s, s):
            for y in side if abs(x) == s else (-s, s):
                if math.gcd(x, y) == 1 and math.gcd(a * x * x + b * x * y + c * y * y, m) == 1:
                    return act_by_column(q, x, y)
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
    validate_level(n)
    a1, b1, c1 = q1
    a2, b2, c2 = q2
    d = b1 * b1 - 4 * a1 * c1
    if d != b2 * b2 - 4 * a2 * c2:
        raise DiscriminantMismatch(f"disc {d} != {q2.disc}")
    if math.gcd(a1, a2, (b1 + b2) // 2) != 1:
        raise CompositionError(f"gcd(a, a', (b+b')/2) != 1 for {q1} and {q2}")
    aa = a1 * a2
    if math.gcd(aa, n) != 1:
        raise CompositionError(f"gcd(aa', {n}) != 1 for {q1} and {q2}")

    mod = 2 * aa
    sol = crt(b1, 2 * a1, b2, 2 * a2)
    if sol is None:
        raise CompositionError(f"middle coefficients {b1}, {b2} have mixed parity")
    base, l = sol
    candidates = [b for b in range(base, mod, l) if (b * b - d) % (4 * aa) == 0]
    if len(candidates) != 1:
        raise CompositionError(
            f"B is not unique mod {mod} for {q1} and {q2}: {candidates}"
        )
    big_b = candidates[0]
    return Form(aa, big_b, (big_b * big_b - d) // (4 * aa))


# ---------------------------------------------------------------------------
# the group


@dataclass(frozen=True)
class FormClass:
    rep: Form


@dataclass(frozen=True)
class FormClassGroup:
    """C(D, Gamma0(N)) on generators and relations.

    Generator k has relative order orders[k]: g_k^orders[k] is the element
    with exponent vector relations[k], which involves only g_0, ..., g_(k-1).
    Element i is g_0^e_0 ... g_(r-1)^e_(r-1) with vectors[i] = (e_0, ...)
    and 0 <= e_k < orders[k].  The group law on indices follows from the
    vectors by integer arithmetic; nothing here composes forms.
    """

    D: int
    N: int
    elements: tuple[FormClass, ...]
    invariant_factors: tuple[int, ...]
    orders: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {v: i for i, v in enumerate(self.vectors)}

    def _element(self, vec) -> int:
        """Index of the element with exponent vector vec (any integers):
        carry each exponent above its relative order down through that
        generator's relation, from the last generator to the first."""
        v = list(vec)
        for k in reversed(range(len(v))):
            carry, v[k] = divmod(v[k], self.orders[k])
            for j, e in enumerate(self.relations[k]):
                v[j] += carry * e
        return self._position[tuple(v)]

    @cached_property
    def identity_index(self) -> int:
        return self._position[(0,) * len(self.orders)]

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.op(i, j) for j in range(self.order)) for i in range(self.order)
        )

    def op(self, i: int, j: int) -> int:
        return self._element(a + b for a, b in zip(self.vectors[i], self.vectors[j]))

    def inverse_of(self, i: int) -> int:
        return self._element(-e for e in self.vectors[i])

    def power(self, i: int, k: int) -> int:
        return self._element(k * e for e in self.vectors[i])

    def element_order(self, i: int) -> int:
        # the image of x in <g_0, ..., g_k> / <g_0, ..., g_(k-1)> has order t
        x, out = i, 1
        for k in reversed(range(len(self.orders))):
            t = self.orders[k] // math.gcd(self.vectors[x][k], self.orders[k])
            x, out = self.power(x, t), out * t
        return out


@checked_cache(check_table_bounds)
def _scaled_classes(d: int, n: int) -> Mapping[Form, tuple[Form, tuple[GroupElement, ...]]]:
    """The reduced form r of (a, bN, cN^2) -> (f, the products delta*u for
    u in Aut(r)), delta carrying the one to the other, for every admissible
    class rep f = (a, b, c): the isomorphism, checked one-to-one and
    read-only, since every caller shares the cached map.  Its size is
    checked against h(D*N^2) = h(D)*N*prod over p | N of (1 - (D/p)/p),
    divided by 3 at D = -3 and by 2 at D = -4 when N > 1 (Cox, Primes of
    the Form x^2 + ny^2, Thm 7.24), h(D) being the checked class table's
    size over psi(N), and 1 at D = -3 and -4."""
    reps = enumerate_reduced(d, n)
    scaled = {}
    for f in reps:
        a, b, c = f
        if math.gcd(a, n) != 1:
            continue
        # f is admissible, so its image is primitive: Gauss reduction,
        # with its witness checked, is its SL2(Z) reduction
        ra, rb, rc, *g = _gauss(a, b * n, c * n * n)
        r, delta = Form(ra, rb, rc), GroupElement(*g)
        if r in scaled:
            raise InvariantError(f"{scaled[r][0]} and {f} meet at disc {d * n * n} (level {n})")
        scaled[r] = f, tuple(delta * u for u in automorphs(r))
    expected = (len(reps) // _coset_index(n) if d < -4 else 1) * n
    for p in prime_factors(n):
        expected = expected // p * (p - kronecker(d, p))
    if d >= -4 and n > 1:
        expected //= 2 if d == -4 else 3
    if len(scaled) != expected:
        raise InvariantError(
            f"{len(scaled)} admissible classes of disc {d}, level {n}, not {expected}"
        )
    return MappingProxyType(scaled)


def _scaled_class(scaled: Mapping, key: tuple[int, ...], d: int, n: int) -> tuple[Form, tuple]:
    """The entry of _scaled_classes(d, n) under a reduced form at disc
    D*N^2, given as a Form or as its coefficients."""
    try:
        return scaled[key]
    except KeyError:
        raise InvariantError(
            f"{Form(*key)} is the image of no admissible class (disc {d}, level {n})"
        ) from None


def compose_classes(q1: Form, q2: Form, n: int) -> Form:
    """Composition at class level: prepare q2, compose, name by the map."""
    q2p = prepare_coprime(q2, q1.a * n, n)
    q = dirichlet_compose(q1, q2p, n)
    key = _gauss(q.a, q.b * n, q.c * n * n)[:3]
    return _scaled_class(_scaled_classes(q.disc, n), key, q.disc, n)[0]


@checked_cache(check_table_bounds)
def class_group(d: int, n: int) -> FormClassGroup:
    """The group C(d, Gamma0(n)), grown one generator at a time.

    Its classes and identity come from the map to disc D*N^2.  The next
    generator g is the least class not yet reached.  Its powers g, g^2, ...
    are composed until one, g^m, lies in the subgroup H reached so far: m
    is the relative order of g, and the exponent vector of g^m is its
    relation.  Then H grows to H, Hg, ..., Hg^(m-1), one composition per
    new class, so the group costs about h compositions in all instead of
    the h^2/2 of a composed Cayley table.  The invariant factors are the
    Smith normal form of the relation matrix; the Cayley table is derived
    from the exponent vectors when first read.
    """
    scaled = _scaled_classes(d, n)
    reps = sorted(f for f, _ in scaled.values())
    index = {f: i for i, f in enumerate(reps)}

    def compose(i: int, j: int) -> int:
        out = compose_classes(reps[i], reps[j], n)
        if out not in index:
            raise InvariantError(f"composition left the class list: {out}")
        return index[out]

    unit = principal_form(d * n * n)
    e = index[_scaled_class(scaled, unit, d, n)[0]]
    vectors = {e: ()}
    orders: list[int] = []
    relations: list[tuple[int, ...]] = []
    for g in range(len(reps)):
        if g in vectors:
            continue
        powers = [g]
        while powers[-1] not in vectors:
            if len(powers) > len(reps):
                raise InvariantError(f"no power of {reps[g]} lies in the subgroup")
            powers.append(compose(powers[-1], g))
        relations.append(vectors[powers[-1]])
        orders.append(len(powers))
        vectors = {x: v + (0,) for x, v in vectors.items()}
        subgroup = list(vectors.items())
        for j, p in enumerate(powers[:-1], start=1):
            for h, v in subgroup:
                x = p if h == e else compose(h, p)
                if x in vectors:
                    raise InvariantError(f"cosets of the subgroup overlap at {reps[x]}")
                vectors[x] = v[:-1] + (j,)
    factors = _smith_factors(orders, relations)
    if math.prod(factors) != len(reps):
        raise InvariantError(f"invariant factors {factors} do not multiply to {len(reps)}")
    return FormClassGroup(
        d,
        n,
        tuple(FormClass(f) for f in reps),
        factors,
        tuple(orders),
        tuple(relations),
        tuple(vectors[i] for i in range(len(reps))),
    )


def oracle_pairs(d: int, n: int) -> int:
    """Check Dirichlet composition against the lattice product of ideals on
    every ordered pair of classes of C(d, Gamma0(n)); returns the number of
    pairs checked.  Each left class's ideal is built once.  Refuses more
    than 10^6 pairs before the first one."""
    group = class_group(d, n)
    limit = search_bound(10**6)
    if group.order**2 > limit:
        raise SearchBoundExceeded(
            f"oracle_pairs({d}, {n}) needs {group.order**2} pairs, above {limit}"
        )
    for i, left in enumerate(group.elements):
        q1 = left.rep
        ideal1 = ideal_from_form(q1)
        for j, right in enumerate(group.elements):
            q2 = prepare_coprime(right.rep, q1.a * n, n)
            lhs = ideal_from_form(dirichlet_compose(q1, q2, n))
            if lhs != ideal_mul(ideal1, ideal_from_form(q2)):
                raise InvariantError(f"oracle mismatch at classes {i}, {j} of disc {d}, level {n}")
    return group.order**2


def _smith_factors(orders: list[int], relations: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (those above 1) of the group with
    generators g_k and relations g_k^orders[k] = prod_j g_j^relations[k][j].

    The relation matrix, row k = orders[k] e_k - relations[k], is brought
    to Smith normal form by unimodular row and column operations (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4.3): the least
    nonzero entry of the remaining block is moved to the pivot and its row
    and column are cleared by division with remainder until only the pivot
    is left.  Its diagonal, made a divisor chain by gcd/lcm, is the answer.
    """
    size = len(orders)
    a = [
        [-e for e in rel] + [orders[k]] + [0] * (size - k - 1)
        for k, rel in enumerate(relations)
    ]
    for t in range(size):
        while True:
            _, i, j = min(
                (abs(a[i][j]), i, j)
                for i in range(t, size)
                for j in range(t, size)
                if a[i][j]
            )
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            pivot = a[t][t]
            for i in range(t + 1, size):
                q = a[i][t] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, size):
                q = a[t][j] // pivot
                for row in a:
                    row[j] -= q * row[t]
            if not any(a[i][t] for i in range(t + 1, size)) and not any(a[t][t + 1 :]):
                break
    diagonal = [abs(a[t][t]) for t in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            g = math.gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return tuple(x for x in diagonal if x > 1)


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
