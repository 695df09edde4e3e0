"""Reduction of positive-definite forms to canonical class representatives.

``class_key`` names each Gamma0(N)-class by the SL2(Z)-reduced form r of
the class and the least P^1(Z/N) label of its coset orbit, the cosets of
delta*u for delta carrying a form of the class to r and u in Aut(r).  The
canonical form of a class comes from that orbit on one path: the least
translate of r by the inverse lifts of its labels (r itself at level 1),
walked at levels 2, 3 and primes p >= 5 to the form whose CM point tau
lies in a fundamental region (Ford, Automorphic Functions, ch. III),
written out once in ``is_reduced``.  Translate b into (-a, a].  While
q(k, n) < a on a circle of ``_arcs``, tau lies inside that circle of
radius 1/n at k/n: move by the Gamma0(n) matrix with first column (k, n).
The new a is q(k, n), so each move lowers a > 0 and the walk ends.  Of
the end point's images with the same a under the side pairings, exactly
one is reduced.  The walk crosses one circle per step, so it starts from
the least translate, whose size the lifts bound: from a form near a cusp,
such as q translated by (1, 0; n*K, 1), it would take about K steps.
``canonical_rep`` takes these steps for one form's orbit; the cached class
table per (D, N) takes them once for each class it meets among the coset
translates of the reduced forms.

The SL2(Z)-reduced forms come from a sweep: |b| <= a <= c gives 3*b^2 <=
-D, so b runs over 3*b^2 <= -D, b = D (mod 2), and min(a, c) over the
divisors of a*c = (b^2 - D)/4 from |b| to sqrt(a*c).  Its divisor trials
and the index psi(N) are functions of (D, N) alone, bounded by
``check_table_bounds`` before any cached table is read and before
``canonical_rep`` labels or walks a form.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from .core import (
    Form,
    GroupElement,
    act,
    act_by_column,
    checked_cache,
    is_prime,
    prime_factors,
    require_qf,
    search_bound,
    validate_discriminant,
    validate_level,
    xgcd,
)
from .errors import (
    DiscriminantMismatch,
    InvariantError,
    SearchBoundExceeded,
    UnsupportedLevelError,
    ValidationError,
)

def level_supported(n: int) -> bool:
    """True when a reduced-form predicate exists for Gamma0(n)."""
    return n in (1, 2, 3) or (n >= 5 and is_prime(n))


# ---------------------------------------------------------------------------
# classical SL2(Z) reduction


@dataclass(frozen=True)
class ReductionResult:
    reduced: Form
    transform: GroupElement


def is_reduced_sl2(q: Form) -> bool:
    a, b, c = q.a, q.b, q.c
    if a <= 0 or b * b >= 4 * a * c:
        raise ValidationError(f"form is not positive definite: {q}")
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def reduce_sl2(q: Form) -> ReductionResult:
    """Gauss reduction; returns the reduced form and a witness matrix g
    with act(q, g) equal to it."""
    require_qf(q)
    a, b, c = q.a, q.b, q.c
    # the witness (ga, gb; gc, gd), multiplied on the right by each step
    ga, gb, gc, gd = 1, 0, 0, 1
    while True:
        if not (-a < b <= a):
            # translate b into (-a, a]: times (1, s; 0, 1)
            s = (a - b) // (2 * a)
            gb, gd = gb + ga * s, gd + gc * s
            b, c = b + 2 * a * s, a * s * s + b * s + c
        if a > c:
            # times S = (0, -1; 1, 0)
            ga, gb, gc, gd = gb, -ga, gd, -gc
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            ga, gb, gc, gd = gb, -ga, gd, -gc
            b = -b
        break
    reduced = Form(a, b, c)
    g = GroupElement(ga, gb, gc, gd)
    if act(q, g) != reduced:
        raise InvariantError(f"witness {g} does not carry {q} to {reduced}")
    return ReductionResult(reduced, g)


# ---------------------------------------------------------------------------
# the reduced-form predicate for the supported levels


def kept_arc(k: int, n: int) -> int:
    """min(k, -<k^(-1)>), <x> the residue of x mod n nearest 0: of the
    circles at k/n and -k^(-1)/n, which pair, the region keeps this one."""
    if math.gcd(k, n) != 1:
        raise ValidationError(f"{k} has no inverse modulo {n}")
    inv = pow(k, -1, n)
    return min(k, n - inv if inv > (n - 1) // 2 else -inv)


def _arcs(q: Form, n: int) -> Iterator[tuple[int, int]]:
    """(k, q(k, n) - a) for the circles of radius 1/n at k/n next to
    n*Re(tau), 0 < 2|k| <= n, gcd(k, n) = 1: the only circles that can hold
    tau (a gap < 0) or pass through it (a gap of 0)."""
    a, b, c = q.a, q.b, q.c
    below = -b * n // (2 * a)
    for k in (below, below + 1):
        if 0 < 2 * abs(k) <= n and math.gcd(k, n) == 1:
            yield k, (a * k + b * n) * k + c * n * n - a


def is_reduced(q: Form, n: int) -> bool:
    """True when q is the reduced form of its Gamma0(n)-class, n supported.
    At n > 1: -a < b <= a and no gap of _arcs below 0.  On the circle at
    k/n: k = 1 drops tau, k = -1 keeps it, k^2 = -1 (mod n) keeps it when
    n*Re(tau) <= k, any other k when 2*n*Re(tau) <= 2*kept_arc(k, n) + 1.
    Testing k = -1 first lets n = 2 share these rules."""
    if n == 1:
        return is_reduced_sl2(q)
    a, b = q.a, q.b
    if a <= 0 or b * b >= 4 * a * q.c:
        raise ValidationError(f"form is not positive definite: {q}")
    if not level_supported(n):
        validate_level(n)
        raise UnsupportedLevelError(f"no reduced-form predicate for level {n}")
    if not -a < b <= a:
        return False
    for k, gap in _arcs(q, n):
        if gap < 0:
            return False
        if gap == 0 and k != -1:
            if k == 1:
                return False
            bound = 2 * k if (k * k + 1) % n == 0 else 2 * kept_arc(k, n) + 1
            if -b * n > bound * a:
                return False
    return True


# ---------------------------------------------------------------------------
# coset representatives of Gamma0(N) in SL2(Z)


def _units_taking(n: int, c: int, g: int) -> list[int]:
    """The units u mod n with u*c = g (mod n), g = gcd(c, n): those with
    u = (c/g)^(-1) (mod n/g).  With c = g, the units fixing g."""
    m = n // g
    return [u for u in range(pow(c // g, -1, m), n, m) if math.gcd(u, n) == 1]


def p1_label(n: int, c: int, d: int) -> tuple[int, int]:
    """Canonical label of (c : d) on P^1(Z/N): the lexicographically least
    unit multiple.  Requires gcd(c, d, n) = 1.  With g = gcd(c, N) the least
    first entry is g (0 if g = N), reached by the units taking c to g."""
    validate_level(n)
    c %= n
    d %= n
    g = math.gcd(c, n)
    if math.gcd(g, d) != 1:
        raise ValidationError(f"({c} : {d}) is not a point of P^1(Z/{n})")
    if g == n:
        # c = 0 and d is a unit, which d^(-1) takes to 1
        return 0, 1 % n
    return g, min(u * d % n for u in _units_taking(n, c, g))


def _lift_to_sl2(n: int, c: int, d: int) -> GroupElement:
    """An SL2(Z) matrix whose bottom row is = (c, d) mod n.  The rows come
    from labels the library built, so a row that is not a point of
    P^1(Z/n) is an internal error."""
    c %= n
    d %= n
    for t in range(4 * n + 4):
        d0 = d + t * n
        if math.gcd(c, d0) == 1:
            g, u, v = xgcd(d0, c)
            # u*d0 + v*c = 1  ->  det (u, -v; c, d0) = 1
            return GroupElement(u, -v, c, d0)
    raise InvariantError(f"cannot lift ({c} : {d}) mod {n} to SL2(Z)")


def _coset_index(n: int) -> int:
    """psi(n) = [SL2(Z) : Gamma0(n)], refused above search_bound(1500)."""
    limit = search_bound(1500)
    index = n  # psi(n) >= n: a level above the limit is refused unfactored
    if n <= limit:
        for p in prime_factors(n):
            index = index // p * (p + 1)
    if index > limit:
        raise SearchBoundExceeded(f"level {n} has more than {limit} cosets")
    return index


def check_coset_bound(n: int) -> None:
    """Validate n and refuse its cosets when psi(n) exceeds its bound."""
    validate_level(n)
    _coset_index(n)


@checked_cache(check_coset_bound)
def coset_reps(n: int) -> tuple[GroupElement, ...]:
    """Right-coset representatives Gamma0(n)\\SL2(Z), complete and
    duplicate-free, one per point (c : d) of P^1(Z/n) as bottom row; every
    label starts with a divisor of n (n standing for 0).

    The labels come from one walk over the orbits of each divisor row, about
    sigma_0(n)*n steps; the class table over them makes h(D)*psi(n) form
    translates, so an index psi(n) above 1500 is refused before every
    lookup, hit or miss.
    """
    index = _coset_index(n)
    labels = []
    for c in range(1, n + 1):
        if n % c:
            continue
        # the points (c : d) fall into orbits under the units fixing c, and
        # p1_label names each orbit by c mod n and its least member
        units = _units_taking(n, c, c)
        seen = bytearray(n)
        for d in range(n):
            if not seen[d] and math.gcd(c, d) == 1:
                orbit = [u * d % n for u in units]
                for e in orbit:
                    seen[e] = 1
                labels.append((c % n, min(orbit)))
    labels.sort()
    reps = tuple(_lift_to_sl2(n, c, d) for c, d in labels)
    if len(reps) != index:
        raise InvariantError(f"coset count {len(reps)} != index {index} at level {n}")
    return reps


# ---------------------------------------------------------------------------
# proper automorphisms and equivalence testing


# -I and I, the whole stabilizer when D < -4, in the order of as_tuple
_PLUS_MINUS_I = (GroupElement(-1, 0, 0, -1), GroupElement(1, 0, 0, 1))


def automorphs(q: Form) -> tuple[GroupElement, ...]:
    """The stabilizer of q under the right action (proper automorphisms),
    sorted by as_tuple.

    Solutions (t, u) of t^2 - D*u^2 = 4 give the matrices
    ((t - b*u)/2, -c*u; a*u, (t + b*u)/2); there are 6 for D = -3,
    4 for D = -4 and 2 otherwise, when u = 0 is the only choice.
    """
    require_qf(q)
    d = q.disc
    if d < -4:
        return _PLUS_MINUS_I
    out = []
    for u in (-1, 0, 1):  # u^2 <= 4/|D| = 1
        rhs = 4 + d * u * u
        t = math.isqrt(rhs)
        if t * t != rhs:
            continue
        for tt in ({t, -t} if t else {0}):
            out.append(
                GroupElement(
                    (tt - q.b * u) // 2, -q.c * u, q.a * u, (tt + q.b * u) // 2
                )
            )
    return tuple(sorted(set(out), key=lambda g: g.as_tuple()))


def equivalent_gamma0(q1: Form, q2: Form, n: int) -> GroupElement | None:
    """A matrix g in Gamma0(n) with act(q1, g) = q2, or None.

    Both forms are reduced to the common SL2(Z) representative; the full
    solution set of act(q1, g) = q2 is then delta1 * Aut * delta2^(-1),
    and it suffices to test each candidate's lower-left entry mod n.
    """
    require_qf(q1)
    require_qf(q2)
    validate_level(n)
    if q1.disc != q2.disc:
        raise DiscriminantMismatch(f"disc {q1.disc} != {q2.disc}")
    r1 = reduce_sl2(q1)
    r2 = reduce_sl2(q2)
    if r1.reduced != r2.reduced:
        return None
    d2_inv = r2.transform.inverse()
    for u in automorphs(r1.reduced):
        g = r1.transform * u * d2_inv
        if g.in_gamma0(n):
            if act(q1, g) != q2:
                raise InvariantError(f"witness {g} does not carry {q1} to {q2}")
            return g
    return None


# ---------------------------------------------------------------------------
# class keys and canonical forms


def _orbit(delta: GroupElement, auts: tuple[GroupElement, ...], label: Callable) -> set:
    """The labels label(c, d) over the bottom rows (c, d) of delta*u, u in
    auts = Aut(r), r reduced: the coset orbit of each q with act(q, delta)
    = r.  Its least label and r are the class key of q."""
    dc, dd = delta.c, delta.d
    return {label(dc * u.a + dd * u.c, dc * u.b + dd * u.d) for u in auts}


def class_key(q: Form, n: int) -> tuple[Form, tuple[int, int]]:
    """A hashable name of the Gamma0(n)-class of q: equal for two forms iff
    they are Gamma0(n)-equivalent.

    With delta carrying q to its SL2(Z)-reduction r, the key is r and the
    least P^1(Z/n) label of the cosets Gamma0(n)*delta*u, u in Aut(r).
    """
    validate_level(n)
    res = reduce_sl2(q)
    r = res.reduced
    return r, min(_orbit(res.transform, automorphs(r), partial(p1_label, n)))


def _sweep(d: int) -> list[Form]:
    """All SL2(Z)-reduced forms of discriminant d, sorted by (a, b, c)."""
    b_max = math.isqrt(-d // 3)
    forms = set()
    for b in range(-b_max + (b_max - d) % 2, b_max + 1, 2):
        ac = (b * b - d) // 4
        for s in range(max(1, abs(b)), math.isqrt(ac) + 1):
            if ac % s == 0:
                for f in (Form(s, b, ac // s), Form(ac // s, b, s)):
                    if f.is_primitive() and is_reduced_sl2(f):
                        forms.add(f)
    return sorted(forms)


def check_table_bounds(d: int, n: int) -> None:
    """Validate (d, n) and refuse its class table when psi(n) or the
    divisor trials of _sweep(d) exceed their bounds."""
    validate_discriminant(d)
    check_coset_bound(n)
    b_max = math.isqrt(-d // 3)
    trials = (b_max + 1) * (math.isqrt((b_max * b_max - d) // 4) + 1)
    limit = search_bound(10**8)
    if trials > limit:
        raise SearchBoundExceeded(f"disc {d} needs {trials} divisor trials, limit {limit}")


def _into_strip(q: Form) -> Form:
    """The translate of q by a power of T with b in (-a, a]."""
    s = (q.a - q.b) // (2 * q.a)
    return Form(q.a, q.b + 2 * q.a * s, q(s, 1))


def _walk(q: Form, n: int) -> Form:
    """The reduced form of the Gamma0(n)-class of q, n > 1 supported.  Of
    the circles at k/n, only those of _arcs can hold tau or pass through
    it: a move across one that holds tau lowers a and starts over, and the
    moves across those through tau collect the same-a images."""
    images, todo = set(), [_into_strip(q)]
    while todo:
        f = todo.pop()
        moves = [_into_strip(act_by_column(f, k, n)) for k, gap in _arcs(f, n) if gap <= 0]
        if any(g.a < f.a for g in moves):
            images, todo = set(), [min(moves)]
        elif f not in images:
            images.add(f)
            todo += moves
    reduced = [f for f in images if is_reduced(f, n)]
    if len(reduced) != 1:
        raise InvariantError(f"{q} has {len(reduced)} reduced images at level {n}: {reduced}")
    return reduced[0]


def _canonical(r: Form, orbit: set, n: int, inverse_lift: Callable) -> Form:
    """The least translate of r by the inverse lifts of the labels in orbit,
    walked into the region at levels 2, 3 and primes p >= 5.  The walk
    crosses one circle per step, so it starts from that translate, whose
    size the lifts bound, never from a given form."""
    t = min(act(r, inverse_lift(label)) for label in orbit)
    return _walk(t, n) if n > 1 and level_supported(n) else t


@checked_cache(check_table_bounds)
def _class_table(d: int, n: int) -> dict:
    """Class key -> canonical form for every Gamma0(n)-class of disc d: the
    coset translates of the reduced forms r meet every class, one class per
    orbit of the cosets under Aut(r).  Each orbit is labelled once per
    Aut(r), each bottom row mod n once, each coset rep inverted once."""
    labels: dict = {}

    def label(c: int, e: int) -> tuple[int, int]:
        row = c % n, e % n
        if row not in labels:
            labels[row] = p1_label(n, *row)
        return labels[row]

    reps = coset_reps(n)
    inverses = {label(g.c, g.d): g.inverse() for g in reps}
    orbits: dict = {}  # Aut(r) -> least label -> orbit; one Aut(r) below D = -4
    table: dict = {}
    for r in _sweep(d):
        auts = automorphs(r)
        if auts not in orbits:
            orbits[auts] = {min(o): o for o in (_orbit(g, auts, label) for g in reps)}
        for least, orbit in orbits[auts].items():
            table[r, least] = _canonical(r, orbit, n, inverses.__getitem__)
    if len(set(table.values())) != len(table):
        raise InvariantError(f"two classes of disc {d}, level {n} walk to one reduced form")
    return table


def class_reps(d: int, n: int) -> tuple[Form, ...]:
    """The canonical form of every Gamma0(n)-class of discriminant d,
    sorted by (a, b, c).  Classes with gcd(a, n) = 1 are the admissible
    ones of the class group and the genus tables."""
    return tuple(sorted(_class_table(d, n).values()))


def enumerate_reduced(d: int, n: int) -> tuple[Form, ...]:
    """All Gamma0(n)-reduced forms of discriminant d, sorted by (a, b, c):
    one per class, walked into the region.  Supported levels only."""
    validate_discriminant(d)
    validate_level(n)
    if not level_supported(n):
        raise UnsupportedLevelError(f"no fundamental domain for level {n}")
    return class_reps(d, n)


def canonical_rep(q: Form, n: int) -> Form:
    """A canonical Gamma0(n)-class representative of q, the form that
    class_reps lists for its class, computed from q alone.

    At level 1 it is the SL2(Z) reduction r of q.  Elsewhere the class
    table's steps give it: the label orbit of delta*u, delta carrying q to
    r and u in Aut(r), and _canonical's least translate and walk.  The
    table's bounds are checked first, so what class_reps refuses, this does.
    """
    require_qf(q)
    _class_table.check(q.disc, n)
    res = reduce_sl2(q)
    r = res.reduced
    if n == 1:
        return r
    orbit = _orbit(res.transform, automorphs(r), partial(p1_label, n))
    return _canonical(r, orbit, n, lambda label: _lift_to_sl2(n, *label).inverse())
