"""Reduction of positive-definite forms to reduced class representatives.

One rule names the reduced form of a Gamma0(N)-class at every level, N = 1
included: the least a over the class, then the greatest b in (-a, a].  Its
CM point tau has Im tau = sqrt|D|/(2a), so this is the highest point of
the orbit, the one the Ford region keeps (Ford, Automorphic Functions, ch.
III); at level 1 it is Gauss reduction.  The values a of the class of q
are q(x, y) over primitive (x, y) with N | y, and the least of them is the
least over gcd(x, N) = 1, the minimum of the scaled form (a, bN, cN^2).
``_minimum`` searches it row by row from its Gauss reduction (Cohen, A
Course in Computational Algebraic Number Theory, 2.7), completes each
least (x, y) to a matrix of Gamma0(N) and keeps the greatest b, in
integers, ending in one check of the witness.  It starts from any member
of the class, however far towards a cusp, at any level.  ``reduce_gamma0``
is the minimum of one form with its witness, ``canonical_rep`` its form
and ``is_reduced`` the test that the minimum gives the form back.

The reduced form is the name of its class: ``equivalent_gamma0`` compares
the minima of two forms and, when they agree, joins their witnesses.  The
cached class table per (D, N) is the set of minima of the coset
translates of the SL2(Z)-reduced forms, which meet every class; it counts
the classes against h(D)*psi(N) and its corrections at D = -3 and -4
(Shimura, ch. 1).

The SL2(Z)-reduced forms come from a sweep: |b| <= a <= c gives 3*b^2 <=
-D, so b runs over 3*b^2 <= -D, b = D (mod 2), and min(a, c) over the
divisors of a*c = (b^2 - D)/4 from |b| to sqrt(a*c).  Its divisor trials
and the index psi(N) are functions of (D, N) alone, bounded by
``check_table_bounds`` before any cached table is read and before
``reduce_gamma0`` reduces a form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    Form,
    GroupElement,
    act,
    act_coeffs,
    checked_cache,
    kronecker,
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
    ValidationError,
)


# ---------------------------------------------------------------------------
# classical SL2(Z) reduction


class ReductionResult(NamedTuple):
    """A reduced form and a witness matrix carrying the input to it."""

    reduced: Form
    transform: GroupElement


def _gauss_steps(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int, int]:
    """Gauss reduction of a positive-definite (a, b, c) in integers: the
    reduced (a', b', c') and the witness entries (ga, gb, gc, gd) of a
    matrix of determinant 1 carrying the one to the other, unchecked.
    _gauss checks them; _minimum checks its own witness, built from these,
    once at its end."""
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
    return a, b, c, ga, gb, gc, gd


def _gauss(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int, int]:
    """_gauss_steps with its witness checked: determinant 1, carrying
    (a, b, c) to the reduced form."""
    red = _gauss_steps(a, b, c)
    ra, rb, rc, ga, gb, gc, gd = red
    if ga * gd - gb * gc != 1 or act_coeffs(a, b, c, ga, gb, gc, gd) != (ra, rb, rc):
        raise InvariantError(
            f"witness [[{ga}, {gb}], [{gc}, {gd}]] does not carry {(a, b, c)} to {(ra, rb, rc)}"
        )
    return red


def reduce_sl2(q: Form) -> ReductionResult:
    """Gauss reduction; returns the reduced form and a witness matrix g
    with act(q, g) equal to it.  The loop and its check run in integers
    in `_gauss`, which `genus.classify_prime` calls directly; only the
    answer is wrapped in objects."""
    require_qf(q)
    a, b, c, *g = _gauss(*q)
    return ReductionResult(Form(a, b, c), GroupElement(*g))


# ---------------------------------------------------------------------------
# the reduced form at every level: the minimum of the scaled form


def _minimum(a: int, b: int, c: int, n: int) -> tuple[int, int, int, int, int, int, int]:
    """The Gamma0(n)-reduced form of the class of a positive-definite
    (a, b, c) and the witness entries of a Gamma0(n) matrix carrying the
    one to the other, checked: the least value q(x, y) over n | y and
    gcd(x, n) = 1, then the greatest b in (-a, a] among the matrices
    (x, *; y, *) at which it is taken.  A least (x, y) is primitive: were
    it k*(x', y') with k > 1, k would be prime to n and (x', y') smaller.

    With y = n*y' the values are those of Q = (a, bn, cn^2) at (x, y').
    Gauss reduction takes Q to (A, B, C) by M; write (x, y') = M*(s, t).
    Row t = 0 gives A when gcd(M11, n) = 1.  The values of row t >= 1 are
    at least |D|n^2*t^2/(4A), so the rows stop once that passes the best
    value.  Each prime of n forbids either a whole row (it divides M11 and
    t) or one residue of s in it, so only the nearest allowed s on each
    side of the vertex -B*t/(2A) can give the row's least value.  The
    primes that forbid a residue divide span, the part of n prime to M11,
    so by the Chinese remainder theorem the allowed s of a row are a
    translate of the integers prime to span: any j consecutive s hold one,
    j <= span being the Jacobsthal function of span.

    No search bound is needed at any level.  Row 1 is never forbidden and
    has an allowed s within j/2 of its vertex, so the best value is at most
    A*j^2/4 + |D|n^2/(4A).  As 3A^2 <= |D|n^2, only the rows with
    t^2 <= 1 + j^2/3 can reach it: O(j) rows of at most j steps on each
    side, however large n is.  A row with 3(t^2 - 1) > span^2, or a side
    with no allowed s in span steps, is an internal error.  Every (x, y)
    at the least value is kept, signed so that y > 0, or y = 0 and x > 0,
    and completed by xgcd; of the greatest b, the greatest matrix is the
    witness."""
    big_a, big_b, big_c, ma, mb, mc, md = _gauss_steps(a, b * n, c * n * n)
    disc = 4 * big_a * big_c - big_b * big_b
    span = n
    while (g := math.gcd(span, ma)) > 1:
        span //= g
    # (1, 0) is one of the (x, y), so its value a bounds the least one
    best, found = a, []
    if math.gcd(ma, n) == 1:
        best, found = big_a, [(ma, mc)]
    t = 1
    while disc * t * t <= 4 * big_a * best:
        if 3 * (t * t - 1) > span * span:
            raise InvariantError(f"the minimum of {(a, b, c)} at level {n} passed row {t}")
        if math.gcd(ma, mb * t, n) == 1:
            vertex = -big_b * t // (2 * big_a)
            for s, step in ((vertex, -1), (vertex + 1, 1)):
                for _ in range(span):
                    if math.gcd(ma * s + mb * t, n) == 1:
                        break
                    s += step
                else:
                    raise InvariantError(
                        f"the minimum of {(a, b, c)} at level {n} found no s in row {t}"
                    )
                value = (big_a * s + big_b * t) * s + big_c * t * t
                if value < best:
                    best, found = value, []
                if value == best:
                    found.append((ma * s + mb * t, mc * s + md * t))
        t += 1
    ends = []
    for x, y in found:
        if (y, x) < (0, 0):
            x, y = -x, -y
        y *= n
        _, u, v = xgcd(x, y)
        # (x, -v; y, u) has determinant u*x + v*y = 1 and takes (a, b, c)
        # to (best, fb, *); then b into (-best, best] by (1, k; 0, 1)
        fb = b * (x * u - v * y) + 2 * (c * y * u - a * x * v)
        k = (best - fb) // (2 * best)
        ends.append((fb + 2 * best * k, x, x * k - v, y, y * k + u))
    eb, ga, gb, gc, gd = max(ends)
    ec = (eb * eb - b * b + 4 * a * c) // (4 * best)
    if ga * gd - gb * gc != 1 or gc % n or act_coeffs(a, b, c, ga, gb, gc, gd) != (best, eb, ec):
        raise InvariantError(
            f"witness [[{ga}, {gb}], [{gc}, {gd}]] does not carry {(a, b, c)} "
            f"to {(best, eb, ec)} in Gamma0({n})"
        )
    return best, eb, ec, ga, gb, gc, gd


def is_reduced(q: Form, n: int) -> bool:
    """True when q is the reduced form of its Gamma0(n)-class: _minimum
    gives q back.  At n = 1 these are Gauss's conditions, |b| <= a <= c
    and b >= 0 when |b| = a or a = c; at n = p prime >= 5 they are the
    Gamma0(p) region of fundomain."""
    a, b, c = q
    if a <= 0 or b * b >= 4 * a * c:
        raise ValidationError(f"form is not positive definite: {q}")
    validate_level(n)
    return -a < b <= a and _minimum(a, b, c, n)[:3] == (a, b, c)


# ---------------------------------------------------------------------------
# coset representatives of Gamma0(N) in SL2(Z)


def _units_taking(n: int, c: int, g: int) -> list[int]:
    """The units u mod n with u*c = g (mod n), g = gcd(c, n): those with
    u = (c/g)^(-1) (mod n/g).  With c = g, the units fixing g."""
    m = n // g
    return [u for u in range(pow(c // g, -1, m), n, m) if math.gcd(u, n) == 1]


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
    sigma_0(n)*n steps; they are made here and nowhere else.  The class
    table takes the minimum of h(D)*psi(n) form translates over them, so an
    index psi(n) above 1500 is refused before every lookup, hit or miss.
    """
    index = _coset_index(n)
    labels = []
    for c in range(1, n + 1):
        if n % c:
            continue
        # the points (c : d) fall into orbits under the units fixing c; an
        # orbit's label, its least unit multiple, is c mod n and its least d
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


# -I and I, the whole stabilizer when D < -4, in tuple order
_PLUS_MINUS_I = (GroupElement(-1, 0, 0, -1), GroupElement(1, 0, 0, 1))


def automorphs(q: Form) -> tuple[GroupElement, ...]:
    """The stabilizer of q under the right action (proper automorphisms),
    sorted as entry tuples.

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
    return tuple(sorted(set(out)))


def equivalent_gamma0(q1: Form, q2: Form, n: int) -> GroupElement | None:
    """A matrix g in Gamma0(n) with act(q1, g) = q2, or None.

    The forms are equivalent when they have one reduced form, the _minimum
    of each; then g = g1 * g2^(-1), g1 and g2 the witnesses carrying q1 and
    q2 to it.  The minimum needs no search bound, so this answers at every
    level.
    """
    require_qf(q1)
    require_qf(q2)
    validate_level(n)
    if q1.disc != q2.disc:
        raise DiscriminantMismatch(f"disc {q1.disc} != {q2.disc}")
    m1, m2 = _minimum(*q1, n), _minimum(*q2, n)
    if m1[:3] != m2[:3]:
        return None
    g = GroupElement(*m1[3:]) * GroupElement(*m2[3:]).inverse()
    if act(q1, g) != q2:
        raise InvariantError(f"witness {g} does not carry {q1} to {q2}")
    return g


# ---------------------------------------------------------------------------
# the class table and canonical forms


def _sweep(d: int) -> list[Form]:
    """All SL2(Z)-reduced forms of discriminant d, sorted by (a, b, c).  The
    divisor s of ac runs from |b| to sqrt(ac), so |b| <= s <= ac/s: the
    swapped (ac/s, b, s) is reduced only when it is (s, b, ac/s), and the
    form is reduced unless b < 0 on the boundary |b| = s or s = ac/s."""
    b_max = math.isqrt(-d // 3)
    forms = []
    for b in range(-b_max + (b_max - d) % 2, b_max + 1, 2):
        ac = (b * b - d) // 4
        for s in range(max(1, abs(b)), math.isqrt(ac) + 1):
            if ac % s == 0 and math.gcd(s, b, ac // s) == 1:
                if b >= 0 or (-b != s and s * s != ac):
                    forms.append(Form(s, b, ac // s))
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


def _class_count(d: int, n: int, h: int) -> int:
    """The number of Gamma0(n)-classes of disc d, h the number of
    SL2(Z)-classes: h*psi(n) below D = -4, where every stabilizer is +-I.
    At D = -4 the one class splits into (psi(n) + eps2(n))/2 classes and
    at D = -3 into (psi(n) + 2*eps3(n))/3, eps2 and eps3 counting the
    elliptic points of order 2 and 3 (Shimura, ch. 1): eps2(n) is 0 when
    4 | n and else the product over p | n of 1 + (-4/p), eps3(n) is 0 when
    9 | n and else the product of 1 + (-3/p)."""
    psi = _coset_index(n)
    if d < -4:
        return h * psi
    w = 2 if d == -4 else 3
    eps = 0 if n % (w * w) == 0 else math.prod(1 + kronecker(d, p) for p in prime_factors(n))
    return (psi + (w - 1) * eps) // w


@checked_cache(check_table_bounds)
def _class_table(d: int, n: int) -> frozenset:
    """The reduced form of every Gamma0(n)-class of disc d: the set of the
    _minimum of every coset translate act(r, g^(-1)), r SL2(Z)-reduced and
    g a coset rep.  The translates meet every class, below D = -4 once
    each, as Aut(r) = +-I; at D = -3 and -4 a class met more than once has
    one minimum, which the set keeps once.  The size of the set is checked
    against _class_count, so a minimum that merged two classes fails."""
    inverses = [g.inverse() for g in coset_reps(n)]
    sweep = _sweep(d)
    table = frozenset(
        Form(*_minimum(*act_coeffs(*r, *g), n)[:3]) for r in sweep for g in inverses
    )
    expected = _class_count(d, n, len(sweep))
    if len(table) != expected:
        raise InvariantError(f"{len(table)} classes of disc {d}, level {n}, not {expected}")
    return table


def class_reps(d: int, n: int) -> tuple[Form, ...]:
    """The reduced form of every Gamma0(n)-class of discriminant d,
    sorted by (a, b, c).  Classes with gcd(a, n) = 1 are the admissible
    ones of the class group and the genus tables."""
    return tuple(sorted(_class_table(d, n)))


def enumerate_reduced(d: int, n: int) -> tuple[Form, ...]:
    """All Gamma0(n)-reduced forms of discriminant d, sorted by (a, b, c):
    one per class, at every level."""
    return class_reps(d, n)


def reduce_gamma0(q: Form, n: int) -> ReductionResult:
    """The reduced form of the Gamma0(n)-class of q, the form that
    class_reps lists for it, and a witness g in Gamma0(n) with act(q, g)
    equal to it: the _minimum of q and its checked matrix.  The table's
    bounds are checked first, so what class_reps refuses, this does."""
    require_qf(q)
    _class_table.check(q.disc, n)
    a, b, c, *g = _minimum(*q, n)
    return ReductionResult(Form(a, b, c), GroupElement(*g))


def canonical_rep(q: Form, n: int) -> Form:
    """The reduced form of the Gamma0(n)-class of q, the form that
    class_reps lists for it: the form of reduce_gamma0."""
    return reduce_gamma0(q, n).reduced
