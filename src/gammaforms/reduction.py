"""Reduction of positive-definite forms to canonical class representatives.

``class_key`` names each Gamma0(N)-class by the SL2(Z)-reduced form r of
the class and the least P^1(Z/N) label of its coset orbit, the cosets of
delta*u for delta carrying a form of the class to r and u in Aut(r).  The
canonical form of a class comes from that orbit on one path: the least
translate of r by the inverse lifts of its labels (r itself at level 1),
walked at levels 2, 3 and primes p >= 5 to the form whose CM point tau
lies in a fundamental region (Ford, Automorphic Functions, ch. III),
written out once in ``is_reduced`` for every supported level, level 1
included.  Translate b into (-a, a].  While q(k, n) < a on a circle of
``_arcs``, tau lies inside that circle of radius 1/n at k/n: move by the
Gamma0(n) matrix with first column (k, n).  The new a is q(k, n), so each
move lowers a > 0 and the walk ends.  Of the end point's images with the
same a under the side pairings, the region keeps the one with the
greatest b.  At level 1 the one circle is |tau| = 1, at k = 0, the move is
S = (0, -1; 1, 0) and the walk is Gauss reduction, which ``_gauss`` runs
as a loop.  The walk crosses one circle per step, so it starts from the
least translate, whose size the lifts bound: from a form near a cusp,
such as q translated by (1, 0; n*K, 1), it would take about K steps.

A Form is its triple (a, b, c) and a GroupElement its entries (a, b, c,
d), so the walk, like ``_gauss``, runs on one flat state: the form's
coefficients and the entries of its witness, the product of the moves and
translates from the walk's start.  Each walk ends in one check that the
witness has determinant 1, lies in Gamma0(n) and carries the start to the
end.  The cached class table per (D, N) walks each class it meets among
the coset translates of the reduced forms once; at level 1 those
translates are the reduced forms themselves, so it walks none.
``reduce_gamma0`` takes the same steps for one form's orbit and returns
the Gamma0(n) matrix carrying the form to its canonical representative:
delta*u*lift^(-1) times the walk's witness.  ``canonical_rep`` is its
form, and the ``reduce`` command prints both.

The SL2(Z)-reduced forms come from a sweep: |b| <= a <= c gives 3*b^2 <=
-D, so b runs over 3*b^2 <= -D, b = D (mod 2), and min(a, c) over the
divisors of a*c = (b^2 - D)/4 from |b| to sqrt(a*c).  Its divisor trials
and the index psi(N) are functions of (D, N) alone, bounded by
``check_table_bounds`` before any cached table is read and before
``reduce_gamma0`` labels or walks a form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from .core import (
    Form,
    GroupElement,
    act,
    act_coeffs,
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


class ReductionResult(NamedTuple):
    """A reduced form and a witness matrix carrying the input to it."""

    reduced: Form
    transform: GroupElement


def _gauss(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int, int]:
    """Gauss reduction of a positive-definite (a, b, c) in integers: the
    reduced (a', b', c') and the witness entries (ga, gb, gc, gd) of a
    matrix of determinant 1 carrying the one to the other, both checked.
    It is the walk at level 1, _walk(a, b, c, 1), state for state, as one
    loop: the move across |tau| = 1 is S."""
    q = a, b, c
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
    if ga * gd - gb * gc != 1 or act_coeffs(*q, ga, gb, gc, gd) != (a, b, c):
        raise InvariantError(
            f"witness [[{ga}, {gb}], [{gc}, {gd}]] does not carry {q} to {(a, b, c)}"
        )
    return a, b, c, ga, gb, gc, gd


def reduce_sl2(q: Form) -> ReductionResult:
    """Gauss reduction; returns the reduced form and a witness matrix g
    with act(q, g) equal to it.  The loop and its check run in integers
    in `_gauss`, which `genus.classify_prime` calls directly; only the
    answer is wrapped in objects."""
    require_qf(q)
    a, b, c, *g = _gauss(*q)
    return ReductionResult(Form(a, b, c), GroupElement(*g))


# ---------------------------------------------------------------------------
# the reduced-form predicate for the supported levels


def _arcs(a: int, b: int, c: int, n: int) -> list[tuple[int, int]]:
    """(k, q(k, n) - a) for the circles of radius 1/n at k/n that hold tau
    (a gap < 0) or pass through it (a gap of 0), n = 1, 2, 3 or a prime
    p >= 5: of the circles with 2|k| <= n, where k is a unit mod n, only
    the two next to n*Re(tau) can.  At n = 1 that is the unit circle, k = 0,
    with gap c - a; at n > 1 it is 0 < 2|k| <= n."""
    below = -b * n // (2 * a)
    arcs = []
    for k in (below, below + 1):
        if 2 * abs(k) <= n and (k or n == 1):
            gap = (a * k + b * n) * k + c * n * n - a
            if gap <= 0:
                arcs.append((k, gap))
    return arcs


# A walk state is (a, b, c, ga, gb, gc, gd): a form and the witness entries
# of a matrix carrying the walk's start to it, multiplied on the right by
# each step.


def _into_strip(a: int, b: int, c: int, ga: int, gb: int, gc: int, gd: int) -> tuple:
    """The state translated by the power T^s = (1, s; 0, 1) that puts b
    into (-a, a]."""
    s = (a - b) // (2 * a)
    return a, b + 2 * a * s, (a * s + b) * s + c, ga, gb + ga * s, gc, gd + gc * s


def _cross(state: tuple, k: int, gap: int, n: int) -> tuple:
    """The state moved by the Gamma0(n) matrix with first column (k, n),
    gcd(k, n) = 1, and put into the strip; the new a must be q(k, n), the
    old a plus the gap of the circle at k/n."""
    a, b, c, ga, gb, gc, gd = state
    _, u, v = xgcd(k, n)
    # (k, -v; n, u) has determinant u*k + v*n = 1
    na, nb, nc = act_coeffs(a, b, c, k, -v, n, u)
    if na != a + gap:
        raise InvariantError(f"the move by ({k}, {n}) carries {(a, b, c)} to a = {na}, not {a + gap}")
    return _into_strip(na, nb, nc, ga * k + gb * n, gb * u - ga * v, gc * k + gd * n, gd * u - gc * v)


def _same_a(state: tuple, n: int) -> dict:
    """(a, b, c) -> state for the forms at the least a that the state
    reaches by moves across the circles of _arcs, each put into the strip:
    a move across one that holds tau (a gap < 0) lowers a and starts over,
    and those through tau (a gap of 0) collect the images of a point of the
    region, the state's own if it is in it."""
    images, todo = {}, [state]
    while todo:
        f = todo.pop()
        arcs = _arcs(*f[:3], n)
        if arcs and (lower := [_cross(f, k, gap, n) for k, gap in arcs if gap < 0]):
            images, todo = {}, [min(lower)]
        elif f[:3] not in images:
            images[f[:3]] = f
            todo += [_cross(f, k, gap, n) for k, gap in arcs]
    return images


def is_reduced(q: Form, n: int) -> bool:
    """True when q is the reduced form of its Gamma0(n)-class, n supported:
    -a < b <= a, no gap of _arcs below 0, and q has the greatest b among
    its images with the same a: of a point and its side-pairing images on
    the boundary, the region keeps one.  At n = 1 these are Gauss's
    conditions: |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    a, b, c = q
    if a <= 0 or b * b >= 4 * a * c:
        raise ValidationError(f"form is not positive definite: {q}")
    if not level_supported(n):
        validate_level(n)
        raise UnsupportedLevelError(f"no reduced-form predicate for level {n}")
    if not -a < b <= a or any(gap < 0 for _, gap in _arcs(a, b, c, n)):
        return False
    return all(f[1] <= b for f in _same_a((a, b, c, 1, 0, 0, 1), n))


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


def _orbit(c: int, d: int, auts: tuple[GroupElement, ...], label: Callable) -> list:
    """The labels label(c', d') of the bottom rows (c', d') of delta*u, u
    in auts = Aut(r) in order, r reduced and (c, d) the bottom row of
    delta: the coset orbit of each q with act(q, delta) = r.  Its least
    label and r are the class key of q.  Aut(r) holds -u with u, and
    negation reverses the order of entry tuples, so -u is auts[-1 - i] for
    u = auts[i]; the rows of delta*u and delta*(-u) are one point of
    P^1(Z/N), -1 being a unit, so the first half is labelled and mirrored."""
    half = [label(c * u.a + d * u.c, c * u.b + d * u.d) for u in auts[: len(auts) // 2]]
    return half + half[::-1]


def class_key(q: Form, n: int) -> tuple[Form, tuple[int, int]]:
    """A hashable name of the Gamma0(n)-class of q: equal for two forms iff
    they are Gamma0(n)-equivalent.

    With delta carrying q to its SL2(Z)-reduction r, the key is r and the
    least P^1(Z/n) label of the cosets Gamma0(n)*delta*u, u in Aut(r).
    """
    validate_level(n)
    res = reduce_sl2(q)
    r = res.reduced
    delta = res.transform
    return r, min(_orbit(delta.c, delta.d, automorphs(r), partial(p1_label, n)))


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


def _walk(a: int, b: int, c: int, n: int) -> tuple:
    """The end state of the walk of (a, b, c) into the region, n supported:
    of the images _same_a collects, which have no gap below 0, the one with
    the greatest b, which must lie in the strip.  Its witness must have
    determinant 1, n | gc and carry (a, b, c) to the end form.  At n = 1 it
    equals _gauss(a, b, c), which the callers use there."""
    images = _same_a(_into_strip(a, b, c, 1, 0, 0, 1), n)
    # one a, so the greatest triple has the greatest b
    end = images[max(images)]
    ea, eb, ec, ga, gb, gc, gd = end
    if not -ea < eb <= ea:
        raise InvariantError(
            f"the walk of {(a, b, c)} at level {n} ends outside the strip at {(ea, eb, ec)}"
        )
    if ga * gd - gb * gc != 1 or gc % n or act_coeffs(a, b, c, ga, gb, gc, gd) != end[:3]:
        raise InvariantError(
            f"witness [[{ga}, {gb}], [{gc}, {gd}]] of the walk at level {n} "
            f"does not carry {(a, b, c)} to {(ea, eb, ec)} in Gamma0({n})"
        )
    return end


def _canonical(r: Form, orbit, inverses: dict, n: int, walk: bool) -> tuple:
    """The least translate of r by the inverse lifts of the labels in
    orbit, given in inverses, and the label that gives it; with walk
    (levels 2, 3 and primes p >= 5) the translate is walked into the region.
    Returns the label and the end state, the translate and the identity
    when there is no walk.  At level 1 the lift is the identity and the
    translate is r, which _sweep and _gauss give reduced, so the callers
    skip a walk that would only confirm it and add 30 to 50% to the time
    of a cold level-1 table.  The walk crosses one circle per step, so it
    starts from that translate, whose size the lifts bound, never from a
    given form."""
    t, label = min([(act_coeffs(*r, *inverses[label]), label) for label in orbit])
    return label, _walk(*t, n) if walk else (*t, 1, 0, 0, 1)


@checked_cache(check_table_bounds)
def _class_table(d: int, n: int) -> dict:
    """Class key -> canonical form for every Gamma0(n)-class of disc d: the
    coset translates of the reduced forms r meet every class, one class per
    orbit of the cosets under Aut(r).  Each orbit is labelled once per
    Aut(r), each bottom row mod n once up to sign, each coset rep inverted
    once, and each class walked once."""
    labels: dict = {}

    def label(c: int, e: int) -> tuple[int, int]:
        # a row and its negative have one label
        row = min((c % n, e % n), (-c % n, -e % n))
        if row not in labels:
            labels[row] = p1_label(n, *row)
        return labels[row]

    reps = coset_reps(n)
    inverses = {label(g.c, g.d): g.inverse() for g in reps}
    walk = n > 1 and level_supported(n)  # at level 1 every r is reduced
    orbits: dict = {}  # Aut(r) -> least label -> orbit; one Aut(r) below D = -4
    table: dict = {}
    for r in _sweep(d):
        auts = automorphs(r)
        if auts not in orbits:
            orbits[auts] = {min(o): set(o) for o in (_orbit(g.c, g.d, auts, label) for g in reps)}
        for least, orbit in orbits[auts].items():
            _, end = _canonical(r, orbit, inverses, n, walk)
            table[r, least] = Form(*end[:3])
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


def reduce_gamma0(q: Form, n: int) -> ReductionResult:
    """The canonical Gamma0(n)-class representative of q, the form that
    class_reps lists for its class, computed from q alone, and a witness g
    in Gamma0(n) with act(q, g) equal to it.

    The class table's steps give the form: with delta carrying q to its
    SL2(Z)-reduction r, the label orbit of delta*u over u in Aut(r), and
    _canonical's least translate of r and its walk.  The witness is
    delta*u*lift^(-1) times the walk's moves, with u the first automorph
    for which delta*u has the label of the lift that the translate used:
    delta*u and the lift then lie in one coset of Gamma0(n), and the walk
    moves within Gamma0(n).  At composite levels there are no moves; at
    level 1 the lift is the identity and r is already reduced, so there
    are none either.  The witness is checked in the end.
    The table's bounds are checked first, so what class_reps refuses, this
    does.
    """
    require_qf(q)
    _class_table.check(q.disc, n)
    a, b, c, *delta = _gauss(*q)
    r = Form(a, b, c)
    auts = automorphs(r)
    labels = _orbit(delta[2], delta[3], auts, partial(p1_label, n))
    inverses = {label: _lift_to_sl2(n, *label).inverse() for label in set(labels)}
    used, end = _canonical(r, inverses, inverses, n, n > 1 and level_supported(n))
    g = GroupElement(*delta) * auts[labels.index(used)] * inverses[used] * GroupElement(*end[3:])
    rep = Form(*end[:3])
    if g.c % n or act_coeffs(*q, *g) != rep:
        raise InvariantError(f"witness {g} does not carry {q} to {rep} in Gamma0({n})")
    return ReductionResult(rep, g)


def canonical_rep(q: Form, n: int) -> Form:
    """A canonical Gamma0(n)-class representative of q, the form that
    class_reps lists for its class: the form of reduce_gamma0."""
    return reduce_gamma0(q, n).reduced
