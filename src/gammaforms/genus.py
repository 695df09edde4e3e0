"""N-representation of integers and genus classification of primes.

An integer m is N-represented by a form when m = q(x, y) with x coprime
to N and y divisible by N, properly when additionally gcd(x, y) = 1.  The
unit residues modulo |D| that a fixed admissible form N-represents make up
one coset of the subgroup H (the values of the principal form) inside
ker(chi), chi being the Kronecker character of D.  Those cosets cut the
admissible reduced forms into N-genera, and an odd prime p with p not
dividing D satisfies (D/p) = 1 exactly when some reduced form of
discriminant D N-represents it; the coset of [p] then names the genus of
every admissible witness.

H comes from `core.unit_values`: one local set per prime power p^k
exactly dividing D (at odd p, the unit squares mod p^k), glued by the
Chinese remainder theorem, in O(|D|) once per table.  The genus of a form
is then named by a single N-represented value coprime to D, looked up in
a residue -> coset index; no form's full value set is built.

A prime is classified without a scan.  Euler's criterion, D^((p-1)/2)
mod p, gives (D/p); a square root of D mod p gives (p, +-b, c), which
represent p at (1, 0), and the map (a, b, c) -> (a, bN, cN^2) carries the
Gamma0(N)-classes of admissible forms of discriminant D one-to-one to
SL2(Z)-classes of discriminant D*N^2.  So one
Gauss reduction at D*N^2, run in integers and mirrored for -b, names the
witness's class by its reduced form in classgroup's dict for that map,
which the genus table holds; a Form is its triple, so the reduction's
coefficients are the key.  The dict also keeps, per class, the products
delta*u (u in Aut(r)) that turn the reduction matrix into its
representations of p, and the table each coset as a sorted tuple, so a
prime not dividing N builds objects only for the answer.
`find_representations` scans y and serves `represent` and composite m.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .classgroup import _scaled_class, _scaled_classes, prepare_coprime, principal_form
from .core import (
    Form,
    GroupElement,
    act_by_column,
    checked_cache,
    is_prime,
    is_square,
    ker_chi,
    require_qf,
    search_bound,
    sqrt_mod_prime,
    unit_values,
    units_mod,
    validate_discriminant,
    validate_level,
)
from .errors import InvariantError, SearchBoundExceeded, ValidationError
from .ideals import OIdeal, ideal_from_form
from .reduction import _gauss, automorphs, check_table_bounds, reduce_gamma0


class Representation(NamedTuple):
    """One solution q(x, y) = value, flagged relative to the level used."""

    x: int
    y: int
    value: int
    level: int
    proper: bool
    admissible: bool


def _pair_key(pair: tuple[int, int]) -> tuple:
    x, y = pair
    return (abs(y), abs(x), y < 0, x < 0)


def find_representations(q: Form, m: int, n: int) -> tuple[Representation, ...]:
    """All integer solutions of q(x, y) = m, each flagged.

    Positive definiteness bounds the search: 4*a*m = (2ax + by)^2 - D*y^2
    forces |y| <= sqrt(4am/|D|), and x solves a quadratic per y.  A range
    of more than search_bound(10**6) values of y is refused up front with
    SearchBoundExceeded.
    """
    require_qf(q)
    validate_level(n)
    if m < 0:
        return ()
    d = q.disc
    out = []
    ymax = math.isqrt(4 * q.a * m // (-d))
    # 10**6 values take under a second; classify_prime needs far fewer
    limit = search_bound(10**6)
    if 2 * ymax + 1 > limit:
        raise SearchBoundExceeded(
            f"find_representations({q}, {m}) needs {2 * ymax + 1} values of y, limit {limit}"
        )
    for y in range(-ymax, ymax + 1):
        # a x^2 + (b y) x + (c y^2 - m) = 0
        disc_x = 4 * q.a * m + d * y * y
        if disc_x < 0 or not is_square(disc_x):
            continue
        s = math.isqrt(disc_x)
        for sign in ({s, -s} if s else {0}):
            num = -q.b * y + sign
            if num % (2 * q.a) != 0:
                continue
            x = num // (2 * q.a)
            out.append(
                Representation(
                    x,
                    y,
                    m,
                    n,
                    math.gcd(x, y) == 1,
                    math.gcd(x, n) == 1 and y % n == 0,
                )
            )
    return tuple(sorted(set(out), key=lambda r: _pair_key((r.x, r.y))))


def form_from_representation(q: Form, r: Representation, n: int) -> Form:
    """A form with leading coefficient r.value, Gamma0(n)-equivalent to q.

    Completes the proper N-admissible pair (x, y) to the first column of a
    matrix in Gamma0(n) and transports q.
    """
    require_qf(q)
    validate_level(n)
    if not (r.proper and r.admissible):
        raise ValidationError(f"representation {r} is not proper and admissible")
    if q(r.x, r.y) != r.value:
        raise ValidationError(f"{r} does not represent {r.value} under {q}")
    if r.y % n:
        raise ValidationError(f"completion of {r} left Gamma0({n})")
    return act_by_column(q, r.x, r.y)


def exists_representing_form(d: int, m: int) -> Form | None:
    """A primitive form m*x^2 + b*xy + c*y^2 of discriminant d, when d is a
    quadratic residue modulo the odd integer m; None otherwise.  The 2m
    values of b are tried in turn, and more than search_bound(10**6) of
    them are refused up front with SearchBoundExceeded."""
    validate_discriminant(d)
    if m <= 0 or m % 2 == 0:
        raise ValidationError(f"m must be an odd positive integer: {m}")
    if math.gcd(m, d) != 1:
        raise ValidationError(f"m = {m} is not coprime to D = {d}")
    limit = search_bound(10**6)
    if 2 * m > limit:
        raise SearchBoundExceeded(
            f"exists_representing_form({d}, {m}) needs {2 * m} values of b, limit {limit}"
        )
    for b in range(2 * m):
        if (b * b - d) % (4 * m) == 0:
            return Form(m, b, (b * b - d) // (4 * m))
    return None


# ---------------------------------------------------------------------------
# genus tables


@dataclass(frozen=True)
class GenusTable:
    D: int
    N: int
    ker_chi: frozenset[int]
    h_subgroup: frozenset[int]
    cosets: tuple[tuple[int, ...], ...]  # each sorted
    assignment: tuple[tuple[Form, int], ...]
    # residue mod |D| -> number of its coset, for every residue in ker(chi)
    coset_index: Mapping[int, int] = field(repr=False, compare=False)
    # classgroup._scaled_classes(D, N) itself: the reduced form r of
    # (a, bN, cN^2) -> (f, the products delta*u for u in Aut(r)), delta
    # carrying the one to the other, for every admissible class rep f
    scaled_classes: Mapping[Form, tuple[Form, tuple[GroupElement, ...]]] = field(
        repr=False, compare=False
    )

    def coset_of_residue(self, m: int) -> int:
        try:
            return self.coset_index[m % abs(self.D)]
        except KeyError:
            raise ValidationError(f"{m} mod {abs(self.D)} lies in no coset of H") from None

    def coset_of_form(self, q: Form) -> int:
        for f, i in self.assignment:
            if f == q:
                return i
        raise ValidationError(f"{q} carries no genus assignment")

    def genus_forms(self, i: int) -> tuple[Form, ...]:
        return tuple(f for f, j in self.assignment if j == i)


def check_genus_bounds(d: int, n: int) -> None:
    """check_table_bounds, and |D| above search_bound(2**20) refused."""
    check_table_bounds(d, n)
    limit = search_bound(2**20)
    if -d > limit:
        raise SearchBoundExceeded(f"genus table of disc {d} walks {-d} residues, limit {limit}")


@checked_cache(check_genus_bounds)
def genus_table(d: int, n: int) -> GenusTable:
    """ker(chi), H, its cosets, and the genus of every admissible form.

    H consists of the unit residues N-represented by the principal form,
    built once by `unit_values`; its cosets are checked to partition
    ker(chi).  Each admissible form N-represents exactly one H-coset, so
    one properly N-represented value coprime to D, found by
    `prepare_coprime`, names its genus; that value is checked to lie in
    ker(chi).  check_genus_bounds runs before every lookup, hit or miss.
    """
    modulus = abs(d)
    ker = ker_chi(d)
    h = unit_values(principal_form(d), n)
    if not h <= ker:
        raise InvariantError(f"H is not inside ker(chi) for disc {d}, level {n}")
    cosets: list[tuple[int, ...]] = []
    index: dict[int, int] = {}
    for m in sorted(ker):
        if m in index:
            continue
        coset = frozenset(m * x % modulus for x in h)
        if m not in coset or not coset <= ker or not index.keys().isdisjoint(coset):
            raise InvariantError(f"H-cosets do not partition ker(chi) for disc {d}")
        index.update(dict.fromkeys(coset, len(cosets)))
        cosets.append(tuple(sorted(coset)))
    assignment = []
    scaled = _scaled_classes(d, n)
    for f, _ in sorted(scaled.values()):
        v = prepare_coprime(f, d, n).a % modulus
        if v not in index:
            raise InvariantError(
                f"{f} N-represents {v} mod {modulus}, outside ker(chi) (disc {d}, level {n})"
            )
        assignment.append((f, index[v]))
    return GenusTable(
        d, n, ker, h, tuple(cosets), tuple(assignment), MappingProxyType(index), scaled
    )


class PrimeClassification(NamedTuple):
    prime: int
    D: int
    N: int
    kronecker: int
    coset: tuple[int, ...] | None
    witness: Form | None
    representation: Representation | None

    @property
    def represented(self) -> bool:
        return self.coset is not None


def _first_columns(
    products: Iterable[tuple[int, ...]], x: int, y: int, scale: int
) -> list[tuple[int, int]]:
    """The first columns of m*g, m = (ma, mb; mc, md) in products, g having
    first column (x, y), with the second entry times scale."""
    return [(ma * x + mb * y, scale * (mc * x + md * y)) for ma, mb, mc, md in products]


def _mirror(red: tuple[int, ...]) -> tuple[int, ...]:
    """The Gauss reduction of (a, -b, c) from that of (a, b, c), both as the
    7-tuple of the reduced triple and the witness entries (ga, gb, gc, gd).
    Conjugating by diag(1, -1) negates the middle coefficients of both forms
    and the off-diagonal of the matrix; then at most one step by T or S
    brings a reduced form with its sign flipped back from the boundary."""
    a, b, c, ga, gb, gc, gd = red
    b, gb, gc = -b, -gb, -gc
    if b == -a:
        gb, gd, b = gb + ga, gd + gc, a
    elif a == c and b < 0:
        ga, gb, gc, gd, b = gb, -ga, gd, -gc, -b
    return a, b, c, ga, gb, gc, gd


def _scaled_witness(table: GenusTable, p: int, b: int, c: int) -> tuple[Form, list]:
    """The lesser class of (p, +-b, c), p not dividing N, and the candidate
    representations of p by it: (p, +-bN, cN^2) reduce at disc D*N^2 to r by
    g, the table maps r to the class and to delta*u, and the first columns
    of delta*u*g^(-1), y scaled by N, are the candidates.  Columns are made
    only for the sign or signs whose class is the witness."""
    d, n = table.D, table.N
    red = _gauss(p, b * n, c * n * n)
    found = [
        (*_scaled_class(table.scaled_classes, r[:3], d, n), r[5], r[6])
        for r in (red, _mirror(red))
    ]
    witness = min(found[0][0], found[1][0])
    # the inverse of g = (ga, gb; gc, gd) has first column (gd, -gc)
    return witness, [
        col
        for f, products, gc, gd in found
        if f == witness
        for col in _first_columns(products, gd, -gc, n)
    ]


def _level_witness(p: int, b: int, c: int, n: int) -> tuple[Form, list]:
    """The canonical form of the class of (p, b, c), p dividing N, and the
    candidate representations of p by it."""
    q = Form(p, b, c)
    f, w = reduce_gamma0(q, n)
    # w carries q to f, so its inverse carries f to q
    g = w.inverse()
    return f, _first_columns([g * u for u in automorphs(q)], 1, 0, 1)


def _witness(table: GenusTable, p: int) -> tuple[Form, list[tuple[int, int]]]:
    """The witness of an odd prime p with (D/p) = 1, p not dividing D, and
    every N-admissible pair (x, y) at which it represents p.  The witness
    is the lesser class of (p, b, c) and (p, -b, c); each candidate first
    column is checked to represent p N-admissibly by it."""
    d, n = table.D, table.N
    r = sqrt_mod_prime(d, p)
    b = r if (r - d) % 2 == 0 else p - r
    if (b * b - d) % (4 * p):
        raise InvariantError(f"{b}^2 is not {d} modulo {4 * p}")
    c = (b * b - d) // (4 * p)
    if n % p:
        witness, columns = _scaled_witness(table, p, b, c)
    else:
        found = [_level_witness(p, s, c, n) for s in (b, -b)]
        witness = min(f for f, _ in found)
        columns = [col for f, cols in found if f == witness for col in cols]
    pairs = [
        (x, y)
        for x, y in columns
        if witness(x, y) == p and math.gcd(x, n) == 1 and y % n == 0
    ]
    return witness, pairs


def classify_prime(p: int, d: int, n: int) -> PrimeClassification:
    """Locate the coset of an odd prime p and exhibit a representing form.

    (D/p) is D^((p-1)/2) mod p by Euler's criterion, p being an odd prime
    not dividing D.  For (D/p) = 1, one square root mod p gives b with
    b^2 = D (mod 4p), and (p, b, c) and (p, -b, c) represent p at (1, 0).
    Every N-admissible representation of p by a form f is the first column
    of a Gamma0(N) matrix carrying f to one of the two (Cox, Lemmas 2.3 and
    2.5), so the witness is the lesser canonical form of their classes
    (the first in enumerate_reduced order) and the representation is the
    least of those first columns.  When p does not divide N the classes are
    found at disc D*N^2, where (a, b, c) -> (a, bN, cN^2) carries
    Gamma0(N)-classes of admissible forms to SL2(Z)-classes: one Gauss
    reduction of (p, bN, cN^2) in integers, mirrored for -b, and one
    lookup per sign by reduced form in the genus table, whose
    precomputed products delta*u give the columns of the lesser class with
    y scaled by N.  Only the answer is built as objects; the coset comes
    sorted from the table.  When p divides N the witness is not
    admissible, and reduce_gamma0 gives it and the Gamma0(N) matrix that
    carries the form to it.  No form is scanned; each candidate is
    checked to represent p N-admissibly.
    """
    validate_discriminant(d)
    validate_level(n)
    if p == 2 or not is_prime(p):
        raise ValidationError(f"p must be an odd prime: {p}")
    if d % p == 0:
        raise ValidationError(f"p = {p} divides D = {d}")
    # Euler's criterion: p is an odd prime not dividing D
    chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
    if chi != 1:
        return PrimeClassification(p, d, n, chi, None, None, None)
    table = genus_table(d, n)
    idx = table.coset_of_residue(p)
    witness, pairs = _witness(table, p)
    if not pairs:
        raise InvariantError(f"no reduced form of disc {d} N-represents {p} at level {n}")
    x, y = min(pairs, key=_pair_key)
    rep = Representation(x, y, p, n, math.gcd(x, y) == 1, True)
    return PrimeClassification(p, d, n, chi, table.cosets[idx], witness, rep)


def principal_genus_congruences(d: int, n: int) -> frozenset[int]:
    """The residue classes of the principal genus, straight from squares.

    For D = -4m: x^2 (mod 4m) over x coprime to N, together with x^2 + m
    when N is odd.  For D = 1 - 4m: x^2 (mod 4m - 1) over x coprime to N.
    Unit residues only; equals genus_table(D, N).h_subgroup.
    """
    validate_discriminant(d)
    validate_level(n)
    modulus = abs(d)
    l = modulus // math.gcd(modulus, n) * n
    shifts = (0, -d // 4) if d % 4 == 0 and n % 2 == 1 else (0,)
    vals = {(x * x + t) % modulus for x in range(l) if math.gcd(x, n) == 1 for t in shifts}
    return frozenset(vals) & units_mod(d)


# ---------------------------------------------------------------------------
# composition identity for even-middle forms


def brahmagupta_check(q: Form, n: int = 1) -> bool:
    """Verify the product identity for a form (a, 2b, c) of discriminant -4m:

        (a x^2 + 2b xy + c y^2)(a z^2 + 2b zw + c w^2)
            = (a xz + b xw + b yz + c yw)^2 + m (xw - yz)^2,  m = ac - b^2,

    exactly at nine points, where N-admissibility of the output pair is
    also checked: the first square's argument stays coprime to N and
    xw - yz = 0 (mod N) whenever (a, N) = 1, (xz, N) = 1 and y = w = 0
    (mod N).

    Nine points decide the identity: both sides are binary quadratic forms
    in (x, y) whose coefficients are binary quadratic forms in (z, w), and a
    binary quadratic form is fixed by its values at (1, 0), (0, 1) and
    (1, 1), so the sides agree if and only if they agree when (x, y) and
    (z, w) each range over those three points.  No further point can fail
    the admissibility check either: when y = w = 0 (mod N), the first
    square's argument is a*x*z (mod N) and xw - yz is 0 (mod N), so the
    check holds at every point.
    """
    require_qf(q)
    if q.b % 2 != 0:
        raise ValidationError(f"middle coefficient must be even: {q}")
    a, bh, c = q.a, q.b // 2, q.c
    m = a * c - bh * bh
    if q.disc != -4 * m:
        raise ValidationError("inconsistent discriminant")

    def holds(x: int, y: int, z: int, w: int) -> bool:
        first = a * x * z + bh * x * w + bh * y * z + c * y * w
        if q(x, y) * q(z, w) != first * first + m * (x * w - y * z) ** 2:
            return False
        if math.gcd(a * x * z, n) == 1 and y % n == 0 and w % n == 0:
            return math.gcd(first, n) == 1 and (x * w - y * z) % n == 0
        return True

    points = ((1, 0), (0, 1), (1, 1))
    return all(holds(x, y, z, w) for x, y in points for z, w in points)


def ideal_of_norm_from_representation(q: Form, r: Representation) -> OIdeal:
    """An ideal of norm r.value built from an N-admissible representation.

    With d = gcd(x, y), the proper part (x/d, y/d) represents value/d^2 and
    transports q to a form with that leading coefficient; scaling its ideal
    by d gives norm d^2 * (value/d^2) = value.
    """
    require_qf(q)
    if not r.admissible:
        raise ValidationError(f"representation {r} is not N-admissible")
    if q(r.x, r.y) != r.value or r.value <= 0:
        raise ValidationError(f"{r} is not a positive value of {q}")
    d = math.gcd(r.x, r.y)
    proper = Representation(r.x // d, r.y // d, r.value // (d * d), r.level, True, True)
    f2 = form_from_representation(q, proper, r.level)
    ideal = ideal_from_form(f2).scaled(d)
    if ideal.norm() != r.value:
        raise InvariantError(f"ideal {ideal} from {r} has norm {ideal.norm()}, not {r.value}")
    return ideal
