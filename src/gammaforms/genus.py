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

A prime is classified without a scan.  A square root of D mod p gives
(p, +-b, c), which represent p at (1, 0), and the map (a, b, c) ->
(a, bN, cN^2) carries the Gamma0(N)-classes of admissible forms of
discriminant D one-to-one to SL2(Z)-classes of discriminant D*N^2.  So one
SL2(Z) reduction at D*N^2 names the witness's class in a dict the genus
table keeps, and the reduction matrices give its representations of p.
`find_representations` scans y and serves `represent` and composite m.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .classgroup import prepare_coprime, principal_form
from .core import (
    Form,
    GroupElement,
    act_by_column,
    checked_cache,
    is_prime,
    is_square,
    ker_chi,
    kronecker,
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
from .reduction import (
    ReductionResult,
    automorphs,
    canonical_rep,
    check_table_bounds,
    class_reps,
    equivalent_gamma0,
    reduce_sl2,
)


@dataclass(frozen=True)
class Representation:
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


def _rep_sort_key(r: Representation) -> tuple:
    return _pair_key((r.x, r.y))


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
    return tuple(sorted(set(out), key=_rep_sort_key))


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
    quadratic residue modulo the odd integer m; None otherwise."""
    validate_discriminant(d)
    if m <= 0 or m % 2 == 0:
        raise ValidationError(f"m must be an odd positive integer: {m}")
    if math.gcd(m, d) != 1:
        raise ValidationError(f"m = {m} is not coprime to D = {d}")
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
    cosets: tuple[frozenset[int], ...]
    assignment: tuple[tuple[Form, int], ...]
    # residue mod |D| -> number of its coset, for every residue in ker(chi)
    coset_index: dict[int, int] = field(repr=False, compare=False)
    # SL2(Z)-reduction of (a, bN, cN^2) -> (f, matrix carrying the one to the
    # other), for every admissible form f = (a, b, c)
    scaled_classes: dict[Form, tuple[Form, GroupElement]] = field(repr=False, compare=False)

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
    cosets: list[frozenset[int]] = []
    index: dict[int, int] = {}
    for m in sorted(ker):
        if m in index:
            continue
        coset = frozenset(m * x % modulus for x in h)
        if m not in coset or not coset <= ker or not index.keys().isdisjoint(coset):
            raise InvariantError(f"H-cosets do not partition ker(chi) for disc {d}")
        index.update(dict.fromkeys(coset, len(cosets)))
        cosets.append(coset)
    assignment = []
    scaled: dict[Form, tuple[Form, GroupElement]] = {}
    for f in class_reps(d, n):
        if math.gcd(f.a, n) != 1:
            continue
        v = prepare_coprime(f, d, n).a % modulus
        if v not in index:
            raise InvariantError(
                f"{f} N-represents {v} mod {modulus}, outside ker(chi) (disc {d}, level {n})"
            )
        assignment.append((f, index[v]))
        res = reduce_sl2(Form(f.a, f.b * n, f.c * n * n))
        if res.reduced in scaled:
            raise InvariantError(
                f"{scaled[res.reduced][0]} and {f} meet at disc {d * n * n} (level {n})"
            )
        scaled[res.reduced] = f, res.transform
    return GenusTable(d, n, ker, h, tuple(cosets), tuple(assignment), index, scaled)


@dataclass(frozen=True)
class PrimeClassification:
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
    m: GroupElement, auts: tuple[GroupElement, ...], x: int, y: int, scale: int
) -> list[tuple[int, int]]:
    """The first columns of m*u*g, u in auts, g having first column (x, y),
    with the second entry times scale."""
    out = []
    for u in auts:
        ux, uy = u.a * x + u.b * y, u.c * x + u.d * y
        out.append((m.a * ux + m.b * uy, scale * (m.c * ux + m.d * uy)))
    return out


def _mirror(res: ReductionResult) -> ReductionResult:
    """The SL2(Z)-reduction of (a, -b, c) from that of (a, b, c).
    Conjugating by diag(1, -1) negates the middle coefficients of both forms
    and the off-diagonal of the matrix; then at most one step by T or S
    brings a reduced form with its sign flipped back from the boundary."""
    r, g = res.reduced, res.transform
    a, b, c = r.a, -r.b, r.c
    ga, gb, gc, gd = g.a, -g.b, -g.c, g.d
    if b == -a:
        gb, gd, b = gb + ga, gd + gc, a
    elif a == c and b < 0:
        ga, gb, gc, gd, b = gb, -ga, gd, -gc, -b
    return ReductionResult(Form(a, b, c), GroupElement(ga, gb, gc, gd))


def _scaled_witness(table: GenusTable, res: ReductionResult) -> tuple[Form, list]:
    """The admissible class whose image at disc D*N^2 reduces as res does,
    and the candidate representations of p by it, res being the SL2(Z)
    reduction of (p, +-bN, cN^2)."""
    try:
        f, delta = table.scaled_classes[res.reduced]
    except KeyError:
        raise InvariantError(
            f"{res.reduced} is the image of no admissible class (disc {table.D}, level {table.N})"
        ) from None
    g = res.transform  # the inverse of g has first column (g.d, -g.c)
    return f, _first_columns(delta, automorphs(res.reduced), g.d, -g.c, table.N)


def _level_witness(p: int, b: int, c: int, n: int) -> tuple[Form, list]:
    """The canonical form of the class of (p, b, c), p dividing N, and the
    candidate representations of p by it."""
    q = Form(p, b, c)
    f = canonical_rep(q, n)
    g = equivalent_gamma0(f, q, n)
    if g is None:
        raise InvariantError(f"{q} is not Gamma0({n})-equivalent to its canonical form {f}")
    return f, _first_columns(g, automorphs(q), 1, 0, 1)


def _witness(table: GenusTable, p: int) -> tuple[Form, list[tuple[int, int]]]:
    """The witness of an odd prime p with (D/p) = 1, p not dividing D, and
    every N-admissible pair (x, y) at which it represents p."""
    d, n = table.D, table.N
    r = sqrt_mod_prime(d, p)
    b = r if (r - d) % 2 == 0 else p - r
    if (b * b - d) % (4 * p):
        raise InvariantError(f"{b}^2 is not {d} modulo {4 * p}")
    c = (b * b - d) // (4 * p)
    if n % p:
        res = reduce_sl2(Form(p, b * n, c * n * n))
        found = [_scaled_witness(table, r) for r in (res, _mirror(res))]
    else:
        found = [_level_witness(p, s, c, n) for s in (b, -b)]
    witness = min(f for f, _ in found)
    pairs = [
        (x, y)
        for f, columns in found
        if f == witness
        for x, y in columns
        if witness(x, y) == p and math.gcd(x, n) == 1 and y % n == 0
    ]
    return witness, pairs


def classify_prime(p: int, d: int, n: int) -> PrimeClassification:
    """Locate the coset of an odd prime p and exhibit a representing form.

    For (D/p) = 1, one square root mod p gives b with b^2 = D (mod 4p), and
    (p, b, c) and (p, -b, c) represent p at (1, 0).  Every N-admissible
    representation of p by a form f is the first column of a Gamma0(N)
    matrix carrying f to one of the two (Cox, Lemmas 2.3 and 2.5), so the
    witness is the lesser canonical form of their classes (the first in
    class_reps order) and the representation is the least of those first
    columns.  When p does not divide N the classes are found at disc
    D*N^2, where (a, b, c) -> (a, bN, cN^2) carries Gamma0(N)-classes of
    admissible forms to SL2(Z)-classes: one reduce_sl2 of (p, bN, cN^2),
    mirrored for -b, and one lookup per sign in the genus table, whose
    matrices give the columns with y scaled by N.  When p divides N the
    witness is not admissible, and canonical_rep and equivalent_gamma0 give
    it.  No form is scanned; each candidate is checked to represent p
    N-admissibly.
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
    witness, pairs = _witness(table, p)
    if not pairs:
        raise InvariantError(f"no reduced form of disc {d} N-represents {p} at level {n}")
    x, y = min(pairs, key=_pair_key)
    rep = Representation(x, y, p, n, math.gcd(x, y) == 1, True)
    return PrimeClassification(p, d, n, chi, tuple(sorted(table.cosets[idx])), witness, rep)


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


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(p1: dict, p2: dict, sign: int = 1) -> dict:
    out = dict(p1)
    for e, c in p2.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def brahmagupta_check(q: Form, n: int = 1, samples: int = 20, seed: int = 0) -> bool:
    """Verify the product identity for a form (a, 2b, c) of discriminant -4m:

        (a x^2 + 2b xy + c y^2)(a z^2 + 2b zw + c w^2)
            = (a xz + b xw + b yz + c yw)^2 + m (xw - yz)^2,  m = ac - b^2,

    once symbolically (exact polynomial expansion in x, y, z, w) and on
    random integer samples, where N-admissibility of the output pair is
    also checked: the first square's argument stays coprime to N and
    xw - yz = 0 (mod N) whenever (a, N) = 1, (xz, N) = 1, y = w = 0 (mod N).
    """
    require_qf(q)
    if q.b % 2 != 0:
        raise ValidationError(f"middle coefficient must be even: {q}")
    a, bh, c = q.a, q.b // 2, q.c
    m = a * c - bh * bh
    if q.disc != -4 * m:
        raise ValidationError("inconsistent discriminant")

    # exponent order (x, y, z, w)
    left = _poly_mul(
        {(2, 0, 0, 0): a, (1, 1, 0, 0): 2 * bh, (0, 2, 0, 0): c},
        {(0, 0, 2, 0): a, (0, 0, 1, 1): 2 * bh, (0, 0, 0, 2): c},
    )
    lin = {
        (1, 0, 1, 0): a,
        (1, 0, 0, 1): bh,
        (0, 1, 1, 0): bh,
        (0, 1, 0, 1): c,
    }
    cross = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
    right = _poly_add(_poly_mul(lin, lin), {e: m * v for e, v in _poly_mul(cross, cross).items()})
    if _poly_add(left, right, sign=-1):
        return False

    rng = random.Random(seed)
    for _ in range(samples):
        x, z = (rng.randrange(1, 50) * n + 1 for _ in range(2))
        y, w = (rng.randrange(-20, 21) * n for _ in range(2))
        lhs = q(x, y) * q(z, w)
        first = a * x * z + bh * x * w + bh * y * z + c * y * w
        rhs = first * first + m * (x * w - y * z) ** 2
        if lhs != rhs:
            return False
        if math.gcd(a, n) == 1 and math.gcd(x * z, n) == 1:
            if math.gcd(first, n) != 1 or (x * w - y * z) % n != 0:
                return False
    return True


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
