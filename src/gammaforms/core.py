"""Core objects: integral binary quadratic forms, unimodular matrices,
CM points, and the elementary number theory they need.

Every quantity is exact.  A form is the tuple (a, b, c) of its
coefficients and a matrix the tuple (a, b, c, d) of its entries, Python
integers, so each is unpacked, hashed and compared as that tuple.
Geometric data attached to a CM point tau = (numB + sqrt(D))/den is
handled through the rationals Re(tau) and Im(tau)^2, so that all
comparisons against lines, circles and corner points reduce to integer
arithmetic.  Nothing in this module ever touches a float.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import NamedTuple

from .errors import InvariantError, SearchBoundExceeded, ValidationError

# ---------------------------------------------------------------------------
# small number theory helpers


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (mod m1), x = r2 (mod m2).

    Returns (x, lcm(m1, m2)) with 0 <= x < lcm, or None when incompatible.
    With g = gcd(m1, m2), x = r1 + s*(r2 - r1)/g*m1 for s the inverse of
    m1/g modulo m2/g, the residue of the s of every Bezout pair
    s*m1 + t*m2 = g.
    """
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    m = m2 // g
    x = (r1 + (r2 - r1) // g * pow(m1 // g, -1, m) % m * m1) % l
    return x, l


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)  # fmt: skip
# The least n that is a strong probable prime to each of the first 13 prime
# bases and yet composite (Sorenson and Webster, 2015).
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < MILLER_RABIN_LIMIT, about 3.3e24.

    Trial division by the primes below 100 decides every n < 101^2; above
    that, the strong probable-prime test (Miller-Rabin) to the bases 2, 3,
    ..., 41 is exact below the limit.  Larger n with no prime factor below
    100 raise SearchBoundExceeded.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < 101 * 101:
        return True
    if n >= MILLER_RABIN_LIMIT:
        raise SearchBoundExceeded(
            f"no deterministic primality test for {n} >= {MILLER_RABIN_LIMIT}"
        )
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _SMALL_PRIMES[:13]:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(a: int, p: int) -> int:
    """A root r in [0, p) of r^2 = a (mod p), p an odd prime.  A non-residue
    a raises ValidationError (Euler's criterion).  By p mod 8:

    * p = 3, 7: r = a^((p+1)/4).
    * p = 5 (Atkin): with v = (2a)^((p-5)/8) and i = 2a*v^2, a square root
      of -1, r = a*v*(i - 1).  One power; no search.
    * p = 1: Tonelli-Shanks (Cohen 1.5.1).  It needs a non-residue z; the
      search tries z = 2, 3, ... and refuses past search_bound(10**4)
      candidates (under GRH the least one is below 2*log(p)^2, about 6,400
      at p < 3.3e24).
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValidationError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        return a * v * (2 * a * v * v - 1) % p
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    limit = search_bound(10**4)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        if z > limit:
            raise SearchBoundExceeded(f"no non-residue modulo {p} among {limit} candidates")
        z += 1
    # invariant: r^2 = a*t, t^(2^(m-1)) = 1 and c has order 2^m
    m, c, t, r = twos, pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of |n|."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


_SEARCH_ENV = "GAMMA_FORMS_MAX_SEARCH"


def search_bound(default: int) -> int:
    """Safety limit for bounded searches; GAMMA_FORMS_MAX_SEARCH overrides."""
    env = os.environ.get(_SEARCH_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"GAMMA_FORMS_MAX_SEARCH is not an integer: {env!r}") from exc
    return default


def checked_cache(check: Callable[..., None]) -> Callable:
    """lru_cache that runs check(*args) before every lookup, hit or miss.
    check reads only its arguments and search_bound, so a passed check is
    remembered for each value of GAMMA_FORMS_MAX_SEARCH.  The wrapper's
    check attribute runs that memoized check alone."""

    def decorate(fn: Callable) -> Callable:
        cached = lru_cache(maxsize=None)(fn)
        passed = lru_cache(maxsize=None)(lambda env, *args: check(*args))

        def checked(*args):
            return passed(os.environ.get(_SEARCH_ENV), *args)

        call = wraps(fn)(lambda *args: checked(*args) or cached(*args))
        call.check = checked
        call.cache_clear = lambda: cached.cache_clear() or passed.cache_clear()
        call.cache_info = cached.cache_info
        return call

    return decorate


def kronecker(d: int, m: int) -> int:
    """Kronecker symbol (d/m), defined for all integers.

    Completely multiplicative in m; for d = 0, 1 (mod 4) it induces the
    quadratic character on the units modulo |d|.
    """
    if m == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and m % 2 == 0:
        return 0
    t = 1
    if m < 0:
        m = -m
        if d < 0:
            t = -t
    # factors of 2 in the bottom argument
    twos = 0
    while m % 2 == 0:
        twos += 1
        m //= 2
    if twos % 2 == 1 and d % 8 in (3, 5):
        t = -t
    if d < 0:
        d = -d
        if m % 4 == 3:
            t = -t
    d %= m
    while d:
        while d % 2 == 0:
            d //= 2
            if m % 8 in (3, 5):
                t = -t
        d, m = m, d
        if d % 4 == 3 and m % 4 == 3:
            t = -t
        d %= m
    return t if m == 1 else 0


def validate_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise ValidationError(f"not a negative discriminant: {d}")


def validate_level(n: int) -> None:
    if n < 1:
        raise ValidationError(f"level must be >= 1: {n}")


# ---------------------------------------------------------------------------
# matrices


class GroupElement(NamedTuple("_Entries", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """An element of SL2(Z), acting on forms on the right and on the upper
    half-plane by fractional linear transformations.  It is the tuple
    (a, b, c, d) of its entries, equal, hashed and ordered as that tuple;
    every construction, _make and _replace included, checks determinant 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "GroupElement":
        self = tuple.__new__(cls, (a, b, c, d))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        a, b, c, d = self
        if a * d - b * c != 1:
            raise ValidationError(f"matrix has determinant != 1: {(a, b, c, d)}")

    @classmethod
    def _make(cls, iterable) -> "GroupElement":
        return cls(*iterable)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        a, b, c, d = self
        e, f, g, h = other
        return GroupElement(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "GroupElement":
        a, b, c, d = self
        return GroupElement(d, -b, -c, a)

    def in_gamma0(self, n: int) -> bool:
        validate_level(n)
        return self.c % n == 0

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = GroupElement(1, 0, 0, 1)


# ---------------------------------------------------------------------------
# forms


class Form(NamedTuple):
    """The quadratic form a*x^2 + b*xy + c*y^2.  It is the tuple (a, b, c)
    itself: equal to, hashed and ordered as that triple."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def content(self) -> int:
        return math.gcd(*self)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc < 0

    def is_qf(self) -> bool:
        """Primitive and positive definite."""
        a, b, c = self
        return a > 0 and b * b < 4 * a * c and math.gcd(a, b, c) == 1

    @classmethod
    def from_string(cls, s: str) -> "Form":
        try:
            a, b, c = (int(part.strip()) for part in s.split(","))
        except ValueError as exc:
            raise ValidationError(f"cannot parse form {s!r}; expected 'a,b,c'") from exc
        return cls(a, b, c)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


def require_qf(q: Form) -> Form:
    if not q.is_qf():
        raise ValidationError(f"expected a primitive positive-definite form, got {q}")
    return q


def act_coeffs(
    a: int, b: int, c: int, ga: int, gb: int, gc: int, gd: int
) -> tuple[int, int, int]:
    """The coefficients of (a, b, c) . (ga, gb; gc, gd) under the right action:
    the form (x, y) -> a*X^2 + b*X*Y + c*Y^2 at X = ga*x + gb*y, Y = gc*x + gd*y."""
    return (
        (a * ga + b * gc) * ga + c * gc * gc,
        2 * a * ga * gb + b * (ga * gd + gb * gc) + 2 * c * gc * gd,
        (a * gb + b * gd) * gb + c * gd * gd,
    )


def act(q: Form, g: GroupElement) -> Form:
    """Right action: (q . g)(x, y) = q(a*x + b*y, c*x + d*y)."""
    return Form(*act_coeffs(*q, *g))


def act_by_column(q: Form, x: int, y: int) -> Form:
    """act(q, g) for g in SL2(Z) with first column (x, y), coprime: the
    translate of q with leading coefficient q(x, y), in Gamma0(n) if n | y."""
    _, u, v = xgcd(x, y)
    gamma = GroupElement(x, -v, y, u)
    out = act(q, gamma)
    if out.a != q(x, y):
        raise InvariantError(f"{gamma} carries {q} to {out}, not to a = {q(x, y)}")
    return out


# ---------------------------------------------------------------------------
# CM points


@dataclass(frozen=True)
class CmPoint:
    """The quadratic point tau = (numB + sqrt(D))/den in the upper half-plane.

    Built from a form (a, b, c) this is (-b + sqrt(D))/(2a).  The stored
    data always satisfies den > 0, D < 0 and 2*den | numB^2 - D, which is
    exactly what is needed for Moebius images to stay in this shape.
    Equality is numeric: two points agree iff Re and Im^2 agree.
    """

    numB: int
    den: int
    D: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValidationError("CmPoint denominator must be positive")
        if self.D >= 0:
            raise ValidationError("CmPoint needs a negative discriminant")
        if (self.numB * self.numB - self.D) % (2 * self.den) != 0:
            raise ValidationError(
                f"CmPoint data ({self.numB}, {self.den}, {self.D}) is not form-compatible"
            )

    @property
    def re(self) -> Fraction:
        return Fraction(self.numB, self.den)

    @property
    def im_sq(self) -> Fraction:
        return Fraction(-self.D, self.den * self.den)

    @property
    def abs_sq(self) -> Fraction:
        return Fraction(self.numB * self.numB - self.D, self.den * self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CmPoint):
            return NotImplemented
        return self.re == other.re and self.im_sq == other.im_sq

    def __hash__(self) -> int:
        return hash((self.re, self.im_sq))

    def __str__(self) -> str:
        return f"({self.numB} + sqrt({self.D}))/{self.den}"


def cm_point(q: Form) -> CmPoint:
    """The root of q(x, 1) = 0 in the upper half-plane."""
    if not q.is_positive_definite():
        raise ValidationError(f"form has no CM point (not positive definite): {q}")
    return CmPoint(-q.b, 2 * q.a, q.disc)


def form_from_cm(t: CmPoint) -> Form:
    """The primitive form whose CM point is t (inverse of cm_point up to
    content): with t = (n + sqrt(D))/m, the form (m, -2n, (n^2 - D)/m),
    integral for every CmPoint, divided by its content."""
    a, b, c = t.den, -2 * t.numB, (t.numB * t.numB - t.D) // t.den
    g = math.gcd(a, b, c)
    return Form(a // g, b // g, c // g)


def moebius(g: GroupElement, t: CmPoint) -> CmPoint:
    """Exact image of t under tau -> (a*tau + b)/(c*tau + d)."""
    n, m, d = t.numB, t.den, t.D
    top = g.a * n + g.b * m
    bot = g.c * n + g.d * m
    num = top * bot - g.a * g.c * d
    den = bot * bot - g.c * g.c * d
    if num % m != 0 or den % m != 0:
        raise ValidationError(f"Moebius image of {t} left the integral shape")
    return CmPoint(num // m, den // m, d)


def moebius_rational(g: GroupElement, q: Fraction | None) -> Fraction | None:
    """Action on cusps: q is a rational number or None for infinity."""
    if q is None:
        if g.c == 0:
            return None
        return Fraction(g.a, g.c)
    top = g.a * q.numerator + g.b * q.denominator
    bot = g.c * q.numerator + g.d * q.denominator
    if bot == 0:
        return None
    return Fraction(top, bot)


# ---------------------------------------------------------------------------
# unit values modulo the discriminant


def unit_values(q: Form, n: int) -> frozenset[int]:
    """Unit residues mod |D| of q(x, y) over x coprime to n and y = 0 (mod n).

    By the Chinese remainder theorem the admissible pairs (x, y) modulo
    lcm(|D|, n) split into independent conditions at each prime, and q mod
    p^k depends only on (x, y) mod p^k.  So the set is the CRT product of
    its parts modulo each prime power p^k exactly dividing D.  At p:

    * p does not divide a: a*q = u^2 + m*y^2 with u = ax + (b/2)y and
      m = -D/4 (b/2 and m are read mod p^k at odd p, where 2 is a unit;
      b is even when p = 2).  For each allowed y, u runs over every
      residue mod p^k as x does, and over the units when p | n, where
      p | y as well.  At odd p, m = 0 (mod p^k): the part is a^-1 times
      the unit squares.  At p = 2, m*y^2 mod 2^k depends only on y mod 2,
      which takes both values when n is odd and is 0 when n is even: the
      part is the odd residues a^-1 * (u^2 + m*t) over every u mod 2^k
      and the allowed t in {0, 1}.
    * p divides a but not n: then p | b, so p does not divide c by
      primitivity, and the same identity with x and y swapped gives the
      part with c in place of a.
    * p divides a and n: p | y makes every value = 0 (mod p), so the part,
      and with it the whole set, is empty.

    Each part costs O(p^k), so the set costs O(|D|).  These sets are
    invariant under Gamma0(n)-equivalence.
    """
    require_qf(q)
    validate_level(n)
    d = q.disc
    values, modulus = {0}, 1
    for p in prime_factors(d):
        pk = p
        while d % (pk * p) == 0:
            pk *= p
        if q.a % p:
            lead = q.a
        elif n % p:
            lead = q.c
        else:
            return frozenset()
        inv = pow(lead, -1, pk)
        ts = (0, -d // 4) if p == 2 and n % 2 else (0,)
        local = {v for v in (inv * (u * u + t) % pk for u in range(pk) for t in ts) if v % p}
        values = {crt(r, modulus, s, pk)[0] for r in values for s in local}
        modulus *= pk
    return frozenset(values)


def units_mod(m: int) -> frozenset[int]:
    return frozenset(x for x in range(abs(m)) if math.gcd(x, m) == 1)


@lru_cache(maxsize=None)
def ker_chi(d: int) -> frozenset[int]:
    """Units m modulo |d| with Kronecker symbol (d/m) = +1."""
    validate_discriminant(d)
    return frozenset(m for m in units_mod(d) if kronecker(d, m) == 1)
