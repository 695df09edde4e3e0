"""Small exact arithmetic that the benchmark needs on its own side.

The input generator uses it to draw forms and to predict the cost of an
operation, and the output checks use it to test results.  None of it
calls into ``gammaforms``, so a check built on it does not reuse the code
path it is checking.  Forms are (a, b, c) tuples and matrices (a, b, c, d)
tuples with the right action (f . g)(x, y) = f(a*x + b*y, c*x + d*y).
"""

from __future__ import annotations

import math
from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def prime_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def psi(n: int) -> int:
    """Index of Gamma0(n) in SL2(Z): n * prod(1 + 1/p)."""
    out = n
    for p in prime_divisors(n):
        out = out // p * (p + 1)
    return out


def phi(n: int) -> int:
    out = n
    for p in prime_divisors(n):
        out = out // p * (p - 1)
    return out


def is_discriminant(d: int) -> bool:
    return d < 0 and d % 4 in (0, 1)


def kronecker_char(d: int, m: int) -> int:
    """(d/m) for m >= 1, by multiplicativity: Euler's criterion at odd
    primes and the value at 2 read off d mod 8."""
    out = 1
    for p in prime_divisors(m):
        e = 0
        k = m
        while k % p == 0:
            k //= p
            e += 1
        if p == 2:
            v = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        else:
            r = pow(d % p, (p - 1) // 2, p)
            v = 0 if r == 0 else (1 if r == 1 else -1)
        out *= v**e
    return out


def evaluate(f: tuple[int, int, int], x: int, y: int) -> int:
    a, b, c = f
    return a * x * x + b * x * y + c * y * y


def disc(f: tuple[int, int, int]) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def primitive(f: tuple[int, int, int]) -> bool:
    return math.gcd(math.gcd(f[0], f[1]), f[2]) == 1


def act(f: tuple[int, int, int], g: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """f . g, with the middle coefficient read off the value at (1, 1)."""
    ga, gb, gc, gd = g
    a2 = evaluate(f, ga, gc)
    c2 = evaluate(f, gb, gd)
    return (a2, evaluate(f, ga + gb, gc + gd) - a2 - c2, c2)


def mat_mul(g: tuple, h: tuple) -> tuple[int, int, int, int]:
    a, b, c, d = g
    e, f, k, m = h
    return (a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)


def mat_inv(g: tuple) -> tuple[int, int, int, int]:
    a, b, c, d = g
    return (d, -b, -c, a)


def det(g: tuple) -> int:
    return g[0] * g[3] - g[1] * g[2]


IDENTITY = (1, 0, 0, 1)
S = (0, -1, 1, 0)
T = (1, 1, 0, 1)
T_INV = (1, -1, 0, 1)


@lru_cache(maxsize=None)
def reduced_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """The SL2(Z)-reduced primitive forms of discriminant d: |b| <= a <= c,
    b >= 0 when |b| = a or a = c.  Their number is h(d)."""
    out = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1 + (a - 1 - d) % 2, a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if primitive((a, b, c)):
                out.append((a, b, c))
    return tuple(out)


def class_number(d: int) -> int:
    return len(reduced_forms(d))


def sl2_reduce(f: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple]:
    """(r, g) with r SL2(Z)-reduced and act(f, g) == r."""
    a, b, c = f
    g = IDENTITY
    while True:
        s = (a - b) // (2 * a)
        if s:
            g = mat_mul(g, (1, s, 0, 1))
            a, b, c = a, b + 2 * a * s, a * s * s + b * s + c
        if c < a or (c == a and b < 0):
            g = mat_mul(g, S)
            a, b, c = c, -b, a
            continue
        return (a, b, c), g


@lru_cache(maxsize=None)
def automorphs(r: tuple[int, int, int]) -> tuple[tuple[int, int, int, int], ...]:
    """Proper automorphs of a reduced form, found by search.  There are at
    most six, all with entries in [-1, 1]."""
    rng = range(-1, 2)
    return tuple(
        g
        for g in ((a, b, c, d) for a in rng for b in rng for c in rng for d in rng)
        if det(g) == 1 and act(r, g) == r
    )


def gamma0_equivalent(f1: tuple, f2: tuple, n: int) -> bool:
    """Is some g in Gamma0(n) with f1 . g == f2?  Every solution in SL2(Z)
    is g1 * u * g2^-1 with g1, g2 the reducing witnesses and u an automorph."""
    r1, g1 = sl2_reduce(f1)
    r2, g2 = sl2_reduce(f2)
    if r1 != r2:
        return False
    g2_inv = mat_inv(g2)
    return any(mat_mul(mat_mul(g1, u), g2_inv)[2] % n == 0 for u in automorphs(r1))


def odd_primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(3, limit) if sieve[p]]
