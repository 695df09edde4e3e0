import math
import random

import pytest

from gammaforms import fundomain
from gammaforms.core import Form, GroupElement, IDENTITY, S, T, act, is_prime, validate_level
from gammaforms.errors import ValidationError
from gammaforms.reduction import enumerate_reduced, is_reduced

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


def is_reduced_gamma0_p(q: Form, p: int) -> bool:
    """Reduced predicate for Gamma0(p), p >= 5 prime, in form coordinates.

    Exact integer transcription of the region membership conditions; the
    oracle for fundomain.contains, which the library uses at these levels.
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
    oracle for reduction._sweep, which runs over b and divisor pairs.
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
