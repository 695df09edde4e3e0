"""Independent composition oracle: ideals of the quadratic order of
discriminant D as rank-2 integer lattices in Hermite normal form.

The order is O = Z + Z*delta with delta = (D + sqrt(D))/2, so that
delta^2 = D*delta - (D^2 - D)/4.  An element x + y*delta is the vector
(x, y); a lattice is a 2x2 upper-triangular integer matrix

    ((h00, h01), (0, h11)),   h00, h11 > 0,   0 <= h01 < h11,

holding the basis rows, together with a positive rational scale for
fractional ideals.  The matrix is kept primitive (content 1, pushed into
the scale), which makes lattice equality a structural equality.
Multiplication expands the four pairwise products of basis vectors with
the minimal polynomial of delta and re-normalizes; no composition formula
is involved anywhere, which is what makes this an independent check of the
form-level group law.

The ideal of a form comes in closed form: its lattice Z*(a, 0) + Z*(k, 1)
has the HNF ((g, t), (0, a/g)) for g = gcd(a, k) and t the inverse of k/g
modulo a/g, the residue that the t of every Bezout pair s*a + t*k = g
leaves.  The HNF elsewhere takes its Bezout pairs from the same kind of
inverse: a lattice has one HNF, so any pair gives it.  No step runs
Euclid's loop in Python, and no Fraction arithmetic runs at the unit scale:
products multiply scales only when one is not the shared 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .core import Form, require_qf, validate_discriminant
from .errors import InvariantError, ValidationError

Matrix = tuple[tuple[int, int], tuple[int, int]]

_ONE = Fraction(1)


@dataclass(frozen=True)
class QuadOrder:
    """The order of discriminant D, basis (1, delta), delta = (D + sqrt(D))/2."""

    D: int
    delta_norm: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        validate_discriminant(self.D)
        # N(delta) = (D^2 - D)/4, read by every product
        object.__setattr__(self, "delta_norm", (self.D * self.D - self.D) // 4)

    def mul(self, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        """(x1 + y1*delta)(x2 + y2*delta) in coordinates."""
        x1, y1 = u
        x2, y2 = v
        return (
            x1 * x2 - y1 * y2 * self.delta_norm,
            x1 * y2 + y1 * x2 + y1 * y2 * self.D,
        )

    def conj(self, u: tuple[int, int]) -> tuple[int, int]:
        """Complex conjugation: delta -> D - delta."""
        x, y = u
        return (x + y * self.D, -y)


def hnf_rows(rows: list[tuple[int, int]]) -> Matrix:
    """Hermite normal form of the lattice spanned by the given rows.

    Requires full rank.  The first row generates the projection onto the
    1-coordinate, the second spans the pure-delta sublattice.
    """
    pivot: tuple[int, int] | None = None
    ys: list[int] = []
    for x, y in rows:
        if x == 0:
            if y:
                ys.append(y)
            continue
        if pivot is None:
            pivot = (x, y)
            continue
        px, py = pivot
        g = math.gcd(px, x)
        # a Bezout pair s*px + t*x = g; the HNF is unique, so any one will do
        s = pow(px // g, -1, x // g)
        t = (g - s * px) // x
        # rows (pivot, (x, y)) -> (s*pivot + t*(x,y), complement); det +1
        ys.append((px // g) * y - (x // g) * py)
        pivot = (g, s * py + t * y)
    h11 = math.gcd(*ys)
    if pivot is None or h11 == 0:
        raise ValidationError("lattice is not of full rank")
    h00, h01 = pivot
    if h00 < 0:
        h00, h01 = -h00, -h01
    return ((h00, h01 % h11), (0, h11))


@dataclass(frozen=True)
class OIdeal:
    """A fractional ideal (or plain lattice) scale * (Z row0 + Z row1)."""

    order: QuadOrder
    mat: Matrix
    scale: Fraction

    @classmethod
    def make(cls, order: QuadOrder, rows: list[tuple[int, int]], scale: Fraction = _ONE) -> "OIdeal":
        # a Fraction keeps its sign in the numerator
        if scale.numerator <= 0:
            raise ValidationError("scale must be positive")
        mat = hnf_rows(rows)
        content = math.gcd(math.gcd(mat[0][0], mat[0][1]), mat[1][1])
        if content > 1:
            mat = (
                (mat[0][0] // content, mat[0][1] // content),
                (0, mat[1][1] // content),
            )
            scale = scale * content
        return cls(order, mat, scale)

    @property
    def det(self) -> int:
        return self.mat[0][0] * self.mat[1][1]

    def norm(self) -> Fraction:
        """Module index in O, scaled: det(H) * scale^2."""
        return self.scale * self.scale * self.det

    def basis(self) -> list[tuple[int, int]]:
        return [self.mat[0], self.mat[1]]

    def contains_vec(self, v: tuple[int, int]) -> bool:
        """Membership of an integer vector in the unscaled lattice."""
        (h00, h01), (_, h11) = self.mat
        x, y = v
        if x % h00 != 0:
            return False
        return (y - (x // h00) * h01) % h11 == 0

    def is_delta_stable(self) -> bool:
        """Closure under multiplication by delta (the O-ideal test)."""
        delta = (0, 1)
        return all(
            self.contains_vec(self.order.mul(delta, row)) for row in self.basis()
        )

    def conjugate(self) -> "OIdeal":
        rows = [self.order.conj(row) for row in self.basis()]
        return OIdeal.make(self.order, rows, self.scale)

    def scaled(self, factor: Fraction | int) -> "OIdeal":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return OIdeal(self.order, self.mat, self.scale * factor)

    def __str__(self) -> str:
        return f"{self.scale} * <{self.mat[0]}, {self.mat[1]}> over disc {self.order.D}"


@lru_cache(maxsize=None)
def _order(d: int) -> QuadOrder:
    """The one QuadOrder of discriminant d that the ideals of forms share."""
    return QuadOrder(d)


def whole_order_ideal(d: int) -> OIdeal:
    return OIdeal(_order(d), ((1, 0), (0, 1)), _ONE)


def ideal_from_form(q: Form) -> OIdeal:
    """The integral ideal Z*a + Z*(-b + sqrt(D))/2 of norm a.

    In the (1, delta) basis the second generator is delta - (b + D)/2 =
    (k, 1).  With g = gcd(a, k) the lattice has the HNF ((g, t), (0, a/g))
    for t = (k/g)^(-1) mod a/g: every Bezout pair s*a + t*k = g has
    s*(a/g) + t*(k/g) = 1, so its t is that inverse mod a/g and the content
    is 1.  The check runs on these integers.
    """
    require_qf(q)
    a, b, c = q
    d = b * b - 4 * a * c
    k = -(b + d) // 2
    g = math.gcd(a, k)
    h11 = a // g
    t = pow(k // g, -1, h11)
    mat = ((g, t), (0, h11))
    order = _order(d)
    # N(k + delta) = ac leaves k only -(b + D)/2 or (b - D)/2; holding both
    # generators at determinant a makes the HNF exactly their lattice.  A
    # vector (x, y) lies in Z*(g, t) + Z*(0, h11) iff g | x and h11 divides
    # y - (x/g)*t.
    if (
        k * (k + d) + order.delta_norm != a * c
        or g * h11 != a
        or a % g or a // g * t % h11
        or k % g or (1 - k // g * t) % h11
    ):
        raise InvariantError(f"lattice {mat} of {q} is not Z*({a}, 0) + Z*({k}, 1)")
    return OIdeal(order, mat, _ONE)


def ideal_mul(i: OIdeal, j: OIdeal) -> OIdeal:
    """Product lattice: HNF of the four pairwise products of basis vectors."""
    order = i.order
    if order is not j.order and order != j.order:
        raise ValidationError("ideals live in different orders")
    mul = order.mul
    rows = [mul(u, v) for u in i.mat for v in j.mat]
    if i.scale is _ONE:
        scale = j.scale
    elif j.scale is _ONE:
        scale = i.scale
    else:
        scale = i.scale * j.scale
    return OIdeal.make(order, rows, scale)


def ideal_norm(i: OIdeal) -> Fraction:
    return i.norm()
