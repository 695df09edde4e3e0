"""Explicit fundamental region for Gamma0(p), p >= 5 prime.

The region lives between the vertical lines Re = -1/2, Re = +1/2 and above
the p - 1 circles of radius 1/p centered at k/p for k in the symmetric
residue system S_p = {+-1, ..., +-(p-1)/2}.  It holds the highest point
of each orbit, tau of the least a, and one rule closes its boundary: a
boundary point and its images under the side pairings, all at one height,
are one point of the quotient, and the region keeps the leftmost.  In
form coefficients that is the least a and then the greatest b, the rule
``reduction.is_reduced`` tests at every level by the minimum of the scaled
form.  The boundary's elliptic points are the inventory ``fundomain``
prints:

* order-2 elliptic points sit at the arc tops k/p + i/p for k in E2 with
  k^2 = -1 (mod p), where the arc is paired with itself,
* order-3 elliptic points sit at corner points (2k-1)/(2p) + i*sqrt(3)/(2p)
  for k in E3 with k^2 - k + 1 = 0 (mod p), the fixed points of the
  corner map k -> <1 - k^(-1)> of ``orbit3``.

``contains`` hands ``reduction.is_reduced`` the form whose CM point is the
quadratic point, so every comparison is exact integer arithmetic.  This
module holds the region's data: residues, side pairings, elliptic points
and the boundary inventory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CmPoint, GroupElement, checked_cache, form_from_cm, is_prime, search_bound, validate_level,
)
from .errors import SearchBoundExceeded, ValidationError
from .reduction import is_reduced


def _require_p(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise ValidationError(f"level must be a prime >= 5: {p}")


def sym_residues(p: int) -> tuple[int, ...]:
    """S_p = {+-1, ..., +-(p-1)/2}, sorted."""
    _require_p(p)
    h = (p - 1) // 2
    return tuple(range(-h, 0)) + tuple(range(1, h + 1))


def sym_rep(p: int, x: int) -> int:
    """The representative <x> of x in S_p (x must be coprime to p)."""
    validate_level(p)
    if x % p == 0:
        raise ValidationError(f"{x} is divisible by {p}")
    r = x % p
    return r - p if r > (p - 1) // 2 else r


def sym_inverse(p: int, x: int) -> int:
    """The unique y in S_p with x*y = 1 (mod p)."""
    validate_level(p)
    if x % p == 0 or math.gcd(x, p) > 1:
        raise ValidationError(f"{x} has no inverse modulo {p}")
    return sym_rep(p, pow(x, -1, p))


def gamma_k(p: int, k: int) -> GroupElement:
    """The matrix (k, (k*k^(-1) - 1)/p; p, k^(-1)) in Gamma0(p).

    It carries the circle centered at -k^(-1)/p onto the one centered at
    k/p, endpoint to endpoint.
    """
    _require_p(p)
    kinv = sym_inverse(p, k)
    return GroupElement(k, (k * kinv - 1) // p, p, kinv)


@dataclass(frozen=True)
class EllipticData:
    """E2 and E3 of Gamma0(p): the k in S_p of its arc tops and corners
    that are elliptic points of order 2 and 3."""

    p: int
    e2: tuple[int, ...]
    e3: tuple[int, ...]


def check_arc_bound(p: int) -> None:
    """Validate p and refuse a region of more than search_bound(10**5)
    boundary arcs."""
    _require_p(p)
    limit = search_bound(10**5)
    if p - 1 > limit:
        raise SearchBoundExceeded(f"Gamma0({p}) has {p - 1} boundary arcs, limit {limit}")


@checked_cache(check_arc_bound)
def elliptic_data(p: int) -> EllipticData:
    """E2 and E3 of Gamma0(p).  check_arc_bound runs before every lookup,
    hit or miss, and before the O(p) work."""
    s = sym_residues(p)
    e2 = tuple(k for k in s if (k * k + 1) % p == 0)
    e3 = tuple(k for k in s if (k * k - k + 1) % p == 0)
    return EllipticData(p, e2, e3)


def orbit3(p: int, k: int) -> tuple[int, int, int]:
    """(k, f(k), f(f(k))) for f(k) = <1 - k^(-1)>; f has order 3.

    The orbit is constant exactly when k is in E3, otherwise its three
    entries are pairwise distinct.
    """
    _require_p(p)
    if k == 1:
        raise ValidationError("k = 1 has no corner orbit")
    if k != sym_rep(p, k):
        raise ValidationError(f"{k} is not in S_{p}")
    f1 = sym_rep(p, 1 - sym_inverse(p, k))
    f2 = sym_rep(p, 1 - sym_inverse(p, f1))
    return (k, f1, f2)


def corner_cm_point(p: int, k: int) -> CmPoint:
    """The corner (2k-1)/(2p) + i*sqrt(3)/(2p) as an exact quadratic point."""
    _require_p(p)
    return CmPoint((2 * k - 1) * p, 2 * p * p, -3 * p * p)


def contains(p: int, t: CmPoint) -> bool:
    """Exact membership of the quadratic point t in the fundamental region.

    t lies in the region exactly when reduction.is_reduced keeps the form
    of t, core.form_from_cm(t), at level p.  It walks no arc, so it
    validates p and reads no arc bound.
    """
    _require_p(p)
    return is_reduced(form_from_cm(t), p)


# ---------------------------------------------------------------------------
# boundary description


@dataclass(frozen=True)
class BoundaryArc:
    k: int
    center: Fraction
    radius: Fraction


@dataclass(frozen=True)
class Boundary:
    p: int
    arcs: tuple[BoundaryArc, ...]
    lines: tuple[Fraction, ...]


def r_gamma0p_boundary(p: int) -> Boundary:
    """Arcs (center k/p, radius 1/p for k in S_p) and lines Re = +-1/2."""
    check_arc_bound(p)
    arcs = tuple(BoundaryArc(k, Fraction(k, p), Fraction(1, p)) for k in sym_residues(p))
    return Boundary(p, arcs, (Fraction(-1, 2), Fraction(1, 2)))


def boundary_json_dict(p: int) -> dict:
    """Exact JSON-ready inventory; fractions are rendered as strings."""
    b = r_gamma0p_boundary(p)
    data = elliptic_data(p)
    return {
        "p": p,
        "arcs": [
            {"k": a.k, "center": str(a.center), "radius": str(a.radius)} for a in b.arcs
        ],
        "lines": [str(x) for x in b.lines],
        "elliptic_order2": list(data.e2),
        "elliptic_order3": list(data.e3),
    }


def boundary_svg(p: int, width: int = 800) -> str:
    """Static SVG sketch of the region (display artifact, floats allowed)."""
    b = r_gamma0p_boundary(p)
    # world window: x in [-0.62, 0.62], y in [0, 0.62]
    x0, x1, ytop = -0.62, 0.62, 0.62
    scale = width / (x1 - x0)
    height = int(ytop * scale)

    def px(x: float) -> float:
        return (x - x0) * scale

    def py(y: float) -> float:
        return height - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for line_x in (-0.5, 0.5):
        parts.append(
            f'<line x1="{px(line_x):.2f}" y1="{py(0):.2f}" x2="{px(line_x):.2f}" '
            f'y2="{py(ytop):.2f}" stroke="black" stroke-width="1.5"/>'
        )
    r = 1.0 / p
    for arc in b.arcs:
        cx = float(arc.center)
        parts.append(
            f'<path d="M {px(cx - r):.2f} {py(0):.2f} A {r * scale:.2f} {r * scale:.2f} '
            f'0 0 1 {px(cx + r):.2f} {py(0):.2f}" fill="none" stroke="black" stroke-width="1"/>'
        )
    parts.append(
        f'<line x1="{px(x0):.2f}" y1="{py(0):.2f}" x2="{px(x1):.2f}" y2="{py(0):.2f}" '
        'stroke="gray" stroke-width="0.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
