"""Output checks, run by run.py after the child has exited.

Each check takes an op spec, the op's generator metadata and the encoded
output, and returns None or the reason the output is wrong.  The checks
hold for every seed and do not rerun the timed code path: counts come
from ``arith``'s own level-1 enumeration, witnesses are verified by
applying them, and library predicates are used only where they are a
second transcription of what was timed (``fundomain.contains`` against the
sweep) or a different algorithm (``principal_genus_congruences``).
"""

from __future__ import annotations

import json
import math
import random

import arith
from gammaforms import fundomain, genus, reduction
from gammaforms.core import Form, cm_point

ASSOCIATIVITY_SAMPLES = 200


def _bad_form(f: tuple, d: int) -> str | None:
    if arith.disc(f) != d:
        return f"{f} has discriminant {arith.disc(f)}, not {d}"
    if f[0] <= 0 or not arith.primitive(f):
        return f"{f} is not primitive positive definite"
    return None


def _bad_witness(f: tuple, g: tuple, target: tuple, n: int) -> str | None:
    if arith.det(g) != 1 or g[2] % n:
        return f"{g} is not in Gamma0({n})"
    if arith.act(f, g) != target:
        return f"{f} . {g} != {target}"
    return None


def check_enum(spec, meta, out) -> str | None:
    _, d, n = spec
    forms = [tuple(f) for f in out]
    for f in forms:
        bad = _bad_form(f, d)
        if bad:
            return bad
        q = Form(*f)
        if not reduction.is_reduced(q, n):
            return f"{f} is not reduced at level {n}"
        if n >= 5 and not fundomain.contains(n, cm_point(q)):
            return f"{f} is reduced but its CM point is outside the Gamma0({n}) region"
    if len(set(forms)) != len(forms):
        return "duplicate forms"
    if d < -4 and len(forms) != arith.class_number(d) * arith.psi(n):
        return f"{len(forms)} forms, expected h(D) * psi(N) = {arith.class_number(d) * arith.psi(n)}"
    return None


def check_reduce(spec, meta, out) -> str | None:
    _, q, n = spec
    rep, g = tuple(out[0]), tuple(out[1])
    return _bad_form(rep, arith.disc(q)) or _bad_witness(tuple(q), g, rep, n)


def _torsion_counts_match(table: list, e: int, factors: list) -> bool:
    """Does the table's group have #{x : x^m = e} = prod gcd(m, d_i) for
    every m | h, as Z/d_1 x ... x Z/d_k does?  For finite abelian groups
    these counts fix the isomorphism type."""
    h = len(table)
    orders = []
    for x in range(h):
        y, k = x, 1
        while y != e:
            y, k = table[y][x], k + 1
            if k > h:
                return False
        orders.append(k)
    for m in (m for m in range(1, h + 1) if h % m == 0):
        want = math.prod(math.gcd(m, f) for f in factors)
        if sum(1 for o in orders if m % o == 0) != want:
            return False
    return True


def check_classgroup(spec, meta, out) -> str | None:
    _, d, n = spec
    forms = [tuple(f) for f in out["elements"]]
    table = out["table"]
    h = len(forms)
    for f in forms:
        bad = _bad_form(f, d)
        if bad:
            return bad
        if math.gcd(f[0], n) != 1:
            return f"{f} has leading coefficient sharing a factor with {n}"
    want = arith.class_number(d * n * n)
    if h != want:
        return f"group order {h}, expected h(D*N^2) = {want}"
    if len(table) != h or any(len(row) != h or not all(0 <= x < h for x in row) for row in table):
        return "Cayley table has the wrong shape"
    ids = [i for i in range(h) if table[i] == list(range(h))]
    if len(ids) != 1:
        return f"{len(ids)} identity rows"
    e = ids[0]
    if any(e not in row for row in table):
        return "an element has no inverse"
    if any(table[i][j] != table[j][i] for i in range(h) for j in range(i)):
        return "Cayley table is not commutative"
    rng = random.Random(f"{d},{n}")
    for _ in range(min(ASSOCIATIVITY_SAMPLES, h**3)):
        i, j, k = rng.randrange(h), rng.randrange(h), rng.randrange(h)
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return f"({i} {j}) {k} != {i} ({j} {k})"
    factors = out["factors"]
    if math.prod(factors) != h or any(b % a for a, b in zip(factors, factors[1:])):
        return f"{factors} are not invariant factors of a group of order {h}"
    if not _torsion_counts_match(table, e, factors):
        return f"Cayley table is not the abelian group with invariant factors {factors}"
    if not out["iso"] or out["right_order"] != h or out["right_factors"] != factors:
        return f"level-1 group of D*N^2 has order {out['right_order']}, factors {out['right_factors']}"
    if out["agree"] != h * h:
        return f"lattice oracle agreed on {out['agree']} of {h * h} pairs"
    return None


def check_genus(spec, meta, out, primes) -> str | None:
    _, d, n = spec
    modulus = -d
    ker = {m for m in range(1, modulus) if math.gcd(m, modulus) == 1 and arith.kronecker_char(d, m) == 1}
    if set(out["ker"]) != ker:
        return "ker(chi) differs from the Kronecker units"
    h_sub = set(out["h"])
    if h_sub != set(genus.principal_genus_congruences(d, n)):
        return "H differs from principal_genus_congruences"
    cosets = [set(c) for c in out["cosets"]]
    if sum(len(c) for c in cosets) != len(ker) or set().union(*cosets) != ker:
        return "the H-cosets do not partition ker(chi)"
    for c in cosets:
        if c != {min(c) * x % modulus for x in h_sub}:
            return f"coset starting at {min(c)} is not a translate of H"
    assigned = out["assignment"]
    if len(assigned) != arith.class_number(d * n * n):
        return f"{len(assigned)} admissible forms, expected h(D*N^2) = {arith.class_number(d * n * n)}"
    for a, b, c, i in assigned:
        if _bad_form((a, b, c), d) or math.gcd(a, n) != 1 or not 0 <= i < len(cosets):
            return f"bad genus assignment ({a}, {b}, {c}) -> {i}"
    reported = out["primes"]
    if [r[0] for r in reported] != [p for p in primes if d % p]:
        return "classified primes differ from the odd primes not dividing D"
    for p, kron, idx, witness, x, y in reported:
        want = arith.kronecker_char(d, p)
        if kron != want:
            return f"kronecker({d}, {p}) reported {kron}, Euler's criterion gives {want}"
        if (idx is not None) != (want == 1):
            return f"p = {p} represented={idx is not None} but (D/p) = {want}"
        if idx is None:
            continue
        if not 0 <= idx < len(cosets) or p % modulus not in cosets[idx]:
            return f"p = {p} placed in a coset that does not hold it"
        w = tuple(witness)
        if _bad_form(w, d) or arith.evaluate(w, x, y) != p or math.gcd(x, n) != 1 or y % n:
            return f"witness {w} at ({x}, {y}) does not N-represent {p}"
    return None


def _representations(f: tuple, m: int) -> set[tuple[int, int]]:
    """Every (x, y) with f(x, y) = m, from the box 4am >= |D| y^2 and
    4cm >= |D| x^2."""
    a, _, c = f
    dd = -arith.disc(f)
    ymax = math.isqrt(4 * a * m // dd) + 1
    xmax = math.isqrt(4 * c * m // dd) + 1
    return {
        (x, y)
        for y in range(-ymax, ymax + 1)
        for x in range(-xmax, xmax + 1)
        if arith.evaluate(f, x, y) == m
    }


def check_cli(spec, meta, out) -> str | None:
    code, text = out
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(text)
    except ValueError:
        return f"output is not JSON: {text[:80]!r}"
    kind, n = meta["kind"], meta["n"]
    if kind == "reduce":
        r = data["reduced"]
        rep = (r["a"], r["b"], r["c"])
        (a, b), (c, dd) = data["transform"]
        q = tuple(meta["form"])
        return _bad_form(rep, arith.disc(q)) or _bad_witness(q, (a, b, c, dd), rep, n)
    if kind == "equiv":
        f1, f2 = tuple(meta["f1"]), tuple(meta["f2"])
        if not data["equivalent"]:
            if meta["built"]:
                return "a pair built by a Gamma0(N) word was reported inequivalent"
            if arith.gamma0_equivalent(f1, f2, n):
                return "an equivalent pair was reported inequivalent"
            return None
        (a, b), (c, dd) = data["gamma"]
        return _bad_witness(f1, (a, b, c, dd), f2, n)
    if kind == "represent":
        f, m = tuple(meta["form"]), meta["value"]
        got = {(r["x"], r["y"]): (r["proper"], r["admissible"]) for r in data["representations"]}
        if set(got) != _representations(f, m):
            return f"representations of {m} by {f} differ from the brute-force set"
        for (x, y), (proper, admissible) in got.items():
            if proper != (math.gcd(x, y) == 1) or admissible != (math.gcd(x, n) == 1 and y % n == 0):
                return f"wrong flags on ({x}, {y})"
        return None
    p, d = meta["p"], meta["d"]
    want = arith.kronecker_char(d, p)
    if (data["coset"] is not None) != (want == 1):
        return f"p = {p} represented={data['coset'] is not None} but (D/p) = {want}"
    if data["coset"] is None:
        return None if data["kronecker"] == want else f"kronecker reported {data['kronecker']}"
    w = tuple(int(v) for v in data["witness"].split(","))
    x, y = data["x"], data["y"]
    if _bad_form(w, d) or arith.evaluate(w, x, y) != p or math.gcd(x, n) != 1 or y % n:
        return f"witness {w} at ({x}, {y}) does not N-represent {p}"
    if p % -d not in data["coset"]:
        return f"coset of {p} does not hold {p} mod {-d}"
    return None


CHECKS = {
    "enum": check_enum,
    "reduce": check_reduce,
    "classgroup": check_classgroup,
    "cli": check_cli,
}


def check_op(payload: dict, spec: list, meta, out) -> str | None:
    if spec[0] == "genus":
        return check_genus(spec, meta, out, payload["primes"])
    return CHECKS[spec[0]](spec, meta, out)
