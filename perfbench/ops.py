"""The timed operations, run in the child, and the encoders that turn their
results into JSON for the checks.

Library functions are looked up through their modules at call time, so
that the traced run sees the wrappers installed on those modules.
"""

from __future__ import annotations

import contextlib
import io

from gammaforms import classgroup, cli, genus, ideals, reduction
from gammaforms.core import Form


def _triple(f) -> list[int]:
    return [f.a, f.b, f.c]


def enum(d: int, n: int):
    return reduction.enumerate_reduced(d, n)


def encode_enum(forms) -> list:
    return [_triple(f) for f in forms]


def reduce(q: list, n: int):
    """What `gammaforms reduce` computes: the canonical representative and a
    Gamma0(n) matrix carrying the input to it."""
    form = Form(*q)
    rep = reduction.canonical_rep(form, n)
    return rep, reduction.equivalent_gamma0(form, rep, n)


def encode_reduce(out) -> list:
    rep, g = out
    return [_triple(rep), list(g.as_tuple())]


def class_group_oracle(d: int, n: int):
    """The class group, its comparison with the level-1 group of D*N^2,
    and the lattice check of every ordered pair of classes, as
    `gammaforms verify-iso --oracle` runs them."""
    group = classgroup.class_group(d, n)
    _, report = classgroup.verify_iso_with_scaled(d, n)
    agree = 0
    for left in group.elements:
        q1 = left.rep
        for right in group.elements:
            q2 = classgroup.prepare_coprime(right.rep, q1.a * n, n)
            composed = classgroup.dirichlet_compose(q1, q2, n)
            product = ideals.ideal_mul(ideals.ideal_from_form(q1), ideals.ideal_from_form(q2))
            agree += ideals.ideal_from_form(composed) == product
    return group, report, agree


def encode_class_group_oracle(out) -> dict:
    group, report, agree = out
    return {
        "elements": [_triple(cl.rep) for cl in group.elements],
        "table": [list(row) for row in group.cayley],
        "factors": list(group.invariant_factors),
        "iso": report["isomorphic"],
        "right_order": report["right_order"],
        "right_factors": report["right_invariant_factors"],
        "agree": agree,
    }


def genus_primes(d: int, n: int, primes: list[int]):
    table = genus.genus_table(d, n)
    return table, [genus.classify_prime(p, d, n) for p in primes if d % p]


def encode_genus_primes(out) -> dict:
    table, results = out
    index = {tuple(sorted(c)): i for i, c in enumerate(table.cosets)}
    return {
        "ker": sorted(table.ker_chi),
        "h": sorted(table.h_subgroup),
        "cosets": [sorted(c) for c in table.cosets],
        "assignment": [[*_triple(f), i] for f, i in table.assignment],
        "primes": [
            [
                r.prime,
                r.kronecker,
                None if r.coset is None else index.get(tuple(r.coset), -1),
                None if r.witness is None else _triple(r.witness),
                None if r.representation is None else r.representation.x,
                None if r.representation is None else r.representation.y,
            ]
            for r in results
        ],
    }


def run_cli(argv: list[str]):
    """`gammaforms <argv>` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


# op kind -> (run, encode); "genus" also gets the payload's prime list.
OPS = {
    "enum": (enum, encode_enum),
    "reduce": (reduce, encode_reduce),
    "classgroup": (class_group_oracle, encode_class_group_oracle),
    "genus": (genus_primes, encode_genus_primes),
    "cli": (run_cli, list),
}
