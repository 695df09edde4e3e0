"""Command line front end.

Exit codes: 0 success, 1 table mismatch or internal error, 2 validation error,
4 safety-bound diagnostic.  Every command, ``enumerate`` included, works at
every level.

``run(argv)`` may be called repeatedly in one process: it builds its parser
on first use and reuses it, since parsing leaves no state on the parser.
A call that names a command is parsed by that command's own parser, the one
the full parser hands it to; any other call, or one that leaves an argument
over, goes through the full parser, with its messages and exit codes.
``build_parser()`` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import classgroup as cg
from . import fundomain, genus, reduction
from .core import Form, require_qf
from .errors import (
    GammaFormsError,
    SearchBoundExceeded,
    ValidationError,
)


def _form_arg(s: str) -> Form:
    return require_qf(Form.from_string(s))


def _emit(args, text_lines, json_obj, tsv_rows=None):
    if args.format == "json":
        print(json.dumps(json_obj))
    elif args.format == "tsv":
        rows = tsv_rows if tsv_rows is not None else text_lines
        for row in rows:
            print("\t".join(str(x) for x in row) if isinstance(row, (list, tuple)) else row)
    else:
        for line in text_lines:
            print(line)


def _cmd_reduce(args) -> int:
    q = _form_arg(args.form)
    if args.disc is not None and q.disc != args.disc:
        raise ValidationError(f"form {q} has disc {q.disc}, not {args.disc}")
    rep, gamma = reduction.reduce_gamma0(q, args.level)
    _emit(
        args,
        [f"reduced: {rep}", f"transform: {gamma}"],
        {
            "reduced": rep.to_json_dict(),
            "transform": [[gamma.a, gamma.b], [gamma.c, gamma.d]],
        },
    )
    return 0


def _cmd_enumerate(args) -> int:
    forms = reduction.enumerate_reduced(args.disc, args.level)
    _emit(
        args,
        [str(f) for f in forms],
        {
            "disc": args.disc,
            "level": args.level,
            "forms": [f.to_json_dict() for f in forms],
        },
        tsv_rows=forms,
    )
    return 0


def _cmd_equiv(args) -> int:
    q1 = _form_arg(args.form1)
    q2 = _form_arg(args.form2)
    gamma = reduction.equivalent_gamma0(q1, q2, args.level)
    if gamma is None:
        _emit(args, ["equivalent: false"], {"equivalent": False, "gamma": None})
    else:
        _emit(
            args,
            ["equivalent: true", f"gamma: {gamma}"],
            {"equivalent": True, "gamma": [[gamma.a, gamma.b], [gamma.c, gamma.d]]},
        )
    return 0


def _cmd_classgroup(args) -> int:
    group = cg.class_group(args.disc, args.level)
    lines = [
        f"order: {group.order}",
        f"invariant_factors: {list(group.invariant_factors)}",
        "elements:",
    ]
    lines += [f"  {i}: {cl.rep}" for i, cl in enumerate(group.elements)]
    obj = {
        "disc": args.disc,
        "level": args.level,
        "order": group.order,
        "invariant_factors": list(group.invariant_factors),
        "elements": [cl.rep.to_json_dict() for cl in group.elements],
    }
    if args.table:
        lines.append("table:")
        lines += ["  " + " ".join(str(x) for x in row) for row in group.cayley]
        obj["table"] = [list(row) for row in group.cayley]
    _emit(args, lines, obj)
    return 0


def _cmd_verify_iso(args) -> int:
    ok, report = cg.verify_iso_with_scaled(args.disc, args.level)
    if ok:
        line = f"isomorphic: true; invariant_factors: {report['left_invariant_factors']}"
    else:
        line = (
            f"isomorphic: false; left: {report['left_invariant_factors']}; "
            f"right: {report['right_invariant_factors']}"
        )
    lines = [line]
    if args.oracle:
        pairs = cg.oracle_pairs(args.disc, args.level)
        report["oracle_pairs"] = pairs
        lines.append(f"oracle: ok ({pairs} pairs)")
    _emit(args, lines, report)
    return 0 if ok else 1


def _cmd_genus(args) -> int:
    table = genus.genus_table(args.disc, args.level)
    lines = [
        f"ker_chi: {sorted(table.ker_chi)}",
        f"H: {sorted(table.h_subgroup)}",
        "cosets:",
    ]
    lines += [f"  {i}: {list(c)}" for i, c in enumerate(table.cosets)]
    lines.append("assignment:")
    lines += [f"  {f} -> {i}" for f, i in table.assignment]
    _emit(
        args,
        lines,
        {
            "disc": args.disc,
            "level": args.level,
            "ker_chi": sorted(table.ker_chi),
            "H": sorted(table.h_subgroup),
            "cosets": [list(c) for c in table.cosets],
            "assignment": [
                {"form": f.to_json_dict(), "coset": i} for f, i in table.assignment
            ],
        },
    )
    return 0


def _cmd_classify(args) -> int:
    result = genus.classify_prime(args.prime, args.disc, args.level)
    if not result.represented:
        _emit(
            args,
            [f"not represented (kronecker = {result.kronecker})"],
            {"coset": None, "witness": None, "kronecker": result.kronecker},
        )
    else:
        r = result.representation
        _emit(
            args,
            [
                f"coset: {list(result.coset)}",
                f"witness: {result.witness} at (x, y) = ({r.x}, {r.y})",
            ],
            {
                "coset": list(result.coset),
                "witness": str(result.witness),
                "x": r.x,
                "y": r.y,
            },
        )
    return 0


def _cmd_represent(args) -> int:
    q = _form_arg(args.form)
    reps = genus.find_representations(q, args.value, args.level)
    lines = [
        f"{r.x},{r.y} proper={str(r.proper).lower()} admissible={str(r.admissible).lower()}"
        for r in reps
    ]
    _emit(
        args,
        lines if lines else ["no representations"],
        {
            "form": q.to_json_dict(),
            "value": args.value,
            "level": args.level,
            "representations": [
                {"x": r.x, "y": r.y, "proper": r.proper, "admissible": r.admissible}
                for r in reps
            ],
        },
        tsv_rows=[(r.x, r.y, int(r.proper), int(r.admissible)) for r in reps],
    )
    return 0


def _cmd_fundomain(args) -> int:
    inventory = fundomain.boundary_json_dict(args.p)
    if args.svg:
        try:
            with open(args.svg, "w") as handle:
                handle.write(fundomain.boundary_svg(args.p))
        except OSError as exc:
            raise ValidationError(f"cannot write SVG to {args.svg!r}: {exc.strerror}") from exc
    print(json.dumps(inventory))
    return 0


# ---------------------------------------------------------------------------
# reference tables


def _rf_set(d: int) -> set[Form]:
    return set(reduction.enumerate_reduced(d, 2))


def _genus_values(form: Form) -> set[int]:
    table = genus.genus_table(-28, 2)
    return set(table.cosets[table.coset_of_form(form)])


# name -> () -> (computed, expected); a table matches when the two are equal
_TABLES = {
    "rf-disc3-level2": lambda: (_rf_set(-3), {(1, 1, 1)}),
    "rf-disc4-level2": lambda: (_rf_set(-4), {(1, 0, 1), (2, 2, 1)}),
    "rf-disc7-level2": lambda: (_rf_set(-7), {(1, 1, 2), (2, 1, 1), (2, -1, 1)}),
    "rf-disc8-level2": lambda: (_rf_set(-8), {(1, 0, 2), (2, 0, 1), (3, 2, 1)}),
    "kerchi-disc28": lambda: (set(genus.genus_table(-28, 2).ker_chi), {1, 9, 11, 15, 23, 25}),
    "principal-2genus-disc28": lambda: (_genus_values(Form(1, 0, 7)), {1, 9, 25}),
    "second-2genus-disc28": lambda: (_genus_values(Form(7, 0, 1)), {11, 15, 23}),
    "product-identity-disc28": lambda: (
        {"identity": genus.brahmagupta_check(Form(7, 0, 1), 2)},
        {"identity": True},
    ),
}


def _cmd_paper_tables(args) -> int:
    names = [args.table] if args.table else sorted(_TABLES)
    for name in names:
        if name not in _TABLES:
            raise ValidationError(f"unknown table {name!r}; known: {sorted(_TABLES)}")
    passed = 0
    for name in names:
        got, expected = _TABLES[name]()
        if got == expected:
            passed += 1
            print(f"table {name}: ok")
        else:
            print(f"table {name}: MISMATCH")
            print(f"  expected: {sorted(expected) if isinstance(expected, set) else expected}")
            print(f"  got:      {sorted(got) if isinstance(got, set) else got}")
    print(f"{passed}/{len(names)} tables match")
    return 0 if passed == len(names) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaforms",
        description="Exact arithmetic for binary quadratic forms at level N",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # command name -> its own parser, for run

    def add(name, func, **kwargs):
        default_format = kwargs.pop("default_format", "text")
        p = parser.commands[name] = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json", "tsv"), default=default_format)
        p.add_argument("--json", dest="format", action="store_const", const="json")
        return p

    p = add("reduce", _cmd_reduce, help="canonical class representative of a form")
    p.add_argument("--form", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--disc", type=int, help="optional cross-check of the discriminant")

    p = add("enumerate", _cmd_enumerate, help="all reduced forms of a discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("equiv", _cmd_equiv, help="decide Gamma0(N)-equivalence of two forms")
    p.add_argument("--form1", required=True)
    p.add_argument("--form2", required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("classgroup", _cmd_classgroup, help="the form class group at level N")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--table", action="store_true", help="include the Cayley table")

    p = add("verify-iso", _cmd_verify_iso, help="compare with the scaled-discriminant group")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the lattice oracle")

    p = add("genus", _cmd_genus, help="ker(chi), H, cosets, and genus assignment")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("classify", _cmd_classify, help="genus coset of a prime", default_format="json")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("represent", _cmd_represent, help="all representations of a value")
    p.add_argument("--form", required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--level", type=int, required=True)

    p = add("fundomain", _cmd_fundomain, help="fundamental region inventory for Gamma0(p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--svg", help="write a static SVG rendering to this path")

    p = add("paper-tables", _cmd_paper_tables, help="recompute the bundled reference tables")
    p.add_argument("--table", help="run a single table by name")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    # the full parse would hand argv[1:] to this same parser; a call naming
    # no command, or leaving an argument over, still takes the full parse,
    # so argparse's messages and exit codes stay as they were
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
    if command is None or rest:
        args = parser.parse_args(argv)
    return _call(args)


def _call(args) -> int:
    """The command's handler, with library errors mapped to exit codes."""
    try:
        return args.func(args)
    except SearchBoundExceeded as exc:
        print(f"error: search-bound: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except GammaFormsError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The console entry point.  A reader that closes stdout early, as
    `| head -1` does, ends the command with exit 1 and no traceback (the
    Python docs' note on SIGPIPE)."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
