"""The byte-identity grid: a fixed list of CLI calls, run in one process
through ``cli.run`` and hashed per (command, format, level).

Each digest is the sha256 of the calls of one group, in grid order, each
call written as the JSON list [argv, stdout, stderr, exit code] and a
newline.  ``tests/test_digests.py`` compares the digests with
``tests/digests.json``; a change that moves an output shows which groups
moved.  To rewrite the file after an intended change, run from the
repository root:

    PYTHONPATH=src python tests/digest_grid.py

It prints to stderr each group whose digest changed, was added or was
removed against the file it replaces; a change that moves an output
lists these groups in CHANGES.md.

The grid: ``enumerate``, ``genus`` and ``classgroup --table`` in JSON and
``classify`` at the primes 3..41, for every discriminant in -3..-239 and
the levels in LEVELS; ``verify-iso`` and ``verify-iso --oracle``, in text
and JSON, for every discriminant in -3..-59 at those levels, the oracle
being a group of its own; ``reduce``, ``equiv`` and ``represent`` on seeded
random forms and Gamma0(N) translates; ``fundomain`` at a few primes;
``paper-tables``; ``enumerate`` in text at level 6; and one call per
error exit code.  The inputs come from a seeded generator and level-1
reduced forms only, so they do not move when the output of a level N > 1
does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

from gammaforms import cli, genus
from gammaforms.core import GroupElement, act
from gammaforms.reduction import enumerate_reduced

DIGESTS = Path(__file__).resolve().parent / "digests.json"

DISCS = [d for d in range(-3, -240, -1) if d % 4 in (0, 1)]
# the lattice oracle checks every pair of classes, h^2 of them; this range
# keeps the verify-iso calls to a few seconds of the grid
VERIFY_DISCS = [d for d in DISCS if d > -60]
LEVELS = (1, 2, 3, 4, 5, 6, 7, 10, 12)
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SEED = 20261020


def _random_translate(rng: random.Random, d: int, n: int) -> tuple:
    """A level-1 reduced form of disc d moved by a random SL2(Z) word, and
    that form moved again by a random Gamma0(n) word."""
    steps = [GroupElement(1, 1, 0, 1), GroupElement(1, -1, 0, 1)]
    sl2 = steps + [GroupElement(0, -1, 1, 0)]
    gamma0 = steps + [GroupElement(1, 0, n, 1), GroupElement(1, 0, -n, 1)]
    q = rng.choice(enumerate_reduced(d, 1))
    for _ in range(rng.randrange(1, 7)):
        q = act(q, rng.choice(sl2))
    moved = q
    for _ in range(rng.randrange(1, 7)):
        moved = act(moved, rng.choice(gamma0))
    return q, moved


def _form(q) -> str:
    return ",".join(map(str, q))


def grid() -> list[tuple[list[str], str | None]]:
    """(argv, the name of a fault to inject or None) for every call."""
    rng = random.Random(SEED)
    calls = []
    for n in LEVELS:
        level = ["--level", str(n)]
        for d in DISCS:
            disc = ["--disc", str(d)]
            calls.append((["enumerate", *disc, *level, "--json"], None))
            calls.append((["genus", *disc, *level, "--json"], None))
            calls.append((["classgroup", *disc, *level, "--table", "--json"], None))
            calls += [(["classify", "--prime", str(p), *disc, *level], None) for p in PRIMES]
            if d in VERIFY_DISCS:
                calls += [
                    (["verify-iso", *disc, *level, *oracle, *fmt], None)
                    for oracle in ([], ["--oracle"])
                    for fmt in ([], ["--json"])
                ]
            q, moved = _random_translate(rng, d, n)
            for fmt in ("text", "json"):
                calls.append((["reduce", "--form", _form(moved), *level, "--format", fmt], None))
            pair = ["--form1", _form(q), "--form2", _form(moved)]
            calls.append((["equiv", *pair, *level, "--json"], None))
            value = str(rng.randrange(1, 60))
            calls.append((["represent", "--form", _form(moved), "--value", value, *level], None))
    calls += [(["fundomain", "--p", str(p)], None) for p in (5, 7, 11, 13)]
    calls += [(["paper-tables"], None), (["paper-tables", "--table", "rf-disc7-level2"], None)]
    calls.append((["enumerate", "--disc", "-4", "--level", "6"], None))
    # one call per error exit code: 1 (an internal error, from a wrong square
    # root mod p), 2 (an invalid discriminant) and 4 (a class table at a
    # level whose cosets pass the search bound); reduce, which builds no
    # table, answers at that level
    calls += [
        (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], "wrong-root"),
        (["enumerate", "--disc", "-5", "--level", "2"], None),
        (["enumerate", "--disc", "-23", "--level", "1000000007"], None),
        (["reduce", "--form", "1,1,6", "--level", "1000000007"], None),
    ]
    return calls


def group_key(argv: list[str], fault: str | None) -> str:
    """'command format level': the command (with --oracle when given), the
    format named in argv or the command's default, and the level (or prime
    of fundomain), '-' when there is none; an injected fault is named after
    them."""
    command = argv[0] + (" --oracle" if "--oracle" in argv else "")
    fmt = "json" if command in ("classify", "fundomain") else "text"
    level = "-"
    for i, arg in enumerate(argv):
        if arg == "--json":
            fmt = "json"
        elif arg == "--format":
            fmt = argv[i + 1]
        elif arg in ("--level", "--p"):
            level = argv[i + 1]
    return " ".join([command, fmt, level] + ([fault] if fault else []))


def _run(argv: list[str], fault: str | None) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if fault == "wrong-root":
            stack.enter_context(mock.patch.object(genus, "sqrt_mod_prime", lambda a, p: 1))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def digests() -> dict[str, str]:
    """Group key -> sha256 of its calls, with GAMMA_FORMS_MAX_SEARCH unset."""
    saved = os.environ.pop("GAMMA_FORMS_MAX_SEARCH", None)
    try:
        hashes: dict = {}
        for argv, fault in grid():
            record = json.dumps([argv, *_run(argv, fault)]) + "\n"
            key = group_key(argv, fault)
            hashes.setdefault(key, hashlib.sha256()).update(record.encode())
    finally:
        if saved is not None:
            os.environ["GAMMA_FORMS_MAX_SEARCH"] = saved
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """'changed KEY', 'added KEY' or 'removed KEY' for each group whose
    digest differs between old and new, sorted by key."""
    return [
        f"{'added' if key not in old else 'removed' if key not in new else 'changed'} {key}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = digests()
    for line in moved(old, new):
        print(line, file=sys.stderr)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
