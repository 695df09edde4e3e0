"""Seeded inputs for the benchmark workloads.

Everything here runs in run.py; the child process receives only the
payload built here.  The three cold workloads are cut into decks of eight
ops, shuffled, and the op stream is a run of fresh decks.  A deck draws
from four cost bands, cheap to dear, with multiplicities 3, 2, 1, 2; the
bands come from a cost model of each op computed from its arguments
(class numbers come from ``arith``).  So every seed gets the same mix of
cheap and dear ops, the median op falls between the two draws of the
second band and the 90th percentile inside the top band, and throughput
and percentiles depend on the code rather than on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import arith

# Ops generated per second of run time; the child wraps around the list if a
# faster program gets through all of them.
OPS_PER_SECOND = {"reduce_cold": 40, "classgroup_oracle": 40, "genus_primes": 30, "cli_warm": 1000}

DECK = (3, 2, 1, 2)  # draws per deck from each cost band, cheapest band first

# The cost models and timings below are from gammaforms 0.1.0, the version
# this benchmark was written against, on a shared 2-core VM.  They only sort
# inputs into bands, so a later speed-up does not change the inputs.

# reduce_cold: enumerate_reduced(D, N) in the three lower bands, the reduce
# path at a composite level in the top band, one op in four.
ENUM_DISCS = (100, 3000)
ENUM_LEVELS = (1, 2, 3, 5, 7, 11)
ENUM_MS_BANDS = ((3, 8), (28, 32), (90, 130))
# Composite levels in 50..300 whose coset_reps times lie within a factor
# 1.3 of each other (0.31 to 0.40 s each).
REDUCE_LEVELS = (122, 124, 128, 130, 138, 140, 144, 150)

# classgroup_oracle: cost follows h(D*N^2)^2 * psi(N), for O(h^2) class
# compositions that each search psi(N) coset translates.  The second band
# holds the single value 864 = 12^2 * 6, and the top band 5832 and 6144 at
# the levels CG_TOP_LEVELS, where the cost per unit of the model varies
# least (0.28 to 0.31 s per op), so that the median and the
# 90th percentile op are each of one size.
CG_DISCS = (3, 160)
CG_LEVELS = (4, 6, 8, 9, 10, 12, 15, 5, 7)
CG_COST_BANDS = ((160, 400), (850, 900), (2000, 3000), (5800, 6200))
CG_TOP_LEVELS = (10, 12, 15)

# genus_primes: predicted milliseconds, from the residue grid of
# representation_values and the enumeration behind the admissible forms.
GENUS_DISCS = (50, 300)
GENUS_LEVELS = (1, 2, 3, 5)
GENUS_MS_BANDS = ((10, 25), (40, 60), (100, 150), (220, 280))
PRIME_LIMIT = 3000

# cli_warm: a pool of (D, N) pairs served from warm caches.  The pairs at
# supported levels are drawn by the cost of building their table, six from
# each band, and the genus pairs from one band of genus_ms, so that the
# warm-up in set-up costs about the same for every seed.
CLI_DISCS = (20, 2000)
CLI_SUPPORTED_LEVELS = (1, 2, 3, 5, 7, 11)
CLI_WARM_MS_BANDS = ((3, 8), (28, 32), (90, 130))
CLI_PAIRS_PER_BAND = 6
CLI_COMPOSITE_LEVELS = (6, 10, 12)
CLI_COMPOSITE_PER_LEVEL = 2
CLI_GENUS_DISCS = (20, 100)
CLI_GENUS_LEVELS = (1, 2, 3, 5)
CLI_GENUS_MS_BAND = (20, 60)
CLI_GENUS_PAIRS = 6
CLI_MIX = (("reduce", 35), ("equiv", 25), ("represent", 15), ("classify", 25))


@dataclass
class Inputs:
    """What the child gets (``payload``) and what only the checks see
    (``meta``, one entry per op)."""

    payload: dict
    meta: list

    def digest(self) -> str:
        blob = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def discriminants(lo: int, hi: int) -> list[int]:
    """Negative discriminants D with lo <= |D| <= hi."""
    return [d for d in range(-lo, -hi - 1, -1) if arith.is_discriminant(d)]


def _bands(items, cost, bands) -> list[list]:
    """The items whose cost falls in each [lo, hi) band."""
    out = [[x for x in items if lo <= cost(x) < hi] for lo, hi in bands]
    if not all(out):
        raise ValueError(f"empty cost band among {bands}")
    return out


def _log_uniform(rng: random.Random, items: list, disc_of) -> object:
    """A draw in which |D| is log-uniform: weight 1/|D|."""
    return rng.choices(items, weights=[1 / abs(disc_of(x)) for x in items])[0]


def random_word(rng: random.Random, gens, lo: int, hi: int) -> tuple:
    """A product of lo to hi generators drawn from gens."""
    g = arith.IDENTITY
    for _ in range(rng.randint(lo, hi)):
        g = arith.mat_mul(g, rng.choice(gens))
    return g


SL2_GENS = (arith.S, arith.T, arith.T_INV)


def random_sl2(rng: random.Random) -> tuple:
    return random_word(rng, SL2_GENS, 4, 8)


def random_gamma0(rng: random.Random, n: int) -> tuple:
    v = (1, 0, n, 1)
    return random_word(rng, (arith.T, arith.T_INV, v, arith.mat_inv(v)), 1, 6)


def random_form(rng: random.Random, d: int) -> tuple:
    """A form of discriminant d in a random SL2(Z)-class, moved off its
    reduced representative by a random word."""
    return arith.act(rng.choice(arith.reduced_forms(d)), random_sl2(rng))


def fmt_form(f: tuple) -> str:
    return ",".join(str(x) for x in f)


def _decks(rng: random.Random, band_draws, n_ops: int) -> list:
    """Shuffled decks of DECK[k] draws from band k, until n_ops are made."""
    ops = []
    while len(ops) < n_ops:
        deck = [draw() for draw, count in zip(band_draws, DECK) for _ in range(count)]
        rng.shuffle(deck)
        ops.extend(deck)
    return ops


def enum_ms(d: int, n: int) -> float:
    """Cost model of enumerate_reduced(d, n): the pairwise class check over
    its h(d) * psi(n) forms and the coefficient sweep up to a_max."""
    if n == 1:
        a_max = math.isqrt(-d // 3)
    elif n in (2, 3):
        a_max = -d // (4 - n)
    else:
        a_max = max(math.isqrt(n * n * -d // 3), -d // 3)
    count = arith.class_number(d) * arith.psi(n)
    return 0.0218 * count * count + 8e-5 * a_max * a_max


def _reduce_cold(rng: random.Random, n_ops: int) -> Inputs:
    discs = discriminants(*ENUM_DISCS)
    pairs = [(d, n) for d in discs for n in ENUM_LEVELS]
    bands = _bands(pairs, lambda p: enum_ms(*p), ENUM_MS_BANDS)

    def enum(band):
        return lambda: ["enum", *_log_uniform(rng, band, lambda p: p[0])]

    def reduce():
        d = _log_uniform(rng, discs, lambda x: x)
        return ["reduce", list(random_form(rng, d)), rng.choice(REDUCE_LEVELS)]

    ops = _decks(rng, [enum(b) for b in bands] + [reduce], n_ops)
    return Inputs({"workload": "reduce_cold", "cold": True, "warm": [], "ops": ops}, [None] * len(ops))


def _classgroup_oracle(rng: random.Random, n_ops: int) -> Inputs:
    pairs = [(d, n) for d in discriminants(*CG_DISCS) for n in CG_LEVELS]
    bands = _bands(
        pairs, lambda p: arith.class_number(p[0] * p[1] ** 2) ** 2 * arith.psi(p[1]), CG_COST_BANDS
    )
    bands[-1] = [p for p in bands[-1] if p[1] in CG_TOP_LEVELS]
    ops = _decks(rng, [(lambda b=b: ["classgroup", *rng.choice(b)]) for b in bands], n_ops)
    return Inputs(
        {"workload": "classgroup_oracle", "cold": True, "warm": [], "ops": ops}, [None] * len(ops)
    )


def genus_work(d: int, n: int) -> int:
    """Predicted residue-grid size of genus_table(d, n): the admissible
    reduced forms number h(d) * (n - (d/n)) at a prime level n."""
    h = arith.class_number(d)
    forms = h if n == 1 else h * (n - arith.kronecker_char(d, n))
    side = abs(d) * n // math.gcd(abs(d), n) // n
    return (forms + 1) * side * side * arith.phi(n)


def genus_ms(d: int, n: int) -> float:
    """Cost model of one genus_primes op in milliseconds: grid evaluations,
    pairwise checks of the enumeration behind the admissible forms, and the
    prime classification."""
    count = arith.class_number(d) * arith.psi(n)
    return 3.1e-4 * genus_work(d, n) + 3.1e-2 * count * count + 12


def _genus_primes(rng: random.Random, n_ops: int) -> Inputs:
    pairs = [(d, n) for d in discriminants(*GENUS_DISCS) for n in GENUS_LEVELS]
    bands = _bands(pairs, lambda p: genus_ms(*p), GENUS_MS_BANDS)
    ops = _decks(rng, [(lambda b=b: ["genus", *rng.choice(b)]) for b in bands], n_ops)
    payload = {
        "workload": "genus_primes",
        "cold": True,
        "warm": [],
        "primes": arith.odd_primes_below(PRIME_LIMIT),
        "ops": ops,
    }
    return Inputs(payload, [None] * len(ops))


def _cli_pool(rng: random.Random):
    discs = discriminants(*CLI_DISCS)
    supported = [(d, n) for d in discs for n in CLI_SUPPORTED_LEVELS]
    pool = [
        _log_uniform(rng, band, lambda p: p[0])
        for band in _bands(supported, lambda p: enum_ms(*p), CLI_WARM_MS_BANDS)
        for _ in range(CLI_PAIRS_PER_BAND)
    ]
    for n in CLI_COMPOSITE_LEVELS:
        pool += [(_log_uniform(rng, discs, lambda x: x), n) for _ in range(CLI_COMPOSITE_PER_LEVEL)]
    genus = [(d, n) for d in discriminants(*CLI_GENUS_DISCS) for n in CLI_GENUS_LEVELS]
    band = _bands(genus, lambda p: genus_ms(*p), (CLI_GENUS_MS_BAND,))[0]
    return pool, [_log_uniform(rng, band, lambda p: p[0]) for _ in range(CLI_GENUS_PAIRS)]


def _cli_warm(rng: random.Random, n_ops: int) -> Inputs:
    pool, genus_pool = _cli_pool(rng)
    warm = []
    for d, n in pool:
        if n in CLI_COMPOSITE_LEVELS:
            warm.append(["reduce", "--form", fmt_form(arith.reduced_forms(d)[0]), "--level", str(n), "--json"])
        else:
            warm.append(["enumerate", "--disc", str(d), "--level", str(n), "--json"])
    for d, n in genus_pool:
        warm.append(["genus", "--disc", str(d), "--level", str(n), "--json"])
        warm.append(["enumerate", "--disc", str(d), "--level", str(n), "--json"])
    primes = arith.odd_primes_below(PRIME_LIMIT)
    coprime = {d: [p for p in primes if d % p] for d, _ in genus_pool}
    kinds = [k for k, _ in CLI_MIX]
    weights = [w for _, w in CLI_MIX]
    ops, meta = [], []
    for _ in range(n_ops):
        kind = rng.choices(kinds, weights)[0]
        if kind == "classify":
            d, n = rng.choice(genus_pool)
            p = rng.choice(coprime[d])
            argv = ["classify", "--prime", str(p), "--disc", str(d), "--level", str(n)]
            info = {"kind": kind, "p": p, "d": d, "n": n}
        else:
            d, n = rng.choice(pool)
            if kind == "reduce":
                q = random_form(rng, d)
                argv = ["reduce", "--form", fmt_form(q), "--level", str(n), "--json"]
                info = {"kind": kind, "form": q, "n": n}
            elif kind == "equiv":
                q1 = random_form(rng, d)
                built = rng.random() < 0.5
                q2 = arith.act(q1, random_gamma0(rng, n)) if built else random_form(rng, d)
                argv = ["equiv", "--form1", fmt_form(q1), "--form2", fmt_form(q2), "--level", str(n), "--json"]
                info = {"kind": kind, "f1": q1, "f2": q2, "n": n, "built": built}
            else:
                f = rng.choice(arith.reduced_forms(d))
                x, y = 0, 0
                while (x, y) == (0, 0):
                    x, y = rng.randint(-4, 4), rng.randint(-4, 4)
                m = arith.evaluate(f, x, y)
                argv = ["represent", "--form", fmt_form(f), "--value", str(m), "--level", str(n), "--json"]
                info = {"kind": kind, "form": f, "value": m, "n": n}
        ops.append(["cli", argv])
        meta.append(info)
    return Inputs({"workload": "cli_warm", "cold": False, "warm": warm, "ops": ops}, meta)


GENERATORS = {
    "reduce_cold": _reduce_cold,
    "classgroup_oracle": _classgroup_oracle,
    "genus_primes": _genus_primes,
    "cli_warm": _cli_warm,
}


def generate(workload: str, seed: int, seconds: float) -> Inputs:
    rng = random.Random(f"{workload}/{seed}")
    n_ops = max(1, math.ceil(seconds * OPS_PER_SECOND[workload]))
    return GENERATORS[workload](rng, n_ops)
