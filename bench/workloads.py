"""Seeded workload generator for the sepaut benchmark.

Every input is built from the benchmark's own block description (a list of
monomials, each a list of (variable, exponent) pairs), so the correctness
gate can check a report against data that never passed through sepaut.  The
seed picks variable names, term order, factor order and the exponents of the
random rungs; the same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 0

FLAGSHIP = ((("X1", 10), ("X2", 11)), (("Y1", 10),), (("Y2", 10),), (("Y3", 10),))

# edge cases of the command-line grammar and of the structure: exponent 1,
# two monomials (rigidity inapplicable), a factoring quadric, one mixed block
# against a pure power, and equal exponents inside a mixed block
EDGE_CASES = (
    ("edge-x+y", ((("x", 1),), (("y", 1),))),
    ("edge-xy+zw", ((("x", 1), ("y", 1)), (("z", 1), ("w", 1)))),
    ("edge-x2+y2", ((("x", 2),), (("y", 2),))),
    ("edge-x2y3+z5", ((("x", 2), ("y", 3)), (("z", 5),))),
    ("edge-x3y3+z6+w6", ((("x", 3), ("y", 3)), (("z", 6),), (("w", 6),))),
)

NAME_PREFIXES = ("x", "y", "t", "u", "v", "Z", "Q", "a_")


@dataclass(frozen=True)
class Input:
    """One analysis request.

    `monomials` is the benchmark's own description of the polynomial, over the
    same variable names as `expr`.  `seeded` marks inputs whose structure
    (not only their names and order) depends on the seed.  `cli` holds the
    command-line arguments after `python -m sepaut`.
    """

    name: str
    expr: str
    monomials: tuple[tuple[tuple[str, int], ...], ...]
    seeded: bool
    cli: tuple[str, ...]
    fermat: tuple[int, int] | None = None


def _render(rng: random.Random, monomials) -> tuple[str, tuple]:
    """Rename variables, shuffle terms and factors; return (expr, monomials)."""
    old = [v for mono in monomials for v, _ in mono]
    prefix = rng.choice(NAME_PREFIXES)
    labels = list(range(1, len(old) + 1))
    rng.shuffle(labels)
    rename = {v: f"{prefix}{k}" for v, k in zip(old, labels)}
    renamed = []
    for mono in monomials:
        factors = [(rename[v], e) for v, e in mono]
        rng.shuffle(factors)
        renamed.append(tuple(factors))
    rng.shuffle(renamed)
    expr = " + ".join(
        "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono) for mono in renamed
    )
    return expr, tuple(renamed)


def _analyze(rng, name, monomials, seeded=False, fermat=None) -> Input:
    expr, monos = _render(rng, monomials)
    return Input(name, expr, monos, seeded, ("analyze", expr, "--json"), fermat)


def _pure(n: int, alpha: int):
    return tuple(((f"Y{i}", alpha),) for i in range(1, n + 1))


def _blocks(rng, count: int, width: int, low: int, high: int):
    """`count` mixed blocks of `width` variables, exponents in [low, high)."""
    return tuple(
        tuple((f"B{b}_{j}", rng.randrange(low, high)) for j in range(width))
        for b in range(count)
    )


def _chain(values) -> list[int]:
    """Invariant factors of the direct sum of Z/g over `values`.

    Each compare-exchange (a, b) -> (gcd, lcm) sorts the p-adic valuations of
    the pair for every prime p at once, and doing it for all pairs i < j in
    order is a sorting network, so the result is the divisibility chain.
    """
    g = list(values)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            a, b = g[i], g[j]
            d = gcd(a, b)
            g[i], g[j] = d, a // d * b
    return g


def expected_torsion(monomials) -> list[int]:
    """Torsion invariants of H from the block structure alone.

    With characters chi_i = g_i * p_i (g_i the gcd of monomial i's exponents,
    p_i primitive) on disjoint supports, the torsion of Z^n modulo the
    differences chi_i - chi_0 is, prime by prime, the valuations of the g_i
    with the largest one dropped: the invariant factors of the direct sum of
    the Z/g_i without the last (the lcm), ones removed.
    """
    gs = []
    for mono in monomials:
        g = 0
        for _, e in mono:
            g = gcd(g, e)
        gs.append(g)
    return [d for d in _chain(gs)[:-1] if d > 1]


def cli_small(seed: int) -> list[Input]:
    """Flagship, edge cases and the Fermat grid, each as one CLI process."""
    rng = random.Random(seed)
    inputs = [_analyze(rng, "flagship", FLAGSHIP)]
    inputs += [_analyze(rng, name, monos) for name, monos in EDGE_CASES]
    for n in range(2, 7):
        for alpha in range(2, 8):
            monos = _pure(n, alpha)
            expr = " + ".join(f"{v}^{e}" for ((v, e),) in monos)
            inputs.append(
                Input(
                    f"fermat-{n}-{alpha}", expr, monos, False,
                    ("fermat", str(n), str(alpha), "--json"), (n, alpha),
                )
            )
    rng.shuffle(inputs)
    return inputs


def lattice_wide(seed: int) -> list[Input]:
    """A ladder of wide inputs where the Smith normal form dominates.

    The pure-power rungs do not depend on the seed, and they are placed so
    that pure n=100 is the middle rung by cost and pure n=200 the top one:
    the p50 and p90 latencies then read a fixed input instead of jumping
    between seeded rungs whose cost varies with their exponents.
    """
    rng = random.Random(seed)
    ladder = [
        ("mixed-16x3-4bit", _blocks(rng, 16, 3, 1 << 3, 1 << 4), True),
        ("big-8x2-20digit", _blocks(rng, 8, 2, 10**19, 10**20), True),
        ("big-4x2-100digit", _blocks(rng, 4, 2, 10**99, 10**100), True),
        ("mixed-16x4-8bit", _blocks(rng, 16, 4, 1 << 7, 1 << 8), True),
        ("pure-100", _pure(100, 2), False),
        ("mixed-32x4-4bit", _blocks(rng, 32, 4, 1 << 3, 1 << 4), True),
        ("mixed-16x3-20bit", _blocks(rng, 16, 3, 1 << 19, 1 << 20), True),
        ("pure-150", _pure(150, 2), False),
        ("pure-200", _pure(200, 2), False),
    ]
    return [_analyze(rng, name, monos, seeded) for name, monos, seeded in ladder]


# block gcds of the seeded verify-oracles inputs.  They fix the torsion, so
# the moduli the torsion oracle enumerates (N^8 candidates each, N <= 7 for
# N^8 <= 10^7) and hence each input's cost do not depend on the seed; the
# seed picks the 20-digit cofactors.  Torsion: [2, 2, 2], [3], [5], [2, 6].
ORACLE_GCDS = ((2, 2, 2, 2), (3, 3, 1, 1), (5, 5, 1, 1), (6, 6, 2, 1))


def _oracle_blocks(rng, gcds):
    """Mixed 2-variable blocks with 20-digit exponents, block b with gcd gcds[b]."""
    blocks = []
    for b, g in enumerate(gcds):
        low, high = -(-(10**19) // g), 10**20 // g
        while True:
            u, v = rng.randrange(low, high), rng.randrange(low, high)
            if gcd(u, v) == 1:
                break
        blocks.append(((f"B{b}_0", g * u), (f"B{b}_1", g * v)))
    return tuple(blocks)


def verify_oracles(seed: int) -> list[Input]:
    """Small inputs on which every oracle runs (n <= 8, N^n <= 10^7)."""
    rng = random.Random(seed)
    inputs = []
    for n, alpha in ((6, 7), (7, 7), (7, 9), (8, 6), (8, 7), (5, 20)):
        inputs.append(_analyze(rng, f"fermat-{n}-{alpha}", _pure(n, alpha), fermat=(n, alpha)))
    inputs.append(_analyze(rng, "flagship", FLAGSHIP))
    for k, gcds in enumerate(ORACLE_GCDS):
        inputs.append(_analyze(rng, f"big-4x2-20digit-{k}", _oracle_blocks(rng, gcds), seeded=True))
    return inputs


WORKLOADS = {
    "cli-small": cli_small,
    "lattice-wide": lattice_wide,
    "verify-oracles": verify_oracles,
}

VERIFY = {"cli-small": False, "lattice-wide": False, "verify-oracles": True}
