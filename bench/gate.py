"""Correctness gate: checks a sepaut report without trusting sepaut.

Every check works from the benchmark's own description of the input
(`workloads.Input.monomials`) with plain integer arithmetic:

* torus rank n - (M - 1), torsion invariants from the block gcds, the
  permutation-group order from classes of equal blocks, the reciprocal
  exponent sum, and the H part of the structure string;
* every cocharacter basis vector pairs equally with every monomial
  (D v = 0), and the basis is independent modulo a large prime;
* every torsion generator pairs equally with every monomial modulo its
  order (D v = 0 mod d), and has exactly that order;
* Fermat inputs match S_n x| ((Z/alpha)^(n-1) x T^1), order n!, sum n/alpha;
* frozen answers (`expected.json`) recorded from the seed code;
* with verification requested, exactly the expected oracles ran and passed.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import factorial, gcd
from pathlib import Path

from workloads import DEFAULT_SEED, Input, expected_torsion

EXPECTED_PATH = Path(__file__).with_name("expected.json")
PRIME = (1 << 61) - 1


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def frozen_fields(report: dict) -> dict:
    """The answers frozen from the seed code for the default seed."""
    return {
        "structure": report["aut"]["structure"],
        "torus_rank": report["quasitorus"]["torus_rank"],
        "torsion": report["quasitorus"]["torsion"],
        "order": report["permutation_group"]["order"],
        "reciprocal_sum": report["rigidity"]["reciprocal_sum"],
    }


def perm_order(monomials) -> int:
    """Order of the group of variable permutations fixing the polynomial."""
    pure = Counter(mono[0][1] for mono in monomials if len(mono) == 1)
    shapes = Counter(
        tuple(sorted((e for _, e in mono), reverse=True))
        for mono in monomials
        if len(mono) > 1
    )
    order = 1
    for count in pure.values():
        order *= factorial(count)
    for shape, count in shapes.items():
        inner = 1
        for _, run in groupby(shape):
            inner *= factorial(len(list(run)))
        order *= factorial(count) * inner**count
    return order


def h_structure(torsion, torus_rank: int) -> str:
    parts = [f"(Z/{d})^{len(list(run))}" for d, run in groupby(torsion)]
    parts.append(f"T^{torus_rank}")
    return "(" + " × ".join(parts) + ")"


def rank_mod_prime(vectors) -> int:
    rows = [[x % PRIME for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], PRIME - 2, PRIME)
        prow = [x * inv % PRIME for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def expected_oracles(torsion) -> list[str]:
    moduli = sorted(set(torsion)) or [2]
    return ["generators", "perms"] + [f"torsion mod {d}" for d in moduli]


def check(inp: Input, report: dict, verify: bool, seed: int, expected: dict) -> list[str]:
    """Problems found in `report`; an empty list means it passes."""
    try:
        return _check(inp, report, verify, seed, expected)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _check(inp, report, verify, seed, expected) -> list[str]:
    bad = []
    monos = inp.monomials
    names = [v for mono in monos for v, _ in mono]
    n, m = len(names), len(monos)
    cf = report["canonical_form"]
    variables = cf["variables"]
    if sorted(variables) != sorted(names):
        return [f"variables {variables} differ from the input's {sorted(names)}"]
    index = {v: i for i, v in enumerate(variables)}
    chars = []
    for mono in monos:
        vec = [0] * n
        for v, e in mono:
            vec[index[v]] = e
        chars.append(vec)
    if inp.cli[0] == "analyze" and report["input"] != inp.expr:
        bad.append("report echoes another input")
    if (cf["variable_count"], cf["monomial_count"]) != (n, m):
        bad.append("variable or monomial count differs")

    quasi = report["quasitorus"]
    rank = n - (m - 1)
    torsion = expected_torsion(monos)
    if quasi["torus_rank"] != rank:
        bad.append(f"torus rank {quasi['torus_rank']} != n - (M - 1) = {rank}")
    if quasi["torsion"] != [str(d) for d in torsion]:
        bad.append(f"torsion {quasi['torsion']} != {torsion} from the block gcds")
    order = perm_order(monos)
    if report["permutation_group"]["order"] != str(order):
        bad.append(f"permutation order {report['permutation_group']['order']} != {order}")
    recip = sum((Fraction(1, e) for mono in monos for _, e in mono), Fraction(0))
    if report["rigidity"]["reciprocal_sum"] != str(recip):
        bad.append(f"reciprocal sum {report['rigidity']['reciprocal_sum']} != {recip}")
    structure = report["aut"]["structure"]
    if not structure.endswith(" ⋉ " + h_structure(torsion, rank)):
        bad.append(f"structure {structure!r} does not end in H = {h_structure(torsion, rank)}")

    basis = [[int(x) for x in v] for v in quasi["cocharacter_basis"]]
    if len(basis) != rank:
        bad.append(f"{len(basis)} cocharacter basis vectors for torus rank {rank}")
    for k, v in enumerate(basis):
        if len(v) != n or len({sum(a * b for a, b in zip(c, v)) for c in chars}) != 1:
            bad.append(f"cocharacter basis vector {k} is not in ker D")
    if basis and rank_mod_prime(basis) != len(basis):
        bad.append("cocharacter basis vectors are linearly dependent")

    gens = quasi["torsion_generators"]
    if [g["order"] for g in gens] != [str(d) for d in torsion]:
        bad.append("torsion generator orders differ from the torsion invariants")
    for k, g in enumerate(gens):
        d = int(g["order"])
        v = [int(x) for x in g["exponents"]]
        pairings = {sum(a * b for a, b in zip(c, v)) % d for c in chars}
        if len(v) != n or len(pairings) != 1:
            bad.append(f"torsion generator {k} is not in ker D mod {d}")
        elif gcd(d, *v) != 1:
            bad.append(f"torsion generator {k} has order below {d}")

    if inp.fermat is not None:
        fn, alpha = inp.fermat
        want = f"S{fn} ⋉ ((Z/{alpha})^{fn - 1} × T^1)"
        if structure != want:
            bad.append(f"Fermat structure {structure!r} != {want!r}")
        if report["permutation_group"]["order"] != str(factorial(fn)):
            bad.append("Fermat permutation order != n!")
        if report["rigidity"]["reciprocal_sum"] != str(Fraction(fn, alpha)):
            bad.append("Fermat reciprocal sum != n/alpha")

    if not inp.seeded or seed == DEFAULT_SEED:
        frozen = expected.get(inp.name)
        if frozen is None:
            bad.append("no frozen answer recorded for this input")
        elif frozen_fields(report) != frozen:
            bad.append(f"answer differs from the frozen one: {frozen}")

    ver = report["verification"]
    if ver["requested"] != verify:
        bad.append("verification flag differs from the request")
    if verify:
        ran = [c["oracle"] for c in ver["checks"]]
        if ran != expected_oracles(torsion):
            bad.append(f"oracles {ran} != {expected_oracles(torsion)}")
        bad += [
            f"oracle {c['oracle']}: {c['status']} ({c['detail']})"
            for c in ver["checks"]
            if c["status"] != "pass"
        ]
    return bad


def perturbations(report: dict) -> list[dict]:
    """Copies of a good report with one torsion divisor or one kernel-vector
    entry changed; the gate must reject both."""
    torsion = copy.deepcopy(report)
    divisors = torsion["quasitorus"]["torsion"]
    divisors[0] = str(int(divisors[0]) + 1)
    kernel = copy.deepcopy(report)
    vec = kernel["quasitorus"]["cocharacter_basis"][0]
    vec[0] = str(int(vec[0]) + 1)
    return [torsion, kernel]


def self_check(inp: Input, report: dict, verify: bool, seed: int, expected: dict) -> str | None:
    """Show that perturbed reports count as failures; returns a problem or None.

    Needs a report that passes and has both torsion and a cocharacter basis.
    """
    reports = [report, *perturbations(report)]
    failed = sum(1 for r in reports if check(inp, r, verify, seed, expected))
    if failed != 2:
        return f"self-check: {failed} of 3 reports failed, expected exactly the 2 perturbed ones"
    return None


def usable_for_self_check(report: dict) -> bool:
    quasi = report["quasitorus"]
    return bool(quasi["torsion"]) and bool(quasi["cocharacter_basis"])
