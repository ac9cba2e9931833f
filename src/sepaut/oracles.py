"""Brute-force oracles: independent checks of what the analysis claims.

Each oracle recomputes a claim of the analysis by a method that shares no
code with the one that made it:

* `brute_force_perm_order` tries every variable permutation that keeps
  each exponent and counts those mapping the monomials onto themselves; it
  checks the closed order formula of `permgroup.permutation_group`;
* `count_torsion_points_mod` counts the e in (Z/N)^n on which all monomial
  characters agree mod N (the solutions of D e == 0, D the difference
  matrix), one tally per monomial over its own variables; it checks
  `torsion_count_formula`, N^rank * prod gcd(d_k, N) read off the torus
  rank and torsion of a quasitorus description;
* `verify_permutation` (on cycles) and `verify_diagonal` (on a sparse
  vector) certify F o g = c * F on the monomials g touches, and
  `certify_pipeline_generators` on every generator an analysis emits.

The guards live here too, both a number of steps decided before the oracle
runs and held to `ENUMERATION_LIMIT` = 10^6 (`EnumerationTooLargeError`):
n per permutation tried, and M*N + (n-M)*N^2 for the count, each step
then weighed by the machine words of the tally it adds to.
From the analysis modules this one imports only exception classes and
`cycle_notation`, so no oracle calls the code whose claim it checks; nothing
on the analysis path imports it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations

from .permgroup import cycle_notation
from .polyio import CanonicalForm, Permutation, SparseVector, decimal
from .quasitorus import SingleMonomialError

__all__ = [
    "ENUMERATION_LIMIT",
    "EnumerationTooLargeError",
    "NotAnAutomorphismError",
    "brute_force_perm_order",
    "count_torsion_points_mod",
    "torsion_count_formula",
    "verify_permutation",
    "verify_diagonal",
    "certify_pipeline_generators",
]

ENUMERATION_LIMIT = 1_000_000


class EnumerationTooLargeError(ValueError):
    """A brute-force oracle would take more steps than the enumeration guard."""


class NotAnAutomorphismError(ValueError):
    """The candidate monomial map does not preserve the polynomial."""


def brute_force_perm_order(cf: CanonicalForm) -> int:
    """Count the permutations tau with F o tau = F by trying every one that
    sends each variable to a variable of the same exponent, as each such tau
    does: the monomial holding v lands on a monomial of F, and v lies in
    exactly one.  A candidate keeps every exponent, so it fixes F exactly
    when it maps the variables of each monomial onto those of a monomial,
    which is checked on every monomial.  The candidates, the orderings of
    each exponent class, are generated one at a time.  The work, n steps
    per candidate, is checked against `ENUMERATION_LIMIT` before
    enumerating, by a product of class factorials that stops as soon as it
    passes the limit."""
    supports = cf.monomial_supports
    n = cf.variable_count
    classes: dict[int, list[int]] = {}
    for support in supports:
        for v, e in support:
            classes.setdefault(e, []).append(v)
    fixed = tuple(points[0] for points in classes.values() if len(points) == 1)
    moving = [tuple(points) for points in classes.values() if len(points) > 1]
    steps = n
    for k in (k for points in moving for k in range(2, len(points) + 1)):
        if steps > ENUMERATION_LIMIT:
            break
        steps *= k
    if steps > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"n * (product of k! over the exponent classes of k variables) steps "
            f"for n = {n} exceed the enumeration guard {ENUMERATION_LIMIT}"
        )
    # a candidate lists the images of `fixed`, then of each moving class
    position = {v: i for i, v in enumerate(fixed + sum(moving, ()))}
    slots = [tuple(position[v] for v, _ in support) for support in supports]
    monomials = {frozenset(v for v, _ in support) for support in supports}
    count = 0
    for candidate in _arrangements(moving, fixed):
        image = candidate.__getitem__
        for slot in slots:
            if frozenset(map(image, slot)) not in monomials:
                break
        else:
            count += 1
    return count


def _arrangements(classes, prefix: tuple[int, ...]):
    """Yield `prefix` followed by the points of each class in turn, once for
    every ordering of each class, one tuple at a time."""
    if not classes:
        yield prefix
        return
    for points in permutations(classes[0]):
        yield from _arrangements(classes[1:], prefix + points)


def count_torsion_points_mod(cf: CanonicalForm, modulus: int) -> int:
    """Count e in (Z/N)^n on which all characters chi_i . e agree mod N (the
    solutions of D e == 0, D with rows chi_i - chi_0): the sum over c of
    prod_i T_i[c], where T_i[c] counts the assignments of monomial i's own
    variables with chi_i . e == c, built from [1, 0, ..., 0] one variable and
    N values at a time.  No gcd, Smith form or block theory.  The work is
    checked against `ENUMERATION_LIMIT` before counting: M*N + (n-M)*N^2
    steps, and those steps weighed by the size of the tally they add to, a
    monomial of k variables taking N + (k-1)*N^2 steps on entries of up to
    ceil(k*bits(N)/64) machine words (its count is below N^k).  Without the
    weight one block of 250 000 variables mod 2 passed and took 5 s; with
    it a count at the limit took at most 1.2 s on one core."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    supports = cf.monomial_supports
    n, m = cf.variable_count, len(supports)
    if m < 2:
        raise SingleMonomialError("need at least two monomials")
    if m * modulus + (n - m) * modulus**2 > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"M*N + (n-M)*N^2 steps for N = {decimal(modulus)}, n = {n}, M = {m} "
            f"exceed the enumeration guard {ENUMERATION_LIMIT}"
        )
    # the weighted steps are at least the plain ones, so the plain guard
    # decides alone what it refused before, with its own message
    bits = modulus.bit_length()
    widths = Counter(map(len, supports))
    words = sum(
        times * (modulus + (k - 1) * modulus**2) * -(-k * bits // 64)
        for k, times in widths.items()
    )
    if words > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"sum of (N + (k-1)*N^2) * ceil(k*bits(N)/64) word steps over the "
            f"monomials of k variables for N = {modulus}, n = {n}, M = {m} "
            f"exceed the enumeration guard {ENUMERATION_LIMIT}"
        )
    # monomials with the same exponents mod N have the same tally
    shapes = Counter(tuple(e % modulus for _, e in support) for support in supports)
    tallies: Counter[tuple[int, ...]] = Counter()
    for shape, times in shapes.items():
        tally = [1] + [0] * (modulus - 1)
        for e in shape:
            adds = [e * x % modulus for x in range(modulus)]
            step = [0] * modulus
            for c in (c for c, count in enumerate(tally) if count):
                for a in adds:
                    step[(c + a) % modulus] += tally[c]
            tally = step
        tallies[tuple(tally)] += times
    return sum(
        math.prod(t[c] ** times for t, times in tallies.items()) for c in range(modulus)
    )


def torsion_count_formula(quasi, modulus: int) -> int:
    """Closed form for the same count, N^rank * prod gcd(d_k, N), read off
    the torus rank and torsion of the quasitorus description `quasi`: the
    torsion the report emits."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    count = modulus**quasi.torus_rank
    for dk in quasi.torsion:
        count *= math.gcd(dk, modulus)
    return count


def _support_index(cf: CanonicalForm):
    """What the generator checks read of `cf`, built once: the variable
    names, the monomial supports, and the monomial holding each variable
    with its exponent there."""
    supports = cf.monomial_supports
    owner = {v: (i, e) for i, support in enumerate(supports) for v, e in support}
    return cf.var_order, supports, owner


def verify_permutation(cf: CanonicalForm, cycles: Permutation) -> int:
    """Certify F o g = F for the permutation g given as its `cycles`.

    Only the monomials holding a moved point are checked; each must map
    onto a monomial of F.  Returns 0, the exponent of the scalar 1.  Raises
    `NotAnAutomorphismError` naming the first monomial that does not map
    onto one, and `ValueError` for a repeated or out-of-range point.
    """
    return _check_permutation(_support_index(cf), cycles)


def _check_permutation(index, cycles: Permutation) -> int:
    names, supports, owner = index
    image = {a: b for cycle in cycles for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    if len(image) < sum(map(len, cycles)) or not all(a in owner for a in image):
        raise ValueError(f"not a permutation of {len(names)} variables: {cycles}")
    for i in sorted({owner[v][0] for v in image}):
        moved = {image.get(v, v): e for v, e in supports[i]}
        j = owner[next(iter(moved))][0]
        # the images are distinct: as many as monomial j holds, all in j, fill it
        if len(supports[j]) != len(moved) or any(
            owner[w] != (j, e) for w, e in moved.items()
        ):
            vector = tuple(moved.get(w, 0) for w in range(len(names)))  # for the error
            raise NotAnAutomorphismError(
                f"monomial {i} maps to exponent vector {vector}, which is not a "
                "monomial of the polynomial "
                f"(permutation {cycle_notation(cycles, names)})"
            )
    return 0


def verify_diagonal(cf: CanonicalForm, order: int, exponents: SparseVector) -> int:
    """Certify F o g = c * F for g: x_v -> zeta^(e_v) x_v, zeta of order N.

    `exponents` holds the nonzero e_v as (v, e_v) pairs, and only the
    monomials they touch are summed: every other one scales by zeta^0.
    Returns c's exponent mod N.  Raises `NotAnAutomorphismError` naming the
    first monomial whose scalar differs from monomial 0's, and `ValueError`
    for N < 1 or an index outside the n variables.
    """
    return _check_diagonal(_support_index(cf), order, exponents)


def _check_diagonal(index, order: int, exponents: SparseVector) -> int:
    _, supports, owner = index
    if order < 1:
        raise ValueError("root-of-unity order must be >= 1")
    residues: dict[int, int] = {}
    for v, x in exponents:
        if v not in owner:
            raise ValueError(f"exponent index {v} outside the {len(owner)} variables")
        i, e = owner[v]
        residues[i] = (residues.get(i, 0) + e * x) % order
    residue = residues.get(0, 0)
    # the first untouched monomial stands for all of them
    untouched = next(i for i in range(len(supports) + 1) if i not in residues)
    for i in sorted({*residues, untouched}):
        if i < len(supports) and residues.get(i, 0) != residue:
            raise NotAnAutomorphismError(
                f"monomial {i} scales by zeta^{decimal(residues.get(i, 0))} but an "
                f"earlier monomial by zeta^{decimal(residue)} (mod {decimal(order)})"
            )
    return residue


def certify_pipeline_generators(cf: CanonicalForm, aut):
    """Certify every generator the description `aut` of `cf` emits: the
    permutation generators as cycles, the torsion generators and the
    cocharacter basis vectors, reduced mod 2, 3 and 5, as sparse vectors,
    all against one support index of `cf`, in time linear in what `aut`
    holds.  Returns (label, scalar exponent) pairs; raises on the first
    failure."""
    index = _support_index(cf)
    results = []
    for g in aut.perm.generators:
        label = f"perm {cycle_notation(g, index[0])}"
        results.append((label, _check_permutation(index, g)))
    quasi = aut.quasitorus
    for tg in quasi.torsion_generators:
        label = f"torsion order {decimal(tg.order)}"
        results.append((label, _check_diagonal(index, tg.order, tg.exponents)))
    for bi, vec in enumerate(quasi.cocharacter_basis):
        for modulus in (2, 3, 5):
            label = f"cocharacter {bi} mod {modulus}"
            results.append((label, _check_diagonal(index, modulus, vec)))
    return results
