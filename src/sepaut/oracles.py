"""Brute-force oracles: independent checks of what the analysis claims.

Each oracle recomputes a claim of the analysis by a method that shares no
code with the one that made it:

* `brute_force_perm_order` tries every variable permutation that keeps
  each exponent and counts those mapping the monomials onto themselves:
  the candidates pass one at a time through a chain of C-level filters,
  the one-variable monomials first, then one filter per monomial of k > 1
  variables, which keeps a candidate when the set of its images is the
  variable set of a monomial; it checks the closed order formula of
  `permgroup.permutation_group`;
* `count_torsion_points_mod` counts the e in (Z/N)^n on which all monomial
  characters agree mod N (the solutions of D e == 0, D the difference
  matrix), one tally per monomial over its own variables; it checks
  `torsion_count_formula`, N^rank * prod gcd(d_k, N) read off the torus
  rank and torsion of a quasitorus description;
* `verify_permutation` (on cycles) and `verify_diagonal` (on a sparse
  vector) certify F o g = c * F on the monomials g touches, and
  `certify_pipeline_generators` every generator an analysis emits, once.

The guards live here too, one for each count, a number of steps decided
before the oracle runs and held to `ENUMERATION_LIMIT` = 10^6
(`EnumerationTooLargeError`): n per permutation tried, and N + (k-1)*N^2
per monomial of k variables, weighed by ceil(k*bits(N)/64) machine words.
From the analysis modules this one imports only exception classes and
`cycle_notation`, so no oracle calls the code whose claim it checks; nothing
on the analysis path imports it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress, permutations, tee
from operator import itemgetter

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
    """A monomial map does not preserve the polynomial, or a torsion
    generator does not have its claimed order."""


def brute_force_perm_order(cf: CanonicalForm) -> int:
    """Count the permutations tau with F o tau = F by trying every one that
    sends each variable to a variable of the same exponent, as each such tau
    does: the monomial holding v lands on a monomial of F, and v lies in
    exactly one.  A candidate keeps every exponent, so it fixes F exactly
    when, for each monomial, the images of its variables all lie in one
    monomial of as many variables.  The candidates, the orderings of each
    exponent class, are generated one at a time and pass through a chain of
    lazy C-level stages, one per check, each dropping the candidates that
    fail it: first the one-variable monomials, whose images (read by one
    shared `itemgetter`) must be variables that are a monomial alone
    (`frozenset.issuperset`), then each monomial of k > 1 variables in
    turn, whose k images, being distinct, must form the variable set of a
    monomial (`frozenset(images) in blocks`).  Each earlier stage reads its
    candidates off one `tee` branch and passes them on with
    `itertools.compress`; the last one is summed.  Fermat-8 (8! = 40 320
    candidates, one stage) takes 14-23 ms on one core (2 vCPUs, Python
    3.11).  The work, n steps per candidate, is checked against
    `ENUMERATION_LIMIT` before enumerating, by a product of class
    factorials that stops as soon as it passes the limit."""
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
    # a stage maps a stream of candidates to one bool each: kept or not
    stages = []
    singles = frozenset(support[0][0] for support in supports if len(support) == 1)
    if singles:
        ones = [position[v] for v in singles]
        # an itemgetter of one position returns the item, not a 1-tuple
        get_ones = itemgetter(*ones, ones[0])
        stages.append(lambda stream: map(singles.issuperset, map(get_ones, stream)))
    blocks = {frozenset(v for v, _ in support) for support in supports if len(support) > 1}
    for support in supports:
        if len(support) > 1:
            get = itemgetter(*(position[v] for v, _ in support))
            stages.append(
                lambda stream, get=get: map(
                    blocks.__contains__, map(frozenset, map(get, stream))
                )
            )
    candidates = _arrangements(moving, fixed)
    for stage in stages[:-1]:
        candidates, probe = tee(candidates)
        candidates = compress(candidates, stage(probe))
    return sum(stages[-1](candidates))


def _arrangements(classes, prefix: tuple[int, ...]):
    """Yield `prefix` followed by the points of each class in turn, once for
    every ordering of each class, one tuple at a time."""
    if len(classes) > 1:
        for points in permutations(classes[0]):
            yield from _arrangements(classes[1:], prefix + points)
    else:
        # the last class (or none) appends its orderings itself, to a
        # prefix only when there is one
        orderings = permutations(classes[0] if classes else ())
        yield from map(prefix.__add__, orderings) if prefix else orderings


def count_torsion_points_mod(cf: CanonicalForm, modulus: int) -> int:
    """Count e in (Z/N)^n on which all characters chi_i . e agree mod N (the
    solutions of D e == 0, D with rows chi_i - chi_0): the sum over c of
    prod_i T_i[c], where T_i[c] counts the assignments of monomial i's own
    variables with chi_i . e == c, built from [1, 0, ..., 0] one variable and
    N values at a time.  No gcd, Smith form or block theory.  The work is
    checked against `ENUMERATION_LIMIT` before counting: a monomial of k
    variables takes N + (k-1)*N^2 steps on tally entries of up to
    ceil(k*bits(N)/64) machine words (its count is below N^k), and each step
    weighs its words, so the sum is never below M*N + (n-M)*N^2 and equals it
    while k*bits(N) <= 64.  Without the weight one block of 250 000 variables
    mod 2 passed and took 5 s; with it a count at the limit took at most 1.2 s."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    supports = cf.monomial_supports
    n, m = cf.variable_count, len(supports)
    if m < 2:
        raise SingleMonomialError("need at least two monomials")
    bits = modulus.bit_length()
    widths = Counter(map(len, supports))
    words = sum(
        times * (modulus + (k - 1) * modulus**2) * -(-k * bits // 64)
        for k, times in widths.items()
    )
    if words > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"sum of (N + (k-1)*N^2) * ceil(k*bits(N)/64) word steps over the "
            f"monomials of k variables for N = {decimal(modulus)}, n = {n}, M = {m} "
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
    if order < 1:
        raise ValueError("root-of-unity order must be >= 1")
    return _check_diagonal(_support_index(cf), order, exponents)


def _check_diagonal(index, order: int | None, exponents: SparseVector, name="") -> int:
    _, supports, owner = index
    residues: dict[int, int] = {}
    for v, x in exponents:
        if v not in owner:
            raise ValueError(f"exponent index {v} outside the {len(owner)} variables")
        i, e = owner[v]
        residues[i] = residues.get(i, 0) + e * x
    if order is not None:  # None: over Z, the characters of G_m (a cocharacter)
        residues = {i: r % order for i, r in residues.items()}
    residue = residues.get(0, 0)
    # the first untouched monomial stands for all of them
    untouched = next(i for i in range(len(supports) + 1) if i not in residues)
    for i in sorted({*residues, untouched}):
        if i < len(supports) and residues.get(i, 0) != residue:
            # a cocharacter scales a monomial by t^k, a torsion point by zeta^k
            root, where = ("t", "over Z") if order is None else ("zeta", f"mod {decimal(order)}")
            raise NotAnAutomorphismError(
                f"monomial {i} scales by {root}^{decimal(residues.get(i, 0))} but an "
                f"earlier monomial by {root}^{decimal(residue)} ({where}{name})"
            )
    return residue


def certify_pipeline_generators(cf: CanonicalForm, aut) -> int:
    """Certify each generator the description `aut` of `cf` emits, once and
    by the identity it claims, against one support index of `cf`, in time
    linear in what `aut` holds: a permutation maps the monomials onto
    themselves, a torsion generator (d, e) scales them by one d-th root of
    unity and has order d, gcd(d, e) = 1, and a cocharacter pairs equally
    with each monomial over Z.  Returns the number of generators; raises
    `NotAnAutomorphismError` naming the first failure."""
    index = _support_index(cf)
    for g in aut.perm.generators:
        _check_permutation(index, g)
    torsion, basis = aut.quasitorus.torsion_generators, aut.quasitorus.cocharacter_basis
    for k, tg in enumerate(torsion):
        _check_diagonal(index, tg.order, tg.exponents, f", torsion generator {k}")
        if (common := math.gcd(tg.order, *(x for _, x in tg.exponents))) != 1:
            raise NotAnAutomorphismError(
                f"torsion generator {k} has order {decimal(tg.order // common)}, "
                f"not its claimed {decimal(tg.order)}"
            )
    for k, vec in enumerate(basis):
        _check_diagonal(index, None, vec, f", cocharacter {k}")
    return len(aut.perm.generators) + len(torsion) + len(basis)
