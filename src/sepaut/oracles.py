"""Brute-force oracles: independent checks of what the analysis claims.

Each oracle recomputes a claim of the analysis by a method that shares no
code with the one that made it:

* `brute_force_perm_order` tries all n! variable permutations and counts
  those mapping the set of monomial exponent vectors onto itself; it checks
  the closed order formula of `permgroup.permutation_group`;
* `count_torsion_points_mod` counts the solutions of D e == 0 (mod N) among
  all N^n candidates, with D the difference matrix of `character_matrix`;
  it checks `torsion_count_formula`, N^rank * prod gcd(d_k, N) read off the
  torus rank and torsion of a quasitorus description;
* `verify_permutation` (on cycles) and `verify_diagonal` (on a sparse
  vector) certify F o g = c * F on the monomials g touches, and
  `certify_pipeline_generators` on every generator an analysis emits.

The guards live here too: brute force over permutations needs n <= 8
(`TooManyVariablesError`), the count N^n <= 10^7 (`EnumerationTooLargeError`).
From the analysis modules this one imports only exception classes and
`cycle_notation`, so no oracle calls the code whose claim it checks; nothing
on the analysis path imports it.
"""

from __future__ import annotations

import math
from itertools import permutations

from .permgroup import cycle_notation
from .polyio import CanonicalForm, Permutation, SparseVector, decimal
from .quasitorus import SingleMonomialError

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "ENUMERATION_LIMIT",
    "TooManyVariablesError",
    "EnumerationTooLargeError",
    "NotAnAutomorphismError",
    "permute_vector",
    "brute_force_perm_order",
    "character_matrix",
    "count_torsion_points_mod",
    "torsion_count_formula",
    "verify_permutation",
    "verify_diagonal",
    "certify_pipeline_generators",
]

BRUTE_FORCE_LIMIT = 8
ENUMERATION_LIMIT = 10_000_000


class TooManyVariablesError(ValueError):
    """Brute force over n! permutations is limited to n <= 8."""


class EnumerationTooLargeError(ValueError):
    """The brute-force count N^n would exceed the enumeration guard."""


class NotAnAutomorphismError(ValueError):
    """The candidate monomial map does not preserve the polynomial."""


def permute_vector(perm: tuple[int, ...], vec) -> tuple[int, ...]:
    """Move entry v to slot perm[v] (the action of the permutation on
    exponent vectors and diagonal coordinates)."""
    out = [0] * len(vec)
    for v, x in enumerate(vec):
        out[perm[v]] = x
    return tuple(out)


def brute_force_perm_order(cf: CanonicalForm) -> int:
    """Count permutations with F o tau = F by trying all n! of them."""
    n = cf.variable_count
    if n > BRUTE_FORCE_LIMIT:
        raise TooManyVariablesError(
            f"{n} variables: brute force is limited to n <= {BRUTE_FORCE_LIMIT}"
        )
    chars = set(cf.monomial_vectors)
    count = 0
    for perm in permutations(range(n)):
        if {permute_vector(perm, chi) for chi in chars} == chars:
            count += 1
    return count


def character_matrix(cf: CanonicalForm) -> list[list[int]]:
    """The rows of the difference matrix D of the monomial characters.

    Rows are chi_i - chi_0 for the characters `cf.monomial_vectors` (mixed
    blocks first, then pure powers).  Because monomial supports are pairwise
    disjoint, the rows are linearly independent: D always has full row rank
    M - 1, and H's character group is Z^n modulo its row lattice.
    """
    if cf.monomial_count < 2:
        raise SingleMonomialError(
            "need at least two monomials to cut out a hypersurface with "
            "diagonal symmetry structure"
        )
    chars = cf.monomial_vectors
    return [[x - b for x, b in zip(chi, chars[0])] for chi in chars[1:]]


def count_torsion_points_mod(cf: CanonicalForm, modulus: int) -> int:
    """Count e in (Z/N)^n with D e == 0 (mod N), one variable at a time.

    The columns of D are taken in order; a dict maps the residues mod N of
    the rows still open to the number of partial assignments of the
    variables so far that reach them.  After a row's last entry that is
    nonzero mod N its residue must be 0, and it leaves the key.  Each of the
    N^n assignments is counted exactly once, for any integer matrix D, with
    no Smith form or block theory, so the count stays independent of the
    closed form it checks.  Guarded by N^n <= 10^7, decided by multiplying
    up to the limit; D is built only once the guard has passed.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    n = cf.variable_count
    power = 1
    for _ in range(n):
        power *= modulus
        if power > ENUMERATION_LIMIT:
            raise EnumerationTooLargeError(
                f"N^n = {decimal(modulus)}^{n} exceeds the enumeration guard "
                f"{ENUMERATION_LIMIT}"
            )
    rows = [[x % modulus for x in row] for row in character_matrix(cf)]
    last = [max((j for j, x in enumerate(row) if x), default=-1) for row in rows]
    open_rows = [r for r in range(len(rows)) if last[r] >= 0]
    counts = {(0,) * len(open_rows): 1}
    for j in range(n):
        keep = [k for k, r in enumerate(open_rows) if last[r] > j]
        closing = [k for k, r in enumerate(open_rows) if last[r] == j]
        # the N values of e_j, tallied by what they add to the closing rows
        # and to the others; a key reaches 0 on the closing rows only with
        # the values that add its negative there
        moves: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for x in range(modulus):
            add = [rows[r][j] * x % modulus for r in open_rows]
            tally = moves.setdefault(tuple(add[k] for k in closing), {})
            rest = tuple(add[k] for k in keep)
            tally[rest] = tally.get(rest, 0) + 1
        step: dict[tuple[int, ...], int] = {}
        for key, count in counts.items():
            need = tuple(-key[k] % modulus for k in closing)
            for rest, times in moves.get(need, {}).items():
                reached = tuple((key[k] + a) % modulus for k, a in zip(keep, rest))
                step[reached] = step.get(reached, 0) + count * times
        open_rows = [open_rows[k] for k in keep]
        counts = step
    return counts[()]


def torsion_count_formula(quasi, modulus: int) -> int:
    """Closed form for the same count: N^rank * prod gcd(d_k, N).

    Reads the torus rank and torsion invariants of the quasitorus
    description `quasi`, so `count_torsion_points_mod` checks the torsion
    the report emits.
    """
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
