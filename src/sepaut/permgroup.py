"""The permutation group of the polynomial: variable permutations fixing F.

For a separated polynomial with unit coefficients a permutation preserves F
exactly when it maps each monomial onto a monomial with the same exponent
data.  Within a monomial only variables of equal exponent may move, and
whole monomials can swap when their exponent tuples coincide, which yields
a wreath-type factor per class of identical blocks: one class per shape of
`CanonicalForm.shapes`.  A pure block of k variables is a class of k
one-variable blocks, so its factor is S_k.  The group is the direct product
of those factors, so its order has a closed formula and a short generator
list.  Each generator is held as its cycles (`polyio.Permutation`), in
O(points moved) entries, and the report prints it in cycle notation.  The
classes are neither held nor printed: the canonical form's blocks give
them.  The brute-force check, over the permutations that keep each
exponent, is `oracles.brute_force_perm_order`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from math import factorial, prod

from .polyio import CanonicalForm, Permutation

__all__ = [
    "PermGroupDescription",
    "permutation_group",
    "cycle_notation",
]


def cycle_notation(cycles: Permutation, names) -> str:
    """Render a permutation, given as its cycles, over variable names."""
    return "".join(
        ["(" + " ".join(map(names.__getitem__, cycle)) + ")" for cycle in cycles]
    ) or "()"


PermGroupDescription = namedtuple("PermGroupDescription", "order generators structure")
PermGroupDescription.__doc__ = """Order, generators in cycle form, structure.  The
classes of identical blocks are not held: they are the pure blocks and the
runs of equal exponent tuples in `CanonicalForm.mixed_blocks`."""


def permutation_group(cf: CanonicalForm) -> PermGroupDescription:
    """Factor structure, exact order, and generators of the group."""
    gens: list[Permutation] = []
    order = 1
    parts = []
    # one class per shape of `cf.shapes`: its blocks start at `starts` and
    # are numbered in turn, so every run of points and every column (offset
    # i of each block in the class) ascends, and the generators are built
    # directly in canonical cycle form
    for exponents, starts in cf.shapes:
        k, size = len(exponents), len(starts)
        mults = tuple(len(list(g)) for _, g in groupby(exponents))
        if size == 1 and k == len(mults):
            continue  # one block with distinct exponents: a trivial factor
        # a transposition and a full cycle generate S_m on each run
        for start in starts if k > len(mults) else ():
            for m in mults:
                if m >= 2:
                    gens.append(((start, start + 1),))
                if m >= 3:
                    gens.append((tuple(range(start, start + m)),))
                start += m
        # block j offset i maps to block j+1 offset i, cyclically
        if size >= 2:
            gens.append(tuple(zip(*(range(s, s + k) for s in starts[:2]))))
        if size >= 3:
            gens.append(tuple(zip(*(range(s, s + k) for s in starts))))
        order *= factorial(size) * prod(map(factorial, mults)) ** size
        parts.append(_factor(mults, size))

    return PermGroupDescription(
        order=order,
        generators=tuple(gens),
        structure=" × ".join(filter(None, parts)) or "1",
    )


def _factor(mults: tuple[int, ...], size: int) -> str:
    """The structure of one class, '' when it is trivial."""
    inner = [f"S{m}" for m in mults if m >= 2]
    core = " × ".join(inner)
    if not inner:
        return f"S{size}" if size >= 2 else ""
    if size == 1:
        return core
    return f"({core}) wr S{size}" if len(inner) > 1 else f"{core} wr S{size}"
