#!/usr/bin/env python3
"""Scan the Fermat family Y1^a + ... + Yn^a over a small parameter grid.

Prints one line per (n, alpha) with the assembled group structure, the
brute-forced permutation order, and the rigidity verdict, so the expected
pattern S_n x| ((Z/alpha)^(n-1) x T^1) can be eyeballed in one screen.
"""

from math import factorial

from sepaut.autassembly import fermat_aut, fermat_form
from sepaut.oracles import brute_force_perm_order


def main() -> None:
    header = f"{'n':>2} {'alpha':>5} {'perm order':>10} {'brute':>6} {'rigidity':>15}  structure"
    print(header)
    print("-" * len(header))
    for n in range(2, 7):
        for alpha in range(2, 8):
            aut = fermat_aut(n, alpha)
            cf = fermat_form(n, alpha)
            brute = brute_force_perm_order(cf)
            cert = aut.rigidity
            assert aut.perm.order == brute == factorial(n)
            print(
                f"{n:>2} {alpha:>5} {aut.perm.order:>10} {brute:>6} "
                f"{cert.verdict:>15}  {aut.structure_string}"
            )


if __name__ == "__main__":
    main()
