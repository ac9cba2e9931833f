#!/usr/bin/env python3
"""End-to-end run on the running example from the README.

Analyzes X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10, prints the text report with
all oracles enabled, and then re-derives the headline facts directly from
the library API as a sanity cross-check.
"""

from fractions import Fraction

from sepaut.autassembly import aut_group
from sepaut.cli import render_text, run_verification
from sepaut.polyio import parse_separated

EXPR = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"


def main() -> None:
    cf = parse_separated(EXPR)
    aut = aut_group(cf)
    print(render_text(EXPR, cf, aut, run_verification(cf, aut)))
    print()

    cert = aut.rigidity
    assert aut.perm.order == 6
    assert aut.quasitorus.torsion == (10, 10)
    assert aut.quasitorus.torus_rank == 2
    assert cert.reciprocal_sum == Fraction(27, 55)
    print(f"cross-check OK: {aut.structure_string}, "
          f"rigidity sum {cert.reciprocal_sum} <= {cert.threshold}")


if __name__ == "__main__":
    main()
