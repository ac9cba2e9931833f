"""Command-line front end: analyze, verify, fermat.

Exit codes: 0 success, 1 failure or error, 2 input not separated,
3 oracle guard violation (the oracle would take over 10^6 steps).  JSON
output has a fixed key order, escapes non-ASCII characters, and serializes
unbounded integers and rationals as decimal strings, so identical
invocations produce byte-identical output.
The analysis holds its vectors sparse and its permutations as cycles, and
each report section is printed once, from that description.  JSON prints
the cocharacter basis, the torsion generators and the homogeneity
cocharacter as dense lists of decimal strings (the quasitorus section is
read densely by downstream checks, and the homogeneity has no zero entry),
the cone's weights and witness and the pair cocharacters as their nonzero
`[index, "value"]` pairs, and each permutation generator once, in cycle
notation; the cocharacter basis is not repeated in the cone, nor the
generators as dense actions.  The text report is rendered from the
description too and prints only what it shows.  Either mode refuses
(`ReportTooLargeError`, exit 1) a report that would print more than
`REPORT_LIMIT` vector entries and cycle points, counted for that mode.
Every integer prints through `polyio.decimal`, whatever its length.
The oracles (`--verify`, `verify`) read the cycles and sparse vectors as
the analysis emits them, and load only with the commands that run them.
Each oracle run is one check record, printed as the same
`verify <oracle>: <status> (<detail>)` line by `analyze --verify` and
`verify`.  No command loads the Smith normal form (`intlat`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autassembly import aut_group, fermat_form
from .permgroup import cycle_notation, permutation_group
from .polyio import NotSeparatedError, PolynomialError, decimal, dense, parse_separated
from .quasitorus import quasitorus_structure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_SEPARATED = 2
EXIT_GUARD = 3

REPORT_LIMIT = 20_000_000


class ReportTooLargeError(ValueError):
    """The report would print more than `REPORT_LIMIT` vector entries and
    cycle points."""

_ASCII_FALLBACK = {"⋉": "x|", "×": "x"}


def _printable(s: str) -> str:
    # mirror the symbolic notation, falling back to ASCII on narrow terminals
    enc = getattr(sys.stdout, "encoding", None) or "utf-8"
    try:
        s.encode(enc)
        return s
    except UnicodeEncodeError:
        for ch, rep in _ASCII_FALLBACK.items():
            s = s.replace(ch, rep)
        return s


def _read_input(arg: str) -> str:
    path = Path(arg)
    try:
        if path.is_file():
            return path.read_text().strip()
    except OSError:
        pass
    return arg


def _frac(x) -> str | None:
    if x is None:
        return None
    if x.denominator == 1:
        return decimal(x.numerator)
    return f"{decimal(x.numerator)}/{decimal(x.denominator)}"


def _check(oracle: str, cf, claim, modulus) -> dict:
    """The check record of one oracle run against `claim`: the permutation
    group ('perms'), the quasitorus ('torsion', counting mod `modulus`) or
    the whole analysis ('generators').  The enumeration guard of the perms
    and torsion oracles makes it 'skipped', a generator failing
    certification 'fail'; either way the detail is the oracle's message.
    The oracles load only here, so a plain analysis never imports them."""
    from . import oracles

    name = oracle if modulus is None else f"torsion mod {decimal(modulus)}"
    try:
        if oracle == "perms":
            found, claimed = oracles.brute_force_perm_order(cf), claim.order
            detail = f"brute force {decimal(found)}, closed formula {decimal(claimed)}"
        elif oracle == "torsion":
            found = oracles.count_torsion_points_mod(cf, modulus)
            claimed = oracles.torsion_count_formula(claim, modulus)
            detail = f"enumerated {decimal(found)}, divisor formula {decimal(claimed)}"
        else:
            found = claimed = len(oracles.certify_pipeline_generators(cf, claim))
            detail = f"{found} generators certified"
    except oracles.EnumerationTooLargeError as exc:
        status, detail = "skipped", str(exc)
    except oracles.NotAnAutomorphismError as exc:
        status, detail = "fail", str(exc)
    else:
        status = "pass" if found == claimed else "fail"
    return {"oracle": name, "status": status, "detail": detail}


def run_verification(cf, aut) -> list[dict]:
    """All applicable oracles against the analysis `aut`, in a fixed order;
    guards become 'skipped'."""
    runs = [("generators", aut, None), ("perms", aut.perm, None)]
    moduli = sorted(set(aut.quasitorus.torsion)) or [2]
    runs += [("torsion", aut.quasitorus, m) for m in moduli]
    return [_check(oracle, cf, claim, modulus) for oracle, claim, modulus in runs]


def _report_size(n: int, aut, as_json: bool) -> int:
    """Vector entries and cycle points the report prints: n for each
    cocharacter basis vector and torsion generator, one for each point of a
    permutation generator, and the witness (the torus rank in text, its
    nonzeros in JSON); JSON adds the n entries of the homogeneity and one
    pair for each nonzero of the weights and pair cocharacters."""
    quasi, cone = aut.quasitorus, aut.cone
    size = (quasi.torus_rank + len(quasi.torsion_generators)) * n
    size += sum(len(cycle) for g in aut.perm.generators for cycle in g)
    if cone.witness is not None:
        size += len(cone.witness) if as_json else quasi.torus_rank
    if as_json:
        size += n + sum(map(len, cone.weights))
        size += sum(len(p.vector) for p in aut.torus_generators.pair_cocharacters)
    return size


def _analysis(cf, verify: bool, as_json: bool):
    """`aut_group(cf)` and, when `verify`, its checks (else None).  Raises
    `ReportTooLargeError` before any oracle runs when the report in the
    chosen mode would print more than `REPORT_LIMIT` entries."""
    aut = aut_group(cf)
    size = _report_size(cf.variable_count, aut, as_json)
    if size > REPORT_LIMIT:
        raise ReportTooLargeError(
            f"the report would print {size} vector entries and cycle points, "
            f"over the limit of {REPORT_LIMIT}"
        )
    return aut, run_verification(cf, aut) if verify else None


def _pairs(vec) -> list:
    """The sparse vector `vec` as the report prints it: [index, "value"]."""
    return [[i, decimal(x)] for i, x in vec]


def build_report(input_text: str, cf, verify: bool = False) -> dict:
    """Ordered, JSON-ready report of the full analysis.

    Raises `ReportTooLargeError` before expanding any vector when the
    report would print more than `REPORT_LIMIT` entries."""
    aut, checks = _analysis(cf, verify, as_json=True)
    cert, cone, gens = aut.rigidity, aut.cone, aut.torus_generators
    names = cf.var_order
    n = len(names)

    def decimals(vec) -> list[str]:
        return dense(vec, n, "0", decimal)

    return {
        "input": input_text,
        "canonical_form": {
            "rendered": cf.to_text(),
            "variables": list(names),
            "mixed_blocks": [
                {"variables": list(b.variables), "exponents": list(b.exponents)}
                for b in cf.mixed_blocks
            ],
            "pure_blocks": [
                {"exponent": b.exponent, "variables": list(b.variables)}
                for b in cf.pure_blocks
            ],
            "variable_count": cf.variable_count,
            "monomial_count": cf.monomial_count,
            "scaling_absorbed": cf.scaling_note,
        },
        "rigidity": {
            "reciprocal_sum": _frac(cert.reciprocal_sum),
            "threshold": _frac(cert.threshold),
            "verdict": cert.verdict,
            "equality": cert.equality,
            "block_count_threshold": _frac(cert.block_count_threshold),
            "note": cert.note,
        },
        "quasitorus": {
            "torus_rank": aut.quasitorus.torus_rank,
            "torsion": [decimal(d) for d in aut.quasitorus.torsion],
            "cocharacter_basis": [decimals(v) for v in aut.quasitorus.cocharacter_basis],
            "torsion_generators": [
                {"order": decimal(t.order), "exponents": decimals(t.exponents)}
                for t in aut.quasitorus.torsion_generators
            ],
        },
        "permutation_group": {
            "order": decimal(aut.perm.order),
            "structure": aut.perm.structure,
            "pure_factors": [
                {"exponent": p.exponent, "variables": list(p.variables)}
                for p in cf.pure_blocks
            ],
            "mixed_classes": [
                {
                    "blocks": list(c.block_indices),
                    "exponents": list(c.exponents),
                    "inner_multiplicities": list(c.inner_multiplicities),
                }
                for c in aut.perm.mixed_classes
            ],
            "generators": [cycle_notation(g, names) for g in aut.perm.generators],
        },
        "aut": {
            "structure": aut.structure_string,
            "conditional_on_rigidity": aut.conditional,
        },
        "cone": {
            "weights": [_pairs(v) for v in cone.weights],
            "pointed": cone.pointed,
            "witness": _pairs(cone.witness) if cone.witness is not None else None,
            "homogeneity_cocharacter": decimals(gens.homogeneity),
            "pair_cocharacters": [
                {"block": p.block, "position": p.position, "vector": _pairs(p.vector)}
                for p in gens.pair_cocharacters
            ],
        },
        "irreducible": aut.irreducible,
        "verification": {
            "requested": bool(verify),
            "checks": checks or [],
        },
    }


def _entries(vec, dim: int) -> str:
    """The `dim` entries of the sparse vector `vec`, as the text prints them."""
    return "(" + ", ".join(dense(vec, dim, "0", decimal)) + ")"


def render_text(input_text: str, cf, aut, checks=None) -> str:
    """The text report of the analysis `aut` of `cf`, ending in the line of
    each check when verification ran (`checks` not None)."""
    quasi, cert, cone = aut.quasitorus, aut.rigidity, aut.cone
    names, n, rank = cf.var_order, cf.variable_count, quasi.torus_rank
    lines = [
        f"input: {input_text}",
        f"canonical form: {cf.to_text()}",
        f"  variables ({n}): " + " ".join(names) + f"   monomials: {cf.monomial_count}",
    ]
    if cf.scaling_note:
        lines.append("  non-unit coefficients absorbed by a diagonal rescaling")

    threshold = _frac(cert.threshold) or "n/a"
    suffix = " (equality)" if cert.equality else ""
    lines.append(
        f"rigidity: sum(1/e_v) = {_frac(cert.reciprocal_sum)}, "
        f"threshold = {threshold} -> {cert.verdict}{suffix}"
    )
    lines.append(f"  note: {cert.note}")

    torsion = ", ".join(f"Z/{decimal(d)}" for d in quasi.torsion) or "none"
    lines.append(f"diagonal symmetries H: torus rank {rank}, torsion {torsion}")
    basis = "; ".join(_entries(v, n) for v in quasi.cocharacter_basis)
    lines.append(f"  cocharacter basis: {basis}")
    for t in quasi.torsion_generators:
        lines.append(
            f"  torsion generator: order {decimal(t.order)}, "
            f"exponents {_entries(t.exponents, n)}"
        )

    perm = aut.perm
    lines.append(
        f"permutation group P(F): order {decimal(perm.order)}, structure {perm.structure}"
    )
    if perm.generators:
        lines.append(
            "  generators: " + ", ".join(cycle_notation(g, names) for g in perm.generators)
        )

    lines.append(f"automorphism group: {aut.structure_string}")
    if aut.conditional:
        lines.append(
            "  conditional on rigidity: the product is always a subgroup of "
            "Aut; maximality needs a rigid input"
        )

    witness = _entries(cone.witness, rank) if cone.witness is not None and rank else "none"
    lines.append(
        f"weight cone: pointed = {'yes' if cone.pointed else 'no'}, witness u = {witness}"
    )
    lines.append(f"irreducibility: {aut.irreducible}")
    if checks is not None:
        lines.extend(map(_check_line, checks))
    return "\n".join(lines)


def _check_line(check: dict) -> str:
    return f"verify {check['oracle']}: {check['status']} ({check['detail']})"


def cmd_analyze(args) -> int:
    if args.command == "fermat":
        cf = fermat_form(args.n, args.alpha)
        text = cf.to_text()
    else:
        text = _read_input(args.input)
        cf = parse_separated(text)
    if args.json:
        report = build_report(text, cf, verify=args.verify)
        print(json.dumps(report, indent=2, ensure_ascii=True))
        checks = report["verification"]["checks"]
    else:
        aut, checks = _analysis(cf, args.verify, as_json=False)
        print(_printable(render_text(text, cf, aut, checks)))
    if any(c["status"] == "fail" for c in checks or ()):
        return EXIT_ERROR
    return EXIT_OK


def cmd_verify(args) -> int:
    cf = parse_separated(_read_input(args.input))
    if (args.oracle == "torsion") != (args.mod is not None):
        need = "needs --mod N" if args.oracle == "torsion" else "takes no --mod"
        print(f"error: the {args.oracle} oracle {need}", file=sys.stderr)
        return EXIT_ERROR
    if args.oracle == "perms":
        claim = permutation_group(cf)
    elif args.oracle == "generators":
        claim = aut_group(cf)
    else:
        claim = quasitorus_structure(cf)
    check = _check(args.oracle, cf, claim, args.mod)
    if check["status"] == "skipped":
        print(f"guard violation: {check['detail']}", file=sys.stderr)
        return EXIT_GUARD
    print(_check_line(check))
    return EXIT_OK if check["status"] == "pass" else EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepaut",
        description=(
            "Structure of the automorphism group of a hypersurface cut out "
            "by a polynomial with separated variables"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of a separated polynomial")
    p.add_argument("input", help="an expression, or a path to a file holding one")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--verify", action="store_true", help="also run the oracles")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a single verification oracle")
    p.add_argument("input", help="an expression, or a path to a file holding one")
    p.add_argument(
        "--oracle", required=True, choices=["perms", "torsion", "generators"]
    )
    p.add_argument("--mod", type=int, default=None, help="modulus for 'torsion'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fermat", help="analyze Y1^alpha + ... + Yn^alpha")
    p.add_argument("n", type=int)
    p.add_argument("alpha", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of "not separated"
        return EXIT_ERROR if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except NotSeparatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SEPARATED
    except (PolynomialError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
