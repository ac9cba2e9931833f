"""Command-line front end: analyze, verify, snf, fermat.

Exit codes: 0 success, 1 failure or error, 2 input not separated,
3 oracle guard violation.  JSON output has a fixed key order, escapes
non-ASCII characters, and serializes unbounded integers and rationals as
decimal strings, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autassembly import (
    NotAnAutomorphismError,
    aut_group,
    certify_pipeline_generators,
    fermat_form,
)
from .intlat import parse_matrix_text, smith_normal_form
from .permgroup import (
    TooManyVariablesError,
    brute_force_perm_order,
    cycle_notation,
    permutation_group,
)
from .polyio import NotSeparatedError, PolynomialError, parse_separated
from .quasitorus import (
    EnumerationTooLargeError,
    character_matrix,
    count_torsion_points_mod,
    quasitorus_structure,
    torsion_count_formula,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_SEPARATED = 2
EXIT_GUARD = 3

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


# str(int) refuses more than sys.get_int_max_str_digits() digits (640 at the
# least); the analysis can produce integers far longer than its input, so
# those are converted in pieces of fewer digits than that
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def _decimal(x: int) -> str:
    """Decimal string of any integer, whatever its length."""
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _decimal(-x)
    split, digits = _PIECE, _PIECE_DIGITS
    while split * split <= x:
        split, digits = split * split, 2 * digits
    high, low = divmod(x, split)
    return _decimal(high) + _decimal(low).zfill(digits)


def _ints(vec) -> list[str]:
    try:
        return [str(int(x)) for x in vec]
    except ValueError:
        return [_decimal(int(x)) for x in vec]


def _frac(x) -> str | None:
    if x is None:
        return None
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _oracle(oracle: str, cf, claim, cd, modulus):
    """(status, found, claimed) of one oracle run against `claim`: the
    permutation group ('perms'), the quasitorus ('torsion', enumerating
    `cd` mod `modulus`) or the whole analysis ('generators').  A guard gives
    ('skipped', message, None), a generator failing certification
    ('fail', message, None)."""
    try:
        if oracle == "perms":
            found, claimed = brute_force_perm_order(cf), claim.order
        elif oracle == "torsion":
            found = count_torsion_points_mod(cd, modulus)
            claimed = torsion_count_formula(claim, modulus)
        else:
            found = claimed = len(certify_pipeline_generators(cf, claim))
    except (TooManyVariablesError, EnumerationTooLargeError) as exc:
        return "skipped", str(exc), None
    except NotAnAutomorphismError as exc:
        return "fail", str(exc), None
    return ("pass" if found == claimed else "fail"), found, claimed


_CHECK_DETAILS = {
    "generators": "{} generators certified",
    "perms": "brute force {}, closed formula {}",
    "torsion": "enumerated {}, divisor formula {}",
}


def run_verification(cf, aut) -> list[dict]:
    """All applicable oracles against the analysis `aut`, in a fixed order;
    guards become 'skipped'."""
    cd = character_matrix(cf)
    runs = [("generators", aut, None), ("perms", aut.perm, None)]
    moduli = sorted(set(aut.quasitorus.torsion)) or [2]
    runs += [("torsion", aut.quasitorus, m) for m in moduli]
    checks = []
    for oracle, claim, modulus in runs:
        status, found, claimed = _oracle(oracle, cf, claim, cd, modulus)
        template = _CHECK_DETAILS[oracle]
        checks.append({
            "oracle": f"torsion mod {modulus}" if modulus else oracle,
            "status": status,
            "detail": found if claimed is None else template.format(found, claimed),
        })
    return checks


def build_report(input_text: str, cf, verify: bool = False) -> dict:
    """Ordered, JSON-ready report of the full analysis."""
    aut = aut_group(cf)
    cert, cone, gens = aut.rigidity, aut.cone, aut.torus_generators
    names = cf.var_order
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
            "torsion": _ints(aut.quasitorus.torsion),
            "cocharacter_basis": [_ints(v) for v in aut.quasitorus.cocharacter_basis],
            "torsion_generators": [
                {"order": _decimal(t.order), "exponents": _ints(t.exponents)}
                for t in aut.quasitorus.torsion_generators
            ],
        },
        "permutation_group": {
            "order": _decimal(aut.perm.order),
            "structure": aut.perm.structure,
            "pure_factors": [
                {"exponent": p.exponent, "variables": list(p.variables)}
                for p in aut.perm.pure_factors
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
            "action": [list(g) for g in aut.action],
        },
        "cone": {
            "basis": [_ints(v) for v in cone.basis],
            "weights": [_ints(v) for v in cone.weights],
            "pointed": cone.pointed,
            "witness": _ints(cone.witness) if cone.witness is not None else None,
            "homogeneity_cocharacter": _ints(gens.homogeneity),
            "pair_cocharacters": [
                {"block": p.block, "position": p.position, "vector": _ints(p.vector)}
                for p in gens.pair_cocharacters
            ],
        },
        "irreducible": aut.irreducible,
        "verification": {
            "requested": bool(verify),
            "checks": run_verification(cf, aut) if verify else [],
        },
    }


def render_text(report: dict) -> str:
    lines = []
    cf_sec = report["canonical_form"]
    lines.append(f"input: {report['input']}")
    lines.append(f"canonical form: {cf_sec['rendered']}")
    lines.append(
        f"  variables ({cf_sec['variable_count']}): "
        + " ".join(cf_sec["variables"])
        + f"   monomials: {cf_sec['monomial_count']}"
    )
    if cf_sec["scaling_absorbed"]:
        lines.append("  non-unit coefficients absorbed by a diagonal rescaling")

    rig = report["rigidity"]
    threshold = rig["threshold"] if rig["threshold"] is not None else "n/a"
    suffix = " (equality)" if rig["equality"] else ""
    lines.append(
        f"rigidity: sum(1/e_v) = {rig['reciprocal_sum']}, "
        f"threshold = {threshold} -> {rig['verdict']}{suffix}"
    )
    lines.append(f"  note: {rig['note']}")

    quasi = report["quasitorus"]
    torsion = ", ".join(f"Z/{d}" for d in quasi["torsion"]) or "none"
    lines.append(
        f"diagonal symmetries H: torus rank {quasi['torus_rank']}, torsion {torsion}"
    )
    basis = "; ".join("(" + ", ".join(v) + ")" for v in quasi["cocharacter_basis"])
    lines.append(f"  cocharacter basis: {basis}")
    for t in quasi["torsion_generators"]:
        lines.append(
            f"  torsion generator: order {t['order']}, "
            "exponents (" + ", ".join(t["exponents"]) + ")"
        )

    perm = report["permutation_group"]
    lines.append(
        f"permutation group P(F): order {perm['order']}, structure {perm['structure']}"
    )
    if perm["generators"]:
        lines.append("  generators: " + ", ".join(perm["generators"]))

    lines.append(f"automorphism group: {report['aut']['structure']}")
    if report["aut"]["conditional_on_rigidity"]:
        lines.append(
            "  conditional on rigidity: the product is always a subgroup of "
            "Aut; maximality needs a rigid input"
        )

    cone = report["cone"]
    witness = "(" + ", ".join(cone["witness"]) + ")" if cone["witness"] else "none"
    lines.append(
        f"weight cone: pointed = {'yes' if cone['pointed'] else 'no'}, witness u = {witness}"
    )
    lines.append(f"irreducibility: {report['irreducible']}")

    ver = report["verification"]
    if ver["requested"]:
        for c in ver["checks"]:
            lines.append(f"verify {c['oracle']}: {c['status']} ({c['detail']})")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report, indent=2, ensure_ascii=True))
    else:
        print(_printable(render_text(report)))
    checks = report["verification"]["checks"]
    if any(c["status"] == "fail" for c in checks):
        return EXIT_ERROR
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.command == "fermat":
        cf = fermat_form(args.n, args.alpha)
        text = cf.to_text()
    else:
        text = _read_input(args.input)
        cf = parse_separated(text)
    return _emit(build_report(text, cf, verify=args.verify), args.json)


def cmd_verify(args) -> int:
    cf = parse_separated(_read_input(args.input))
    cd = None
    if args.oracle == "perms":
        claim = permutation_group(cf)
    elif args.oracle == "generators":
        claim = aut_group(cf)
    elif args.mod is None:
        print("error: the torsion oracle needs --mod N", file=sys.stderr)
        return EXIT_ERROR
    else:
        claim, cd = quasitorus_structure(cf), character_matrix(cf)
    status, found, claimed = _oracle(args.oracle, cf, claim, cd, args.mod)
    if status == "skipped":
        print(f"guard violation: {found}", file=sys.stderr)
        return EXIT_GUARD
    ok = status == "pass"
    rel, verdict = ("==", "pass") if ok else ("!=", "FAIL")
    if args.oracle == "perms":
        print(f"perms: brute force {found} {rel} {claimed} (closed formula) "
              f"-> {verdict}")
    elif args.oracle == "torsion":
        print(f"torsion mod {args.mod}: enumerated {found} {rel} {claimed} "
              f"(divisor formula) -> {verdict}")
    elif ok:
        print(f"generators: {found} certified -> pass")
    else:
        print(f"generators: FAIL ({found})")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_snf(args) -> int:
    if args.matrix == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.matrix).read_text()
    matrix = parse_matrix_text(text)
    result = smith_normal_form(matrix)
    if args.json:
        out = {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "rank": result.rank,
            "divisors": [str(d) for d in result.divisors],
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"rows={matrix.rows} cols={matrix.cols} rank={result.rank}")
        divisors = " ".join(str(d) for d in result.divisors)
        print(f"divisors: {divisors}" if divisors else "divisors: (none)")
    return EXIT_OK


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

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument(
        "matrix", help="matrix file: first line 'rows cols', then entries; - for stdin"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_snf)

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
