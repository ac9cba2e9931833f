"""Command-line front end: analyze, verify, fermat.

`main` reads its command line by one rule (`USAGE`): the first word is the
command, and each later word is one of its options, `-h` or `--help`, `--`
(every word after it is a positional) or else a positional.  The input of
`analyze` and `verify` is the expression (`-x^2+y^3` and `-h^2+y^3` too),
or `-` for stdin (`sepaut analyze - < poly.txt`), never a file name.
`json` loads only to print JSON.
Exit codes: 0 success, 1 failure or error (a closed stdout pipe too,
silently), 2 input not separated, 3 oracle guard violation (the oracle
would take over 10^6 steps).  JSON output has a fixed key order, escapes
non-ASCII characters, and serializes unbounded integers and rationals as
decimal strings, so identical invocations produce byte-identical output.
The analysis holds its vectors sparse and its permutations as cycles, and
the report prints each fact once, from that description, and nothing that
can be read off another field.  JSON prints the cocharacter basis, the
torsion generators (each with its own order) and the cone's witness as
dense lists of decimal strings, and each permutation generator once, in
cycle notation.  The cone section prints the witness u alone, t0 in the
coordinates of the printed basis, which the analysis certifies exactly
(so the cone is always pointed); t0 (the lcm of the block degrees over
each variable's block degree), the weights (the basis transposed), the
pair cocharacters and the classes of P(F) are read off the printed blocks
and basis.  The report dict is the one place a value is formatted,
each dense vector through `polyio.decimals` and every other integer that
can pass the `str` digit limit through `polyio.decimal`; the text report
only joins its strings.  Both modes print the same vectors, and refuse
(`ReportTooLargeError`, exit 1) a report that would print more than
`REPORT_LIMIT` vector entries and cycle points, `fermat` before it
builds the form.  The oracles (`--verify`, `verify`) check the one
analysis that is reported, reading its cycles and sparse vectors as it
emits them, and load only with the commands that run them.  Each oracle
run is one check record, printed as the same `verify <oracle>: <status>
(<detail>)` line by `analyze --verify` and `verify`.  No command loads the
Smith normal form (`intlat`).
"""

from __future__ import annotations

import os
import sys

from .autassembly import aut_group, fermat_form
from .permgroup import cycle_notation
from .polyio import NotSeparatedError, PolynomialError, decimal, decimals, parse_separated

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
        # what the input brought (a no-break space, say) prints escaped
        return s.encode(enc, "backslashreplace").decode(enc)


def _read_input(arg: str) -> str:
    """The expression `arg`, or for `-` the text on stdin, stripped."""
    if arg == "-" and sys.stdin is None:  # started with stdin closed (`<&-`)
        raise OSError("stdin is closed")
    return sys.stdin.read().strip() if arg == "-" else arg


def _frac(pair) -> str | None:
    """A (numerator, denominator) pair as `a/b`, or `a` for b = 1."""
    if pair is None:
        return None
    num, den = pair
    return decimal(num) if den == 1 else f"{decimal(num)}/{decimal(den)}"


def _check(oracle: str, cf, aut, modulus) -> dict:
    """The check record of one oracle run against the analysis `aut`: its
    permutation group's order ('perms'), its quasitorus's count of
    `modulus`-torsion points ('torsion') or its generators ('generators').
    The enumeration guard of the perms and torsion oracles makes it
    'skipped', a generator failing certification 'fail'; either way the
    detail is the oracle's message.  The oracles load only here, so a plain
    analysis never imports them."""
    from . import oracles

    name = oracle if modulus is None else f"torsion mod {decimal(modulus)}"
    try:
        if oracle == "perms":
            found, claimed = oracles.brute_force_perm_order(cf), aut.perm.order
            detail = f"brute force {decimal(found)}, closed formula {decimal(claimed)}"
        elif oracle == "torsion":
            found = oracles.count_torsion_points_mod(cf, modulus)
            claimed = oracles.torsion_count_formula(aut.quasitorus, modulus)
            detail = f"enumerated {decimal(found)}, divisor formula {decimal(claimed)}"
        else:
            found = claimed = oracles.certify_pipeline_generators(cf, aut)
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
    moduli = sorted(set(aut.quasitorus.torsion)) or [2]
    runs = [("generators", None), ("perms", None)] + [("torsion", m) for m in moduli]
    return [_check(oracle, cf, aut, modulus) for oracle, modulus in runs]


def _report_size(n: int, aut) -> int:
    """Vector entries and cycle points the report prints: n for each
    cocharacter basis vector and torsion generator, the torus rank for the
    witness, and one for each point of a permutation generator."""
    quasi = aut.quasitorus
    size = (quasi.torus_rank + len(quasi.torsion_generators)) * n + quasi.torus_rank
    return size + sum(len(cycle) for g in aut.perm.generators for cycle in g)


def _refuse_over_limit(size: int) -> None:
    if size > REPORT_LIMIT:
        raise ReportTooLargeError(
            f"the report would print {decimal(size)} vector entries and cycle "
            f"points, over the limit of {REPORT_LIMIT}"
        )


def build_report(input_text: str | None, cf, verify: bool = False) -> dict:
    """Ordered, JSON-ready report of the full analysis of `cf`, its checks
    included when `verify`; `input_text` None takes the rendered form as
    the input (the `fermat` command).

    Raises `ReportTooLargeError` before expanding any vector or running any
    oracle when the report would print more than `REPORT_LIMIT` entries
    (the JSON and the text of `render_text` print the same)."""
    aut = aut_group(cf)
    _refuse_over_limit(_report_size(cf.variable_count, aut))
    checks = run_verification(cf, aut) if verify else []
    cert, quasi = aut.rigidity, aut.quasitorus
    names = cf.var_order
    n = len(names)
    rendered = cf.to_text()

    return {
        "input": rendered if input_text is None else input_text,
        "canonical_form": {
            "rendered": rendered,
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
            "torus_rank": quasi.torus_rank,
            "torsion": [decimal(d) for d in quasi.torsion],
            "cocharacter_basis": [decimals(v, n) for v in quasi.cocharacter_basis],
            "torsion_generators": [
                {"order": decimal(t.order), "exponents": decimals(t.exponents, n)}
                for t in quasi.torsion_generators
            ],
        },
        "permutation_group": {
            "order": decimal(aut.perm.order),
            "structure": aut.perm.structure,
            "generators": [cycle_notation(g, names) for g in aut.perm.generators],
        },
        "aut": {
            "structure": aut.structure_string,
            "conditional_on_rigidity": aut.conditional,
        },
        "cone": {
            "witness": decimals(aut.witness, quasi.torus_rank),
        },
        "irreducible": aut.irreducible,
        "verification": {
            "requested": bool(verify),
            "checks": checks,
        },
    }


def _entries(entries: list[str]) -> str:
    """A vector's printed entries, as the text prints them."""
    return "(" + ", ".join(entries) + ")"


def render_text(report: dict) -> str:
    """The text report of `report` (a `build_report` dict), ending in the
    line of each check when verification ran.  Every value prints as the
    report holds it."""
    form, cert, quasi = report["canonical_form"], report["rigidity"], report["quasitorus"]
    perm, aut = report["permutation_group"], report["aut"]
    lines = [
        f"input: {report['input']}",
        f"canonical form: {form['rendered']}",
        f"  variables ({form['variable_count']}): " + " ".join(form["variables"])
        + f"   monomials: {form['monomial_count']}",
    ]
    if form["scaling_absorbed"]:
        lines.append("  non-unit coefficients absorbed by a diagonal rescaling")

    suffix = " (equality)" if cert["equality"] else ""
    lines.append(
        f"rigidity: sum(1/e_v) = {cert['reciprocal_sum']}, "
        f"threshold = {cert['threshold'] or 'n/a'} -> {cert['verdict']}{suffix}"
    )
    lines.append(f"  note: {cert['note']}")

    torsion = ", ".join(f"Z/{d}" for d in quasi["torsion"]) or "none"
    lines.append(f"diagonal symmetries H: torus rank {quasi['torus_rank']}, torsion {torsion}")
    lines.append("  cocharacter basis: " + "; ".join(map(_entries, quasi["cocharacter_basis"])))
    for t in quasi["torsion_generators"]:
        lines.append(
            f"  torsion generator: order {t['order']}, exponents {_entries(t['exponents'])}"
        )

    lines.append(
        f"permutation group P(F): order {perm['order']}, structure {perm['structure']}"
    )
    if perm["generators"]:
        lines.append("  generators: " + ", ".join(perm["generators"]))

    lines.append(f"automorphism group: {aut['structure']}")
    if aut["conditional_on_rigidity"]:
        lines.append(
            "  conditional on rigidity: the product is always a subgroup of "
            "Aut; maximality needs a rigid input"
        )

    # the analysis checked the witness, so the cone is pointed
    witness = _entries(report["cone"]["witness"])
    lines.append(f"weight cone: pointed = yes, witness u = {witness}")
    lines.append(f"irreducibility: {report['irreducible']}")
    if report["verification"]["requested"]:
        lines.extend(map(_check_line, report["verification"]["checks"]))
    return "\n".join(lines)


def _check_line(check: dict) -> str:
    return f"verify {check['oracle']}: {check['status']} ({check['detail']})"


def cmd_analyze(command: str, inputs: list, as_json: bool, verify: bool) -> int:
    if command == "fermat":
        n, alpha = inputs
        if n >= 2 and alpha >= 2:  # `_report_size`: n^2 + n + 3, n^2 + 3 for n = 2
            _refuse_over_limit(n * n + 3 + (n if n > 2 else 0))
        text, cf = None, fermat_form(n, alpha)
    else:
        text = _read_input(inputs[0])
        cf = parse_separated(text)
    report = build_report(text, cf, verify)
    if as_json:
        import json
        print(json.dumps(report, indent=2, ensure_ascii=True))
    else:
        print(_printable(render_text(report)))
    if any(c["status"] == "fail" for c in report["verification"]["checks"]):
        return EXIT_ERROR
    return EXIT_OK


def cmd_verify(arg: str, oracle: str, modulus: int | None) -> int:
    if (oracle == "torsion") != (modulus is not None):
        need = "needs --mod N" if oracle == "torsion" else "takes no --mod"
        print(f"error: the {oracle} oracle {need}", file=sys.stderr)
        return EXIT_ERROR
    cf = parse_separated(_read_input(arg))
    check = _check(oracle, cf, aut_group(cf), modulus)
    if check["status"] == "skipped":
        print(f"guard violation: {check['detail']}", file=sys.stderr)
        return EXIT_GUARD
    print(_check_line(check))
    return EXIT_OK if check["status"] == "pass" else EXIT_ERROR


USAGE = """\
usage: sepaut analyze EXPR [--json] [--verify]
       sepaut verify EXPR --oracle perms|torsion|generators [--mod N]
       sepaut fermat N ALPHA [--json] [--verify]
EXPR is the expression (-x^2+y^3 too), or - to read it from stdin.  Every
word after -- is EXPR or N ALPHA; -h or --help before it prints this text."""

# the options of each command; --oracle and --mod take the next word
_FLAGS = ("--json", "--verify")
_OPTIONS = {"analyze": _FLAGS, "verify": ("--oracle", "--mod"), "fermat": _FLAGS}


class UsageError(Exception):
    """A command line that `USAGE` does not describe."""


def _read_argv(argv: list[str]) -> tuple[str | None, list, dict]:
    """The command, positionals and options of `argv` by the module's one
    rule, the command None for help.  Raises `UsageError` for a `--word`
    that is no option, an option given twice or missing its value, for
    positionals other than one EXPR or N ALPHA, and for a `--mod` below 1."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    if "-h" in head or "--help" in head:
        return None, [], {}
    words = iter(argv)
    command = next(words, None)
    if command not in _OPTIONS:
        raise UsageError(f"invalid choice: {command!r}" if command else "no command")
    inputs, options = [], {}
    for word in words:
        if word == "--":
            inputs.extend(words)
        elif word in _OPTIONS[command]:
            if word in options:
                raise UsageError(f"{word} given twice")
            options[word] = next(words, None) if command == "verify" else True
            if options[word] is None:
                raise UsageError(f"{word} needs a value")
        elif word.startswith("--"):
            raise UsageError(f"unrecognized arguments: {word}")
        else:
            inputs.append(word)
    want = "N ALPHA" if command == "fermat" else "EXPR"
    if len(inputs) != len(want.split()):
        raise UsageError(f"{command} takes {want}, got {inputs}")
    if command == "verify" and options.get("--oracle") not in ("perms", "torsion", "generators"):
        raise UsageError("verify needs --oracle perms, torsion or generators")
    try:
        if command == "fermat":
            inputs = [int(word) for word in inputs]
        if "--mod" in options:
            options["--mod"] = int(options["--mod"])
    except ValueError as exc:
        raise UsageError(exc) from None
    if options.get("--mod", 1) < 1:
        raise UsageError("--mod must be >= 1")
    return command, inputs, options


def main(argv=None) -> int:
    """Run the command line `argv`, `sys.argv[1:]` when None."""
    try:
        command, inputs, options = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if command is None:
            print(USAGE)
            code = EXIT_OK
        elif command == "verify":
            code = cmd_verify(inputs[0], options["--oracle"], options.get("--mod"))
        else:
            code = cmd_analyze(command, inputs, "--json" in options, "--verify" in options)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader left (`| head`): quiet exit 1, and no second error when
        # the interpreter flushes stdout at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except NotSeparatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SEPARATED
    except (PolynomialError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
