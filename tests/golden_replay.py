"""The golden corpus and its replay, with the standard library alone.

`golden/corpus.json` holds, for each command line below, its exit code and
either its exact stdout or, for the wide forms, the sha256 of its stdout.
The JSON entries hold the dense layout in which every vector was printed in
full: the cone repeated the cocharacter basis (`cone.basis`), the weights,
witness and pair cocharacters were dense lists, and `aut.action` gave each
permutation generator as its n images.  The report now prints each section
once and the cone's vectors sparse, so a JSON output is compared through
`dense_layout`, a strict referee that rejects any key it does not know,
expands the output back to that layout and must reproduce the recorded
bytes; the text and `verify` outputs are compared as they are.

    PYTHONPATH=src python tests/golden_replay.py            # replay, exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_replay.py --record   # record again

Record only when an output is meant to change, with the change listed in
CHANGES.md; recording stores the dense layout of each JSON output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from sepaut.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"
# every oracle runs on each of them under --verify (the last has 11
# variables, of which 8640 permutations keep every exponent); the last three
# hold a class of three identical mixed blocks or an inner run of three
FORMS = (
    FLAGSHIP,
    "x + y",
    "x*y + z*w",
    "x^2 + y^2",
    "x^2*y^3 + z^5",
    "x^3*y^3 + z^6 + w^6",
    "a*b + c*d + e*f + g^3",
    "x^2*y^2*z^2*u^5 + v^7 + w^7",
    "a^2*b^2*c + d^2*e^2*f + g^2*h^2*i + j^5 + k^5",
)

# 16 mixed blocks of 3 variables; each block gcd is 2, 6, 10 or 30, so the
# torsion is not trivial, and every exponent has 20 digits
MIXED_20_DIGITS = " + ".join(
    "*".join(
        f"{v}{k}^{g * (10**19 // g + 17 * (3 * k + j) + 1)}"
        for j, v in enumerate("abc")
    )
    for k, g in enumerate((2, 6, 10, 30) * 4)
)
# 4 pure powers with 1000-digit exponents sharing the factors 2, 3 and 5
PURE_1000_DIGITS = " + ".join(
    f"{v}^{g * (10**999 // g + 7 * k + 1)}"
    for k, (v, g) in enumerate(zip("pqrs", (6, 10, 15, 30)))
)


def cases() -> dict[str, list[str]]:
    out = {}
    for expr in FORMS:
        out[f"analyze {expr} --json"] = ["analyze", expr, "--json"]
        out[f"analyze {expr} --json --verify"] = ["analyze", expr, "--json", "--verify"]
    for n in range(2, 7):
        for alpha in range(2, 8):
            argv = ["fermat", str(n), str(alpha), "--json"]
            out[" ".join(argv)] = argv
            out[" ".join(argv) + " --verify"] = argv + ["--verify"]
    out["analyze flagship text"] = ["analyze", FLAGSHIP]
    out["analyze flagship text --verify"] = ["analyze", FLAGSHIP, "--verify"]
    out["verify flagship perms"] = ["verify", FLAGSHIP, "--oracle", "perms"]
    out["verify flagship torsion mod 10"] = [
        "verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"
    ]
    out["verify flagship generators"] = ["verify", FLAGSHIP, "--oracle", "generators"]
    return out


# stored as the sha256 of stdout: each dense report is 70 to 180 kB
WIDE = {
    "fermat 100 3 --json": ["fermat", "100", "3", "--json"],
    "analyze 16 mixed blocks, 20-digit exponents --json": [
        "analyze", MIXED_20_DIGITS, "--json"
    ],
    "analyze 4 pure powers, 1000-digit exponents --json --verify": [
        "analyze", PURE_1000_DIGITS, "--json", "--verify"
    ],
}

# the keys of every object of a JSON report, in order, by path ("[]" for
# the entries of a list)
KEYS = {
    (): (
        "input", "canonical_form", "rigidity", "quasitorus", "permutation_group",
        "aut", "cone", "irreducible", "verification",
    ),
    ("canonical_form",): (
        "rendered", "variables", "mixed_blocks", "pure_blocks", "variable_count",
        "monomial_count", "scaling_absorbed",
    ),
    ("canonical_form", "mixed_blocks", "[]"): ("variables", "exponents"),
    ("canonical_form", "pure_blocks", "[]"): ("exponent", "variables"),
    ("rigidity",): (
        "reciprocal_sum", "threshold", "verdict", "equality",
        "block_count_threshold", "note",
    ),
    ("quasitorus",): ("torus_rank", "torsion", "cocharacter_basis", "torsion_generators"),
    ("quasitorus", "torsion_generators", "[]"): ("order", "exponents"),
    ("permutation_group",): (
        "order", "structure", "pure_factors", "mixed_classes", "generators",
    ),
    ("permutation_group", "pure_factors", "[]"): ("exponent", "variables"),
    ("permutation_group", "mixed_classes", "[]"): (
        "blocks", "exponents", "inner_multiplicities",
    ),
    ("aut",): ("structure", "conditional_on_rigidity"),
    ("cone",): (
        "weights", "pointed", "witness", "homogeneity_cocharacter", "pair_cocharacters",
    ),
    ("cone", "pair_cocharacters", "[]"): ("block", "position", "vector"),
    ("verification",): ("requested", "checks"),
    ("verification", "checks", "[]"): ("oracle", "status", "detail"),
}

_NONZERO = re.compile(r"-?[1-9][0-9]*\Z")
_CYCLE = re.compile(r"\(([^()]*)\)")


class RefereeError(ValueError):
    """A report the referee cannot read back into the dense layout."""


def _check_keys(node, path=()) -> None:
    if isinstance(node, dict):
        if KEYS.get(path) != tuple(node):
            raise RefereeError(f"keys {list(node)} at {path or 'the top'}")
        for key, value in node.items():
            _check_keys(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            _check_keys(value, (*path, "[]"))


def _dense(pairs, dim: int) -> list[str]:
    """The `dim` entries of a vector printed as [index, "value"] pairs:
    indices strictly increasing and in range, values nonzero decimals."""
    out, last = ["0"] * dim, -1
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise RefereeError(f"not an [index, value] pair: {pair!r}")
        index, value = pair
        if type(index) is not int or not last < index < dim:
            raise RefereeError(f"index {index!r} after {last}, dimension {dim}")
        if not (isinstance(value, str) and _NONZERO.match(value)):
            raise RefereeError(f"value {value!r} is not a nonzero decimal")
        out[index], last = value, index
    return out


def _images(generator: str, index: dict[str, int]) -> list[int]:
    """The n images of a generator printed in cycle notation."""
    cycles = [c.split() for c in _CYCLE.findall(generator)]
    if "".join(f"({' '.join(c)})" for c in cycles) != generator:
        raise RefereeError(f"not in cycle notation: {generator!r}")
    out = list(range(len(index)))
    moved = [v for cycle in cycles for v in cycle]
    if len(set(moved)) != len(moved) or not set(moved) <= set(index):
        raise RefereeError(f"not a permutation of the variables: {generator!r}")
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[index[a]] = index[b]
    return out


def dense_layout(report: dict) -> dict:
    """The report in the dense layout the corpus was recorded in: the cone
    with the cocharacter basis first and its vectors dense, and `aut` ending
    in the action of each permutation generator."""
    _check_keys(report)
    names = report["canonical_form"]["variables"]
    n, rank = len(names), report["quasitorus"]["torus_rank"]
    if report["canonical_form"]["variable_count"] != n:
        raise RefereeError("variable count differs from the variables")
    index = {v: i for i, v in enumerate(names)}
    cone = report["cone"]
    witness = cone["witness"]
    action = [_images(g, index) for g in report["permutation_group"]["generators"]]
    return {
        **report,
        "aut": {**report["aut"], "action": action},
        "cone": {
            "basis": report["quasitorus"]["cocharacter_basis"],
            "weights": [_dense(w, rank) for w in cone["weights"]],
            "pointed": cone["pointed"],
            "witness": None if witness is None else _dense(witness, rank),
            "homogeneity_cocharacter": cone["homogeneity_cocharacter"],
            "pair_cocharacters": [
                {**p, "vector": _dense(p["vector"], n)} for p in cone["pair_cocharacters"]
            ],
        },
    }


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def recorded_form(argv, out: str) -> str:
    """What the corpus holds for `argv`'s stdout `out`: a JSON report in the
    dense layout, any other output as printed.  A JSON output must itself be
    in the printed form (indent 2, ASCII) for its expansion to count."""
    if "--json" not in argv:
        return out
    report = json.loads(out)
    if _dump(report) != out:
        raise RefereeError("JSON output not in the printed form")
    return _dump(dense_layout(report))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def replay(name: str, entry: dict) -> tuple[int, str]:
    """Exit code and recorded form (digest for the wide entries) of one run."""
    code, out = run(entry["argv"])
    out = recorded_form(entry["argv"], out)
    if name in WIDE:
        return code, hashlib.sha256(out.encode()).hexdigest()
    return code, out


def expected(name: str, entry: dict) -> tuple[int, str]:
    return entry["exit"], entry["sha256" if name in WIDE else "stdout"]


def load() -> dict:
    return json.loads(CORPUS.read_text())


def record() -> dict:
    corpus = {}
    for name, argv in {**cases(), **WIDE}.items():
        code, out = replay(name, {"argv": argv})
        corpus[name] = {"argv": argv, "exit": code, "sha256" if name in WIDE else "stdout": out}
    return corpus


def check() -> list[str]:
    """The names of the corpus entries that do not replay, with the reason."""
    corpus = load()
    names = {*cases(), *WIDE}
    bad = [f"{name}: not in both the corpus and the cases" for name in sorted(set(corpus) ^ names)]
    for name, entry in corpus.items():
        try:
            if replay(name, entry) != expected(name, entry):
                bad.append(f"{name}: output differs")
        except (ValueError, TypeError, KeyError) as exc:  # RefereeError included
            bad.append(f"{name}: {type(exc).__name__}: {exc}")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        CORPUS.parent.mkdir(exist_ok=True)
        CORPUS.write_text(json.dumps(record(), indent=1, ensure_ascii=True) + "\n")
        sys.exit(0)
    if sys.argv[1:]:
        sys.exit("usage: golden_replay.py [--record]")
    failures = check()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(failures)} of {len(load())} golden entries failed to replay")
    sys.exit(1 if failures else 0)
