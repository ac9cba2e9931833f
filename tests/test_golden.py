"""Byte-identical command-line output on a golden corpus.

`golden/corpus.json` holds, for each command line below, its exit code and
either its exact stdout or, for the wide forms, the sha256 of its stdout.
It was recorded before the analysis was restructured into one pass, so any
change to a printed value shows here.  To record it again (only when an
output is meant to change, with the change listed in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from sepaut.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FLAGSHIP = "X1^10*X2^11 + Y1^10 + Y2^10 + Y3^10"
# all of these have n <= 8, so every oracle runs under --verify
FORMS = (
    FLAGSHIP,
    "x + y",
    "x*y + z*w",
    "x^2 + y^2",
    "x^2*y^3 + z^5",
    "x^3*y^3 + z^6 + w^6",
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


def _cases() -> dict[str, list[str]]:
    cases = {}
    for expr in FORMS:
        cases[f"analyze {expr} --json"] = ["analyze", expr, "--json"]
        cases[f"analyze {expr} --json --verify"] = [
            "analyze", expr, "--json", "--verify"
        ]
    for n in range(2, 7):
        for alpha in range(2, 8):
            argv = ["fermat", str(n), str(alpha), "--json"]
            cases[" ".join(argv)] = argv
            cases[" ".join(argv) + " --verify"] = argv + ["--verify"]
    cases["analyze flagship text"] = ["analyze", FLAGSHIP]
    cases["analyze flagship text --verify"] = ["analyze", FLAGSHIP, "--verify"]
    cases["verify flagship perms"] = ["verify", FLAGSHIP, "--oracle", "perms"]
    cases["verify flagship torsion mod 10"] = [
        "verify", FLAGSHIP, "--oracle", "torsion", "--mod", "10"
    ]
    cases["verify flagship generators"] = ["verify", FLAGSHIP, "--oracle", "generators"]
    return cases


# stored as the sha256 of stdout: each report is 70 to 180 kB
WIDE = {
    "fermat 100 3 --json": ["fermat", "100", "3", "--json"],
    "analyze 16 mixed blocks, 20-digit exponents --json": [
        "analyze", MIXED_20_DIGITS, "--json"
    ],
    "analyze 4 pure powers, 1000-digit exponents --json --verify": [
        "analyze", PURE_1000_DIGITS, "--json", "--verify"
    ],
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _record() -> dict:
    corpus = {}
    for name, argv in _cases().items():
        code, out = _run(argv)
        corpus[name] = {"argv": argv, "exit": code, "stdout": out}
    for name, argv in WIDE.items():
        code, out = _run(argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        corpus[name] = {"argv": argv, "exit": code, "sha256": digest}
    return corpus


def _load() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case():
    assert sorted(_load()) == sorted([*_cases(), *WIDE])


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_matches_golden(name):
    entry = _load()[name]
    assert _run(entry["argv"]) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_output_matches_golden_digest(name):
    entry = _load()[name]
    code, out = _run(entry["argv"])
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(_record(), indent=1, ensure_ascii=True) + "\n")
    sys.exit(0)
