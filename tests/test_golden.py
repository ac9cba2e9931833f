"""Byte-identical command-line output on a golden corpus.

`golden/corpus.json` was recorded before the analysis was restructured into
one pass, in the dense layout that printed every vector in full, so any
change to a printed value shows here.  Each JSON output goes through the
strict referee `golden_replay.dense_layout`, which expands it back to that
layout and must give the recorded bytes (or digest); the text and `verify`
outputs must equal the recorded bytes as printed.  `golden_replay.py` also
replays the corpus without pytest, and records it again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_replay import (
    FLAGSHIP,
    WIDE,
    RefereeError,
    cases,
    dense_layout,
    expected,
    load,
    recorded_form,
    replay,
    run,
)


TESTS = Path(__file__).resolve().parent


def test_corpus_covers_every_case():
    assert sorted(load()) == sorted([*cases(), *WIDE])


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden(name):
    entry = load()[name]
    assert replay(name, entry) == expected(name, entry)


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_output_matches_golden_digest(name):
    entry = load()[name]
    assert replay(name, entry) == expected(name, entry)


def test_referee_rejects_what_it_does_not_know():
    """The referee refuses an unknown or missing key (each derived section
    the report no longer prints among them, put back where it was), a
    witness that is not a list of torus rank decimal strings (the
    [index, "value"] pairs it was once printed as among them), and a
    generator that is not in cycle notation over the variables."""
    argv = ["analyze", FLAGSHIP, "--json"]
    report = json.loads(run(argv)[1])
    dense_layout(report)

    def spoilt(change):
        copy = json.loads(json.dumps(report))
        change(copy)
        return copy

    def put_back(section, position, key, value):
        def change(r):
            items = list(r[section].items())
            items.insert(position, (key, value))
            r[section] = dict(items)

        return spoilt(change)

    weights = [[[0, "10"], [1, "-10"]], [[0, "-10"], [1, "11"]]] + [[[0, "1"]]] * 3
    pairs = [{"block": 0, "position": 1, "vector": [[0, "10"], [1, "-11"]]}]
    pure = report["canonical_form"]["pure_blocks"]
    exponents = report["canonical_form"]["mixed_blocks"][0]["exponents"]
    classes = [{"blocks": [0], "exponents": exponents, "inner_multiplicities": [1, 1]}]
    bad = [
        put_back("cone", 0, "weights", weights),
        put_back("cone", 0, "pointed", True),
        put_back("cone", 1, "homogeneity_cocharacter", ["10", "10", "21", "21", "21"]),
        put_back("cone", 2, "pair_cocharacters", pairs),
        put_back("permutation_group", 2, "pure_factors", pure),
        put_back("permutation_group", 2, "mixed_classes", classes),
        spoilt(lambda r: r["aut"].update(action=[])),
        spoilt(lambda r: r["cone"].update(basis=[])),
        spoilt(lambda r: r["cone"].pop("witness")),
        spoilt(lambda r: r.update(extra=1)),
        spoilt(lambda r: r["cone"].update(witness=None)),
        spoilt(lambda r: r["cone"].update(witness=[[0, "21"], [1, "20"]])),
        spoilt(lambda r: r["cone"].update(witness=["21"])),
        spoilt(lambda r: r["cone"].update(witness=["21", "20", "0"])),
        spoilt(lambda r: r["cone"].update(witness=["21", 20])),
        spoilt(lambda r: r["cone"].update(witness=["21", "020"])),
        spoilt(lambda r: r["cone"].update(witness=["21", "2O"])),
        spoilt(lambda r: r["permutation_group"]["generators"].append("(Y1 Y1)")),
        spoilt(lambda r: r["permutation_group"]["generators"].append("(Y1 Z9)")),
        spoilt(lambda r: r["permutation_group"]["generators"].append("Y1 Y2")),
    ]
    for copy in bad:
        with pytest.raises(RefereeError):
            dense_layout(copy)
    with pytest.raises(RefereeError):
        recorded_form(argv, run(argv)[1].replace("\n  ", "\n "))


def test_replay_runs_on_the_standard_library_alone():
    """`python -S` leaves out site-packages, so pytest and hypothesis are
    out of reach: the replay needs only the standard library and `sepaut`."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", str(TESTS / "golden_replay.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"0 of {len(load())} golden entries failed to replay\n"
    # 86 entries, the 20 inputs of the benchmark's in-process workloads, and
    # the text reports of the other forms and the scaled one
    assert len(load()) == 124
