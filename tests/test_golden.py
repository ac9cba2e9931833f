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
    """The referee refuses an unknown or missing key, a dense vector where
    pairs belong, pairs out of order or with a zero value, and a generator
    that is not in cycle notation over the variables."""
    argv = ["analyze", FLAGSHIP, "--json"]
    report = json.loads(run(argv)[1])
    dense_layout(report)

    def spoilt(change):
        copy = json.loads(json.dumps(report))
        change(copy)
        return copy

    bad = [
        spoilt(lambda r: r["aut"].update(action=[])),
        spoilt(lambda r: r["cone"].update(basis=[])),
        spoilt(lambda r: r["cone"].pop("weights")),
        spoilt(lambda r: r.update(extra=1)),
        spoilt(lambda r: r["cone"].update(witness=["21", "20"])),
        spoilt(lambda r: r["cone"].update(witness=[[1, "20"], [0, "21"]])),
        spoilt(lambda r: r["cone"].update(witness=[[0, "21"], [1, "0"]])),
        spoilt(lambda r: r["cone"].update(witness=[[0, "21"], [2, "20"]])),
        spoilt(lambda r: r["cone"]["pair_cocharacters"][0].update(vector=[[0, 10]])),
        spoilt(lambda r: r["permutation_group"]["generators"].append("(Y1 Y1)")),
        spoilt(lambda r: r["permutation_group"]["generators"].append("(Y1 Z9)")),
        spoilt(lambda r: r["permutation_group"]["generators"].append("Y1 Y2")),
    ]
    for copy in bad:
        with pytest.raises(RefereeError):
            dense_layout(copy)
    with pytest.raises(RefereeError):
        recorded_form(argv, run(argv)[1].replace("\n  ", "\n "))
