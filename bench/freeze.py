"""Record the frozen answers of the default seed's inputs in expected.json.

    PYTHONPATH=src python3 bench/freeze.py

Run from the root of a checkout of the code whose answers are to be frozen
(they were recorded from the seed).  Only the fields in gate.frozen_fields
are kept; they do not depend on variable names or term order.
"""

from __future__ import annotations

import json

from sepaut.cli import build_report
from sepaut.polyio import parse_separated

from gate import EXPECTED_PATH, frozen_fields
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    expected = {}
    for workload, generate in WORKLOADS.items():
        expected[workload] = {
            inp.name: frozen_fields(build_report(inp.expr, parse_separated(inp.expr)))
            for inp in generate(DEFAULT_SEED)
        }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, ensure_ascii=True) + "\n")


if __name__ == "__main__":
    main()
