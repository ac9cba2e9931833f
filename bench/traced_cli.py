"""Run one `python -m sepaut` command line under the tracer.

    python bench/traced_cli.py SPANS_PATH LABEL ARG...

Runs the `sepaut` package as `python -m sepaut ARG...` does (same stdout and
exit code) and writes the spans of the run to SPANS_PATH at exit.  The
caller puts the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import runpy
import sys

from tracer import Tracer


def run_module() -> int:
    try:
        runpy.run_module("sepaut", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    return 0


def main(argv) -> int:
    spans_path, label, *args = argv
    tracer = Tracer()
    tracer.install()
    sys.argv = ["sepaut", *args]
    try:
        return tracer.report_span(label, run_module)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
