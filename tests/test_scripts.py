"""The demo scripts are the only callers of the library API outside the
package and its tests; running their main() keeps them from breaking
silently when that API changes."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["analyze_flagship.py", "fermat_scan.py"])
def test_script_main_runs(script, capsys):
    runpy.run_path(str(SCRIPTS / script))["main"]()
    out = capsys.readouterr().out
    assert "⋉" in out
