"""README stays true to the code: its library example runs as written and
its usage block is the text `sepaut -h` prints."""

import re
from pathlib import Path

from sepaut.cli import USAGE

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of the README section `## title`, up to the next section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs_and_its_comments_are_the_values():
    # each expression line is commented with its value's repr, optionally
    # followed by `: ` and a remark; every other line is a statement
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.DOTALL)[1]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = repr(eval(expression, namespace))
        assert comment == value or comment.startswith(value + ": "), line
        checked += 1
    assert checked == 7


def test_command_line_usage_block_is_the_usage_text():
    assert f"\n```\n{USAGE}\n```\n" in _section("Command line")
