"""The README's library quick tour runs and shows what its comments state.

The Python block under "Library quick tour" is executed as it stands.  A
comment that opens with a Python literal states the value of the
expression on its line; each such value is compared with the one the
package computes.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    match = re.search(r"## Library quick tour\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no quick tour block"
    return match.group(1)


def stated_value(comment: str):
    """(True, value) for the longest prefix of ``comment`` that is a
    Python literal, or (False, None) when none is."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end].strip())
        except (ValueError, SyntaxError):
            continue
    return False, None


def test_quick_tour_states_what_it_computes():
    block = quick_tour()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        found, value = stated_value(comment)
        if found:
            stated[code.strip()] = value
    assert stated == {
        "cert.ok": True,
        "rep.ideal.generator_strings()": ["x1^2", "x1*x2", "x2^2"],
        "rep.series_equal": True,
        "cx.h_source, cx.h_result": ((1, 3, 1), (1, 3, 1, 0)),
        "cx.coloring": (1, 1, 2, 2, 3, 3),
    }
    for expression, value in stated.items():
        assert eval(expression, namespace) == value, expression
