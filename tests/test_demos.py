"""Smoke test: every demo runs to the end and prints something, and the
README's library example states what it computes."""

import ast
import contextlib
import io
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()


def _readme_example():
    """Run the README's "Library example" block statement by statement and
    return the value of each bare expression, keyed by its source text."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[source] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_library_example():
    # the values its comments state, exactly and with their types
    values = _readme_example()
    b2 = values["rc.b_coefficient(2, cums)"]
    assert b2 == Fraction(-3, 32) and type(b2) is Fraction
    assert values["rc.monotonicity_prediction(2, cums)"] == "eventually_increasing"
    for call, expected in (
        ("rc.entropy_expansion(8, 2, cums).b", ((-3, 32), (-1, 128), (-3, 4096))),
        ("rc.limit_expansion(8, 1, cums).b", ((-1, 12), (-1, 192), (-1, 5760))),
        ("rc.limit_expansion(8, math.inf, cums).b", ((-5, 48), (-1, 96), (-31, 23040))),
    ):
        b = values[call]
        assert b == tuple(Fraction(*q) for q in expected), call
        assert all(type(bj) is Fraction for bj in b), call
