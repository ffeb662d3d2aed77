"""README's library tour runs as written and gives the results its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_block() -> str:
    """The ``python`` block under the "Library tour" heading."""
    text = README.read_text()
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_tour() -> dict:
    """Run the block statement by statement; the value of each bare call,
    keyed by the name it calls."""
    namespace, values = {}, {}
    for node in ast.parse(tour_block()).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            name = ast.unparse(node.value.func)
            values[name] = eval(compile(ast.Expression(node.value), README.name, "eval"),
                                namespace)
        else:
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    return values


def test_library_tour_results():
    values = run_tour()
    assert values["param_count"] == 436
    assert values["flop_count"] == 2 * 32 * (24 * 16 * 8 + 8 * 24 * 12)
    assert values["plan_modes"] == (1, 0)
    assert values["np.allclose"] is True
