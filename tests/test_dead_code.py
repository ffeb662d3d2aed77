"""Dead-code scan of ``src/ndlinear``: every imported name is used, and every
private top-level function, class or constant is referenced somewhere in ``src/``,
and only ``__init__.py`` assigns ``__all__``.
Outside ``tensor.py`` no module casts an array with ``np.array(..., dtype)`` and kin."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ndlinear"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module's ``__all__``."""
    return {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}


def loaded(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute of something else."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def private_definitions(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and constants whose names start with one ``_``."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - loaded(tree) - exported(tree)) == []


def test_every_private_top_level_name_is_referenced():
    used = set().union(*map(loaded, MODULES.values()))
    unused = [f"{name}: {private}" for name, tree in MODULES.items()
              for private in sorted(private_definitions(tree) - used)]
    assert unused == []


def test_the_package_has_the_only_export_list():
    # a submodule's ``__all__`` would be a second list of public names to keep in step
    lists = [name for name, tree in MODULES.items() if name != "__init__.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "__all__"
             and isinstance(node.ctx, ast.Store)]
    assert lists == []


ARRAY_MAKERS = {"array", "asarray", "asanyarray", "ascontiguousarray"}


def casts(tree: ast.Module) -> list[int]:
    """Lines that call ``np.array`` and its kin with a dtype: a cast that goes around
    ``tensor.real_array``, which refuses complex and string values instead of casting."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ARRAY_MAKERS
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
            and (len(node.args) > 1 or any(kw.arg == "dtype" for kw in node.keywords))]


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"tensor.py"}))
def test_no_cast_around_the_value_rule(name):
    assert casts(MODULES[name]) == []


def test_the_cast_scan_sees_each_form():
    tree = ast.parse("np.array(x, dtype=float)\nnp.asarray(x, np.float64)\n"
                     "numpy.ascontiguousarray(x, dtype=None)\nnp.asarray(x)\nnp.zeros(3, float)")
    assert casts(tree) == [1, 2, 3]
