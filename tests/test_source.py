import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "escape3x3"


def test_package_has_no_assert():
    """``python -O`` strips ``assert``, so no runtime check in the package
    may be one."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_trusted_path_constructor_has_only_its_named_callers():
    """``Path._trusted`` builds a path without checking its walk; only the
    callers that already hold the path's edges may use it, and no other
    code sets a path's slots."""
    callers, setters = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                    callers.add(f"{path.stem}.{func.name}")
                if isinstance(node, ast.Name) and node.id in ("_set_vertices", "_set_edges"):
                    setters.add(f"{path.stem}.{func.name}")
                if isinstance(node, ast.Attribute) and node.attr in ("__new__", "__setattr__"):
                    setters.add(f"{path.stem}.{func.name}")
    assert callers == {
        "kernel.solve_trails",
        "model.reversed",
        "model.reflected",
        "model.__add__",
        "toolkit.fresh",
    }
    assert setters == {"model._trusted", "model.__post_init__"}
