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
