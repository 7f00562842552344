import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

from escape3x3 import campaign

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
    code sets a path's slots.  ``kernel.GraphDesc.path`` is the one place
    that builds a kernel trail: ``solve_trails`` and ``escape_trails``
    (once the sink's virtual vertices are stripped) take theirs from it, and
    so does ``RoutingContext.fresh`` for each terminal's start trail."""
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
        "kernel.path",
        "model.reversed",
        "model.reflected",
        "model.__add__",
    }
    assert setters == {"model._trusted", "model.__post_init__"}


def test_validators_share_no_helper():
    """The two validators are written independently: neither reaches code
    the package defines, apart from building its violations and its verdict
    and reading the configuration's cached ``terminals``.

    A call by bare name is resolved against the package's module-level
    functions, classes and names.  A method call or an attribute read on
    some object cannot be resolved to its class here, so it is matched by
    name against the package's methods (calls) and properties (any read);
    names that builtin containers also define, such as ``items`` or
    ``add``, are left out, since a validator calls those on its own sets,
    dicts and lists.  Plain fields, such as a path's ``_edges``, are data
    and not checked.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    module_level, methods, properties = set(), set(), set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_level.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                module_level.update(t.id for t in targets if isinstance(t, ast.Name))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                methods.add(node.name)
                if any(ast.unparse(d).endswith("property") for d in node.decorator_list):
                    properties.add(node.name)
    containers = (object, dict, list, set, frozenset, tuple, str, int, Counter)
    builtin = {name for t in containers for name in dir(t)}
    allowed = {"Violation", "Verdict", "from_violations", "terminals"}
    validators = [
        node
        for node in trees["model"].body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("validate_plan", "validate_plan_recheck")
    ]
    assert len(validators) == 2
    found = set()
    for func in validators:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in module_level - allowed:
                    found.add(f"{func.name} calls {node.func.id}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if name in (methods | module_level) - builtin - allowed:
                    found.add(f"{func.name} calls {name}")
            elif isinstance(node, ast.Attribute) and node.attr in properties - builtin - allowed:
                found.add(f"{func.name} reads {node.attr}")
    assert not found, sorted(found)


def _module_level(node):
    """The nodes that run when a module is imported: everything outside the
    bodies of its functions and lambdas."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level(child)


def _absolute_imports(nodes):
    """(line, module name) of each absolute import among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield node.lineno, name


def test_process_pool_is_imported_only_when_made():
    """Loading ``multiprocessing`` costs a fresh process tens of
    milliseconds that only a pooled campaign needs, so no package module
    imports it, or ``concurrent.futures``, at module level.  The campaign
    keeps ``ProcessPoolExecutor`` as a module attribute that makes the
    pool."""
    heavy = ("concurrent", "multiprocessing")
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _absolute_imports(
            _module_level(ast.parse(path.read_text(encoding="utf-8")))
        )
        if name.split(".")[0] in heavy
    ]
    assert not found, f"module-level pool imports: {found}"
    assert "ProcessPoolExecutor" in vars(campaign)


def test_package_does_not_import_dataclasses():
    """Importing ``dataclasses`` costs a fresh process milliseconds, and it
    loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, which the package
    never uses; generating each class's methods costs more.  So no package
    module imports it, anywhere in its source: each record class writes
    out its own constructor, comparisons and repr."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        if name.split(".")[0] == "dataclasses"
    ]
    assert not found, f"dataclasses imports in the package: {found}"


def test_cli_import_loads_no_unused_stdlib_module():
    """A fresh interpreter that imports the CLI loads none of
    ``dataclasses``, ``inspect``, ``typing`` and ``importlib.resources``:
    modules the interpreter had already loaded before the import do not
    count.  The probe runs with ``-S``, so that no ``.pth`` file in
    site-packages preloads a module the package would otherwise pull in."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import escape3x3.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "escape3x3.cli" in loaded
    unused = {"dataclasses", "inspect", "typing", "importlib.resources"}
    assert not loaded & unused, sorted(loaded & unused)


def test_package_does_not_import_gc():
    """The cyclic collector's settings are process-wide: a library must not
    change them for its callers, so no package module imports ``gc``,
    anywhere in its source.  Code that leaves no reference cycles needs no
    collector tuning."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        if name == "gc"
    ]
    assert not found, f"gc imports in the package: {found}"


def test_package_reads_no_environment():
    """A run computes from its arguments alone: no package module reads the
    process environment, through ``os.environ`` or ``os.getenv`` (or their
    bytes forms), as an attribute or an import, anywhere in its source.
    Nothing the package does can then be tuned, or broken, by a variable
    set outside it."""
    knobs = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in knobs:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("os", "posix"):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name in knobs
                ]
    assert not found, f"environment reads in the package: {found}"


def test_every_module_level_definition_is_named_elsewhere():
    """Each module-level function and class in the package is on a campaign
    path or a CLI path, or it goes: some other statement of the package
    names it, as a bare name, an attribute or an import.  ``__init__``'s
    re-exports count; a use only in tests does not."""
    statements = [
        (f"{path.stem}.{getattr(node, 'name', '')}", node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    named = []
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        named.append(names)
    unnamed = [
        where
        for i, (where, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for j, names in enumerate(named) if j != i)
    ]
    assert not unnamed, f"defined but never named elsewhere in the package: {unnamed}"


def _package_imports(tree) -> set[str]:
    """The package modules a module imports anywhere in its source, by a
    relative import or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").startswith("escape3x3"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.partition(".")[2]
                for alias in node.names
                if alias.name.startswith("escape3x3.")
            }
    return {name.partition(".")[0] for name in found}


def test_oracle_shares_no_routing_logic():
    """The oracle is the router's independent check: neither ``oracle`` nor
    ``kernel``, nor any package module they import, imports ``router`` or
    ``toolkit``."""
    imports = {
        path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in SRC.glob("*.py")
    }
    assert {"router", "toolkit"} <= set(imports)
    for root in ("oracle", "kernel"):
        reached, todo = set(), [root]
        while todo:
            module = todo.pop()
            for name in imports.get(module, ()):
                if name not in reached:
                    reached.add(name)
                    todo.append(name)
        assert not reached & {"router", "toolkit"}, (root, sorted(reached))


def _layout_modules(readme: str) -> list[str]:
    """The ``*.py`` files the README's ``## Layout`` block lists under
    ``src/escape3x3/``, in order."""
    block = readme.split("\n## Layout\n", 1)[1].split("```", 2)[1]
    names, inside = [], False
    for line in block.splitlines():
        if not line.startswith(" "):
            inside = line.strip() == "src/escape3x3/"
        elif inside and line.split()[0].endswith(".py"):
            names.append(line.split()[0])
    return names


def test_readme_layout_lists_every_module():
    """The README's layout names each module of the package once, and no
    module the package does not have."""
    listed = _layout_modules((SRC.parents[1] / "README.md").read_text(encoding="utf-8"))
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == {path.name for path in SRC.glob("*.py")}


def test_frames_are_built_in_one_function():
    """Every frame the router links through is assembled by one helper,
    ``router._link_through_frame``: no other package code, a module's top
    level included, constructs a ``FrameSpec``."""

    def builders(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "FrameSpec":
                yield where
        for child in ast.iter_child_nodes(node):
            yield from builders(child, where)

    found = [
        where
        for path in sorted(SRC.glob("*.py"))
        for where in builders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == ["router._link_through_frame"], found
