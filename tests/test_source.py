import ast
import functools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from escape3x3 import campaign, cli, kernel
from escape3x3.grid import Frozen, Record, full_grid
from escape3x3.model import contract_for, validate_plan, validate_plan_recheck
from escape3x3.oracle import any_plan, oracle_solve
from escape3x3.router import route
from escape3x3.terminals import LemmaId, encode_config, enumerate_configs, family_of
from escape3x3.toolkit import ClipSpec

from conftest import record_classes

SRC = pathlib.Path(__file__).parents[1] / "src" / "escape3x3"


@pytest.fixture(scope="session")
def trees():
    """Each package module's stem to its parsed source, in file name order;
    parsed once per session for every guard that reads the source."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def test_package_has_no_assert(trees):
    """``python -O`` strips ``assert``, so no runtime check in the package
    may be one."""
    assert trees
    found = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_trusted_path_constructor_has_only_its_named_callers(trees):
    """``Path._trusted`` builds a path without checking its walk; only the
    callers that already hold the path's edges may use it, and no other
    code sets a path's slots.  ``kernel.GraphDesc.path`` is the one place
    that builds a kernel trail: ``solve_trails`` and ``escape_trails``
    (once the sink's virtual vertices are stripped) take theirs from it, and
    so does the ``RoutingContext`` constructor for each terminal's start
    trail."""
    callers, setters = set(), set()
    for stem, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                    callers.add(f"{stem}.{func.name}")
                if isinstance(node, ast.Name) and node.id in ("_set_vertices", "_set_edges"):
                    setters.add(f"{stem}.{func.name}")
                if isinstance(node, ast.Attribute) and node.attr in ("__new__", "__setattr__"):
                    setters.add(f"{stem}.{func.name}")
    assert callers == {
        "kernel.path",
        "model.reversed",
        "model.reflected",
        "model.__add__",
    }
    assert setters == {"model._trusted", "model.__post_init__"}


def test_no_code_relies_on_an_instance_dict(trees):
    """Records keep their state in slots and have no instance dict: no
    package function reads ``self.__dict__``, and no record class, at any
    depth below ``grid.Record``, holds a ``functools.cached_property``,
    which caches into the instance dict."""
    reads = [
        f"{stem}.{func.name}"
        for stem, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and node.attr == "__dict__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]
    assert not reads, f"self.__dict__ read in: {reads}"
    cached = [
        f"{cls.__qualname__}.{name}"
        for cls in record_classes()
        for name, value in vars(cls).items()
        if isinstance(value, functools.cached_property)
    ]
    assert not cached, f"cached_property on a record class: {cached}"


def test_no_record_hooks_attribute_lookup():
    """No record class, at any depth below ``grid.Record``, defines
    ``__getattr__`` or ``__getattribute__``: Python 3.11 specializes no
    attribute load on a class that does, so every field read would take
    the slow path."""
    hooks = [
        f"{cls.__qualname__}.{name}"
        for cls in record_classes()
        for name in ("__getattr__", "__getattribute__")
        if name in vars(cls)
    ]
    assert not hooks, f"attribute lookup hooked on a record class: {hooks}"


def test_every_record_slot_is_read(monkeypatch, tmp_path):
    """Each slot a record class declares holds state the program reads.
    Every slot of every record class is wrapped in a counting property, and
    a small exercise runs the package's paths on descriptor caches of its
    own: strict routes of a sample of each routed family, a reflected route
    among them, both validators on each plan, ``any_plan`` and
    ``oracle_solve``, and the CLI's ``solve``, ``clips --verify`` on the
    catalog and on a broken clip, and ``verify`` on a few configurations.
    Package code must read every slot of every class, each class counted
    apart; reads by the records' shared equality, hashing and repr do not
    count, nor do the test's own.  A slot that only constructors,
    comparisons and tests touch is state no caller needs."""
    package = os.path.dirname(campaign.__file__) + os.sep
    classes = record_classes()
    generic = {Record.__eq__.__code__, Frozen.__hash__.__code__, Record.__repr__.__code__}
    key_of = (getattr(cls, "_key_of", None) for cls in classes)
    generic |= {key.__code__ for key in key_of if hasattr(key, "__code__")}
    reads = Counter()

    def counting(cls, name):
        slot = vars(cls)[name]

        def get(obj):
            caller = sys._getframe(1).f_code
            if caller.co_filename.startswith(package) and caller not in generic:
                reads[cls, name] += 1
            return slot.__get__(obj, cls)

        return property(get, slot.__set__, slot.__delete__)

    slots = [(cls, name) for cls in classes for name in vars(cls).get("__slots__", ())]
    for cls, name in slots:
        monkeypatch.setattr(cls, name, counting(cls, name))
    monkeypatch.setattr(kernel, "desc_for", functools.lru_cache(kernel.desc_for.__wrapped__))
    monkeypatch.setattr(kernel, "sink_desc", functools.lru_cache(kernel.sink_desc.__wrapped__))

    grid = full_grid()
    sample = [
        cfg
        for lemma in (LemmaId.HEAVY78, LemmaId.HEAVY6, LemmaId.HEAVY5)
        for cfg in list(enumerate_configs(lemma))[::400]
    ]
    reflected = False
    for cfg in sample:
        contract = contract_for(family_of(cfg))
        plan, trace = route(cfg, strict=True)
        assert validate_plan(grid, cfg, plan, contract).ok
        assert validate_plan_recheck(grid, cfg, plan, contract).ok
        reflected |= trace.symmetry_applied
    assert reflected
    cfg = sample[-1]
    contract = contract_for(family_of(cfg))
    assert any_plan(grid, cfg, contract) is not None
    assert oracle_solve(grid, cfg, contract) is not None
    config = tmp_path / "config.json"
    config.write_text(json.dumps(encode_config(cfg)), encoding="utf-8")
    assert cli.main(["solve", "--config", str(config), "--render", "ascii"]) == 0
    assert cli.main(["clips", "--verify"]) == 0
    broken = ClipSpec("broken", (2, 2), (3, 1), "AA", frozenset({((2, 2), (3, 2))}))
    monkeypatch.setattr(cli, "clip_catalog", lambda: {"broken": broken})
    assert cli.main(["clips", "--verify"]) == 2
    monkeypatch.setattr(campaign, "enumerate_configs", lambda lemma: sample[-3:])
    report = str(tmp_path / "report.json")
    assert cli.main(["verify", "--lemma", "heavy5", "--strict", "--report", report]) == 0

    unread = [f"{cls.__qualname__}.{name}" for cls, name in slots if not reads[cls, name]]
    assert not unread, f"record slots no package code reads: {unread}"


def test_validators_share_no_helper(trees):
    """The two validators are written independently: neither reaches code
    the package defines, apart from building its violations and its verdict
    and reading the configuration's ``terminals``.

    A call by bare name is resolved against the package's module-level
    functions, classes and names.  A method call or an attribute read on
    some object cannot be resolved to its class here, so it is matched by
    name against the package's methods (calls) and properties (any read);
    names that builtin containers also define, such as ``items`` or
    ``add``, are left out, since a validator calls those on its own sets,
    dicts and lists.  Plain fields, such as a path's ``_edges``, are data
    and not checked.
    """
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


def test_process_pool_is_imported_only_when_made(trees):
    """Loading ``multiprocessing`` costs a fresh process tens of
    milliseconds that only a pooled campaign needs, so no package module
    imports it, or ``concurrent.futures``, at module level.  The campaign
    keeps ``ProcessPoolExecutor`` as a module attribute that makes the
    pool."""
    heavy = ("concurrent", "multiprocessing")
    found = [
        f"{stem}.py:{line} {name}"
        for stem, tree in trees.items()
        for line, name in _absolute_imports(_module_level(tree))
        if name.split(".")[0] in heavy
    ]
    assert not found, f"module-level pool imports: {found}"
    assert "ProcessPoolExecutor" in vars(campaign)


def test_package_does_not_import_dataclasses(trees):
    """Importing ``dataclasses`` costs a fresh process milliseconds, and it
    loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, which the package
    never uses; generating each class's methods costs more.  So no package
    module imports it, anywhere in its source: each record class writes
    out its own constructor, comparisons and repr."""
    found = [
        f"{stem}.py:{line}"
        for stem, tree in trees.items()
        for line, name in _absolute_imports(ast.walk(tree))
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


def test_package_does_not_import_gc(trees):
    """The cyclic collector's settings are process-wide: a library must not
    change them for its callers, so no package module imports ``gc``,
    anywhere in its source.  Code that leaves no reference cycles needs no
    collector tuning."""
    found = [
        f"{stem}.py:{line}"
        for stem, tree in trees.items()
        for line, name in _absolute_imports(ast.walk(tree))
        if name == "gc"
    ]
    assert not found, f"gc imports in the package: {found}"


def test_package_reads_no_environment(trees):
    """A run computes from its arguments alone: no package module reads the
    process environment, through ``os.environ`` or ``os.getenv`` (or their
    bytes forms), as an attribute or an import, anywhere in its source.
    Nothing the package does can then be tuned, or broken, by a variable
    set outside it."""
    knobs = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in knobs:
                found.append(f"{stem}.py:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("os", "posix"):
                found += [
                    f"{stem}.py:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name in knobs
                ]
    assert not found, f"environment reads in the package: {found}"


def test_every_module_level_definition_is_named_elsewhere(trees):
    """Each module-level function and class in the package is on a campaign
    path or a CLI path, or it goes: some other statement of the package
    names it, as a bare name, an attribute or an import.  ``__init__``'s
    re-exports count; a use only in tests does not."""
    statements = [
        (f"{stem}.{getattr(node, 'name', '')}", node)
        for stem, tree in trees.items()
        for node in tree.body
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


def test_oracle_shares_no_routing_logic(trees):
    """The oracle is the router's independent check: neither ``oracle`` nor
    ``kernel``, nor any package module they import, imports ``router`` or
    ``toolkit``."""
    imports = {stem: _package_imports(tree) for stem, tree in trees.items()}
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


def test_frames_are_built_in_one_function(trees):
    """Every frame the router links through is assembled by one helper,
    ``router._link_through_frame``: no other package code, a module's top
    level included, calls ``complete_frame``."""

    def builders(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "complete_frame":
                yield where
        for child in ast.iter_child_nodes(node):
            yield from builders(child, where)

    found = [where for stem, tree in trees.items() for where in builders(tree, stem)]
    assert found == ["router._link_through_frame"], found


def test_router_functions_take_no_label(trees):
    """A case handler names its case once, on its routing context
    (``RoutingContext.label``), and the helpers read it there: no function
    in ``router.py`` takes a ``label`` parameter."""
    found = [
        f"{func.name}:{func.lineno}"
        for func in ast.walk(trees["router"])
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(func.args)
        if isinstance(arg, ast.arg) and arg.arg == "label"
    ]
    assert not found, found


# Methods of set, dict and list that change the container in place.
_MUTATORS = frozenset(
    {
        "add", "append", "clear", "difference_update", "discard", "extend", "insert",
        "intersection_update", "pop", "popitem", "remove", "setdefault",
        "symmetric_difference_update", "update",
    }
)


def _stored_attributes(target):
    """The attributes an assignment or deletion target stores into, itself
    or through an item of it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored_attributes(element)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _stored_attributes(target.value)
    elif isinstance(target, ast.Attribute):
        yield target.attr


def _attribute_writes(node, where):
    """(place, attribute, how) for each write to an attribute below
    ``node``: an assignment or deletion of the attribute or an item of it
    (how is "assign"), or a call of a mutating method on it (how is the
    method's name).  A place is the module, then each enclosing class and
    function, dotted."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        where = f"{where}.{node.name}"
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        for attr in _stored_attributes(target):
            yield where, attr, "assign"
    func = getattr(node, "func", None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
        if func.attr in _MUTATORS:
            yield where, func.value.attr, func.attr
    for child in ast.iter_child_nodes(node):
        yield from _attribute_writes(child, where)


def test_routing_state_is_written_only_by_the_context(trees):
    """A routing context's ``free``, ``trails``, ``linked`` and ``escaped``
    change only inside ``RoutingContext``'s own methods, which keep its
    invariants: no other package code writes an attribute of those names.
    ``router.py`` writes a context only to name its case
    (``ctx.label = ...``) and to note a clip or a retry
    (``ctx.notes.append``)."""
    writes = [write for stem, tree in trees.items() for write in _attribute_writes(tree, stem)]
    state = {"free", "trails", "linked", "escaped"}
    own = "toolkit.RoutingContext."
    assert {attr for where, attr, _ in writes if where.startswith(own)} >= state
    outside = [w for w in writes if w[1] in state and not w[0].startswith(own)]
    assert not outside, f"routing state written outside the context: {outside}"
    router = {(attr, how) for where, attr, how in writes if where.startswith("router.")}
    assert router == {("label", "assign"), ("notes", "append")}, router


def test_router_searches_in_two_named_places(trees):
    """In ``router`` and ``toolkit``, only ``router._joint_trails`` and
    ``toolkit._mating_paths`` name a kernel search, and only
    ``router.route``, for the fallback, names the oracle; a module's top
    level counts as a place of its own."""
    kernel_searches = {"solve_trails", "escape_trails", "find_trail_system"}
    oracle_searches = {"oracle_solve", "any_plan"}

    def naming(node, where, names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            yield where
        for child in ast.iter_child_nodes(node):
            yield from naming(child, where, names)

    def places(names):
        return {
            where for stem in ("router", "toolkit") for where in naming(trees[stem], stem, names)
        }

    assert places(kernel_searches) == {"router._joint_trails", "toolkit._mating_paths"}
    assert places(oracle_searches) == {"router.route"}


def test_config_reflection_checks_nothing_again(trees):
    """``TerminalConfig.reflected`` builds the canonical mirror of a
    configuration directly: it names none of ``make_config``, ``_vertex``
    and ``_canonical_pair``, so the validating path, which checks every
    vertex of a configuration already checked, cannot come back."""
    (config,) = [
        node
        for node in trees["terminals"].body
        if isinstance(node, ast.ClassDef) and node.name == "TerminalConfig"
    ]
    (method,) = [
        node for node in config.body if isinstance(node, ast.FunctionDef) and node.name == "reflected"
    ]
    named = {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(method) if isinstance(node, ast.Attribute)}
    validating = named & {"make_config", "_vertex", "_canonical_pair"}
    assert not validating, sorted(validating)


def test_router_reads_the_clip_catalog_only_to_build_its_index(trees):
    """``router.py`` names ``clip_catalog`` only in ``_clips_by_anchors``,
    which builds the clip index once per process (it is cached), so no
    mating sorts or filters the whole catalog per call; a module's top level
    counts as a place of its own."""

    def naming(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name == "clip_catalog":
            yield where
        for child in ast.iter_child_nodes(node):
            yield from naming(child, where)

    assert set(naming(trees["router"], "<module>")) == {"_clips_by_anchors"}
    (builder,) = [
        node
        for node in trees["router"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_clips_by_anchors"
    ]
    decorators = {ast.unparse(d).partition("(")[0] for d in builder.decorator_list}
    assert decorators & {"functools.lru_cache", "functools.cache"}, decorators


def test_reach_tables_are_kept_by_the_kernel_alone(trees):
    """Only ``kernel.py`` reads or writes a descriptor's ``reach`` table or
    fills one (``fill_row``, ``fill_table``, ``_fill_grid_table``), so when
    a table is built whole and when a row is filled on a miss is decided in
    one module; a name given as a string, as to ``getattr``, counts too."""
    names = {"reach", "fill_row", "fill_table", "_fill_grid_table"}
    found = []
    for stem, tree in trees.items():
        if stem == "kernel":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant):
                name = node.value
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names:
                found.append(f"{stem}.py:{getattr(node, 'lineno', '?')} {name}")
    assert not found, found
