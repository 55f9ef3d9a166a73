"""Static checks on src/parsearch: no module imports a name it never uses,
no private function or method is defined without being referenced, every
public function and class has a caller outside the tests (or a stated
reason to be kept), every EngineConfig field is read by the program and
given by a caller outside the tests, no override renames its base's
parameters, only `BestFirstSearch.step` pops a node table, only `LazyTable`
defines `__missing__`, every domain's `successors` hook takes a `parent`
that defaults to None, and HDA* imports and calls by name every termination
function the benchmark's tracer wraps."""

import ast
from dataclasses import fields
from pathlib import Path

from parsearch.engine import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "parsearch"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in
    `__all__`. `from __future__` imports bind nothing and are skipped."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_no_unused_imports():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {}
    for path in modules:
        unused = unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert not found, found


def test_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "print(d)\n"
    )
    assert unused_imports(tree) == ["os (line 2)", "b (line 3)"]


def orphaned_privates(trees: list[ast.Module]) -> list[str]:
    """Private (single-underscore) functions and methods defined in `trees`
    whose name no tree reads, as a plain name or as an attribute."""
    defined = {}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name not in used
    ]


def test_no_orphaned_private_functions():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    assert orphaned_privates(trees) == []


def test_check_sees_an_orphaned_private_function():
    tree = ast.parse(
        "def _used(): pass\n"
        "def _orphan(): pass\n"
        "def __dunder__(): pass\n"
        "class C:\n"
        "    def _method(self): pass\n"
        "    def _stale(self): pass\n"
        "    def public(self):\n"
        "        _used()\n"
        "        return self._method()\n"
    )
    assert orphaned_privates([tree]) == ["_orphan (line 2)", "_stale (line 6)"]


def uncalled_public(defining: list[ast.Module], callers: list[ast.Module]) -> list[str]:
    """Public module-level functions and classes defined in `defining` whose
    name no tree in `callers` reads, as a plain name or as an attribute. An
    import binds a name without reading it and `__all__` lists strings, so
    neither counts as a caller. A read inside the body of an uncalled
    definition does not count either, so a whole uncalled chain is flagged:
    names are called when read outside the public definitions of
    `defining`'s names, or inside one that is itself called."""
    defined = set()
    for tree in defining:
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defined.add(node.name)

    def reads(node) -> set[str]:
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        }

    called = set()
    reads_in = {}  # public name -> the names its definitions' bodies read
    for tree in callers:
        for node in tree.body:
            name = getattr(node, "name", None)  # a def or class
            if name in defined:
                reads_in.setdefault(name, set()).update(reads(node))
            else:
                called.update(reads(node))
    # Add the reads of every called definition until nothing changes.
    todo = called & set(reads_in)
    while todo:
        new = reads_in.pop(todo.pop()) - called
        called |= new
        todo |= new & set(reads_in)
    return sorted(defined - called)


# Public names that only tests call, each kept for the reason given.
KEPT_UNCALLED = {
    # The adversarial schedules of the termination fuzzers.
    "AdversarialPolicy",
    # An independent reference form of the projected Zobrist keys: it
    # projects each feature before it looks it up in a plain table.
    "azh_key",
    # The bridge from capped real runs to the allocation model; ROADMAP
    # item 11 gives it a caller.
    "empirical_min_width",
    # The fan-out bound of the hyperplane theorem, which criterion 3 checks.
    "hyperplane_fanout_bound",
    # The (n*n)!/2 reachable-state count that criterion 9 checks.
    "state_count",
}


def test_every_public_name_has_a_caller_outside_tests():
    defining = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    callers = [
        ast.parse(p.read_text(), str(p))
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert uncalled_public(defining, callers) == sorted(KEPT_UNCALLED)


def test_check_sees_an_uncalled_public_name():
    defining = ast.parse(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def imported(): pass\n"
        "def called(): pass\n"
        "def _private(): pass\n"
        "class Read: pass\n"
        "class Unread:\n"
        "    def method(self): pass\n"
        "def assigned(): pass\n"
    )
    caller = ast.parse(
        "from m import imported, called\n"
        "called()\n"
        "x = m.Read\n"
        "assigned = 1\n"
    )
    assert uncalled_public([defining], [caller]) == [
        "Unread",
        "assigned",
        "exported",
        "imported",
    ]


def test_check_sees_a_whole_uncalled_chain():
    # `head` is never called and `tail` only by `head`; `recursive` only by
    # itself. `used` is called from module level and calls `helper`.
    tree = ast.parse(
        "def head(): return tail()\n"
        "def tail(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def helper(): pass\n"
        "def used(): return helper()\n"
        "used()\n"
    )
    assert uncalled_public([tree], [tree]) == ["head", "recursive", "tail"]


def class_nodes(tree: ast.Module, cls: str) -> set[int]:
    """The ids of every node inside a class named `cls` in `tree`."""
    return {
        id(node)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and c.name == cls
        for node in ast.walk(c)
    }


def unread_fields(trees: list[ast.Module], cls: str, names: list[str]) -> list[str]:
    """The `names` that no tree reads as an attribute outside the body of
    the class named `cls` (which may set or check them itself)."""
    read = set()
    for tree in trees:
        own = class_nodes(tree, cls)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in own
            ):
                read.add(node.attr)
    return [name for name in names if name not in read]


def test_every_engine_config_field_is_read():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    names = [f.name for f in fields(EngineConfig)]
    assert unread_fields(trees, "EngineConfig", names) == []


def test_check_sees_an_unread_field():
    tree = ast.parse(
        "class Config:\n"
        "    used: int = 1\n"
        "    unread: int = 2\n"
        "    def __post_init__(self):\n"
        "        check(self.used, self.unread)\n"
        "def run(config):\n"
        "    config.unread = 3\n"
        "    return config.used\n"
    )
    assert unread_fields([tree], "Config", ["used", "unread"]) == ["unread"]


def ungiven_fields(trees: list[ast.Module], cls: str, names: list[str]) -> list[str]:
    """The `names` that no tree gives outside the body of the class named
    `cls`: as a keyword argument of a call to `cls` or `dict`, or as a
    string constant (a key its caller maps onto the field)."""
    given = set()
    for tree in trees:
        own = class_nodes(tree, cls)
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Call):
                func = getattr(node.func, "id", getattr(node.func, "attr", None))
                if func in (cls, "dict"):
                    given.update(k.arg for k in node.keywords)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                given.add(node.value)
    return [name for name in names if name not in given]


def test_every_engine_config_field_is_given_by_a_caller():
    # An option that only the tests set is an option the program does not
    # need.
    callers = [
        ast.parse(p.read_text(), str(p))
        for folder in ("src", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    names = [f.name for f in fields(EngineConfig)]
    assert ungiven_fields(callers, "EngineConfig", names) == []


def test_check_sees_an_ungiven_field():
    tree = ast.parse(
        "class Config:\n"
        "    keyword: int = 1\n"
        "    spread: int = 2\n"
        "    mapped: int = 3\n"
        "    inside: int = 4\n"
        "    assigned: int = 5\n"
        "    def __post_init__(self):\n"
        "        check('inside', self.inside, Config(inside=5))\n"
        "def run(args):\n"
        "    settings = dict(spread=args.spread)\n"
        "    for key, name in (('m', 'mapped'),):\n"
        "        settings[name] = args.m\n"
        "    config = ps.Config(keyword=1, **settings)\n"
        "    config.assigned = 6\n"
    )
    names = ["keyword", "spread", "mapped", "inside", "assigned"]
    assert ungiven_fields([tree], "Config", names) == ["inside", "assigned"]


def renamed_parameters(trees: list[ast.Module]) -> list[str]:
    """Non-dunder methods that override a method of a base class defined in
    `trees` under parameter names other than those of the nearest base
    definition (bases are searched depth first, as written)."""
    classes = {
        node.name: node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def methods(cls: ast.ClassDef) -> dict:
        return {
            node.name: node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def params(fn) -> list[str]:
        args = fn.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    def inherited(cls: ast.ClassDef, name: str):
        for base in cls.bases:
            parent = classes.get(getattr(base, "id", getattr(base, "attr", None)))
            if parent is not None:
                found = methods(parent).get(name) or inherited(parent, name)
                if found is not None:
                    return found
        return None

    found = []
    for cls in classes.values():
        for name, fn in methods(cls).items():
            if name.startswith("__"):
                continue
            base = inherited(cls, name)
            if base is not None and params(base) != params(fn):
                found.append(f"{cls.name}.{name} (line {fn.lineno})")
    return found


def test_overrides_keep_parameter_names():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    assert renamed_parameters(trees) == []


def test_check_sees_a_renamed_parameter():
    tree = ast.parse(
        "class Strategy:\n"
        "    def owner(self, key, p): pass\n"
        "    def key(self, state): pass\n"
        "    def __init__(self): pass\n"
        "class Zobrist(Strategy):\n"
        "    def key(self, state): pass\n"
        "class Pinned(Zobrist):\n"
        "    def __init__(self, assign): pass\n"
        "    def owner(self, state, p): pass\n"
        "class Other(Unknown):\n"
        "    def owner(self, state): pass\n"
    )
    assert renamed_parameters([tree]) == ["Pinned.owner (line 9)"]


def table_pops(trees: list[ast.Module]) -> list[str]:
    """Every function that reads `pop` off a node table, as `Class.method
    (line)`: off a name `table` or `NodeTable`, or off an attribute
    `.table`, whether it calls the method or binds it."""
    found = []

    def visit(node, scope: list[str], where: str | None) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
            if not isinstance(node, ast.ClassDef):
                where = ".".join(scope)
        elif isinstance(node, ast.Attribute) and node.attr == "pop":
            receiver = node.value
            name = getattr(receiver, "id", getattr(receiver, "attr", None))
            if name in ("table", "NodeTable"):
                found.append(f"{where or '<module>'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, where)

    for tree in trees:
        visit(tree, [], None)
    return found


def test_only_the_best_first_step_pops_a_node_table():
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    sites = table_pops(trees)
    assert [site.partition(" ")[0] for site in sites] == ["BestFirstSearch.step"]


def missing_definers(trees: list[ast.Module]) -> list[str]:
    """Every class that defines or assigns `__missing__` in its body, as
    `Class (line)`."""
    found = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
                if getattr(node, "name", None) == "__missing__" or "__missing__" in names:
                    found.append(f"{cls.name} (line {node.lineno})")
    return found


def test_only_lazy_table_defines_missing():
    # One type fills table entries on first use; other tables subclass it.
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.rglob("*.py"))]
    sites = missing_definers(trees)
    assert [site.partition(" ")[0] for site in sites] == ["LazyTable"]


def test_check_sees_a_second_missing():
    tree = ast.parse(
        "class LazyTable(dict):\n"
        "    def __missing__(self, key): pass\n"
        "class ZobristTable(LazyTable):\n"
        "    def __init__(self, seed): pass\n"
        "class MoveTable(dict):\n"
        "    def __init__(self, moves): pass\n"
        "    def __missing__(self, move): pass\n"
        "class Aliased(dict):\n"
        "    __missing__ = fill\n"
        "def __missing__(key): pass\n"
    )
    assert missing_definers([tree]) == [
        "LazyTable (line 2)",
        "MoveTable (line 7)",
        "Aliased (line 9)",
    ]


def test_check_sees_a_second_table_pop():
    tree = ast.parse(
        "class BestFirstSearch:\n"
        "    def step(self, stats):\n"
        "        return self.table.pop(stats)\n"
        "class Engine:\n"
        "    def _expand(self, worker):\n"
        "        table = worker.table\n"
        "        return table.pop(worker.stats)\n"
        "    def drain(self):\n"
        "        pop = self.workers[0].table.pop\n"
        "        return [].pop(), self.stack.pop(), pop(None)\n"
        "def helper(search):\n"
        "    return NodeTable.pop(search.table, None)\n"
    )
    assert table_pops([tree]) == [
        "BestFirstSearch.step (line 3)",
        "Engine._expand (line 7)",
        "Engine.drain (line 9)",
        "helper (line 12)",
    ]


def parentless_successors(trees: list[ast.Module]) -> list[str]:
    """Every function or method named `successors` without a `parent`
    parameter whose default is None, as `Class.successors (line)`. The
    best-first step passes the expanded node's parent to the hook."""
    found = []

    def visit(node, scope: list[str]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "successors" and not defaults_parent_to_none(node.args):
                found.append(f"{'.'.join(scope)} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for tree in trees:
        visit(tree, [])
    return found


def defaults_parent_to_none(args: ast.arguments) -> bool:
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return any(
        arg.arg == "parent"
        and isinstance(default, ast.Constant)
        and default.value is None
        for arg, default in pairs
    )


def test_every_domain_successors_takes_a_parent():
    paths = sorted((SRC / "domains").rglob("*.py"))
    trees = [ast.parse(p.read_text(), str(p)) for p in paths]
    assert sum(
        isinstance(node, ast.FunctionDef) and node.name == "successors"
        for tree in trees
        for node in ast.walk(tree)
    ) >= 2
    assert parentless_successors(trees) == []


def test_check_sees_a_successors_without_parent():
    tree = ast.parse(
        "class Tiles:\n"
        "    def successors(self, state, h, parent=None): pass\n"
        "class Lattice:\n"
        "    def successors(self, state, h, *, parent=None): pass\n"
        "class Old:\n"
        "    def successors(self, state, h): pass\n"
        "class Required:\n"
        "    def successors(self, state, h, parent): pass\n"
        "class Defaulted:\n"
        "    def successors(self, state, h, parent=(), extra=None): pass\n"
        "class Renamed:\n"
        "    def successors(self, state, h, prev=None): pass\n"
        "def successors(state, h=0.0, parent=None): pass\n"
        "def helper(state, h, parent=None): pass\n"
    )
    assert parentless_successors([tree]) == [
        "Old.successors (line 6)",
        "Required.successors (line 8)",
        "Defaulted.successors (line 10)",
        "Renamed.successors (line 12)",
    ]


def assigned_strings(tree: ast.Module, name: str) -> list[str]:
    """The literal sequence of strings assigned to `name` at module level."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise LookupError(name)


def unbound_names(tree: ast.Module, names: list[str]) -> list[str]:
    """The `names` that `tree` does not both import unaliased by a `from`
    import and call by that plain name. A wrapper set on the module's
    attribute sees only such calls: a call through an alias, another
    module's attribute or a table bypasses it."""
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname is None
    }
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return [name for name in names if name not in imported or name not in called]


def test_hda_calls_every_traced_termination_function():
    # The benchmark's traced pass replaces these names on
    # `parsearch.engine.hda` to time the termination layer.
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    names = assigned_strings(spans, "TERMINATION_FUNCTIONS")
    assert names
    hda = ast.parse((SRC / "engine" / "hda.py").read_text())
    assert unbound_names(hda, names) == []


def test_check_sees_an_unbound_name():
    spans = ast.parse("LAYERS = 1\nNAMES = ('called', 'aliased')\n")
    assert assigned_strings(spans, "NAMES") == ["called", "aliased"]
    tree = ast.parse(
        "import m\n"
        "from m import called, imported, aliased as a, held\n"
        "TABLE = {'held': held}\n"
        "def run():\n"
        "    called()\n"
        "    a()\n"
        "    m.attribute()\n"
        "    TABLE['held']()\n"
        "    unimported()\n"
    )
    names = ["called", "imported", "aliased", "held", "attribute", "unimported"]
    assert unbound_names(tree, names) == names[1:]
