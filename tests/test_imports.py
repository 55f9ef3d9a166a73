"""Static check: no module under src/parsearch imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parsearch"


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
