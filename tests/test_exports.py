"""Every name the package exports is used by the engine itself, and no
engine or test module imports a name it does not read."""

import ast
import re
from pathlib import Path

import quadrica

SRC = Path(quadrica.__file__).resolve().parent

# exported names with no caller inside the engine, each with its reason
ALLOWED = {
    "restrict_unit": "a span target of perfbench/spans.py",
    "replay_certificate": "the replay entry point that perfbench drives",
}


def test_every_export_has_an_engine_caller():
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    bodies = [p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"]
    unused = set()
    for name in exported:
        own = re.compile(rf"^\s*(def|class) {name}\b.*$", re.M)
        if not any(re.search(rf"\b{name}\b", own.sub("", text)) for text in bodies):
            unused.add(name)
    assert unused == set(ALLOWED)


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_unused_imports():
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    modules += Path(__file__).resolve().parent.glob("*.py")
    unused = {f"{p.name}: {name}" for p in modules for name in _unused_imports(p)}
    assert unused == set()
