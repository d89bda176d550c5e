"""Three design rules on the names of `symbandit`, and one on its tests.

Every public name has a caller in the program: a public module-level
function or class, or a public method of one of its classes, must be
referenced by word somewhere in `src/` outside its own definition, or in
`bench/`. A name that only its own test calls belongs in that test.

No module uses another module's private name, as `mod._name` or
`from mod import _name`: what one module needs of another is public.

No `spawn_key=` argument holds an integer literal: every random stream
is headed by a named purpose of `experiments` (SIMULATE, SWEEP, AUDIT),
so two purposes cannot share a stream by accident.

Every test helper, a `tests/_*.py` module, is imported by a collected
test module (`tests/test_*.py`), so a retired oracle cannot linger unused.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symbandit"


def _public_defs(tree):
    """(name, first line, last line) of public functions, classes and methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def test_every_public_name_has_a_program_caller():
    sources = {p: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").rglob("*"))
                      if p.is_file() and p.suffix in (".py", ".md"))
    orphans = []
    for path, lines in sources.items():
        if path.name == "__init__.py":
            continue
        for name, first, last in _public_defs(ast.parse("\n".join(lines))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = [text for other, text in sources.items() if other != path]
            elsewhere.append(lines[:first - 1] + lines[last:])
            if not (word.search(bench)
                    or any(word.search("\n".join(text)) for text in elsewhere)):
                orphans.append(f"{path.name}:{first} {name}")
    assert not orphans, "no caller in the program: " + ", ".join(orphans)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_uses_another_modules_private_name():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {alias.asname or alias.name for node in imports for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            uses += [f"{path.name}:{node.lineno} {name}" for name in names
                     if _is_private(name.rpartition(".")[2])]
    assert not uses, "private names of another module: " + ", ".join(uses)


def test_every_spawn_key_is_headed_by_a_named_purpose():
    literals = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "spawn_key":
                literals += [f"{path.name}:{c.lineno} {c.value!r}" for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and type(c.value) is int]
    assert not literals, "integer literals in spawn keys: " + ", ".join(literals)


def test_every_test_helper_has_an_importer():
    tests = ROOT / "tests"
    imported = set()
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    unused = sorted(p.name for p in tests.glob("_*.py") if p.stem not in imported)
    assert not unused, "test helpers no test module imports: " + ", ".join(unused)
