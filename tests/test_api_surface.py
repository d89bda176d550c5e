"""Four design rules on the names of `symbandit`, four on its command line,
one on its sweep configs, one on its tests, and one on the imports of both.

Every public name has a caller in the program: a public module-level
function or class, or a public method of one of its classes, must be
referenced in code somewhere in `src/` outside its own definition, or in
`bench/`. A reference is a name, an attribute or an imported name in the
syntax tree; a docstring, comment or README that mentions it is not one.
A name that only its own test calls belongs in that test. The names whose
only caller is `bench/` are pinned, each with its reason, so that a
change to that set is made on purpose.

No module uses another module's private name, as `mod._name` or
`from mod import _name`: what one module needs of another is public.

Every module-level import of a module is used in that module, so an
import left behind by a change cannot linger. The one exception is
pinned with its reason.

No `spawn_key=` argument holds an integer literal: every random stream
is headed by a named purpose of `experiments` (SIMULATE, SWEEP, AUDIT),
so two purposes cannot share a stream by accident.

The command line is a shell over the library's public results: `cli`
loads no numpy, seeds no stream and reads no array of `dp`. Every random
stream is seeded in `experiments`, and the arrays of `dp._origin_values`
have one reader, `dp.trace_rows`.

`sweep` holds no sweep kind: `cli` names none of the runners or column
lists of `experiments`, and `--kind` offers exactly the keys of
`experiments.KINDS`, the one table of what each kind runs and writes.
Likewise `prefactor --which` offers exactly the keys of `pde.PREFACTORS`,
the one table of each prefactor's function and slope, and `pde --branch`
those of `pde.BRANCHES`, the one table of each branch's constant.

Every refusal raised in `SweepSpec.__new__` begins with the field
it refuses, so `SweepSpec.from_file` can name that key's line; the few
rules across keys, which name the file alone, are pinned, and none of
them begins with a field. A refusal that
drifted from the convention would lose its line silently.

Every test helper, a `tests/_*.py` module, is imported by a collected
test module (`tests/test_*.py`), so a retired oracle cannot linger unused.

No module in `src/` or `tests/` imports `mpmath` or `scipy`: both may be
installed where the suite runs, but `pyproject.toml` declares neither, so
a route or an oracle that leaned on them would fail where they are not.
"""

import argparse
import ast
from pathlib import Path

from symbandit import cli, experiments, pde

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symbandit"


# public names whose only caller in the program is the benchmark harness
BENCH_ONLY = {
    "dp.regret_value": "the exact-ladder pass times it on its ladder of horizons, and the "
                       "reference values of cli-session and mc-episodes read it; `verify` "
                       "reads `dp.values`",
    "dp.pseudoregret_value": "as `dp.regret_value`, for the pseudoregret",
    "dp.value_trace": "the exact-ladder pass times it and its gate holds the origin row to "
                      "the one-horizon values; `verify` iterates `dp.trace_rows`",
    "env.play_episode": "the cli-session probe times 200 one-seed episodes; "
                        "`simulate --audit` plays its episodes through `play_episodes`",
    "env.EpisodeLog.from_line": "the cli-session gate reads back the audit JSONL; "
                                "the CLI only writes it",
    "experiments.read_csv": "the exact-ladder and closed-form-grid gates check that "
                            "the CSVs round-trip; the CLI only writes them",
    "strategy.brute_force_minimax": "the cli-session probe times it; `verify` certifies "
                                    "minimax by `dp.bayes_pseudoregret`, and criterion 9 "
                                    "holds it as its oracle",
}


# module-level imports that their own module does not use
UNUSED_IMPORTS = {
    "core.erf": "bench/ times the error function as core.erf",
    "core.erfc": "bench/ times the error function as core.erfc",
}


def _public_defs(tree, module):
    """(qualified name, name, first line, last line) of public functions,
    classes and methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(tree):
    """(line, name) of every name, attribute and imported name in code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]


def test_every_public_name_has_a_program_caller():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    refs = {p: list(_references(tree)) for p, tree in trees.items()}
    bench = {name for p in sorted((ROOT / "bench").rglob("*.py"))
             for _, name in _references(ast.parse(p.read_text()))}
    orphans, bench_only = [], set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qualified, name, first, last in _public_defs(tree, path.stem):
            if any(used == name and (other != path or not first <= line <= last)
                   for other, uses in refs.items() for line, used in uses):
                continue
            if name in bench:
                bench_only.add(qualified)
            else:
                orphans.append(f"{path.name}:{first} {qualified}")
    assert not orphans, "no caller in the program: " + ", ".join(orphans)
    changed = sorted(bench_only ^ set(BENCH_ONLY))
    assert not changed, "names whose only caller is bench/ changed: " + ", ".join(changed)


def test_every_module_level_import_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unused.update(f"{path.stem}.{name}" for name in bound if name not in used)
    changed = sorted(unused ^ set(UNUSED_IMPORTS))
    assert not changed, "unused module-level imports changed: " + ", ".join(changed)


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


def _callers(name):
    """`module.definition` of each top-level definition in `src/` whose code
    calls `name` (as a name or an attribute), or `module` for a call outside one."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if any(isinstance(call, ast.Call)
                   and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                   for call in ast.walk(node)):
                found.add(f"{path.stem}.{node.name}" if hasattr(node, "name") else path.stem)
    return found


def test_cli_reads_only_public_results():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "numpy" not in imported
    named = {name for _, name in _references(tree)}
    assert not named & {"SeedSequence", "origin_values", "_origin_values"}
    assert {caller.partition(".")[0] for caller in _callers("SeedSequence")} == {"experiments"}
    assert _callers("_origin_values") == {"dp.trace_rows"}


def test_cli_names_no_sweep_runner_or_column_list():
    named = {name for _, name in _references(ast.parse((PACKAGE / "cli.py").read_text()))}
    assert not named & {"convergence_sweep", "error_scaling", "MC_COLUMNS",
                        "CONVERGENCE_COLUMNS", "ERROR_SCALING_COLUMNS"}


def _choices(command, dest):
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in commands.choices[command]._actions if a.dest == dest]
    return tuple(action.choices)


def test_sweep_kinds_are_the_keys_of_the_kind_table():
    assert _choices("sweep", "kind") == tuple(experiments.KINDS)


def test_prefactors_are_the_keys_of_the_prefactor_table():
    assert _choices("prefactor", "which") == tuple(pde.PREFACTORS)


def test_branches_are_the_keys_of_the_branch_table():
    assert _choices("pde", "branch") == tuple(pde.BRANCHES)


# refusals of `SweepSpec.__new__` that no one key is at fault for
ACROSS_KEYS = ("exactly one of gamma, power, eps_list must be set",
               "an eps_list sweep requires a single horizon in T_list")


def test_every_sweep_spec_refusal_begins_with_its_key():
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    (spec,) = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SweepSpec"]
    (new,) = [node for node in spec.body
              if isinstance(node, ast.FunctionDef) and node.name == "__new__"]
    keys = set(experiments.SweepSpec._fields)
    # a rule across keys names the file alone, so it begins with no key
    assert not [text for text in ACROSS_KEYS if text.partition(" ")[0] in keys]
    drifted, across = [], set()
    for node in ast.walk(new):
        if not isinstance(node, ast.Raise):
            continue
        (message,) = node.exc.args
        head = message.values[0] if isinstance(message, ast.JoinedStr) else message
        text = head.value if isinstance(head, ast.Constant) else ""
        if text in ACROSS_KEYS:
            across.add(text)
        elif text.partition(" ")[0] not in keys:
            drifted.append(f"experiments.py:{node.lineno} {text!r}")
    assert not drifted, "refusals that begin with no key: " + ", ".join(drifted)
    assert across == set(ACROSS_KEYS)


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


# installed alongside the declared dependencies, but not declared
UNDECLARED = ("mpmath", "scipy")


def test_no_module_imports_an_undeclared_package():
    imports = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] in UNDECLARED]
    assert not imports, "imports of undeclared packages: " + ", ".join(imports)
