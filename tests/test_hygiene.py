"""Source hygiene: every name a module imports is used in that module,
the package exports exactly its public names, and the README's examples
run."""

import ast
import re
import shlex
import types
from dataclasses import fields
from pathlib import Path

import pytest

import rydshe
from rydshe.cli import _OVERRIDES, main

SRC = Path(__file__).resolve().parent.parent / "src" / "rydshe"
README = SRC.parent.parent / "README.md"
BENCH = SRC.parent.parent / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _imported_modules(tree):
    """Dotted names a module imports, relative imports resolved in rydshe."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rydshe" if node.level else "",
                                          node.module]))
            out |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return out


def test_package_exports_are_its_public_names():
    # the written-out __all__ lists each public name once; a name that
    # does not resolve or names a submodule is not among them
    names = [n for n in dir(rydshe) if not n.startswith("_")
             and not isinstance(getattr(rydshe, n), types.ModuleType)]
    assert sorted(rydshe.__all__) == names


def test_names_the_benchmark_reads_resolve():
    # bench/check.py imports these from rydshe without a guard, so a
    # removed name would fail every benchmark run, not a test
    tree = ast.parse((BENCH / "check.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "rydshe"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(rydshe, n)] == []
    # bench/child.py's trace reads it without a guard too
    assert isinstance(rydshe.quantum.DEFAULT_QUAD_NODES, int)


def test_every_cli_override_is_a_run_config_field():
    # the CLI applies each override flag that is set with
    # dataclasses.replace, so each key must name a RunConfig field
    assert set(_OVERRIDES) <= {f.name for f in fields(rydshe.RunConfig)}


def test_only_the_front_ends_import_the_oracle():
    # production paths never lean on the brute-force references
    importers = sorted(name for name, tree in _trees().items()
                       if "rydshe.oracle" in _imported_modules(tree))
    assert set(importers) <= {"oracle.py", "cli.py"}, importers


@pytest.mark.parametrize("stage", ["quantum.py", "multilayer.py",
                                   "beam_shift.py"])
def test_stage_modules_import_no_other_stage(stage):
    # the three stages compose only through config and sweeps, so each
    # can be replaced or tested alone
    trees = _trees()
    siblings = {f"rydshe.{Path(name).stem}" for name in trees} - {
        "rydshe.__init__", "rydshe.errors"}
    imported = sorted(_imported_modules(trees[stage]) & siblings)
    assert not imported, f"{stage} imports {imported}"


def test_every_private_module_name_is_used():
    trees = _trees()
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}: {name}" for module, name in defined
              if name not in used]
    assert not unused, f"private names nothing in src/ refers to: {unused}"


def _readme_block(heading: str) -> str:
    """The first fenced block after `heading` in the README."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"```\w*\n(.*?)```", text[text.index(heading):],
                     re.S).group(1)


def test_readme_library_snippet_runs(capsys):
    exec(_readme_block("## Library entry points"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    shlex.split(line, comments=True)[1:]
    for line in _readme_block("## CLI").splitlines()
    if line.startswith("rydshe ")], ids=" ".join)
def test_readme_cli_line_runs(argv, tmp_path):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
