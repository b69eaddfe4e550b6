"""Source hygiene: every name a module or test module imports is used in
it, the package exports exactly its public names, and the README's examples
run."""

import ast
import importlib.util
import json
import re
import shlex
import sys
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
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


def _load_bench_module(name: str, monkeypatch):
    """bench/<name>.py, imported by path under its own module name."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]])
def test_benchmark_output_check_passes(workload, tmp_path, monkeypatch):
    # each benchmark workload at seed 0, through the CLI and the
    # benchmark's own off-the-clock output check: no problem, no failed row
    workloads = _load_bench_module("workloads", monkeypatch)
    check = _load_bench_module("check", monkeypatch)
    plan = workloads.plan(workload, 0)
    out = tmp_path / "sweep.csv"
    assert main(plan.argv(str(out))) == 0
    assert check.check_output(plan, out) == (0, [])


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


def test_the_acceptance_gate_builds_no_pipeline_of_its_own():
    # criteria 1-8 read the production path of one RunConfig: only the
    # oracle criterion builds physics inputs by hand, and no module
    # constant stands in for a setting of that configuration
    tree = ast.parse(Path(__file__).with_name("test_acceptance.py")
                     .read_text(encoding="utf-8"))
    oracle = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "test_criterion_9_oracle_certification")
    exempt = set(map(id, ast.walk(oracle)))
    built = sorted(f"{name} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in exempt
                   and (name := getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None))
                   in ("DriveParams", "AtomParams", "BeamSpec", "Layer",
                       "LayerStack"))
    bound = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {a.asname or a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not built, f"physics inputs built outside criterion 9: {built}"
    assert not bound & {"K0", "W0"}, sorted(bound & {"K0", "W0"})


def _file_writes(tree):
    """Line of each call in `tree` that opens a file to write: os.open,
    or open with a mode other than a literal read mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "open"
                and isinstance(f.value, ast.Name) and f.value.id == "os"):
            yield node.lineno
        elif isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                yield node.lineno


def test_files_are_written_by_the_one_writer():
    # every output (a sweep, profile --full-map, the verify report) goes
    # through sweeps.write_text, which rewrites a file in place
    trees = _trees()
    writer = next(node for node in trees["sweeps.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "write_text")
    assert list(_file_writes(writer))
    inside = {("sweeps.py", line) for line in _file_writes(writer)}
    outside = sorted(f"{name}:{line}" for name, tree in trees.items()
                     for line in _file_writes(tree)
                     if (name, line) not in inside)
    assert not outside, f"files opened to write outside the writer: {outside}"


def _top_level_names(tree):
    """Names a module defines at its top level: functions, classes and
    assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id


def _referred_names(tree, own=()):
    """Names the tree refers to: the attributes it reads, and the names
    it loads that it imports or that are among `own`, its own top-level
    names.  An import alone refers to nothing."""
    loads = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    return ({n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {imported[x] for x in loads & imported.keys()}
            | (loads & set(own)))


def _unused_names(trees, modules, public):
    """'module: name' of each public (or private) top-level name of
    `modules` that no tree refers to."""
    refers = {m: _referred_names(tree) for m, tree in trees.items()}
    unused = []
    for module in modules:
        names = set(_top_level_names(trees[module]))
        used = _referred_names(trees[module], names).union(
            *(r for m, r in refers.items() if m != module))
        unused += [f"{module}: {name}" for name in sorted(names - used)
                   if name.startswith("_") != public
                   and not name.startswith("__")]
    return unused


def test_every_private_module_name_is_used():
    trees = _trees()
    unused = _unused_names(trees, trees, public=False)
    assert not unused, f"private names nothing in src/ refers to: {unused}"


def test_no_public_name_exists_only_for_tests():
    # every public name of a production module is used by the package
    # (the oracle included) or the benchmark, not only by the tests; the
    # oracle's own names are references the tests call, and a re-export
    # from the package root counts for nothing
    trees = {m: t for m, t in _trees().items() if m != "__init__.py"}
    modules = [m for m in trees if m != "oracle.py"]
    trees |= {f"bench/{p.name}": ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted(BENCH.glob("*.py"))}
    unused = _unused_names(trees, modules, public=True)
    assert not unused, f"public names only tests refer to: {unused}"


def _public_members(tree):
    """(class, name) of each public method or property of the public
    classes a module defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_no_public_member_exists_only_for_tests():
    # every public method or property of a class in a production module
    # is read by the package (the oracle included) or the benchmark, not
    # only by the tests; the oracle's own classes are references
    trees = {m: t for m, t in _trees().items() if m != "__init__.py"}
    trees |= {f"bench/{p.name}": ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted(BENCH.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{module}: {cls}.{name}" for module in sorted(_trees())
              if module not in ("__init__.py", "oracle.py")
              for cls, name in _public_members(trees[module])
              if name not in read]
    assert not unread, f"public members only tests read: {unread}"


def _defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default
    of the functions the tree defines; position counts the arguments a
    call passes (past self) and is None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args]
        bound = params[:1] in (["self"], ["cls"])
        first = len(params) - len(a.defaults)
        yield from ((node.name, p, i - bound)
                    for i, p in enumerate(params[first:], start=first))
        yield from ((node.name, p.arg, None)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)


def _passes(call, parameter, position):
    """Whether the call may pass the parameter: by keyword, at its
    position, or through * or **."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default no caller overrides is a constant dressed as a knob: each
    # parameter with a default is passed by some call in src/, tests/ or
    # bench/ (calls matched to a function by its name alone)
    callers = [*SRC.glob("*.py"), *(SRC.parent.parent / "tests").glob("*.py"),
               *BENCH.glob("*.py")]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [f"{module}: {fn}({parameter})"
                for module, tree in _trees().items()
                for fn, parameter, position in _defaulted_parameters(tree)
                if not any(_passes(call, parameter, position)
                           for call in calls.get(fn, []))]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


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
