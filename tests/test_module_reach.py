"""Every ``src/repro`` module is reached from something that runs it.

A module that no command, served job, benchmark or ladder row imports
is code that only its own tests exercise.  This test builds the static
import graph of ``src/repro`` with :mod:`ast` and walks it from the
roots below; every module must be reached.  A new module needs a
consumer among the roots before it lands.

Roots: the ``repro`` command (``repro.__main__``, ``repro.cli``), the
campaign server package (``repro.serve``), every ``benchmarks/**/*.py``
script, and every ``module:callable`` trace target named in
``benchmarks/ladder/trace.py``.

Edges: an ``import`` or ``from ... import`` anywhere in a module, a
function body included, with relative imports resolved.  Importing
``a.b.c`` also reaches the packages ``a.b`` and ``a``, whose
``__init__`` runs first.  The strings in a package ``__init__``'s
``name_table(...)`` are not edges: a name table lists what a package
re-exports, not what anything runs.

The same holds one level down: every function, method and class
defined in ``src/repro`` (dunders aside) is named somewhere other than
its own definition, in the code or a string of ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
TRACE = BENCHMARKS / "ladder" / "trace.py"
# Trees whose code and strings may name a src/repro callable.
NAMING_TREES = ("src", "tests", "benchmarks", "examples")

ROOT_MODULES = ("repro.__main__", "repro.cli", "repro.serve")
_TARGET = re.compile(r"^(repro(?:\.\w+)+):")


def _modules() -> Dict[str, Path]:
    """Dotted name -> file for every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imported(path: Path, module: str = "") -> Set[str]:
    """Dotted names ``path`` imports, with ``from x import y`` also
    yielding ``x.y`` (which may be a submodule).  ``module`` is the
    file's own dotted name, needed to resolve relative imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                stem = ".".join(parts + ([node.module] if node.module else []))
            else:
                stem = node.module or ""
            names.add(stem)
            names.update(f"{stem}.{alias.name}" for alias in node.names)
    return names


def _with_parents(names: Iterable[str], known: Dict[str, Path]) -> Set[str]:
    """The modules among ``names`` and their packages."""
    out = set()
    for name in names:
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in known:
                out.add(prefix)
    return out


def _trace_target_modules() -> Set[str]:
    tree = ast.parse(TRACE.read_text())
    return {
        match.group(1)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for match in [_TARGET.match(node.value)]
        if match
    }


def unreached_modules() -> Dict[str, int]:
    """Unreached module -> its line count."""
    known = _modules()
    seeds: Set[str] = set(ROOT_MODULES) | _trace_target_modules()
    for script in BENCHMARKS.rglob("*.py"):
        seeds |= _imported(script)
    frontier = list(_with_parents(seeds, known))
    reached: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier.extend(_with_parents(_imported(known[module], module), known) - reached)
    return {
        name: len(known[name].read_text().splitlines())
        for name in sorted(set(known) - reached)
    }


def _words(path: Path) -> Counter:
    """Identifier occurrences in the code and the strings of ``path``
    (comments are not read)."""
    words: Counter = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            words[tok.string] += 1
        elif tok.type == tokenize.STRING:
            words.update(re.findall(r"[A-Za-z_]\w*", tok.string))
    return words


def unnamed_callables() -> Dict[str, List[str]]:
    """Non-dunder ``def``/``class`` names of ``src/repro`` that occur
    nowhere but at their own definitions -> those definitions."""
    words: Counter = Counter()
    for tree in NAMING_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            words += _words(path)
    defined: Dict[str, List[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
    return {name: sites for name, sites in sorted(defined.items()) if words[name] <= len(sites)}


def test_relative_imports_resolve(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .plan import compile_circuit\n")
    (pkg / "plan.py").write_text(
        "def f():\n    from ..ir import compiled\n    from . import kernels\n"
    )
    assert _imported(pkg / "__init__.py", "repro.sim") >= {"repro.sim.plan"}
    assert _imported(pkg / "plan.py", "repro.sim.plan") >= {
        "repro.ir.compiled",
        "repro.sim.kernels",
    }


def test_name_table_strings_are_not_edges(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text(
        "from repro._lazy import name_table\n"
        "__all__, __getattr__, __dir__ = name_table(__name__, {'plan': ['ExecutionPlan']})\n"
    )
    assert _imported(init, "repro.sim") == {"repro._lazy", "repro._lazy.name_table"}


def test_a_submodule_import_reaches_its_packages():
    known = _modules()
    assert _with_parents(["repro.sim.plan.compile_circuit"], known) == {
        "repro",
        "repro.sim",
        "repro.sim.plan",
    }


def test_every_src_module_is_reached():
    assert set(ROOT_MODULES) <= set(_modules())
    unreached = unreached_modules()
    assert not unreached, (
        f"{len(unreached)} src/repro modules ({sum(unreached.values())} lines) are reached "
        "by no command, served job, benchmark or ladder trace target:\n"
        + "\n".join(f"  {name} ({lines} lines)" for name, lines in unreached.items())
    )


def test_strings_name_callables_and_comments_do_not(tmp_path):
    script = tmp_path / "s.py"
    script.write_text('# helper\nTARGET = "repro.x:Cls.method"\ndef helper():\n    pass\n')
    words = _words(script)
    assert words["helper"] == 1 and words["method"] == 1 and words["Cls"] == 1


def test_every_src_callable_is_named():
    unnamed = unnamed_callables()
    assert not unnamed, (
        f"{len(unnamed)} src/repro functions or classes are named only at their "
        "own definition:\n" + "\n".join(f"  {n} ({', '.join(s)})" for n, s in unnamed.items())
    )

