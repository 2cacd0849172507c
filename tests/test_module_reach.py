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

``KEPT_UNREACHED`` names the modules that are still unreached but kept
for now, each with the tests that exercise it.  The list may only
shrink: a module on it that gets a consumer or is deleted must leave
it, and no module may join it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
TRACE = BENCHMARKS / "ladder" / "trace.py"

ROOT_MODULES = ("repro.__main__", "repro.cli", "repro.serve")
_TARGET = re.compile(r"^(repro(?:\.\w+)+):")

# Unreached modules kept with their tests until a later change deletes
# them or gives them a consumer; see the module docstring.
KEPT_UNREACHED = frozenset(
    {
        "repro.chem.lattice",
        "repro.chem.properties",
        "repro.sim.checkpoint",
        "repro.sim.feynman",
    }
)


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
    unreached = {
        name: lines for name, lines in unreached_modules().items() if name not in KEPT_UNREACHED
    }
    assert not unreached, (
        f"{len(unreached)} src/repro modules ({sum(unreached.values())} lines) are reached "
        "by no command, served job, benchmark or ladder trace target:\n"
        + "\n".join(f"  {name} ({lines} lines)" for name, lines in unreached.items())
    )


def test_kept_unreached_list_only_shrinks():
    known = _modules()
    gone = sorted(KEPT_UNREACHED - set(known))
    assert not gone, f"deleted modules still listed in KEPT_UNREACHED: {gone}"
    reached = sorted(KEPT_UNREACHED - set(unreached_modules()))
    assert not reached, f"modules now reached, drop them from KEPT_UNREACHED: {reached}"
