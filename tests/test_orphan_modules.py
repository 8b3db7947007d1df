"""Every ``src/repro`` module must be reachable from an entry point.

A module that only a package ``__init__`` imports still loads on every
``import repro``, so a plain "is it imported?" check never flags it, yet
no CLI, figure, claim or service path runs it.  This test walks the
imports statically (with :mod:`ast`, function-local imports included)
from the entry modules and resolves each name imported from a package to
the module that defines it, not to the ``__init__`` that re-exports it.
A non-package module the walk never reaches fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages whose every module is an entry point, and single entry modules.
ENTRY_PACKAGES = ("repro.tools", "repro.service")
ENTRY_MODULES = ("repro.harness.reproduce", "repro.harness.experiments",
                 "repro.harness.validate")


class _Module:
    def __init__(self, name: str, path: Path, is_package: bool):
        self.name = name
        self.is_package = is_package
        tree = ast.parse(path.read_text(), filename=str(path))
        #: ``name -> (module, original name)`` for a package's top-level
        #: ``from X import name`` re-exports, followed only on demand.
        self.reexports: dict[str, tuple[str, str]] = {}
        #: Every other import statement, at any depth.
        self.imports: list[ast.stmt] = []
        lazy = set()
        if is_package:
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    lazy.add(id(node))
                    base = _absolute(node, name, is_package)
                    for alias in node.names:
                        self.reexports[alias.asname or alias.name] = (
                            base, alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and id(node) not in lazy):
                self.imports.append(node)


def _absolute(node: ast.ImportFrom, importer: str, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    parts = importer.split(".")
    if not is_package:
        parts = parts[:-1]
    if node.level > 1:
        parts = parts[:len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _load(src: Path) -> dict[str, _Module]:
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        name = ".".join(parts)
        modules[name] = _Module(name, path, is_package)
    return modules


def orphan_modules(src: Path = SRC) -> list[str]:
    """The non-package modules under ``src/repro`` that no entry module
    reaches except through a package ``__init__`` re-export."""
    modules = _load(src)
    reached: set[str] = set()
    pending = [name for name in modules
               if name in ENTRY_MODULES
               or any(name == pkg or name.startswith(pkg + ".")
                      for pkg in ENTRY_PACKAGES)]

    def resolve(base: str, attr: str) -> None:
        # ``from base import attr``: a submodule, a re-exported name
        # (followed to its defining module), or a name ``base`` defines.
        if f"{base}.{attr}" in modules:
            pending.append(f"{base}.{attr}")
            return
        module = modules.get(base)
        if module is None:
            return
        pending.append(base)
        if module.is_package:
            if attr == "*":
                for origin, name in module.reexports.values():
                    resolve(origin, name)
            elif attr in module.reexports:
                resolve(*module.reexports[attr])

    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        # Importing a module runs its parent packages' ``__init__``s,
        # but only their eager imports, not every re-export.
        parent = name.rpartition(".")[0]
        if parent:
            pending.append(parent)
        module = modules[name]
        for node in module.imports:
            if isinstance(node, ast.Import):
                pending.extend(alias.name for alias in node.names)
            else:
                base = _absolute(node, name, module.is_package)
                for alias in node.names:
                    resolve(base, alias.name)
    return sorted(name for name, module in modules.items()
                  if not module.is_package and name not in reached)


def test_every_module_is_reached_from_an_entry_point():
    orphans = orphan_modules()
    assert not orphans, (
        "modules reached only through a package __init__ re-export "
        "(give them an entry point or delete them): " + ", ".join(orphans))


def test_walk_follows_reexports_and_local_imports(tmp_path):
    # A tiny tree: the tool imports ``used`` via the package re-export
    # and ``late`` inside a function; ``dead`` is only re-exported.
    files = {
        "repro/__init__.py": "",
        "repro/tools/__init__.py": "",
        "repro/tools/cli.py": (
            "from repro.pkg import used\n"
            "def main():\n"
            "    from repro.pkg.late import go\n"),
        "repro/pkg/__init__.py": (
            "from repro.pkg.used_mod import used\n"
            "from repro.pkg.dead import unused\n"),
        "repro/pkg/used_mod.py": "from .helper import x\n",
        "repro/pkg/helper.py": "x = 1\n",
        "repro/pkg/late.py": "go = 1\n",
        "repro/pkg/dead.py": "unused = 1\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert orphan_modules(tmp_path) == ["repro.pkg.dead"]
