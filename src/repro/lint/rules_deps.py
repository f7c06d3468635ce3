"""R007 — every third-party import is a declared dependency.

The package must install and run from what ``pyproject.toml`` declares.
An import of a package that merely happens to be installed on the author's
machine works locally and breaks ``pip install .`` everywhere else, so:

* in ``src/``, the top-level package of every ``import`` / ``from ...
  import`` must be stdlib (:data:`sys.stdlib_module_names`), ``repro``
  itself, or a name in ``[project].dependencies``;
* in ``tests/`` and ``benchmarks/``, names from the ``test`` extra
  (``[project.optional-dependencies]``), the local ``conftest`` helper
  module and the test-only helper modules in :data:`_TEST_HELPERS` are
  allowed as well.

Relative imports are local by construction and never flagged.  Declared
distribution names are matched to import names by the usual
normalisation (lower case, ``-`` and ``.`` to ``_``), which covers every
dependency this repo has; a distribution whose import name differs would
need a pragma.

``pyproject.toml`` is parsed with a small scanner instead of ``tomllib``
(3.11+; the package supports 3.10).  When no ``pyproject.toml`` is found
above this module (an installed copy), the rule has nothing to check
against and stays silent.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .core import FileContext, Finding, Rule, find_repo_root, register_rule

RULE_ID = "R007"

#: First-party and local helper modules, importable without declaration.
_LOCAL = frozenset({"repro", "conftest"})

#: Helper modules that live in ``tests/`` (not packages, never installed):
#: importable from tests and benchmarks only.  ``dem_reference`` is the
#: frozen one-shot DEM builder the template builder is checked against.
_TEST_HELPERS = frozenset({"dem_reference"})

_REQUIREMENT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _toml_string_array(text: str, table: str, key: str) -> List[str]:
    """Strings of the array ``key = [...]`` in ``[table]`` of a TOML text.

    Handles what dependency arrays use: single- or double-quoted strings
    (which may contain brackets, as in ``"pkg[extra]>=1"``), arrays
    spanning lines, trailing commas and ``#`` comments.  Returns ``[]``
    when the table or key is absent.
    """
    current = None
    lines = text.splitlines()
    for n, line in enumerate(lines):
        stripped = line.strip()
        header = re.fullmatch(r"\[([^\[\]]+)\]\s*(#.*)?", stripped)
        if header:
            current = header.group(1).strip()
            continue
        match = re.match(rf"{re.escape(key)}\s*=\s*\[", stripped)
        if current == table and match:
            rest = "\n".join([stripped[match.end():]] + lines[n + 1:])
            return _scan_array(rest)
    return []


def _scan_array(body: str) -> List[str]:
    """Quoted strings up to the first unquoted ``]`` of ``body``."""
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "]":
            break
        if ch == "#":
            newline = body.find("\n", i)
            i = len(body) if newline < 0 else newline
            continue
        if ch in ("'", '"'):
            end = body.index(ch, i + 1)
            out.append(body[i + 1:end])
            i = end
        i += 1
    return out


def _import_name(requirement: str) -> Optional[str]:
    match = _REQUIREMENT_NAME.match(requirement.strip())
    if match is None:
        return None
    return re.sub(r"[-.]", "_", match.group(0).lower())


def declared_imports(pyproject_text: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Import names of the runtime dependencies and of the ``test`` extra."""
    def names(table: str, key: str) -> FrozenSet[str]:
        found = (_import_name(r) for r in _toml_string_array(pyproject_text, table, key))
        return frozenset(n for n in found if n)

    return (names("project", "dependencies"),
            names("project.optional-dependencies", "test"))


@functools.lru_cache(maxsize=None)
def _repo_declared() -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    pyproject = find_repo_root(Path(__file__).resolve().parent) / "pyproject.toml"
    if not pyproject.is_file():
        return None
    return declared_imports(pyproject.read_text(encoding="utf-8"))


def _imported_tops(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node, node.module.split(".")[0]


def _check(ctx: FileContext) -> Iterator[Finding]:
    declared = _repo_declared()
    if declared is None:
        return
    runtime, test_extra = declared
    in_src = ctx.path.replace("\\", "/").startswith("src/")
    allowed = runtime if in_src else runtime | test_extra | _TEST_HELPERS
    for node, top in _imported_tops(ctx.tree):
        if top in sys.stdlib_module_names or top in _LOCAL or top in allowed:
            continue
        if in_src and top in test_extra:
            message = (f"{top!r} is declared only in the [test] extra, but "
                       "src/ code needs it at runtime")
        else:
            message = f"third-party import {top!r} is not declared in pyproject.toml"
        yield Finding(
            rule=RULE_ID, path=ctx.path, line=node.lineno,
            col=node.col_offset + 1, message=message,
            fixit="add it to [project].dependencies (test-only imports: the "
                  "[test] extra) so installs from the declared set work",
        )


register_rule(Rule(
    rule_id=RULE_ID,
    title="third-party imports are declared in pyproject.toml",
    check=_check,
))
