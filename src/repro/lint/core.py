"""Shared machinery of the ``repro.lint`` determinism pass.

One file-walking / pragma-parsing / reporting core serves every rule
module, so a rule is nothing but a function from a parsed file (or, for
the semi-static R006, from the imported task registry) to
:class:`Finding` objects.  The pieces:

* :class:`Finding` — one diagnostic: rule id, location, message and a
  fix-it hint telling the author what the determinism contract wants
  instead.
* :class:`FileContext` — a parsed source file plus the import aliases the
  AST rules need (``import numpy as np`` must make ``np.random.rand``
  recognisable) and the suppression pragmas found in its comments.
* pragmas — ``# repro-lint: ignore[R001] -- <why>`` suppresses matching
  findings **on that physical line**; ``file-ignore`` suppresses them for
  the whole file.  The justification text after ``--`` is *required*: a
  pragma without one is itself a finding (R000), so silenced rules always
  carry their reason in the diff.
* :func:`run_lint` / :func:`lint_source` — directory-tree and
  in-memory entry points (the latter is what the rule unit tests use).

The pass is intentionally lexical/syntactic — no type inference, no data
flow.  Each rule documents the approximation it makes; the contract is
"cheap, zero false positives on this repo, catches the bug classes that
actually hit us", not "sound for arbitrary Python".
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register_rule",
    "iter_rules",
    "lint_source",
    "lint_file",
    "run_lint",
    "default_roots",
    "render_text",
    "render_json",
    "PRAGMA_RE",
]

#: Rule id reserved for problems with the lint pass's own inputs: syntax
#: errors, malformed pragmas, pragmas missing their justification.
META_RULE = "R000"

PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>file-)?ignore"
    r"\[(?P<rules>[A-Za-z0-9_,\s]*)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    fixit: str = ""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.fixit:
            text += f"\n    fix: {self.fixit}"
        return text


@dataclasses.dataclass
class _Pragma:
    rules: Tuple[str, ...]     # () means "all rules"
    justification: str
    line: int
    file_scope: bool

    def covers(self, rule: str) -> bool:
        return not self.rules or rule in self.rules


class FileContext:
    """A parsed file plus everything rules share: imports, pragmas, lines."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: alias -> dotted module name, for ``import numpy as np`` /
        #: ``import os`` (``{"np": "numpy", "os": "os"}``).
        self.module_aliases: Dict[str, str] = {}
        #: local name -> "module.attr", for ``from x import y as z``
        #: (``{"z": "x.y"}``).
        self.from_imports: Dict[str, str] = {}
        self._collect_imports(tree)
        self.line_pragmas: Dict[int, List[_Pragma]] = {}
        self.file_pragmas: List[_Pragma] = []
        self.pragma_findings: List[Finding] = []
        self._collect_pragmas()

    # ------------------------------------------------------------------
    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # ------------------------------------------------------------------
    def _iter_comments(self):
        """Real COMMENT tokens (docstrings and string literals that merely
        *mention* pragma syntax must not parse as pragmas)."""
        reader = io.StringIO(self.source).readline
        try:
            for tok in tokenize.generate_tokens(reader):
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return

    def _collect_pragmas(self) -> None:
        for lineno, comment in self._iter_comments():
            if not re.match(r"#\s*repro-lint:", comment):
                continue
            match = PRAGMA_RE.search(comment)
            if match is None:
                self.pragma_findings.append(Finding(
                    rule=META_RULE, path=self.path, line=lineno, col=1,
                    message="unparseable repro-lint pragma",
                    fixit="use `# repro-lint: ignore[R00x] -- <justification>`",
                ))
                continue
            rules = tuple(r.strip().upper()
                          for r in match.group("rules").split(",") if r.strip())
            why = (match.group("why") or "").strip()
            pragma = _Pragma(rules=rules, justification=why, line=lineno,
                             file_scope=bool(match.group("scope")))
            if not why:
                self.pragma_findings.append(Finding(
                    rule=META_RULE, path=self.path, line=lineno, col=1,
                    message="repro-lint pragma is missing its justification",
                    fixit="append ` -- <why this deviation is safe>` to the "
                          "pragma; unexplained suppressions are not allowed",
                ))
                continue
            if pragma.file_scope:
                self.file_pragmas.append(pragma)
            else:
                self.line_pragmas.setdefault(lineno, []).append(pragma)

    # ------------------------------------------------------------------
    def suppressed(self, finding: Finding) -> bool:
        for pragma in self.file_pragmas:
            if pragma.covers(finding.rule):
                return True
        for pragma in self.line_pragmas.get(finding.line, ()):
            if pragma.covers(finding.rule):
                return True
        return False

    # ------------------------------------------------------------------
    def resolves_to(self, node: ast.expr, dotted: str) -> bool:
        """Whether ``node`` is a reference to the fully-qualified ``dotted``.

        Handles the module alias table (``np.random`` vs ``numpy.random``)
        and ``from`` imports (``from time import time``), which is as much
        name resolution as a single-file lexical pass can honestly do.
        """
        name = self.dotted_name(node)
        return name is not None and name == dotted

    def dotted_name(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Aliases are normalised: with ``import numpy as np``, the expression
        ``np.random.rand`` maps to ``"numpy.random.rand"``; with
        ``from os import environ``, ``environ.get`` maps to
        ``"os.environ.get"``.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = cur.id
        if head in self.from_imports:
            base = self.from_imports[head]
        elif head in self.module_aliases:
            base = self.module_aliases[head]
        else:
            base = head
        return ".".join([base] + list(reversed(parts)))


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    title: str
    #: ``check(ctx)`` yields findings for one parsed file.  ``None`` for
    #: repo-level (semi-static) rules that use ``repo_check`` instead.
    check: Optional[Callable[[FileContext], Iterable[Finding]]]
    #: ``repo_check(repo_root)`` runs once per lint invocation.
    repo_check: Optional[Callable[[Path], Iterable[Finding]]] = None
    #: repo-relative posix paths (prefix match) exempt from this rule.
    exempt_paths: Tuple[str, ...] = ()


_RULES: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if rule.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _RULES[rule.rule_id] = rule
    return rule


def iter_rules() -> List[Rule]:
    """All registered rules, in rule-id order (imports the rule modules)."""
    _load_rule_modules()
    return [_RULES[k] for k in sorted(_RULES)]


_LOADED = False


def _load_rule_modules() -> None:
    global _LOADED
    if _LOADED:
        return
    # Imported for their registration side effect.
    from . import (  # noqa: F401
        rules_deps,
        rules_env,
        rules_hash,
        rules_order,
        rules_rng,
        rules_state,
        rules_time,
    )
    _LOADED = True


def _path_exempt(rule: Rule, path: str) -> bool:
    norm = path.replace("\\", "/")
    return any(norm.endswith(p) or norm.startswith(p) for p in rule.exempt_paths)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<memory>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (the rule unit-test entry point).

    ``rules`` restricts the pass to the given rule ids; pragma handling and
    path exemptions apply exactly as in a directory run.  Repo-level rules
    (R006) have no source to walk and are skipped here.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(rule=META_RULE, path=path, line=exc.lineno or 1,
                        col=exc.offset or 1,
                        message=f"syntax error: {exc.msg}")]
    ctx = FileContext(path, source, tree)
    findings = list(ctx.pragma_findings)
    for rule in iter_rules():
        if rule.check is None:
            continue
        if rules is not None and rule.rule_id not in rules:
            continue
        if _path_exempt(rule, path):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Path, repo_root: Path,
              rules: Optional[Sequence[str]] = None) -> List[Finding]:
    rel = path.relative_to(repo_root).as_posix() if path.is_relative_to(repo_root) \
        else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Finding(rule=META_RULE, path=rel, line=1, col=1,
                        message=f"unreadable file: {exc}")]
    return lint_source(source, rel, rules=rules)


def default_roots(repo_root: Path) -> List[Path]:
    """The trees the determinism contract covers: src, tests, benchmarks."""
    return [repo_root / name for name in ("src", "tests", "benchmarks")
            if (repo_root / name).is_dir()]


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor carrying ``pyproject.toml`` (fallback: package root)."""
    here = (start or Path.cwd()).resolve()
    for candidate in [here, *here.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    # Installed-package fallback: src/repro/lint/core.py -> repo root.
    return Path(__file__).resolve().parents[3]


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    repo_root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint a directory tree; returns ``(findings, files_scanned)``.

    With no ``paths``, walks ``src/``, ``tests/`` and ``benchmarks/`` under
    the repo root.  Repo-level rules (R006) run once per invocation, after
    the per-file AST rules.
    """
    root = (repo_root or find_repo_root()).resolve()
    targets = [Path(p).resolve() for p in paths] if paths else default_roots(root)
    files: List[Path] = []
    seen: Set[Path] = set()
    for target in targets:
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = [target]
        else:
            candidates = sorted(target.rglob("*.py"))
        for f in candidates:
            if f not in seen:
                seen.add(f)
                files.append(f)
    findings: List[Finding] = []
    for f in files:
        findings.extend(lint_file(f, root, rules=rules))
    for rule in iter_rules():
        if rule.repo_check is None:
            continue
        if rules is not None and rule.rule_id not in rules:
            continue
        findings.extend(rule.repo_check(root))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, len(files)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    lines = [f.render() for f in findings]
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
    lines.append(
        f"repro.lint: {len(findings)} finding(s) in {files_scanned} file(s)"
        + (f" [{summary}]" if summary else "")
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_scanned: int) -> str:
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    body = {
        "version": 1,
        "files_scanned": files_scanned,
        "counts": {k: counts[k] for k in sorted(counts)},
        "findings": [f.to_json() for f in findings],
    }
    return json.dumps(body, indent=2, sort_keys=True)
