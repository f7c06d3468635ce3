"""CLI for the determinism lint pass: ``python -m repro.lint``.

Exit status: 0 — clean; 1 — findings; 2 — bad invocation.  ``--format
json`` prints the stable machine-readable report (version, per-rule
counts, findings with fix-its) that the CI job uploads next to the
``BENCH_*.json`` artifacts, so findings are diffable across pushes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import find_repo_root, iter_rules, render_json, render_text, run_lint


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & invariant static analysis for this repo "
                    "(rules R001-R007; see README 'Determinism contract').",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: src/ tests/ benchmarks/)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (json is what CI archives)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rules = None
    if args.rules:
        rules = tuple(r.strip().upper() for r in args.rules.split(",")
                      if r.strip())
        known = {r.rule_id for r in iter_rules()}
        unknown = [r for r in rules if r not in known]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    findings, files_scanned = run_lint(
        paths=args.paths or None,
        repo_root=find_repo_root(),
        rules=rules,
    )
    if args.format == "json":
        print(render_json(findings, files_scanned))
    else:
        print(render_text(findings, files_scanned))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
