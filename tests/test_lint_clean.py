"""The repo must satisfy its own determinism contract.

This is the tier-1 enforcement point of :mod:`repro.lint`: a zero-finding
pass over ``src/``, ``tests/`` and ``benchmarks/`` — exactly what the CI
``repro-lint`` job runs, so a rule regression or a new violation fails the
suite locally before it fails in CI.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import iter_rules, render_json, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_repo_tree_is_lint_clean():
    findings, files_scanned = run_lint(repo_root=REPO_ROOT)
    assert files_scanned > 50  # src + tests + benchmarks really were walked
    assert findings == [], "\n".join(f.render() for f in findings)


def test_all_rules_are_registered():
    ids = sorted(rule.rule_id for rule in iter_rules())
    assert ids == ["R001", "R002", "R003", "R004", "R005", "R006", "R007"]


def test_json_report_shape():
    findings, files_scanned = run_lint(repo_root=REPO_ROOT)
    report = json.loads(render_json(findings, files_scanned))
    assert report["version"] == 1
    assert report["files_scanned"] == files_scanned
    assert report["findings"] == []
    assert all(count == 0 for count in report["counts"].values())


def test_cli_exit_codes_and_json():
    env_path = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["findings"] == []

    # Unknown rule id is a usage error (exit 2), not a silent no-op.
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--rules", "R999"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
