"""The scripts under scripts/ run to a clean exit on their defaults.  Each is
a subprocess with PYTHONPATH=src, as a user runs it from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_gamma_table_finds_every_map_injective():
    proc = run_script("scripts/gamma_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "p = 3" and lines[1].split() == ["e_rel", "n", "gamma", "injective"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 9  # e_rel, n in 1..3
    assert all(row[-1] == "yes" for row in rows)


@pytest.mark.parametrize("args", [
    ("scripts/phimod_report.py",),
    ("scripts/audit_family.py", "specs/unramified_family.spec"),
    # [params] extensions names one context
    ("scripts/audit_family.py", "perfbench/specs/unramified_points.spec"),
])
def test_report_scripts_exit_cleanly(args):
    proc = run_script(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
