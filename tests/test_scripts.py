"""Smoke tests: the example scripts run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_hopf_demo():
    lines = run_script("hopf_demo.py")
    assert lines[-1] == "contraction certified at ratio <= 0.75: True"


def test_sr_survey():
    lines = run_script("sr_survey.py", "--trials", "4", "--seed", "1")
    assert len(lines) == 1 + 4
    assert [line.split()[-1] for line in lines] == ["span"] + ["ok"] * 4


def test_bench_digest():
    lines = run_script("bench_digest.py", "--workload", "group", "--seed", "1")
    assert len(lines) == 40
    assert all(line.startswith("group 1 n") and len(line.split()[-1]) == 64 for line in lines)
    assert run_script("bench_digest.py", "--workload", "group", "--seed", "1") == lines


def test_src_size():
    lines = run_script("src_size.py")
    counts = {name: int(count) for count, name in (line.split() for line in lines)}
    total, tests = counts.pop("total"), counts.pop("tests/*.py")
    assert lines[-1].split()[1] == "tests/*.py"
    files = sorted((ROOT / "src" / "srnf").glob("*.py"))
    assert list(counts) == [f"src/srnf/{path.name}" for path in files]
    assert total == sum(counts.values())
    assert total == sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert tests == sum(len(path.read_text(encoding="utf-8").splitlines())
                        for path in (ROOT / "tests").glob("*.py"))
