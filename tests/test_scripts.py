"""Smoke tests: the example scripts run to completion against the package."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import srnf
from srnf.config import RunConfig
from test_germio_cli import accepted_settings

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_hopf_demo():
    lines = run_script("hopf_demo.py")
    assert lines[-1] == "  k=8: (0.000488281+0j, 0.00390625+0j)  |.| = 0.00393665"


def test_sr_survey():
    lines = run_script("sr_survey.py", "--trials", "4", "--seed", "1")
    assert len(lines) == 1 + 4
    assert [line.split()[-1] for line in lines] == ["span"] + ["ok"] * 4


def test_bench_digest():
    # every benchmark output of seeds 1-3 stays byte-identical to the committed digest
    lines = run_script("bench_digest.py", "--seed", "1", "2", "3")
    assert len(lines) == 168
    assert all(len(line.split()[-1]) == 64 for line in lines)
    expected = ROOT / "tests" / "data" / "expected" / "bench_digest-seed1-2-3.txt"
    assert lines == expected.read_text(encoding="utf-8").splitlines()


def test_src_size():
    lines = run_script("src_size.py")
    counts = {name: int(count) for count, name in (line.split(maxsplit=1) for line in lines)}
    total, tests = counts.pop("total"), counts.pop("tests/*.py")
    fields, slots = counts.pop("RunConfig fields"), counts.pop("command flag slots")
    leaves, exports = counts.pop("commands"), counts.pop("srnf exports")
    assert [line.split(maxsplit=1)[1] for line in lines[-5:]] == [
        "tests/*.py", "RunConfig fields", "command flag slots", "commands", "srnf exports"]
    assert fields == len(dataclasses.fields(RunConfig))
    # public names of the package namespace, its submodules left out
    assert exports == sum(not name.startswith("_") and not inspect.ismodule(getattr(srnf, name))
                          for name in dir(srnf))
    # the parser's commands and flag slots, counted as the CLI tests probe them
    accepted = accepted_settings()
    assert leaves == len(accepted)
    assert slots == sum(map(len, accepted.values()))
    files = sorted((ROOT / "src" / "srnf").glob("*.py"))
    assert list(counts) == [f"src/srnf/{path.name}" for path in files]
    assert total == sum(counts.values())
    assert total == sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert tests == sum(len(path.read_text(encoding="utf-8").splitlines())
                        for path in (ROOT / "tests").glob("*.py"))
