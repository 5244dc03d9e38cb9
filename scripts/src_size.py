#!/usr/bin/env python3
"""Print the line count of each ``src/srnf/*.py`` module and their total,
then the line total of the test modules ``tests/*.py`` on a line of its own,
then the size of the options: the number of ``RunConfig`` fields, the
number of command flag slots, a slot being a ``RunConfig`` flag or
``--output`` that one subcommand of ``cli.build_parser()`` accepts, and the
number of those subcommands (``group mul`` and ``group inv`` count as two),
and last the number of public names that ``srnf`` exports, submodules not
counted.

Lines are counted as ``wc -l`` counts them, one per newline.

Run from anywhere:  python3 scripts/src_size.py
"""

import argparse
import dataclasses
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srnf"
sys.path.insert(0, str(ROOT / "src"))

import srnf  # noqa: E402
from srnf import cli  # noqa: E402
from srnf.config import RunConfig  # noqa: E402


def count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def commands(parser: argparse.ArgumentParser):
    """The parsers of the leaf subcommands under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser
    for action in subparsers:
        for child in action.choices.values():
            yield from commands(child)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = count(path)
        total += lines
        print(f"{lines:6d} src/srnf/{path.name}")
    print(f"{total:6d} total")
    print(f"{sum(map(count, (ROOT / 'tests').glob('*.py'))):6d} tests/*.py")
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    leaves = list(commands(cli.build_parser()))
    slots = sum(action.dest in fields | {"output"}
                for command in leaves for action in command._actions)
    print(f"{len(fields):6d} RunConfig fields")
    print(f"{slots:6d} command flag slots")
    print(f"{len(leaves):6d} commands")
    exports = [name for name, value in vars(srnf).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    print(f"{len(exports):6d} srnf exports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
