#!/usr/bin/env python3
"""Print the line count of each ``src/srnf/*.py`` module and their total,
then the line total of the test modules ``tests/*.py`` on a line of its own.

Lines are counted as ``wc -l`` counts them, one per newline.

Run from anywhere:  python3 scripts/src_size.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srnf"


def count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = count(path)
        total += lines
        print(f"{lines:6d} src/srnf/{path.name}")
    print(f"{total:6d} total")
    print(f"{sum(map(count, (ROOT / 'tests').glob('*.py'))):6d} tests/*.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
