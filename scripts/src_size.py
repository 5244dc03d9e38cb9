#!/usr/bin/env python3
"""Print the line count of each ``src/srnf/*.py`` module and their total.

Lines are counted as ``wc -l`` counts them, one per newline.

Run from anywhere:  python3 scripts/src_size.py
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srnf"


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        print(f"{lines:6d} src/srnf/{path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
