#!/usr/bin/env python3
"""Print one SHA-256 per benchmark case, to show two trees give the same outputs.

Each case of each workload and seed given is run once, and the key its
check reads (``Case.key`` in ``perfbench/workloads.py``) is hashed through
its ``repr``, which writes every float exactly.  Two checkouts whose
outputs are byte-identical print the same lines.

Run from the root of a checkout:

    python3 scripts/bench_digest.py [--workload group verify ...] [--seed 1 2 3]
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import srnf  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=workloads.NAMES,
                        default=list(workloads.NAMES))
    parser.add_argument("--seed", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args()
    for name in args.workload:
        for seed in args.seed:
            for case in workloads.build(name, seed, srnf).cases:
                digest = hashlib.sha256(repr(case.key(case.run())).encode()).hexdigest()
                print(f"{name} {seed} {case.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
