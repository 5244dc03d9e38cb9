#!/usr/bin/env python3
"""Benchmark of srnf: one workload per process, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Results (with
every round's operation times and the set-up and CLI samples) and traces
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up and CLI samples, each in a fresh interpreter.  They are spread
# evenly over the run, between rounds, so that like the operation times they
# average over the machine's slow and fast stretches instead of catching one.
SIDE_SAMPLES = ("cli", "setup", "cli", "cli", "cli", "setup",
                "cli", "cli", "cli", "setup", "cli", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure; whole rounds are run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs and warm up, then exit (times set-up)")
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Import srnf, generate the workload's inputs and run its warm-up cases."""
    sys.path.insert(0, str(SRC))
    import srnf
    import srnf.cli  # noqa: F401  - loads every module, so tracing sees every binding
    import workloads

    workload = workloads.build(name, seed, srnf)
    for case in workload.cases[:workload.warmup]:
        case.run()
    return workload


class SideSamples:
    """Set-up times of fresh processes and timed ``python -m srnf`` invocations."""

    def __init__(self, args, request):
        self.setup, self.cli, self.problems = [], [], []
        self._setup_argv = [sys.executable, str(Path(__file__).resolve()),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", "0", "--trace", "0", "--setup-only"]
        paths = {}
        for key, doc in request.documents.items():
            path = OUT / f"{args.workload}-seed{args.seed}-{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[key] = str(path.relative_to(ROOT))
        self._cli_argv = [sys.executable, "-m", "srnf"] + [a.format(**paths) for a in request.args]
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                                 self._env.get("PYTHONPATH")]))
        self._expected = request.expected().encode("utf-8")
        self._next = 0

    def take_due(self, fraction: float) -> None:
        """Take every sample scheduled at or before ``fraction`` of the run."""
        count = len(SIDE_SAMPLES)
        while self._next < count and (self._next + 0.5) / count <= fraction:
            self.take(SIDE_SAMPLES[self._next])
            self._next += 1

    def take(self, kind: str) -> None:
        if kind == "setup":
            # from process start to the end of set-up (the process then exits)
            start = time.perf_counter()
            subprocess.run(self._setup_argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
            self.setup.append(time.perf_counter() - start)
            return
        start = time.perf_counter()
        proc = subprocess.run(self._cli_argv, cwd=ROOT, env=self._env, capture_output=True)
        self.cli.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != self._expected:
            self.problems.append(
                f"cli: exit {proc.returncode}, output "
                f"{'equals' if proc.stdout == self._expected else 'differs from'} the "
                f"in-process document; {proc.stderr.decode(errors='replace')[-300:]}")


def run_rounds(workload, seconds: float, tracer=None, between=None):
    """Whole rounds until ``seconds`` of operation time.

    After each round ``between`` (if given) is called with the share of
    ``seconds`` measured so far.  Returns the rounds (case name -> seconds,
    for the operations that did not fail), the operations attempted and
    failed, and the problems found.
    """
    rounds, problems = [], []
    attempted = failed = 0
    verdicts = {}   # (case, output key) -> problems found by the full check
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        times = {}
        for case in workload.cases:
            attempted += 1
            try:
                if tracer is None:
                    start = time.perf_counter()
                    output = case.run()
                    times[case.name] = time.perf_counter() - start
                else:
                    with tracer.operation(case.name):
                        start = time.perf_counter()
                        output = case.run()
                        times[case.name] = time.perf_counter() - start
            except Exception as exc:  # an operation that raises is a failed operation
                failed += 1
                print(f"{case.name}: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            key = (case.name, case.key(output))
            if key not in verdicts:
                verdicts[key] = case.check(output)
            problems += [f"{case.name}: {p}" for p in verdicts[key]]
        rounds.append(times)
        elapsed += sum(times.values())
        if between is not None:
            between(elapsed / seconds if seconds > 0 else 1.0)
        if tracer is not None:
            tracer.keep_spans = False   # spans of the first round are written out
    return rounds, attempted, failed, problems


def case_means(rounds) -> dict:
    """Each case's mean time over the rounds in which it did not fail.

    Means rather than medians: the machine's speed drifts between states
    that last seconds to minutes, and a mean averages over the states a
    run went through, where a median jumps to whichever state lasted
    longest and so spreads more from run to run.
    """
    names = dict.fromkeys(name for r in rounds for name in r)
    return {name: statistics.fmean(r[name] for r in rounds if name in r) for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "srnf" / "__init__.py").is_file():
        print(f"srnf sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    workload = set_up(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    side_times = {}   # set-up and CLI samples, taken in untraced runs only
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        rounds, attempted, failed, problems = run_rounds(workload, args.seconds, tracer=tracer)
        metrics = tracer.metrics(len(rounds))
        metrics["harness.traced_total_s"] = (sum(case_means(rounds).values()), "s")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                      "spans_of_rounds": 1})
    else:
        side = SideSamples(args, workload.cli)
        rounds, attempted, failed, problems = run_rounds(workload, args.seconds,
                                                         between=side.take_due)
        side.take_due(float("inf"))
        problems += side.problems
        means = case_means(rounds)
        metrics = {
            "setup_s": (statistics.median(side.setup), "s"),
            "total_s": (sum(means.values()), "s"),
            "op_p50_ms": (1000 * statistics.median(means.values()), "ms"),
            "op_max_ms": (1000 * means[workload.largest], "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "cli_s": (statistics.fmean(side.cli), "s"),
        }
        side_times = {"setup": side.setup, "cli": side.cli}
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, rounds_s=rounds, side_s=side_times)) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
