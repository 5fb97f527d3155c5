"""The repository benchmark: one workload per run, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

- ``table1``: fresh ``repro analyze <impl> --json`` processes cycling
  through reference, srsue and oai (the paper's Table I);
- ``serve_mix``: one long-lived ``repro serve``, two closed-loop clients
  submitting seeded property subsets, a fixed share resubmitted;
- ``fuzz``: fresh ``repro fuzz`` campaigns cycling srsue, oai, reference.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed request list
untraced and traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result; the
exit code is non-zero, with no result, when the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import END_TO_END, PER_LAYER, cross_check, layer_metrics
from measure import tail_percentile
from programs import Program
from workloads import (REPEAT_EVERY, Pass, end_to_end, fuzz_plan, run_cli,
                       serve_pass, table1_plan, trace_size)

WORKLOADS = ("table1", "serve_mix", "fuzz")

#: Scratch space inside the checkout, removed when the run ends.
WORK_DIR = ".perfbench-work"

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(program: Program, args: argparse.Namespace
                 ) -> Tuple[Pass, Optional[Pass]]:
    """The untraced pass, and with ``--trace 1`` the traced pass."""
    from repro import schema
    from repro.properties import ALL_PROPERTIES
    from repro.properties.expected import expected_detected

    trace = bool(args.trace)
    # The traced request lists are sized from nominal request times
    # (an analysis with its setup launch, a campaign, a serve batch),
    # never from measured ones, so their counts repeat exactly.
    if args.workload == "table1":
        plan = table1_plan(args.seed, len(ALL_PROPERTIES),
                           expected_detected)
        return run_cli(program, plan, args.seconds, trace,
                       trace_size(args.seconds, 1.4, 3))
    if args.workload == "fuzz":
        return run_cli(program, fuzz_plan(args.seed), args.seconds, trace,
                       trace_size(args.seconds, 3.0, 6))

    def one(traced: bool, tag: str) -> Pass:
        return serve_pass(
            program, args.seed, program.work / f"store-{tag}", traced,
            deadline_s=None if trace else args.seconds,
            batches=(trace_size(args.seconds, 0.75, REPEAT_EVERY)
                     if trace else None),
            setups=1 if trace else 5, catalog=ALL_PROPERTIES,
            expected=expected_detected, stamp=schema.stamp)

    if not trace:
        return one(False, "timed"), None
    return one(False, "untraced"), one(True, "traced")


def summarise(args: argparse.Namespace, untraced: Pass,
              traced: Optional[Pass]) -> Dict:
    """Print the human summary; return the JSON result."""
    e2e = end_to_end(untraced)
    runs = [untraced] if traced is None else [untraced, traced]
    problems = [problem for run in runs for problem in run.problems]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: {attempted} "
          f"operations, {failed} failed")
    if traced is None:
        metrics = {}
        for name, unit, _ in END_TO_END:
            value, samples = e2e[name]
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if unit == "s" and name != "setup_s":
                tail = tail_percentile(samples)
                note = (f"  (n={samples}, highest tail with 10 beyond: "
                        f"{'p%g' % tail if tail else 'none'})")
            print(f"  {name:<16} {value:>12.6g} {unit}{note}")
    else:
        traced_e2e = end_to_end(traced)
        layers = layer_metrics(traced.spans, traced.facts, traced.cpu_s,
                               traced.window_s)
        for name, _, _ in END_TO_END:
            layers[f"trace_overhead.{name}"] = (traced_e2e[name][0]
                                                - e2e[name][0])
        problems += cross_check(layers, traced.totals, traced.missing)
        for target in sorted(traced.missing):
            print(f"  warning: cannot trace {target}; its layer reads 0")
        metrics = {}
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:<36} {layers[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {"correct": not problems and attempted > failed,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every program process the
    # run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {root / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        program = Program(root, work)
        # A fresh checkout has no bytecode yet; compile it once, untimed,
        # so the first measured launches do not pay for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(root / "src")], stdout=subprocess.DEVNULL,
                       check=False)
        warm = program.run(["--help"], False, "warm-up")
        if warm.returncode != 0:
            print(f"perfbench: the program does not start:\n{warm.stderr}",
                  file=sys.stderr)
            return 2
        untraced, traced = run_workload(program, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    result = summarise(args, untraced, traced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
