#!/usr/bin/env python3
"""Time two source checkouts against each other on one benchmark workload,
in one interpreter.

    python3 scripts/ab_rounds.py PARENT CHANGE --workload cover-recurrence \\
        --seeds 1,2,3 --rounds 12

Both checkouts' ``src/cantordyn`` are imported side by side under aliases.
For each seed, the round of ``perfbench/workloads.round_jobs`` (read from
this script's checkout) runs ``--rounds`` times per side, alternating which
side goes first, each job through ``cli.main`` as the benchmark's job loop
runs it.  Separate processes on a shared host can drift apart by more than
a change moves; pairs of rounds in one process share that drift.

Prints, per seed, each side's median round time and the quartiles of the
change/parent ratio over the pairs, then the pooled quartiles, and whether
every report matches apart from ``timing_ms``.  Exits 1 when one does not.
The interpreter runs with ``PYTHONHASHSEED=0``, as the benchmark's do.  Job
inputs and reports go to a temporary directory; nothing under the checkouts
is written.
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load_cli(checkout: Path, alias: str):
    """The checkout's ``cantordyn.cli``, imported as ``<alias>.cli``."""
    pkg = checkout / "src" / "cantordyn"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def run_round(cli, jobs, tag: str) -> tuple[float, list]:
    """Seconds for one round, and each job's exit code and report without
    ``timing_ms``."""
    outs = [f"{tag}-report-{i:03d}.json" for i in range(len(jobs))]
    codes = []
    t0 = time.perf_counter()
    for job, out in zip(jobs, outs):
        try:
            codes.append(cli.main([*job.argv, "--out", out]))
        except SystemExit as e:
            codes.append(e.code)
    dt = time.perf_counter() - t0
    results = []
    for code, out in zip(codes, outs):
        report = None
        if os.path.exists(out):
            report = json.loads(Path(out).read_text(encoding="utf-8"))
            report.pop("timing_ms", None)
            os.remove(out)
        results.append((code, report))
    return dt, results


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return list(xs) * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--rounds", type=int, default=12, help="rounds per side and seed")
    args = ap.parse_args()
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "cantordyn" / "__init__.py").is_file():
            ap.error(f"{checkout} is not a cantordyn checkout")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    sides = {"parent": load_cli(args.parent.resolve(), "cantordyn_parent"),
             "change": load_cli(args.change.resolve(), "cantordyn_change")}
    print(f"workload {args.workload}, {args.rounds} rounds per side and seed")
    all_match, pooled = True, []
    with tempfile.TemporaryDirectory(prefix="ab_rounds-") as work:
        os.chdir(work)
        for seed in seeds:
            jobs = workloads.round_jobs(args.workload, seed)
            workloads.write_inputs(jobs, Path(work))
            times = {name: [] for name in sides}
            for r in range(args.rounds):
                order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
                got = {}
                for name in order:
                    dt, got[name] = run_round(sides[name], jobs, name)
                    times[name].append(dt)
                all_match &= got["parent"] == got["change"]
            ratios = [c / p for p, c in zip(times["parent"], times["change"])]
            pooled += ratios
            q = quartiles(ratios)
            print(f"seed {seed}: parent {statistics.median(times['parent']):.3f} s, "
                  f"change {statistics.median(times['change']):.3f} s (medians); "
                  f"change/parent quartiles {q[0]:.2f} {q[1]:.2f} {q[2]:.2f}")
        os.chdir(ROOT)
    q = quartiles(pooled)
    print(f"all seeds: change/parent quartiles {q[0]:.2f} {q[1]:.2f} {q[2]:.2f}")
    print("reports match apart from timing_ms:", "yes" if all_match else "no")
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
