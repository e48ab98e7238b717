#!/usr/bin/env python3
"""cantordyn benchmark: closed loops of CLI jobs, end to end and per layer.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload ap-forcing --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke     # tiny ladder of every workload, self-test
    python3 perfbench/run.py --record    # re-record digests.json (see README.md)

With ``--trace 0`` it times set-up in fresh interpreters, then runs the
seed's jobs as rounds in one fresh single-threaded interpreter for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it runs
one untraced round and two traced rounds, each in its own interpreter, checks
that the two traced rounds count the same work, and prints the per-layer
metrics.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, pool_jobs, round_jobs, write_inputs

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# Set-order early exits (``any(... for tau in set(U))`` in the stage audit)
# move time with the hash seed, so every process runs with this one.
HASH_SEED = "0"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170          # every run ends within the 180 s allowed

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_frac", "ratio")]

# per-layer metric -> span name or hot layer whose self time it sums
SPAN_TIMES = {
    "maps.apply_s": "maps.apply",
    "systems.member_s": "systems.member",
    "search.avoid_check_s": "search.avoid_check",
    "cli.self_s": "cli.main",
    "cli.spec_build_s": "cli.spec_build",
    "systems.validate_s": "systems.validate",
    "systems.verify_s": "systems.verify",
    "search.find_member_s": "search.find_member",
    "search.iter_members_s": "search.iter_members",
    "search.death_length_s": "search.death_length",
    "refinement.meet_or_avoid_s": "refinement.meet_or_avoid",
    "refinement.nbh_periodicity_s": "refinement.nbh_periodicity",
    "refinement.compose_s": "refinement.compose",
    "refinement.sample_check_s": "refinement.sample_check",
    "minimal.minimal_subsystem_s": "minimal.minimal_subsystem",
    "minimal.decode_bit_s": "minimal.decode_bit",
    "recurrence.construct_s": "recurrence.construct",
    "recurrence.audit_s": "recurrence.audit",
    "recurrence.gadget_scan_s": "recurrence.gadget_scan",
    "avoidance.dodge_s": "avoidance.dodge",
    "avoidance.verify_not_ap_s": "avoidance.verify_not_ap",
}
# per-layer metric -> tracer counter
COUNTS = {
    "maps.apply_calls": "apply_calls",
    "maps.rule_evals": "rule_evals",
    "systems.member_calls": "member_calls",
    "systems.member_step_calls": "member_step_calls",
    "search.find_member_calls": "find_member_calls",
    "search.avoid_checks": "avoid_checks",
    "search.avoid_orbit_steps": "avoid_orbit_steps",
    "minimal.removals_tried": "removals_tried",
    "recurrence.cover_words": "cover_words",
}
# per-layer metric -> (numerator, denominator) counters; 0 when nothing was tried
RATIOS = {
    "maps.miss_ratio": ("rule_evals", "apply_calls"),
    "search.found_ratio": ("find_member_found", "find_member_calls"),
    "refinement.meet_frac": ("meet_cases", "meet_or_avoid_calls"),
    "minimal.adopted_ratio": ("removals_adopted", "removals_tried"),
}
PER_LAYER = ([(m, "s") for m in SPAN_TIMES] + [(m, "count") for m in COUNTS]
             + [(m, "ratio") for m in RATIOS]
             + [("cli.report_bytes", "bytes"), ("trace.overhead_ratio", "ratio")])


class BenchError(RuntimeError):
    pass


class Runner:
    """Runs worker processes for one set of jobs in a private work directory."""

    def __init__(self, root: Path, jobs, name: str, deadline_s: float):
        self.jobs = jobs
        self.workdir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.deadline = time.monotonic() + deadline_s
        self.env = {k: v for k, v in os.environ.items() if k != "CANTORDYN_THREADS"}
        self.env["PYTHONHASHSEED"] = HASH_SEED
        self.env["PYTHONPATH"] = str(root / "src")

    def __enter__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        write_inputs(self.jobs, self.workdir)
        (self.workdir / "jobs.json").write_text(json.dumps([j.to_json() for j in self.jobs]))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def worker(self, *args: str) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"worker {args[0]} still running at the deadline") from e
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def setup_s(self) -> float:
        self.worker("setup", "jobs.json")   # fills the bytecode cache; not timed
        samples = [json.loads(self.worker("setup", "jobs.json"))["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        return statistics.median(samples)

    def loop(self, seconds: float, trace: bool) -> dict:
        self.worker("loop", "jobs.json", "loop.json", str(seconds), "1" if trace else "0")
        return json.loads((self.workdir / "loop.json").read_text())


def count_failures(jobs, rounds: list[list[dict]], digests: dict) -> tuple[int, list[str]]:
    """Jobs that raised, exited non-zero, reported ``verified: false`` or
    whose outcome digest differs from the recorded one."""
    failed, notes = 0, []
    for checked in rounds:
        for job, rec in zip(jobs, checked):
            want = digests.get(job.key)
            if rec["code"] != 0 or not rec.get("verified"):
                why = f"exit {rec['code']!r}, verified {rec.get('verified')}"
            elif want is None:
                why = "no recorded digest"
            elif rec["digest"] != want:
                why = f"outcome digest {rec['digest']} != recorded {want}"
            else:
                continue
            failed += 1
            notes.append(f"{job.key}: {why}")
    return failed, notes


def end_to_end(runner: Runner, seconds: float, digests: dict):
    setup = runner.setup_s()
    res = runner.loop(seconds, trace=False)
    failed, notes = count_failures(runner.jobs, res["jobs"], digests)
    attempted = len(runner.jobs) * len(res["rounds"])
    values = {"wall_s": statistics.median(res["rounds"]), "setup_s": setup,
              "peak_rss_mib": res["peak_rss_kib"] / 1024,
              "ok_frac": 1 - failed / attempted}
    info = {"rounds": len(res["rounds"]), "round_s": res["rounds"]}
    return values, attempted, failed, notes, info


def _determinism_keys(res: dict) -> dict:
    out = dict(res["counts"])
    for i, rec in enumerate(res["jobs"][0]):
        out[f"job{i}.digest"] = rec.get("digest")
        out[f"job{i}.report_bytes"] = rec.get("report_bytes")
    return out


def per_layer(runner: Runner, digests: dict, trace_file: Path | None):
    base = runner.loop(0, trace=False)
    runs = [runner.loop(0, trace=True) for _ in range(2)]
    a, b = (_determinism_keys(r) for r in runs)
    notes = [f"traced runs disagree on {k}: {a.get(k)} vs {b.get(k)}"
             for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    failed = 1 if notes else 0      # the determinism check is one attempt
    for res in [base] + runs:
        f, n = count_failures(runner.jobs, res["jobs"], digests)
        failed += f
        notes += n
    res = runs[0]
    counts, times = res["counts"], res["self_s"]
    values = {m: times.get(span, 0.0) for m, span in SPAN_TIMES.items()}
    values.update({m: counts.get(c, 0) for m, c in COUNTS.items()})
    for m, (num, den) in RATIOS.items():
        values[m] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    values["cli.report_bytes"] = sum(rec.get("report_bytes", 0) for rec in res["jobs"][0])
    values["trace.overhead_ratio"] = res["rounds"][0] / base["rounds"][0]
    if trace_file is not None:
        trace_file.write_text(json.dumps({"jobs": [j.key for j in runner.jobs],
                                          "spans": res["spans"]}))
    info = {"untraced_round_s": base["rounds"][0],
            "traced_round_s": [r["rounds"][0] for r in runs]}
    return values, 3 * len(runner.jobs) + 1, failed, notes, info


def _metrics(values: dict, names) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "hash_seed": HASH_SEED}


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    jobs = round_jobs(workload, seed)
    digests = _load_digests()
    with Runner(root, jobs, f"{workload}-{seed}", RUN_DEADLINE_S) as runner:
        if trace:
            trace_file = root / ".perfbench_work" / f"trace-{workload}-{seed}.json"
            values, attempted, failed, notes, info = per_layer(runner, digests, trace_file)
            metrics = _metrics(values, PER_LAYER)
        else:
            values, attempted, failed, notes, info = end_to_end(runner, seconds, digests)
            metrics = _metrics(values, END_TO_END)
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "jobs_per_round": len(jobs),
                      **info, **_environment()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke(root: Path) -> int:
    """Tiny ladder of every workload, untraced and traced; checks outcomes,
    counter determinism and that the metrics match BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    ok = sorted(want_e2e) == sorted(END_TO_END) and sorted(want_layer) == sorted(PER_LAYER)
    if not ok:
        print("metric names or units differ from BENCHMARK.json", file=sys.stderr)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("workload names differ from BENCHMARK.json", file=sys.stderr)
        ok = False
    digests = _load_digests()
    for workload in WORKLOADS:
        jobs = round_jobs(workload, 0, "smoke")
        t0 = time.monotonic()
        with Runner(root, jobs, f"smoke-{workload}", RUN_DEADLINE_S) as runner:
            _, _, f1, n1, _ = end_to_end(runner, 0, digests)
            _, _, f2, n2, _ = per_layer(runner, digests, None)
        for note in n1 + n2:
            print(f"FAILED {note}", file=sys.stderr)
        ok = ok and f1 == f2 == 0
        print(f"smoke {workload}: {len(jobs)} jobs, {f1 + f2} failed, "
              f"{time.monotonic() - t0:.1f} s")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def record(root: Path) -> int:
    """Run every job any seed can draw, at both sizes, and write their
    outcome digests.  Only for the commit that defines or extends the
    workloads; a change that claims a gain must match the recorded ones."""
    digests = {}
    for workload in WORKLOADS:
        for size in ("full", "smoke"):
            jobs = pool_jobs(workload, size)
            with Runner(root, jobs, f"record-{workload}-{size}", 3600) as runner:
                res = runner.loop(0, trace=False)
            for job, rec in zip(jobs, res["jobs"][0]):
                if rec["code"] != 0 or not rec.get("verified"):
                    print(f"{job.key}: exit {rec['code']!r}, not verified", file=sys.stderr)
                    return 1
                digests[job.key] = rec["digest"]
            print(f"recorded {workload} {size}: {len(jobs)} jobs, {res['rounds'][0]:.1f} s")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the self-test ladder")
    ap.add_argument("--record", action="store_true", help="re-record digests.json")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cantordyn" / "cli.py").is_file():
        print("error: run from the root of a cantordyn checkout (no src/cantordyn here)",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        if args.record:
            return record(root)
        if args.workload is None:
            ap.error("--workload is required")
        return run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
