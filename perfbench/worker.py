"""One benchmark process: set-up probe, or a closed loop of CLI jobs.

Run by ``run.py`` in a fresh interpreter with a pinned environment, from the
work directory that holds the job inputs::

    python3 worker.py setup JOBS.json
    python3 worker.py loop JOBS.json OUT.json SECONDS TRACE

``loop`` runs the jobs back to back as rounds, one job at a time, until
``SECONDS`` have passed (at least one round); with ``TRACE`` 1 it installs
the tracer and runs exactly one round, so counters cover a fixed amount of
work.  It imports cantordyn lazily so that ``setup`` can time the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _load_jobs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def setup(jobs: list[dict]) -> float:
    """Seconds to import ``cantordyn.cli`` and build every spec the jobs use,
    as each command builds it."""
    t0 = time.perf_counter()
    from cantordyn import cli
    done = set()
    for job in jobs:
        spec = job["argv"][1] if job["setup"] else None
        if spec is None or spec in done:
            continue
        done.add(spec)
        built = cli.parse_spec(Path(spec).read_text(encoding="utf-8"))
        built.build() if job["setup"] == "build" else built.build_tree()
    return time.perf_counter() - t0


def semantic_outcome(report: dict) -> dict:
    """The part of a report that pins down what was computed: the point, the
    certificate rows, the stage sizes, the pruned words and the decoded bits.
    Timing and anything a report may gain later are left out."""
    cmd, out, certs = report["command"], report["outcome"], report["certificates"]
    if cmd == "ap-point":
        return {"point": out["point"], "rows": certs["ap"]["rows"]}
    if cmd == "recurrent":
        return {"point": out["point"], "entries": certs["recurrence"]["entries"],
                "stages": out["stages"]}
    if cmd == "decode-halting":
        return {"bits": out["bits"], "pruned": out["pruned"]}
    if cmd == "reduce-tree":
        return {"scan_depth": out["scan_depth"], "equal": out["recurrent_equals_paths"]}
    if cmd == "dodge":
        return {"outcome": out, "sigma": certs.get("sigma")}
    raise ValueError(f"no outcome oracle for command {cmd!r}")


def outcome_digest(report: dict) -> str:
    blob = json.dumps([report["command"], semantic_outcome(report)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_job(main, job: dict, out: str):
    """Run one job; return its exit code or the exception it raised."""
    try:
        return main(job["argv"] + ["--out", out])
    except SystemExit as e:       # argparse rejects bad arguments this way
        return e.code
    except Exception as e:        # a crash is a failed job, not a failed run
        return f"{type(e).__name__}: {e}"


def _check_job(result, out: str) -> dict:
    rec = {"code": result}
    if result in (0, 1) and os.path.exists(out):
        text = Path(out).read_text(encoding="utf-8")
        report = json.loads(text)
        rec["verified"] = report["verified"]
        rec["digest"] = outcome_digest(report)
        # timing_ms is the one field that may differ between identical runs
        rec["report_bytes"] = len(text.encode()) - len(str(report["timing_ms"]))
    return rec


def loop(jobs: list[dict], seconds: float, trace: bool) -> dict:
    from cantordyn import cli
    tracer = None
    if trace:
        from tracer import Tracer   # the script's directory leads sys.path
        tracer = Tracer()
        tracer.install()
    main = cli.main
    outs = [f"report-{i:03d}.json" for i in range(len(jobs))]
    rounds, checked = [], []
    t_start = time.perf_counter()
    while True:
        for out in outs:
            if os.path.exists(out):
                os.remove(out)
        results = []
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            results.append(_run_job(main, job, outs[i]))
        rounds.append(time.perf_counter() - t0)
        if len(rounds) == 1:      # later rounds only fragment the heap further
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked.append([_check_job(r, o) for r, o in zip(results, outs)])
        if trace or time.perf_counter() - t_start >= seconds:
            break
    res = {"rounds": rounds, "jobs": checked, "peak_rss_kib": peak_rss_kib}
    if tracer is not None:
        res["spans"] = tracer.spans
        res.update(tracer.results())
    return res


def main(argv: list[str]) -> int:
    mode, jobs = argv[0], _load_jobs(argv[1])
    if mode == "setup":
        print(json.dumps({"setup_s": setup(jobs)}))
        return 0
    if mode == "loop":
        res = loop(jobs, float(argv[3]), argv[4] == "1")
        Path(argv[2]).write_text(json.dumps(res), encoding="utf-8")
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
