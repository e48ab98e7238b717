"""Workload generators: every job a run can draw, and the draw for a seed.

Each workload draws its jobs from a fixed pool, so the outcome digest of
every job any seed can draw is recorded in ``digests.json``.  The seed picks
a subset of the pool and its order; pool members have similar cost, so the
seed changes the inputs without moving the workload's size much.  Why each
workload exists, and the shapes fixed here, are in ``README.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("ap-forcing", "halting-minimal", "cover-recurrence")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` names files of ``files`` relative to the
    work directory; ``setup`` says how set-up builds its spec: ``build``
    (``parse_spec(...).build()``), ``tree`` (``build_tree()``, for commands
    that never build the system) or ``None`` (no spec)."""

    label: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    setup: str | None = None

    @property
    def key(self) -> str:
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        return f"{self.label}:{hashlib.sha256(blob.encode()).hexdigest()[:12]}"

    def to_json(self):
        return {"argv": list(self.argv), "setup": self.setup}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _sft_spec(forbidden: list[str], depth: int) -> str:
    return _dump({"alphabet": 2, "depth": depth, "stage_horizon": 0,
                  "tree": {"kind": "forbidden_words", "words": forbidden},
                  "map": {"kind": "shift"}})


def _nodes_spec(nodes: list[str], depth: int) -> str:
    return _dump({"alphabet": 2, "depth": depth, "stage_horizon": 0,
                  "tree": {"kind": "explicit_nodes", "nodes": nodes},
                  "map": {"kind": "shift"}})


def _words(n: int) -> list[str]:
    return ["".join(p) for p in itertools.product("01", repeat=n)]


# -- ap-forcing ------------------------------------------------------------

# Entry 0 is the acceptance-criterion-9 request set.  The others follow the
# same shape: four static one-word requests of lengths 1, 2, 2, 2 and one
# stagewise request enumerating a length-3 word at stage 0 and another at a
# stage in 1..8.
CRITERION_9 = [{"name": "u0", "words": ["0"]}, {"name": "u1", "words": ["01"]},
               {"name": "u2", "words": ["10"]}, {"name": "u3", "words": ["00"]},
               {"name": "u4", "stages": [[0, "000"], [4, "010"]]}]
AP_POOL_SIZE = 16


def _request_pool() -> list[list[dict]]:
    rng = random.Random("ap-forcing-pool")
    pool = [CRITERION_9]
    while len(pool) < AP_POOL_SIZE:
        reqs = [{"name": f"u{i}", "words": [rng.choice(_words(n))]}
                for i, n in enumerate((1, 2, 2, 2))]
        reqs.append({"name": "u4", "stages": [[0, rng.choice(_words(3))],
                                              [rng.randint(1, 8), rng.choice(_words(3))]]})
        pool.append(reqs)
    return pool


def _ap_job(pool, idx: int, depth: int) -> Job:
    spec, req = f"golden-{depth}.json", f"requests-{idx:02d}.json"
    return Job(f"ap-point/N{depth}/r{idx:02d}",
               ("ap-point", spec, "--requests", req, "--cmax", "4", "--seed", str(idx)),
               ((spec, _sft_spec(["11"], depth)), (req, _dump(pool[idx]))), "build")


# Rungs of the ladder: (depth, request sets, how many the seed draws).  Only
# the bottom rung is drawn: per-set cost at N=128 ranges 1.1-2.0 s and one
# N=256 draw 4.1-8.1 s, so drawing there would set the cross-seed spread.
# The upper rungs run fixed sets, the criterion-9 set among them.
AP_LADDER = {"full": ((64, range(AP_POOL_SIZE), 8), (128, range(2), None), (256, [0], None)),
             "smoke": ((40, range(AP_POOL_SIZE), 2), (48, [0], None), (64, [0], None))}


def _ap_pool_jobs(size):
    pool = _request_pool()
    return [_ap_job(pool, i, depth) for depth, sets, _ in AP_LADDER[size] for i in sets]


def _ap_round(size, rng):
    pool = _request_pool()
    jobs = []
    for depth, sets, drawn in AP_LADDER[size]:
        picked = rng.sample(list(sets), drawn) if drawn else sets
        jobs += [_ap_job(pool, i, depth) for i in picked]
    return jobs


# -- halting-minimal ---------------------------------------------------------

# bits, never-halting bits, entry stage of the others, simulations drawn
# (from those where bit 0 never halts, from the others).  Entry stages 1 or 3
# make the cost heavy-tailed (0.05 s to 20 s per 7-bit simulation), so every
# halting bit enters at stage 2 and the seed draws which bits never halt.
# A simulation whose bit 0 never halts costs a third of the others, so the
# draw takes a fixed number of each kind.
HALT_SHAPE = {"full": (7, 2, 2, (4, 12)), "smoke": (4, 1, 2, (1, 2))}
COLDEPTH = 8


def _halt_job(bits: int, never: tuple[int, ...], stage: int) -> Job:
    name = "sim-" + "".join("n" if n in never else str(stage) for n in range(bits)) + ".json"
    sim = {"stage_horizon": COLDEPTH,
           "bits": [[n, None if n in never else stage] for n in range(bits)]}
    return Job(f"decode-halting/{name[4:-5]}",
               ("decode-halting", "--sim", name, "--coldepth", str(COLDEPTH)),
               ((name, _dump(sim)),))


def _halt_pool_jobs(size):
    bits, never, stage, _ = HALT_SHAPE[size]
    return [_halt_job(bits, c, stage) for c in itertools.combinations(range(bits), never)]


def _halt_round(size, rng):
    first, rest = HALT_SHAPE[size][3]
    pool = _halt_pool_jobs(size)
    bit0_never = [j for j in pool if j.label.startswith("decode-halting/n")]
    others = [j for j in pool if j not in bit0_never]
    jobs = rng.sample(bit0_never, first) + rng.sample(others, rest)
    rng.shuffle(jobs)
    return jobs


# -- cover-recurrence --------------------------------------------------------

# recurrent jobs (forbidden words, depth), reduce-tree scan depth and trees
# drawn.  Golden-mean --stages 5 and full-shift --stages 4 stop at the
# covering-scan cap and are left out (see README.md).
COVER_SHAPE = {"full": {"recurrent": ((["11"], 24), (["101"], 16)), "scan": 8, "trees": 8},
               "smoke": {"recurrent": ((["11"], 16),), "scan": 4, "trees": 2}}
DODGE_DEPTH = 40
TREE_POOL_SIZE = 16


def _recurrent_job(forbidden, depth) -> Job:
    spec = f"sft-{'-'.join(forbidden)}-{depth}.json"
    return Job(f"recurrent/{'-'.join(forbidden)}/N{depth}",
               ("recurrent", spec, "--stages", "4"),
               ((spec, _sft_spec(forbidden, depth)),), "build")


def _tree_jobs(scan: int) -> list[Job]:
    """Trees determined at the scan depth: a quarter of the scan-depth words,
    each extended by zeros to the oracle's depth ``2·scan + 1``."""
    rng = random.Random(f"cover-recurrence-trees-{scan}")
    depth = 2 * scan + 1
    level = _words(scan)
    jobs = []
    for idx in range(TREE_POOL_SIZE):
        kept = sorted(rng.sample(level, len(level) // 4))
        spec = f"tree-{scan}-{idx:02d}.json"
        jobs.append(Job(f"reduce-tree/s{scan}/t{idx:02d}",
                        ("reduce-tree", spec, "--scan-depth", str(scan)),
                        ((spec, _nodes_spec([w + "0" * (depth - scan) for w in kept], depth)),),
                        "tree"))
    return jobs


def _dodge_jobs() -> list[Job]:
    """The three classes of acceptance criterion 6, at its depth: the orbit
    case, the degenerate probe, and the full block chain."""
    depth = DODGE_DEPTH
    xstar = ("0" + "1" + "0" + "11" + "0" + "111" + "0" + "1111").ljust(depth, "0")
    points = [xstar, "0" * depth, "1" * depth, "10" + "1" * (depth - 2)]
    points += [(gen * depth)[:depth] for gen in ("01", "001", "011", "0001", "0011", "0111")]
    classes = {"orbit": _nodes_spec(["0" * depth], depth),
               "full": _dump({"alphabet": 2, "depth": depth, "stage_horizon": 0,
                              "tree": {"kind": "full"}, "map": {"kind": "shift"}}),
               "chain": _nodes_spec(points, depth)}
    return [Job(f"dodge/{name}/N{depth}", ("dodge", f"dodge-{name}-{depth}.json"),
                ((f"dodge-{name}-{depth}.json", text),), "tree")
            for name, text in classes.items()]


def _cover_pool_jobs(size):
    shape = COVER_SHAPE[size]
    return ([_recurrent_job(f, d) for f, d in shape["recurrent"]]
            + _tree_jobs(shape["scan"]) + _dodge_jobs())


def _cover_round(size, rng):
    shape = COVER_SHAPE[size]
    return ([_recurrent_job(f, d) for f, d in shape["recurrent"]]
            + rng.sample(_tree_jobs(shape["scan"]), shape["trees"])
            + [rng.choice(_dodge_jobs())])


_ROUND = {"ap-forcing": _ap_round, "halting-minimal": _halt_round,
          "cover-recurrence": _cover_round}
_POOL = {"ap-forcing": _ap_pool_jobs, "halting-minimal": _halt_pool_jobs,
         "cover-recurrence": _cover_pool_jobs}


def round_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The jobs of one round for ``seed``, in the order they run."""
    return _ROUND[workload](size, random.Random(f"{workload}/{seed}"))


def pool_jobs(workload: str, size: str = "full") -> list[Job]:
    """Every job any seed can draw at this size."""
    return _POOL[workload](size)


def write_inputs(jobs: list[Job], workdir) -> None:
    """Write every input file the jobs name into ``workdir``."""
    written: dict[str, str] = {}
    for job in jobs:
        for name, text in job.files:
            if written.setdefault(name, text) != text:
                raise ValueError(f"two jobs write different contents to {name}")
    for name, text in written.items():
        (workdir / name).write_text(text, encoding="utf-8")
