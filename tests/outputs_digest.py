"""One sha256 over the benchmark's op outputs and the CLI's region and
table runs, to compare two checkouts.

    python tests/outputs_digest.py [ROOT]

ROOT is a checkout of this repository (by default the one this file is
in).  The script imports ROOT/src and ROOT/bench and runs two sections.

The workloads: the benchmark harness's `run_pass` with `keep_outputs`
on seeds 7, 11 and 12, per seed the first 960 `line` ops, then 640
`regions` ops, then 3,366 `euler` ops, each workload's files written in
a temporary directory.  Each op's status and rendered output go into
the sha256 as f"{status}\\0{render}\\1".

The CLI paths that no workload reaches: the 14 regions of the A9 corpus
(test_acceptance.region_corpus), a hollow shell (the six slabs of
[0, 3]^3) and that shell with the box [10, 11]^3, written in a
temporary directory from the vertex lists below, each run through
`cli.main` with `region check`, `region sweep` and `region sweep
--max-coeff 2`; then `table --trials 1000 --seed 1` and `table --trials
300 --seed 7`.  Each run's exit code, stdout and stderr go into the
sha256 as f"{code}\\0{stdout}\\0{stderr}\\1".

The script prints each section's digest, then the digest of both
sections together, last.  Equal digests at two commits mean equal
outputs and statuses on these runs; no digest depends on PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import product

SEEDS = (7, 11, 12)
OPS = (("line", 960), ("regions", 640), ("euler", 3366))


def _box(lo, hi) -> list:
    return [list(v) for v in product(*zip(lo, hi))]


def _shell() -> list:
    slabs = []
    for axis in range(3):
        for a, b in ((0, 1), (2, 3)):
            lo, hi = [0, 0, 0], [3, 3, 3]
            lo[axis], hi[axis] = a, b
            slabs.append(_box(lo, hi))
    return slabs


# (name, dimension, each term's vertices); every term closed, of weight 1
REGIONS = [
    ("segment-1d", 1, [[[0], [2]]]),
    ("point-1d", 1, [[[3]]]),
    ("square", 2, [_box((0, 0), (1, 1))]),
    ("triangle", 2, [[[0, 0], [2, 0], [0, 2]]]),
    ("simplex-3d", 3, [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    ("cube", 3, [_box((0, 0, 0), (1, 1, 1))]),
    ("segment-in-r3", 3, [[[0, 0, 0], [1, 2, 3]]]),
    ("two-intervals", 1, [[[0], [1]], [[2], [3]]]),
    ("L-shape", 2, [_box((0, 0), (2, 1)), _box((0, 0), (1, 2))]),
    ("plus-shape", 2, [_box((0, 1), (3, 2)), _box((1, 0), (2, 3))]),
    ("two-squares", 2, [_box((0, 0), (1, 1)), _box((2, 0), (3, 1))]),
    ("staircase", 2, [_box((0, 0), (1, 1)), _box((1, 1), (2, 2)), _box((2, 2), (3, 3))]),
    ("triangle-frame", 2, [[[0, 0], [4, 0], [4, "1/2"], [0, "1/2"]],
                           [[0, 0], ["1/2", 0], [2, 4], ["3/2", 4]],
                           [[4, 0], ["7/2", 0], [2, 4], ["5/2", 4]]]),
    ("two-cubes", 3, [_box((0, 0, 0), (1, 1, 1)), _box((2, 0, 0), (3, 1, 1))]),
    ("shell", 3, _shell()),
    ("shell-box", 3, _shell() + [_box((10, 10, 10), (11, 11, 11))]),
]
REGION_COMMANDS = (["check"], ["sweep"], ["sweep", "--max-coeff", "2"])
TABLE_RUNS = [["table", "--trials", "1000", "--seed", "1"],
              ["table", "--trials", "300", "--seed", "7"]]


def _workloads(update) -> None:
    import harness

    for seed in SEEDS:
        for name, n_ops in OPS:
            wl = harness.WORKLOADS[name]
            with tempfile.TemporaryDirectory() as workdir:
                rec = harness.run_pass(wl, wl.generate(seed, workdir), n_ops, keep_outputs=True)
            for status, text in zip(rec.status, rec.outputs):
                update(f"{status}\0{text}\1".encode())
            print(f"seed {seed} {name}: {rec.attempted} ops, {rec.failed} failed", flush=True)


def _cli_runs(update) -> None:
    from sheafconv import cli

    with tempfile.TemporaryDirectory() as workdir:
        runs = []
        for name, dim, terms in REGIONS:
            path = os.path.join(workdir, f"{name}.json")
            terms = [{"vertices": v, "mode": "closed", "weight": 1} for v in terms]
            with open(path, "w") as fh:
                json.dump({"dimension": dim, "terms": terms}, fh)
            runs += [["region", cmd[0], path, *cmd[1:]] for cmd in REGION_COMMANDS]
        for argv in runs + TABLE_RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\1".encode())
    print(f"cli: {len(runs) + len(TABLE_RUNS)} runs", flush=True)


def digest(root: str) -> str:
    """Print each section's digest; return the digest of both."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    total = hashlib.sha256()
    for name, section in (("workloads", _workloads), ("cli", _cli_runs)):
        h = hashlib.sha256()

        def update(data: bytes) -> None:
            h.update(data)
            total.update(data)

        section(update)
        print(f"{name} digest: {h.hexdigest()}", flush=True)
    return total.hexdigest()


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    print(digest(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here))
