"""One sha256 over the benchmark's op outputs, to compare two checkouts.

    python tests/outputs_digest.py [ROOT]

ROOT is a checkout of this repository (by default the one this file is
in).  The script imports ROOT/src and ROOT/bench and runs the benchmark
harness's `run_pass` with `keep_outputs` on seeds 7, 11 and 12: per seed
the first 960 `line` ops, then 640 `regions` ops, then 3,366 `euler`
ops, each workload's files written in a temporary directory.  Each op's
status and rendered output go into one sha256 as
f"{status}\\0{render}\\1", and the digest is printed last.  Equal digests
at two commits mean equal outputs and statuses on these ops; the digest
does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

SEEDS = (7, 11, 12)
OPS = (("line", 960), ("regions", 640), ("euler", 3366))


def digest(root: str) -> str:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import harness

    h = hashlib.sha256()
    for seed in SEEDS:
        for name, n_ops in OPS:
            wl = harness.WORKLOADS[name]
            with tempfile.TemporaryDirectory() as workdir:
                rec = harness.run_pass(wl, wl.generate(seed, workdir), n_ops, keep_outputs=True)
            for status, text in zip(rec.status, rec.outputs):
                h.update(f"{status}\0{text}\1".encode())
            print(f"seed {seed} {name}: {rec.attempted} ops, {rec.failed} failed", flush=True)
    return h.hexdigest()


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    print(digest(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here))
