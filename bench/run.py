"""sheafconv benchmark: seeded closed-loop workloads with verified outputs.

    python3 bench/run.py --workload line|regions|euler|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src``.
Each workload runs in its own process with PYTHONHASHSEED=0, one client,
one thread.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Lines before it give the same numbers for a
reader, plus the tail percentile, fail_frac and the ratio bases.  The
end-to-end times are at the reference speed of ``gauge.py``; the lines
before the result also give them as measured.

``attempted`` counts ops, ``failed`` counts ops with a wrong output, an
exit code or stream outside the CLI's 0/1/2/3 contract, or an exception
that escaped the entry point; ``correct`` is false when any op gave a
wrong output or raised an exception that its workload does not name as
a known failure of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gauge

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HASH_SEED = "0"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


def _args(argv=None):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True, choices=["line", "regions", "euler", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED=HASH_SEED)


def _run_child(argv: list[str], timeout: float, capture: bool = False):
    """Run this script again in a child process and wait for it.  If this
    process is interrupted or terminated, the child is terminated too
    (so that it removes its files) and waited for."""
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                          env=_child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    return proc.returncode, out


def _workdir(name: str, seed: int) -> str:
    path = os.path.join(OUT_DIR, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: list[str]) -> None:
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {key:34s} {value:>16d} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def _now_ns() -> int:
    # CLOCK_MONOTONIC is one clock for every process on the machine
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Time from spawning a fresh process to the point where it has
    imported the library, generated the workload's inputs and written its
    files (the process reports that moment on its stdout), as measured
    and at the gauge's reference speed, from gauge samples taken just
    before and just after."""
    samples = [gauge.sample() for _ in range(3)]
    t0 = _now_ns()
    code, out = _run_child(["--workload", name, "--seed", str(seed), "--setup-only"],
                           CHILD_TIMEOUT_S, capture=True)
    if code != 0:
        raise RuntimeError(f"set-up process exited with {code}")
    raw = (int(out.split()[-1]) - t0) / 1e9
    samples.extend(gauge.sample() for _ in range(3))
    return raw, raw * gauge.NOMINAL_NS / statistics.median(samples)


def workload_main(args) -> int:
    sys.path.insert(0, SRC)
    import harness
    import spans

    wl = harness.WORKLOADS[args.workload]
    workdir = _workdir(args.workload, args.seed)
    try:
        specs = wl.generate(args.seed, workdir)
        own_setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(_now_ns())
            return 0
        if not args.trace:
            n_ops = harness.n_ops(args.workload, args.seconds)
            setup: list[tuple[float, float]] = []

            def between(i):
                # set-up samples spread evenly over the run's ops, so
                # that they see the machine as the ops do
                if len(setup) < SETUP_REPEATS and i >= len(setup) * n_ops / SETUP_REPEATS:
                    setup.append(_measure_setup(args.workload, args.seed))

            rec = harness.run_pass(wl, specs, n_ops, between=between)
            while len(setup) < SETUP_REPEATS:
                setup.append(_measure_setup(args.workload, args.seed))
            metrics, notes = harness.end_to_end(args.workload, rec, [s for _, s in setup],
                                                [r for r, _ in setup])
            notes.append(f"this process's own set-up: {own_setup_s:.3f} s")
            _emit(rec.correct, rec.attempted, rec.failed, metrics, notes)
            return 0
        n_ops = harness.TRACE_OPS_PER_S[args.workload] * args.seconds
        plain = harness.run_pass(wl, specs, n_ops, keep_outputs=True)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = harness.run_pass(wl, specs, n_ops, tracer=tracer, keep_outputs=True)
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
        metrics, notes = harness.per_layer(tracer, traced, plain)
        same = plain.outputs == traced.outputs
        notes.append(f"traced and untraced outputs identical: {same}")
        _emit(traced.correct and same, traced.attempted, traced.failed, metrics, notes)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in ("line", "regions", "euler"):
        print(f"== {name}", flush=True)
        code, out = _run_child(["--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               CHILD_TIMEOUT_S, capture=True)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        print("\n".join(lines[:-1]), flush=True)
        if code != 0 or not lines:
            return code or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}), flush=True)
    return 0


def _pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.  On a
    shared host the CPUs run at different speeds from moment to moment;
    on one CPU the gauge sees the speed the ops and set-up processes
    run at."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    # a terminated run still stops its child processes and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _args()
    _pin_to_one_cpu()
    if not os.path.isfile(os.path.join(SRC, "sheafconv", "__init__.py")):
        print(f"bench: no sheafconv package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # own process with a fixed hash seed, so per-layer counts repeat
        return _run_child(sys.argv[1:], CHILD_TIMEOUT_S)[0]
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
