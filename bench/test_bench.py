"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import spans
from sheafconv import cfun, cli, polytope

# ops per workload: two full rounds of line (20 ops each), the first
# regions checks, and two euler blocks (22 ops each)
N_OPS = {"line": 40, "regions": 8, "euler": 44}


def _inputs(name, seed, workdir):
    specs = harness.WORKLOADS[name].generate(seed, str(workdir))
    files = sorted(os.listdir(workdir))
    contents = [(workdir / f).read_text() for f in files]
    return json.dumps(specs, default=str).replace(str(workdir), "<dir>"), files, contents


def _traced(name, specs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        rec = harness.run_pass(harness.WORKLOADS[name], specs, n_ops=N_OPS[name], tracer=tracer,
                               keep_outputs=True)
    finally:
        tracer.uninstall()
    plain = harness.run_pass(harness.WORKLOADS[name], specs, n_ops=N_OPS[name],
                             keep_outputs=True)
    layers, _ = harness.per_layer(tracer, rec, plain)
    counts = {k: v for k, (v, unit) in layers.items() if unit in ("count", "bytes")}
    return rec, plain, counts


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_same_inputs_outputs_and_counts(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _inputs(name, 5, tmp_path / "a")
    assert first == _inputs(name, 5, tmp_path / "b")
    assert first[0] != _inputs(name, 6, tmp_path / "b")[0]
    specs = harness.WORKLOADS[name].generate(5, str(tmp_path / "a"))
    rec1, plain1, counts1 = _traced(name, specs)
    rec2, plain2, counts2 = _traced(name, specs)
    assert rec1.outputs == rec2.outputs
    assert counts1 == counts2
    # traced and untraced runs give byte-identical op outputs
    assert rec1.outputs == plain1.outputs


# each workload bypasses one mechanism; the counts are exact
BYPASS = {
    "line": ("polytope.calls",),
    "regions": ("cfun.conv_cache_hits", "cfun.conv_cache_misses"),
    "euler": ("region.convex_calls",),
}


@pytest.mark.parametrize("name", sorted(BYPASS))
def test_bypass_predictions(name, tmp_path):
    specs = harness.WORKLOADS[name].generate(9, str(tmp_path))
    _, _, counts = _traced(name, specs)
    assert [counts[k] for k in BYPASS[name]] == [0] * len(BYPASS[name])
    assert counts[{"line": "sheaf1.calls", "regions": "region.calls",
                   "euler": "cfun.conv_cache_hits"}[name]] > 0


def test_wrappers_removed_after_traced_run(tmp_path):
    prop = polytope.Polytope.__dict__["inequalities"]
    specs = harness.WORKLOADS["euler"].generate(1, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.is_wrapped(polytope.convex_hull)
        harness.run_pass(harness.WORKLOADS["euler"], specs, n_ops=9, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.span_count() > 0
    assert polytope.Polytope.__dict__["inequalities"] is prop
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sheafconv" or mod_name.startswith("sheafconv."):
            wrapped = [k for k, v in vars(mod).items() if spans.is_wrapped(v)]
            assert wrapped == [], (mod_name, wrapped)


def _corrupt_first(i, output):
    """Change one digit of the first op's stdout."""
    if i != 0:
        return output
    return ("exit", output[1], output[2].replace("1", "2", 1) + " ", output[3])


def test_corrupted_output_counts_as_failed(tmp_path):
    specs = harness.WORKLOADS["line"].generate(3, str(tmp_path))
    cli_first = [s for s in specs if "argv" in s and s["kind"] != "malformed"]
    clean = harness.run_pass(harness.WORKLOADS["line"], cli_first, n_ops=1)
    bad = harness.run_pass(harness.WORKLOADS["line"], cli_first, n_ops=1,
                           mutate=_corrupt_first)
    assert (clean.failed, bad.failed) == (0, 1)
    assert bad.status == ["wrong"]
    metrics, notes = harness.end_to_end("line", bad, [1.0], [1.0])
    assert any("fail_frac = 1/1" in n for n in notes)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_fixed_work_gives_fixed_counts(name, tmp_path):
    """An untraced run is whole rounds of the stream, so every seed gets
    the same mix of op kinds, and line the same number of deep-nesting
    inputs, the one known failure."""
    n = harness.n_ops(name, 20)
    assert n % harness.WORKLOADS[name].ROUND_OPS == 0
    assert n >= harness.OPS_PER_S[name] * 20
    mixes = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        specs = harness.WORKLOADS[name].generate(seed, str(tmp_path / str(seed)))
        ops = [specs[i % len(specs)] for i in range(n)]
        mixes.append(sorted((s["kind"], s.get("which", ""), s.get("cls", "")) for s in ops))
    assert mixes[0] == mixes[1]


def test_gauge_scales_to_the_reference_speed():
    import gauge
    # samples after ops 0, 4 and 9; the machine ran at half speed
    # throughout, then at the reference speed
    slow = [2 * gauge.NOMINAL_NS] * 3
    assert gauge.scales([0, 4, 9], slow, 10) == [0.5] * 10
    at = list(range(-1, 20))
    samples = [2 * gauge.NOMINAL_NS] * 10 + [gauge.NOMINAL_NS] * 11
    f = gauge.scales(at, samples, 20)
    assert f[0] == 0.5 and f[-1] == 1.0
    assert gauge.sample() > 0


def test_line_failures_are_only_the_deep_nesting(tmp_path):
    specs = harness.WORKLOADS["line"].generate(2, str(tmp_path))
    deep = [s for s in specs if s.get("which") == "deep"][:2]
    mixed = specs[:20] + deep
    rec = harness.run_pass(harness.WORKLOADS["line"], mixed, n_ops=len(mixed))
    for spec, status in zip(mixed, rec.status):
        if status != "ok":
            assert spec.get("which") == "deep" and status == "known"
    assert rec.failed == len(deep) and rec.correct


def _raise(*args, **kwargs):
    raise ValueError("injected")


def _deep_recursion(argv):
    raise RecursionError("injected")


def test_escaping_exception_makes_run_incorrect(tmp_path, monkeypatch):
    specs = harness.WORKLOADS["euler"].generate(4, str(tmp_path))
    monkeypatch.setattr(cfun, "euler_convolve", _raise)
    rec = harness.run_pass(harness.WORKLOADS["euler"], specs, n_ops=1)
    assert rec.status == ["uncaught"] and not rec.correct


def test_only_deep_nesting_is_a_known_failure(tmp_path, monkeypatch):
    specs = harness.WORKLOADS["line"].generate(2, str(tmp_path))
    shallow = [s for s in specs if s.get("which") == "unbalanced"][:1]
    monkeypatch.setattr(cli, "main", _deep_recursion)
    rec = harness.run_pass(harness.WORKLOADS["line"], shallow, n_ops=1)
    assert rec.status == ["uncaught"] and not rec.correct


def test_refuses_to_run_without_the_library(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "line",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
