"""Closed-loop op runner, metrics and the traced pass.

One client sends one op at a time and sends the next only when the
previous one returned.  Each op gets freshly built inputs (untimed), is
timed alone, and is verified afterwards (untimed).  The only state that
spans ops is the library's own ``_conv_terms`` cache, as for a user.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from array import array

from sheafconv import cfun

import euler
import gauge
import line
import regions
import spans

WORKLOADS = {"line": line, "regions": regions, "euler": euler}

# fixed percentile per workload for op_tail_ms, chosen so that a run of
# 15 s leaves at least ten samples beyond it and the percentile falls
# inside one cluster of op costs rather than between two.  On regions
# p95 lies among the 3D checks of boxes around a core and of cut boxes.
# On euler the 3D ops are too few and too varied for a steady percentile
# among them, so its p95 lies in the 2D pushforward cluster.
TAIL_PCT = {"line": 95.0, "regions": 95.0, "euler": 95.0}

# ops in an untraced run, per second of --seconds, rounded up to whole
# rounds of the stream: about --seconds of op time on a busy shared
# 2-core host.  The work is fixed, not the time, so that a seed and
# --seconds give the same ops, and so the same attempted and failed
# counts, however fast the machine runs.
OPS_PER_S = {"line": 32, "regions": 13, "euler": 224}

# ops in a traced run, per second of --seconds; fixed so that the
# per-layer counts repeat exactly for a given seed
TRACE_OPS_PER_S = {"line": 15, "regions": 2, "euler": 30}

# a run stops after this much wall time whatever its ops take, so that
# the process ends in time on a machine many times slower than expected
WALL_CAP_S = 120

# the gauge is timed after an op once the ops since the last sample have
# taken this long, and once before the first op and after the last
GAUGE_EVERY_NS = 40_000_000

# per-layer metrics X_calls and X_s taken from the spans of one wrapped
# function: its calls and its inclusive time
SPAN_METRICS = {
    "polytope.hull": "polytope.convex_hull",
    "polytope.minkowski": "polytope.minkowski_sum",
    "polytope.intersect": "polytope.intersect_polytopes",
    "polytope.slice": "polytope.slice_polytope",
    "region.convex": "region.is_convex_region",
    "region.slice": "region.slice_region",
    "region.parse": "region.region_from_json",
    "cfun.pushforward": "cfun.pushforward_linear",
    "cfun.check": "cfun.invertibility_check_cf",
}


def _cache_info():
    fn = getattr(cfun, "_conv_terms", None)
    info = getattr(fn, "cache_info", None)
    return info() if info else None


def _cache_clear():
    fn = getattr(cfun, "_conv_terms", None)
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


class Pass:
    """The records of one pass over a prefix of the op stream.

    An op's status is ``ok``, ``wrong`` (its check failed), ``uncaught``
    (an exception escaped the entry point) or ``known`` (an escape the
    workload names as a known failure of the program).  Op outputs are
    kept only when asked for, so that the memory the benchmark holds does
    not grow with the number of ops a run completes."""

    def __init__(self):
        self.ns = array("q")
        self.status: list[str] = []
        self.via_cli: list[bool] = []
        self.outputs: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.verify_s = 0.0
        self.wall_s = 0.0
        self.gauge_at: list[int] = []
        self.gauge_ns: list[int] = []
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def attempted(self) -> int:
        return len(self.ns)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.status if s != "ok")

    @property
    def wrong(self) -> int:
        return sum(1 for s in self.status if s == "wrong")

    @property
    def correct(self) -> bool:
        """No wrong output and no escape other than a known failure."""
        return all(s in ("ok", "known") for s in self.status)

    @property
    def op_s(self) -> float:
        return sum(self.ns) / 1e9

    def scaled_ns(self) -> list[float]:
        """Each op's time at the gauge's reference speed."""
        return [t * f for t, f in zip(self.ns, gauge.scales(self.gauge_at, self.gauge_ns,
                                                             len(self.ns)))]


def n_ops(name: str, seconds: int) -> int:
    """Ops in an untraced run: whole rounds of the workload's stream."""
    size = WORKLOADS[name].ROUND_OPS
    return -(-OPS_PER_S[name] * seconds // size) * size


def run_pass(wl, specs, n_ops, *, tracer=None, mutate=None, keep_outputs=False,
             between=None) -> Pass:
    """Run the first ``n_ops`` ops of the stream (wrapping round), or as
    many as WALL_CAP_S of wall time allows, timing the gauge between
    them.  ``mutate(i, output)`` lets a test corrupt an output before it
    is verified; ``between(i)`` runs untimed after op ``i``."""
    _cache_clear()
    known = getattr(wl, "known_failure", None)
    rec = Pass()
    ctx: dict = {}
    start = time.perf_counter()
    since_gauge = 0
    rec.gauge_at.append(-1)
    rec.gauge_ns.append(gauge.sample())
    for i in range(n_ops):
        if time.perf_counter() - start >= WALL_CAP_S:
            break
        spec = specs[i % len(specs)]
        inputs = wl.prepare(spec, ctx)
        before = _cache_info()
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter_ns()
        try:
            output = wl.execute(spec, inputs, ctx)
            escaped = None
        except Exception as exc:  # an exception escaping the entry point is a failed op
            output, escaped = None, exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op()
        after = _cache_info()
        if before is not None:
            rec.cache_hits += after.hits - before.hits
            rec.cache_misses += after.misses - before.misses
        since_gauge += t1 - t0
        if since_gauge >= GAUGE_EVERY_NS:
            since_gauge = 0
            rec.gauge_at.append(i)
            rec.gauge_ns.append(gauge.sample())
        v0 = time.perf_counter()
        if escaped is not None:
            status = "known" if known is not None and known(spec, escaped) else "uncaught"
            reason = f"{status} {type(escaped).__name__}"
            text = f"uncaught:{type(escaped).__name__}"
        else:
            if mutate is not None:
                output = mutate(i, output)
            reason = wl.check(spec, inputs, output, ctx)
            status = "ok" if reason is None else "wrong"
            text = wl.render(output) if keep_outputs else None
        rec.verify_s += time.perf_counter() - v0
        rec.ns.append(t1 - t0)
        rec.status.append(status)
        rec.via_cli.append("argv" in spec)
        if keep_outputs:
            rec.outputs.append(text)
        if reason is not None:
            rec.failures.append((spec["kind"], reason))
        if between is not None:
            between(i)
    rec.gauge_at.append(len(rec.ns))
    rec.gauge_ns.append(gauge.sample())
    rec.wall_s = time.perf_counter() - start
    return rec


def tail(ns: list[int], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile in ms and the number of samples beyond it."""
    s = sorted(ns)
    idx = max(0, math.ceil(pct / 100 * len(s)) - 1)
    return s[idx] / 1e6, len(s) - idx - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name: str, rec: Pass, setup: list[float],
               setup_raw: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics, every time at the gauge's reference speed;
    ``setup`` holds the set-up times of fresh processes at that speed,
    ``setup_raw`` the same as measured."""
    scaled = rec.scaled_ns()
    t, beyond = tail(scaled, TAIL_PCT[name])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (rec.attempted / (sum(scaled) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(scaled) / 1e6, "ms"),
        "op_tail_ms": (t, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_tail, _ = tail(rec.ns, TAIL_PCT[name])
    g = rec.gauge_ns
    notes = [
        f"op_tail_ms is p{TAIL_PCT[name]:g} with {beyond} samples beyond it",
        f"fail_frac = {rec.failed}/{rec.attempted} = {rec.failed / rec.attempted:.4f}"
        f" (wrong outputs: {rec.wrong}, correct: {rec.correct})",
        f"as measured, not scaled: setup_s {statistics.median(setup_raw):.4f},"
        f" ops_per_s {rec.attempted / rec.op_s:.3f}, op_p50_ms"
        f" {statistics.median(rec.ns) / 1e6:.4f}, op_tail_ms {raw_tail:.4f}",
        f"gauge: {len(g)} samples, median {statistics.median(g) / 1e6:.3f} ms,"
        f" min {min(g) / 1e6:.3f} ms, max {max(g) / 1e6:.3f} ms"
        f" (reference {gauge.NOMINAL_NS / 1e6:.3f} ms)",
        f"op_s = {rec.op_s:.3f}, verify_s = {rec.verify_s:.3f}, wall_s = {rec.wall_s:.3f}",
    ]
    failures = sorted(set(rec.failures))
    notes.extend(f"failed {kind}: {reason}" for kind, reason in failures[:5])
    return metrics, notes


def per_layer(tracer: spans.Tracer, traced: Pass, plain: Pass) -> tuple[dict, list[str]]:
    op_s = traced.op_s
    m: dict = {}
    for layer, tot in tracer.layer_totals().items():
        self_s = tot["self_ns"] / 1e9
        m[f"{layer}.calls"] = (tot["calls"], "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (self_s / op_s if op_s else 0.0, "ratio")
    c = tracer.counters
    for key in ("sheaf1.gen_pairs", "sheaf1.out_gens", "dsl.bytes_in",
                "cf1.shadow_candidates", "cf1.conv_atom_pairs", "cf1.build_points",
                "oracle.trials", "polytope.hull_points",
                "polytope.facet_enum_calls", "polytope.facet_enum_points",
                "polytope.minkowski_cloud", "region.ie_live", "cfun.sweep_directions"):
        unit = "bytes" if key.endswith("bytes_in") else "count"
        m[key] = (int(c.get(key, 0)), unit)
    for key, name in SPAN_METRICS.items():
        calls, ns = tracer.name_totals(name)
        m[f"{key}_calls"] = (calls, "count")
        m[f"{key}_s"] = (ns / 1e9, "s")
    m["polytope.facet_enum_s"] = (c.get("polytope.facet_enum_ns", 0) / 1e9, "s")
    calls = m["polytope.intersect_calls"][0]
    m["polytope.intersect_hit_ratio"] = (c.get("polytope.intersect_hits", 0) / calls
                                         if calls else 0.0, "ratio")
    # the CLI's own counts come from the op outputs themselves
    exits = {k: 0 for k in range(4)}
    uncaught = bytes_out = 0
    for text, via_cli, status in zip(traced.outputs, traced.via_cli, traced.status):
        if not via_cli:
            continue
        if status in ("uncaught", "known"):
            uncaught += 1
        else:
            _, code, out, err = json.loads(text)
            exits[code] = exits.get(code, 0) + 1
            bytes_out += len(out.encode()) + len(err.encode())
    m["cli.bytes_out"] = (bytes_out, "bytes")
    for k in range(4):
        m[f"cli.exit{k}"] = (exits.get(k, 0), "count")
    m["cli.uncaught"] = (uncaught, "count")
    hits, misses = traced.cache_hits, traced.cache_misses
    m["cfun.conv_cache_hits"] = (hits, "count")
    m["cfun.conv_cache_misses"] = (misses, "count")
    m["cfun.conv_cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["cfun.distinct_pairs"] = (len(tracer.pairs), "count")
    m["bench.verify_s"] = (traced.verify_s, "s")
    m["trace.overhead_ratio"] = (traced.op_s / plain.op_s if plain.op_s else 0.0, "ratio")
    notes = [
        f"traced ops {traced.attempted}, traced op time {op_s:.3f} s,"
        f" untraced op time {plain.op_s:.3f} s, spans {tracer.span_count()}",
        f"polytope.intersect_hit_ratio base: {int(calls)} calls",
        f"cfun.conv_cache_hit_ratio base: {hits + misses} lookups",
    ]
    return m, notes
