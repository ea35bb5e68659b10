"""Span tracer for the benchmark's traced run.

The tracer wraps every public function defined in each layer module of
sheafconv, rebinding the wrapper wherever the package holds a reference
to the original (the defining module, every module that imported it,
and the package's top-level re-exports).  It also wraps the function
under the ``Polytope.inequalities`` cached property, where the facet
enumeration of a 3-polytope runs.  ``uninstall`` puts every original
back.

Spans are recorded only between ``begin_op`` and ``end_op``, so the
benchmark's own input building and output verification never show up.
Each span keeps its name, start, end, parent span and op id in memory;
``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "dsl", "sheaf1", "microlocal", "cf1", "oracle",
          "polytope", "region", "cfun", "linalg")

# per-element vector helpers: a wrapper would cost more than the call
UNWRAPPED = frozenset({"vadd", "vsub", "vneg", "vdot", "vscale", "cross3"})

PACKAGE = "sheafconv"

_MARK = "__bench_trace_original__"


def _sized(it):
    """A list for any one-shot iterable, so a hook can count it and the
    wrapped function still receives every element."""
    return it if isinstance(it, (list, tuple, set, frozenset, dict)) else list(it)


def _nonzero(values) -> int:
    return sum(1 for v in values if v)


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span columns
        self.name_col = array("l")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("l")
        self.op_col = array("l")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        # per-name aggregates: calls, self ns and inclusive ns
        self.calls: dict[int, int] = {}
        self.self_ns: dict[int, int] = {}
        self.incl_ns: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self._convex_nid = self._name_id("region.is_convex_region")
        self.pairs: set = set()
        self._rebound: list[tuple[object, str, object]] = []
        self._saved_property = None

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op_id)
        self.end_col.append(0)
        self._stack.append(idx)
        self._child_ns.append(0)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.end_col[idx] = end
        self._stack.pop()
        child = self._child_ns.pop()
        dur = end - self.start_col[idx]
        if self._child_ns:
            self._child_ns[-1] += dur
        nid = self.name_col[idx]
        self.calls[nid] = self.calls.get(nid, 0) + 1
        self.self_ns[nid] = self.self_ns.get(nid, 0) + dur - child
        self.incl_ns[nid] = self.incl_ns.get(nid, 0) + dur
        return dur

    def inside(self, nid: int) -> bool:
        return any(self.name_col[i] == nid for i in self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_id = -1

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, qualname: str, fn, hook):
        tracer = self
        nid = self._name_id(qualname)
        pre, post = hook if hook else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(tracer, args)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx)
            if post is not None:
                post(tracer, args, result, dur)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == PACKAGE
                                        or name.startswith(PACKAGE + "."))}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrapper(qual, fn, HOOKS.get(qual)))
        for mod in mods.values():
            for name, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, name, hit[1])
                    self._rebound.append((mod, name, val))
        poly_cls = mods[f"{PACKAGE}.polytope"].Polytope
        prop = poly_cls.__dict__["inequalities"]
        wrapped = functools.cached_property(
            self._wrapper("polytope.Polytope.inequalities", prop.func,
                          HOOKS["polytope.Polytope.inequalities"]))
        wrapped.__set_name__(poly_cls, "inequalities")
        type.__setattr__(poly_cls, "inequalities", wrapped)
        self._saved_property = (poly_cls, prop)

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._rebound):
            setattr(mod, name, val)
        self._rebound.clear()
        if self._saved_property is not None:
            poly_cls, prop = self._saved_property
            type.__setattr__(poly_cls, "inequalities", prop)
            self._saved_property = None
        self.active = False

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for nid, name in enumerate(self._names):
            layer = name.split(".", 1)[0]
            out[layer]["calls"] += self.calls.get(nid, 0)
            out[layer]["self_ns"] += self.self_ns.get(nid, 0)
        return out

    def name_totals(self, name: str) -> tuple[int, int]:
        """Calls of the wrapped function ``name`` and its inclusive ns."""
        nid = self._name_ids.get(name)
        return self.calls.get(nid, 0), self.incl_ns.get(nid, 0)

    def span_count(self) -> int:
        return len(self.start_col)

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start ns, end ns,
        parent span index (-1 for a root) and op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self._names
            for i in range(len(self.start_col)):
                fh.write(f"{names[self.name_col[i]]}\t{self.start_col[i]}\t"
                         f"{self.end_col[i]}\t{self.parent_col[i]}\t{self.op_col[i]}\n")


def is_wrapped(obj) -> bool:
    return hasattr(obj, _MARK)


# ---------------------------------------------------------------------------
# layer-specific counters, taken from the arguments and results of the
# wrapped calls.  Each hook is (pre, post); pre may replace the argument
# tuple (to make a one-shot iterable countable), post sees the result and
# the span duration in ns.


def _convolve_post(tr, args, result, dur):
    tr.count("sheaf1.gen_pairs", len(args[0].gens) * len(args[1].gens))
    tr.count("sheaf1.out_gens", len(result.gens))


def _parse_post(tr, args, result, dur):
    tr.count("dsl.bytes_in", len(args[0].encode("utf-8")))


def _shadow_post(tr, args, result, dur):
    tr.count("cf1.shadow_candidates", 2 * len(args[0].gens))


def _cf1_convolve_post(tr, args, result, dur):
    f, g = args[0], args[1]
    fa = _nonzero(f.point_values) + _nonzero(f.gap_values)
    ga = _nonzero(g.point_values) + _nonzero(g.gap_values)
    tr.count("cf1.conv_atom_pairs", fa * ga)


def _first_arg_sized(tr, args):
    if not args:
        return args
    return (_sized(args[0]),) + tuple(args[1:])


def _build_post(tr, args, result, dur):
    if args:
        tr.count("cf1.build_points", len(set(args[0])))


def _table_post(tr, args, result, dur):
    tr.count("oracle.trials", result["trials"])


def _hull_post(tr, args, result, dur):
    tr.count("polytope.hull_points", len(args[0]) if args else 0)


def _inequalities_post(tr, args, result, dur):
    poly = args[0]
    if poly.adim == 3:
        tr.count("polytope.facet_enum_calls")
        tr.count("polytope.facet_enum_points", len(poly.verts))
        tr.count("polytope.facet_enum_ns", dur)


def _minkowski_post(tr, args, result, dur):
    tr.count("polytope.minkowski_cloud", len(args[0].verts) * len(args[1].verts))


def _intersect_post(tr, args, result, dur):
    if result is not None:
        tr.count("polytope.intersect_hits")
        if tr.inside(tr._convex_nid):
            tr.count("region.ie_live")


def _pair_post(tr, args, result, dur):
    tr.pairs.add((args[0].region, args[1].region))


def _sweep_post(tr, args, result, dur):
    tr.count("cfun.sweep_directions", len(result["entries"]))


HOOKS = {
    "sheaf1.convolve": (None, _convolve_post),
    "dsl.parse": (None, _parse_post),
    "cf1.cf1_from_sheaf": (None, _shadow_post),
    "cf1.cf1_convolve": (None, _cf1_convolve_post),
    "cf1.build_cf1": (_first_arg_sized, _build_post),
    "oracle.validate_table": (None, _table_post),
    "polytope.convex_hull": (_first_arg_sized, _hull_post),
    "polytope.Polytope.inequalities": (None, _inequalities_post),
    "polytope.minkowski_sum": (None, _minkowski_post),
    "polytope.intersect_polytopes": (None, _intersect_post),
    "cfun.euler_convolve": (None, _pair_post),
    "cfun.euler_convolve_at": (None, _pair_post),
    "cfun.direction_sweep": (None, _sweep_post),
}
