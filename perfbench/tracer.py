"""In-memory layer tracing of the sigeom package, installed from outside it.

`Tracer.install(sigeom)` replaces functions of the imported package with
wrappers, under every name the package binds them to: a function imported
by name into another module (`profiles.j0_jet` is `bessel.j0_jet`), listed
in a module-level table (`expressions._FUNCTIONS`) or re-exported by the
package `__init__` is replaced everywhere at once.

- Layer boundaries get a span: start, end, parent span and job id.  A
  span's self time is its duration minus the time of its child spans.
- Other public functions only get a call count, so their time stays in the
  enclosing span's self time (for example `b_of_profile` inside
  `coord_laplacians_ii`).
- `_ddouble` operations are counted, weighted by the number of elements of
  their first argument, as they are requested by the series kernels: the
  `dd` module that `bessel` uses is replaced by a counting proxy, so the
  calls `_ddouble` makes to itself are not counted.
- Profile jets are spanned by wrapping the jet that `profile_from_jet`
  receives, before its `lru_cache`, so a span is a cache miss.
  `ProfileCurve.evaluate` calls are counted; the ones on a jet-backed
  profile that do not lead to a jet evaluation are cache hits.

Spans are kept in memory (at most MAX_SPANS of them; the aggregates are
exact regardless) and written out by `dump_spans` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
import types
import weakref
from array import array
from collections import defaultdict

MAX_SPANS = 100_000

# public functions that get a span; every other public function is only counted
SPANNED = {
    "bessel": ("j0_jet", "y0_jet", "i0_jet", "k0_jet", "jp_jet",
               "bessel_j0", "bessel_y0", "bessel_i0", "bessel_k0", "bessel_j"),
    "surfaces": ("laplacian_i", "laplacian_ii", "coord_laplacians_i", "coord_laplacians_ii",
                 "curvatures", "mesh"),
    "classify": ("check_eigen_i", "check_eigen_ii", "verify_constant_curvature",
                 "solve_radial_eigen_ode", "eigen_system_residual"),
    "cli": ("main", "parse_profile_spec", "write_obj"),
}
# classify fits taking (surface, grid, ...): their grid sizes are summed
GRID_FITS = ("classify.check_eigen_i", "classify.check_eigen_ii",
             "classify.verify_constant_curvature")
MODULES = ("_ddouble", "bessel", "autodiff", "expressions", "profiles", "surfaces",
           "classify", "cli", "core")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.dd_elems = 0
        self.grid_points = 0
        self.jet_profile_evals = 0
        self.jet_evaluate_calls = 0
        # ProfileCurve is unhashable (its params field is a dict): key by id
        self._jet_curves: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        # six int64 columns per span: id, parent id, job, name index, start, end;
        # a flat array keeps the log from pinning small-object memory
        self.spans = array("q")
        self.span_names: list[str] = []
        self.dropped = 0
        self.job = -1
        self._next_id = 0

    # -- recording ----------------------------------------------------

    def _span(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter_ns
        name_index = len(self.span_names)
        self.span_names.append(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [name, clock(), 0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[2]
                self.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < 6 * MAX_SPANS:
                    self.spans.extend((sid, parent[3] if parent else -1, self.job, name_index,
                                       frame[1], end))
                else:
                    self.dropped += 1

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dd_count(self, fn):
        def wrapper(*args):
            a = args[0]
            a0 = a[0] if type(a) is tuple else a
            self.dd_elems += getattr(a0, "size", 1)
            return fn(*args)

        return wrapper

    # -- installation -------------------------------------------------

    def install(self, pkg) -> None:
        mods = {name: getattr(pkg, name) for name in MODULES if hasattr(pkg, name)}
        replace: dict[int, object] = {}
        for mname, mod in mods.items():
            spanned = SPANNED.get(mname, ())
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or id(fn) in replace:
                    continue
                label = f"{mname}.{name}"
                if label == "profiles.profile_from_jet":
                    replace[id(fn)] = self._wrap_profile_from_jet(fn)
                elif label in GRID_FITS:
                    replace[id(fn)] = self._span(label, self._count_grid(fn))
                elif name in spanned:
                    replace[id(fn)] = self._span(label, fn)
                else:
                    replace[id(fn)] = self._count(label, fn)

        for mod in [pkg, *mods.values()]:
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

        curve = getattr(mods.get("profiles"), "ProfileCurve", None)
        if curve is not None:
            curve.evaluate = self._count_evaluate(curve.evaluate)

        dd = mods.get("_ddouble")
        bessel = mods.get("bessel")
        if dd is not None and getattr(bessel, "dd", None) is dd:
            proxy = types.SimpleNamespace(**vars(dd))
            for name, value in vars(dd).items():
                if inspect.isfunction(value) and not name.startswith("_"):
                    setattr(proxy, name, self._dd_count(value))
            bessel.dd = proxy

    def _wrap_profile_from_jet(self, fn):
        def wrapper(jet, *args, **kwargs):
            params = kwargs.get("params", args[2] if len(args) > 2 else None) or {}
            name = "autodiff.jet" if "expression" in params else "profiles.jet"
            spanned = self._span(name, jet)

            def counted(u):
                self.jet_profile_evals += 1
                return spanned(u)

            curve = fn(counted, *args, **kwargs)
            self._jet_curves[id(curve)] = curve
            return curve

        return wrapper

    def _count_evaluate(self, fn):
        calls = self.calls
        jet_curves = self._jet_curves

        def wrapper(curve, *args, **kwargs):
            calls["profiles.evaluate"] += 1
            if jet_curves.get(id(curve)) is curve:
                self.jet_evaluate_calls += 1
            return fn(curve, *args, **kwargs)

        return wrapper

    def _count_grid(self, fn):
        """Add nu * nv of the grid argument to grid_points on every call."""

        def wrapper(s, g, *args, **kwargs):
            self.grid_points += len(g.u) * len(g.v)
            return fn(s, g, *args, **kwargs)

        return wrapper

    # -- output -------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "dd_elems": self.dd_elems,
            "grid_points": self.grid_points,
            "jet_profile_evals": self.jet_profile_evals,
            "jet_evaluate_calls": self.jet_evaluate_calls,
            "spans_dropped": self.dropped,
        }

    def dump_spans(self, path: str) -> None:
        """Append the recorded spans to `path` as JSON lines."""
        cols = self.spans
        with open(path, "a") as fh:
            for k in range(0, len(cols), 6):
                sid, parent, job, name, start, end = cols[k:k + 6]
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": self.span_names[name],
                                     "start_ns": start, "end_ns": end}) + "\n")


def merge(into: dict, agg: dict) -> dict:
    """Add the aggregates of one traced process to a running total."""
    for key, value in agg.items():
        if isinstance(value, dict):
            slot = into.setdefault(key, {})
            for k, v in value.items():
                slot[k] = slot.get(k, 0) + v
        else:
            into[key] = into.get(key, 0) + value
    return into
