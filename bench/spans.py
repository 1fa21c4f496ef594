"""Span tracing of pimac's public functions, installed from outside the package.

``Tracer.install`` replaces every public function and class defined in
``model``, ``optimize``, ``schemes``, ``bounds`` and ``experiments`` with a
wrapper, in every pimac namespace that binds it (the package itself
included). A wrapper records one span per call (name, start, end, parent)
into flat arrays kept in memory, counts calls that raised, and adds up the
``diagnostics["evaluations"]`` of the results it returns. The three solvers
in ``optimize`` also get counting wrappers around the objective ``f`` and
its vectorised twin ``f_vec`` that they are handed; those calls are spans
too, so a solver's self time is its own bookkeeping only.
"""

import functools
import inspect
import statistics
import time
from array import array
from collections import Counter

import numpy as np

import pimac
from pimac import bounds, experiments, model, optimize, schemes

LAYER_MODULES = (model, optimize, schemes, bounds, experiments)
SOLVERS = ("maximize_scalar", "maximize_box", "minimize_constrained")

# Sweep curve -> the call run_sweep makes for it.
CURVE_CALLS = {
    "sd_tin": "schemes.sd_tin_sum_rate",
    "tdma_tin": "schemes.tdma_tin_sum_rate",
    "pc_tin": "schemes.pc_tin_sum_rate",
    "tdma": "schemes.plain_tdma_sum_rate",
    "ub1": "bounds.c_sigma_1",
    "ub2": "bounds.c_sigma_2",
}

# Per-call medians reported for each layer, with their unit.
PER_CALL = {
    "schemes.pc_tin_sum_rate": "ms",
    "bounds.c_sigma_1": "ms",
    "schemes.tdma_tin_sum_rate": "ms",
    "bounds.genie_bound_objective": "us",
    "bounds.gaussian_mutual_info": "us",
    "schemes.sd_tin_sum_rate": "us",
    "schemes.plain_tdma_sum_rate": "us",
    "bounds.c_sigma_2": "us",
    "model.PimacParams": "us",
    "experiments.render_csv": "ms",
}
EVALS = ("schemes.pc_tin_sum_rate", "bounds.c_sigma_1", "schemes.tdma_tin_sum_rate")
PROBE_EVALS = ("tdma_tin_sum_rate", "pc_tin_sum_rate", "c_sigma_1")
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """Spans of one traced run, in memory until ``save``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.failed = Counter()
        self.evals = Counter()
        self.f_calls = Counter()
        self.f_vec_points = Counter()
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        nid = self._id(name)
        name_id, starts, ends, parents = self.name_id, self.starts, self.ends, self.parents
        stack, failed, evals = self._stack, self.failed, self.evals
        clock = time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            diagnostics = getattr(result, "diagnostics", None)
            if isinstance(diagnostics, dict):
                evals[name] += diagnostics.get("evaluations", 0)
            return result

        return wrapper

    def _solver(self, name, fn):
        signature = inspect.signature(fn)
        f_span_name, vec_span_name = name + ".f", name + ".f_vec"
        f_calls, f_vec_points = self.f_calls, self.f_vec_points

        def wrap_objectives(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            f = bound.arguments["f"]
            f_span = self.span(f_span_name, f)

            def counted_f(x):
                f_calls[name] += 1
                return f_span(x)

            bound.arguments["f"] = counted_f
            f_vec = bound.arguments.get("f_vec")
            if f_vec is not None:
                vec_span = self.span(vec_span_name, f_vec)

                def counted_f_vec(pts):
                    f_vec_points[name] += len(pts)
                    return vec_span(pts)

                bound.arguments["f_vec"] = counted_f_vec
            return fn(*bound.args, **bound.kwargs)

        return self.span(name, functools.wraps(fn)(wrap_objectives))

    def install(self):
        """Wrap the layer modules' public callables wherever pimac binds them."""
        originals = {}
        for mod in LAYER_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and (inspect.isfunction(obj) or inspect.isclass(obj))
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrap = self._solver if attr in SOLVERS else self.span
                    originals[id(obj)] = wrap(name, obj)
        for ns in (pimac,) + LAYER_MODULES:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, originals[id(obj)])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def arrays(self):
        """Copies of the span columns: name id, start, end, parent index."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.starts),
                np.array(self.ends), np.array(self.parents, dtype=np.int64))

    def save(self, path):
        nid, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=start,
                 end=end, parent=parent)

    def layer_metrics(self):
        """Per-layer metrics (value, unit) from the spans recorded so far."""
        nid, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(name):
            return nid == ids.get(name, -1)

        out = {}
        for name, unit in PER_CALL.items():
            d = dur[mask(name)]
            out[f"{name}.{unit}"] = (float(np.median(d)) * SCALE[unit] if d.size else 0.0, unit)
        for name in EVALS:
            out[f"{name}.evals"] = (int(self.evals[name]), "count")
        out["bounds.c_sigma_1.failed"] = (int(self.failed["bounds.c_sigma_1"]), "count")
        for solver in SOLVERS:
            name = f"optimize.{solver}"
            out[f"{name}.self_ms"] = (float(self_time[mask(name)].sum()) * 1e3, "ms")
            out[f"{name}.f_calls"] = (int(self.f_calls[name]), "count")
            out[f"{name}.f_vec_points"] = (int(self.f_vec_points[name]), "count")

        sweep = mask("experiments.run_sweep")
        sweep_s = float(dur[sweep].sum())
        out["experiments.run_sweep.s"] = (sweep_s, "s")
        in_sweep = has_parent.copy()
        in_sweep[has_parent] = sweep[parent[has_parent]]
        curves_s = 0.0
        for curve, call in CURVE_CALLS.items():
            t = float(dur[in_sweep & mask(call)].sum())
            curves_s += t
            out[f"experiments.run_sweep.{curve}_s"] = (t, "s")
        out["experiments.run_sweep.curve_share"] = (
            curves_s / sweep_s if sweep_s > 0 else 0.0, "share")
        out["trace.spans"] = (int(dur.size), "count")
        return out


def probe_table(reps):
    """The ROADMAP baseline table: untraced per-call medians at the probe points.

    Returns metrics named ``probe.h<h>.<call>.<unit>`` plus evaluation counts.
    """
    from workloads import FIGURE, PROBE_HS

    out = {}
    for h in PROBE_HS:
        params = pimac.PimacParams(h12=h, h22=FIGURE["h22"], h31=h, p1_max=FIGURE["p1"],
                                   p2_max=FIGURE["p2"], p3_max=FIGURE["p3"])
        genie = pimac.GenieParams(rho1=0.0, rho2=0.0, eta1=1.0, eta2=1.0)
        calls = {
            "sd_tin_sum_rate": ("us", lambda: pimac.sd_tin_sum_rate(params)),
            "plain_tdma_sum_rate": ("us", lambda: pimac.plain_tdma_sum_rate(params)),
            "c_sigma_2": ("us", lambda: pimac.c_sigma_2(params)),
            "tdma_tin_sum_rate": ("ms", lambda: pimac.tdma_tin_sum_rate(params)),
            "pc_tin_sum_rate": ("ms", lambda: pimac.pc_tin_sum_rate(params)),
            "c_sigma_1": ("ms", lambda: pimac.c_sigma_1(params)),
            "genie_bound_objective": ("us", lambda: pimac.genie_bound_objective(params, genie)),
        }
        for call, (unit, fn) in calls.items():
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
            key = f"probe.h{h}.{call}"
            out[f"{key}.{unit}"] = (statistics.median(times) * SCALE[unit], unit)
            if call in PROBE_EVALS:
                out[f"{key}.evals"] = (int(result.diagnostics.get("evaluations", 0)), "count")
    return out
