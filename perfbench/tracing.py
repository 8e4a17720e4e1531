"""Span tracing of the library's layers, installed from outside the library.

The tracer replaces every binding of a layer boundary with a timing wrapper:
each public function of each package module, wherever a module has bound it
by name (``from .numerics import log_gamma_array`` in ``gl_whittaker`` is a
separate binding from ``numerics.log_gamma_array``), plus the private
Macdonald kernels and ``log_gamma_array``.  ``quadrature.integrate_box`` is
wrapped inside ``quadrature`` too, because ``integrate_decaying`` and
``integrate_contour`` reach it through the module global.  The integrand
handed to the outermost quadrature call is wrapped as well, so the engine's
self time is its span minus the time spent in the integrand.

Each span records (name, start, end, parent, case id).  Spans stay in memory
and are written out by :meth:`Tracer.write`.  A span's self time is its
duration minus the durations of its children, so nested quadrature spans
(``integrate_decaying`` around ``integrate_box``) are not counted twice.

``quadrature.stable_exp`` is not wrapped: it is an elementwise helper that
integrands call, and its time belongs to the integrand's module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

LAYERS = (
    "numerics",
    "quadrature",
    "gl_whittaker",
    "gl_baxter",
    "so_toda",
    "rankin_selberg",
    "local_lfactors",
    "cli",
)
OTHER_LAYERS = LAYERS[2:]
_PRIVATE = {"numerics": ("log_gamma_array", "_macdonald_grid", "_macdonald_pairs")}
_SKIP = {"stable_exp"}
_GROUP = {
    "log_gamma_array": "log_gamma",
    "log_gamma": "log_gamma",
    "_macdonald_grid": "macdonald",
    "_macdonald_pairs": "macdonald",
    "macdonald_k": "macdonald",
}
_QUADRATURE = {"integrate_box", "integrate_decaying", "integrate_contour"}
DIMS = (1, 2, 3, 4)

#: Quadrature-driven public functions the workloads call directly; each gets
#: ``ms_per_call`` and ``evals_per_call``.  Mixed words get one entry each.
EVALUATORS = (
    "gl_whittaker.givental_eval",
    "gl_whittaker.mellin_barnes_eval",
    "gl_whittaker.mixed_eval_L",
    "gl_whittaker.mixed_eval_R",
    "gl_whittaker.mixed_eval_LL",
    "gl_whittaker.mixed_eval_LR",
    "gl_whittaker.mixed_eval_RL",
    "gl_whittaker.mixed_eval_RR",
    "gl_baxter.baxter_apply",
    "gl_baxter.dual_baxter_apply",
    "gl_baxter.commutation_residual",
    "gl_baxter.lowering_compatibility",
    "gl_baxter.spherical_transform_check_rank2",
    "so_toda.so_givental_eval",
    "so_toda.so_recursive_eval",
    "so_toda.so_baxter_apply",
    "rankin_selberg.bump_friedberg_integral",
    "rankin_selberg.bump_inner_correlation",
    "rankin_selberg.double_step_kernel",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = [
        ("numerics.log_gamma.points", "count"),
        ("numerics.log_gamma.scalar_calls", "count"),
        ("numerics.log_gamma.self_s", "s"),
        ("numerics.log_gamma.ns_per_point", "ns"),
        ("numerics.log_gamma.share", "1"),
        ("numerics.macdonald.calls", "count"),
        ("numerics.macdonald.points", "count"),
        ("numerics.macdonald.self_s", "s"),
        ("numerics.macdonald.us_per_point", "us"),
        ("numerics.macdonald.errors", "count"),
        ("numerics.macdonald.share", "1"),
        ("quadrature.calls", "count"),
        ("quadrature.evals", "count"),
        ("quadrature.evals_per_call", "count"),
        ("quadrature.integrand_batches", "count"),
        ("quadrature.integrand_s", "s"),
        ("quadrature.self_s", "s"),
        ("quadrature.ns_per_eval", "ns"),
        ("quadrature.unconverged", "count"),
        ("quadrature.budget_exceeded", "count"),
        ("quadrature.share", "1"),
    ]
    out += [(f"quadrature.evals.d{d}", "count") for d in DIMS]
    out += [(f"quadrature.ns_per_eval.d{d}", "ns") for d in DIMS]
    for layer in OTHER_LAYERS:
        out += [
            (f"{layer}.calls", "count"),
            (f"{layer}.s", "s"),
            (f"{layer}.self_s", "s"),
            (f"{layer}.share", "1"),
        ]
    for name in EVALUATORS:
        out += [(f"{name}.ms_per_call", "ms"), (f"{name}.evals_per_call", "count")]
    out.append(("trace.overhead_frac", "1"))
    return out


class _Frame:
    __slots__ = ("index", "name", "layer", "start", "child", "evals", "own_evals", "dim")

    def __init__(self, index, name, layer, start):
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.evals = 0
        self.own_evals = 0
        self.dim = 0


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.case = -1
        self.spans: list[tuple] = []
        self._names: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._plan: list[tuple[object, str, object, object]] = []
        self._depth = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.group_self = defaultdict(float)
        self.count = defaultdict(int)
        self.dim_self = defaultdict(float)
        self.dim_evals = defaultdict(int)
        self.top = defaultdict(lambda: [0, 0.0, 0])  # name -> calls, seconds, evals

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(len(self.spans), name, layer, time.perf_counter())
        self.spans.append((self._names.setdefault(name, len(self._names)), parent, self.case))
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        dur = end - frame.start
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        name_id, parent, case = self.spans[frame.index]
        self.spans[frame.index] = (name_id, frame.start, end, parent, case)
        self.layer_self[frame.layer] += dur - frame.child
        self._depth[frame.layer] -= 1
        if self._depth[frame.layer] == 0:
            self.layer_incl[frame.layer] += dur
            self.layer_calls[frame.layer] += 1
        if self._stack:
            up = self._stack[-1]
            up.child += dur
            up.evals += frame.evals
        else:
            stats = self.top[frame.name]
            stats[0] += 1
            stats[1] += dur
            stats[2] += frame.evals
        return dur

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        group = _GROUP.get(name)
        quadrature = layer == "quadrature" and name in _QUADRATURE
        span_name = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = span_name
            if name == "mixed_eval":
                word = kwargs.get("word", args[0] if args else "")
                label = f"{span_name}_{''.join(word)}"
            caller = tracer._stack[-1] if tracer._stack else None
            outer_group = group is not None and tracer._depth["group:" + group] == 0
            if quadrature and _outer_call(caller):
                args = (tracer._wrap_integrand(args[0], caller),) + args[1:]
            if group is not None:
                tracer._depth["group:" + group] += 1
                _count_points(tracer.count, name, args, outer_group)
            frame = tracer._enter(label, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if quadrature and _outer_call(caller) and type(exc).__name__ == "BudgetExceeded":
                    tracer.count["quadrature.budget_exceeded"] += 1
                if group == "macdonald" and outer_group:
                    tracer.count["macdonald.errors"] += 1
                raise
            finally:
                self_before = tracer.layer_self[layer]
                tracer._exit(frame)
                if group is not None:
                    tracer._depth["group:" + group] -= 1
                    tracer.group_self[group] += tracer.layer_self[layer] - self_before
                if quadrature:
                    self_time = tracer.layer_self[layer] - self_before
                    tracer.dim_self[frame.dim] += self_time
                    tracer.dim_evals[frame.dim] += frame.own_evals
            if quadrature and _outer_call(caller) and getattr(result, "converged", True) is False:
                tracer.count["quadrature.unconverged"] += 1
            return result

        return wrapper

    def _wrap_integrand(self, f, caller):
        owner = _layer_of(getattr(f, "__module__", "")) or (caller.layer if caller else "bench")
        span_name = f"{owner}.integrand"
        tracer = self

        def integrand(points):
            quad = tracer._stack[-1]
            rows = points.shape[0]
            quad.own_evals += rows
            quad.evals += rows
            quad.dim = points.shape[1]
            tracer.count["quadrature.integrand_batches"] += 1
            frame = tracer._enter(span_name, owner)
            try:
                return f(points)
            finally:
                tracer.count["quadrature.integrand_s"] += tracer._exit(frame)

        return integrand

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer boundary in the package."""
        if not self._plan:
            self._plan = self._bindings()
        for site, attr, _, wrapper in self._plan:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original, _ in self._plan:
            setattr(site, attr, original)

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        package = importlib.import_module("toda_whittaker")
        modules = {layer: importlib.import_module(f"toda_whittaker.{layer}") for layer in LAYERS}
        sites = list(modules.values()) + [package]
        plan = []
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ())) + list(_PRIVATE.get(layer, ()))
            for name in names:
                fn = getattr(module, name)
                if name in _SKIP or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for site in sites:
                    for attr, value in vars(site).items():
                        if value is fn:
                            plan.append((site, attr, fn, wrapper))
        return plan

    # -- results -------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics; shares are self time over ``traced_s``."""
        c = self.count
        total = max(traced_s, 1e-12)
        lg_points = c["log_gamma.points"] + c["log_gamma.scalar_calls"]
        mk_points = c["macdonald.points"]
        evals = sum(self.dim_evals.values())
        q_self = self.layer_self["quadrature"]
        q_calls = self.layer_calls["quadrature"]
        m = {
            "numerics.log_gamma.points": c["log_gamma.points"],
            "numerics.log_gamma.scalar_calls": c["log_gamma.scalar_calls"],
            "numerics.log_gamma.self_s": self.group_self["log_gamma"],
            "numerics.log_gamma.ns_per_point": _ratio(self.group_self["log_gamma"] * 1e9, lg_points),
            "numerics.log_gamma.share": self.group_self["log_gamma"] / total,
            "numerics.macdonald.calls": c["macdonald.calls"],
            "numerics.macdonald.points": mk_points,
            "numerics.macdonald.self_s": self.group_self["macdonald"],
            "numerics.macdonald.us_per_point": _ratio(self.group_self["macdonald"] * 1e6, mk_points),
            "numerics.macdonald.errors": c["macdonald.errors"],
            "numerics.macdonald.share": self.group_self["macdonald"] / total,
            "quadrature.calls": q_calls,
            "quadrature.evals": evals,
            "quadrature.evals_per_call": _ratio(evals, q_calls),
            "quadrature.integrand_batches": c["quadrature.integrand_batches"],
            "quadrature.integrand_s": c["quadrature.integrand_s"],
            "quadrature.self_s": q_self,
            "quadrature.ns_per_eval": _ratio(q_self * 1e9, evals),
            "quadrature.unconverged": c["quadrature.unconverged"],
            "quadrature.budget_exceeded": c["quadrature.budget_exceeded"],
            "quadrature.share": q_self / total,
        }
        for d in DIMS:
            m[f"quadrature.evals.d{d}"] = self.dim_evals[d]
            m[f"quadrature.ns_per_eval.d{d}"] = _ratio(self.dim_self[d] * 1e9, self.dim_evals[d])
        for layer in OTHER_LAYERS:
            m[f"{layer}.calls"] = self.layer_calls[layer]
            m[f"{layer}.s"] = self.layer_incl[layer]
            m[f"{layer}.self_s"] = self.layer_self[layer]
            m[f"{layer}.share"] = self.layer_self[layer] / total
        for name in EVALUATORS:
            calls, seconds, ev = self.top.get(name, (0, 0.0, 0))
            m[f"{name}.ms_per_call"] = _ratio(seconds * 1e3, calls)
            m[f"{name}.evals_per_call"] = _ratio(ev, calls)
        m["trace.overhead_frac"] = traced_s / max(untraced_s, 1e-12) - 1.0
        return m

    def write(self, path: str, meta: dict) -> None:
        """Write every span as ``[name, start, end, parent, case]``; times are
        seconds from the first span, ``parent`` indexes this list (-1 for a
        span the benchmark opened directly)."""
        names = sorted(self._names, key=self._names.get)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names[n], round(s - t0, 9), round(e - t0, 9), p, k]
            for n, s, e, p, k in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start", "end", "parent", "case"], spans=rows),
                      fh, separators=(",", ":"))


def _outer_call(caller) -> bool:
    return caller is None or caller.layer != "quadrature"


def _count_points(count, name, args, outer_group) -> None:
    if name == "log_gamma_array":
        count["log_gamma.points"] += _size(args[0])
    elif name == "log_gamma":
        if outer_group:
            count["log_gamma.scalar_calls"] += 1
    elif name in ("_macdonald_grid", "_macdonald_pairs"):
        count["macdonald.points"] += _size(args[1])
    if outer_group and name in ("_macdonald_grid", "_macdonald_pairs", "macdonald_k"):
        count["macdonald.calls"] += 1


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


def _layer_of(module_name: str) -> str | None:
    prefix = "toda_whittaker."
    if module_name.startswith(prefix) and module_name[len(prefix):] in LAYERS:
        return module_name[len(prefix):]
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
