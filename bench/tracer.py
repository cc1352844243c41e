"""Span tracing around the public entry points of each heatflow module.

`Tracer.install()` replaces, at run time, the public functions and methods
listed in `ENTRY_POINTS` with wrappers that record a span (layer, name,
start, end, parent) and update counters derived from argument and result
shapes.  Every module-level reference to a replaced function is rebound,
so `cli`'s `from .potentials import from_config` is traced too.  Nothing
in the package is edited; `uninstall()` restores the originals.

Spans are kept in memory while a job runs.  A span's self time is its
duration minus the time covered by its children, so the per-layer self
times of one job add up to the duration of its `cli.main` root span.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "potentials", "semigroup", "flow", "bounds",
          "diagnostics", "cli")

# layer -> (module-level functions, {class: methods})
ENTRY_POINTS = {
    "quadrature": (("gauss_hermite_1d", "gaussian_expectation_adaptive",
                    "gaussian_expectation_mc"),
                   {"QuadratureScheme": ("nodes_weights",)}),
    "potentials": (("from_config", "from_family", "normalize", "log_mass",
                    "mollify", "lipschitz_regularize", "tabulated",
                    "validate_metadata", "caffarelli_reduction"),
                   {"Potential": ("value", "__call__", "grad", "hess")}),
    "semigroup": (("concavity_profile", "ou_expectation"),
                  {"SemigroupEvaluator": ("log_pt_f", "grad_pt_f", "hess_pt_f",
                                          "drift", "drift_and_hess_vt",
                                          "log_concavity")}),
    "flow": (("map_table",),
             {"FlowIntegrator": ("transport_batch", "pushforward_samples",
                                 "forward_flow", "inverse_transport",
                                 "jacobian_along_flow")}),
    "bounds": (("curvature_profile_value", "oscillation_profile_value",
                "curvature_blowup_time", "switch_time", "profile_integral_split",
                "lipschitz_bound", "curvature_profile", "oscillation_profile",
                "hessian_floor_profile", "combined_profile", "tabulated_profile",
                "simpson_adaptive", "lipschitz_from_profile", "bound_summary",
                "profile_table"), {}),
    "diagnostics": (("rearrangement_map", "monotone_rearrangement_1d",
                     "ks_distance", "empirical_lipschitz", "tail_test",
                     "sharpness_curvature_check", "vt_counterexample_check"),
                    {"TargetCdf": ("__init__",)}),
    "cli": (("main",), {}),
}

# semigroup methods that make one shared-node quadrature pass when t > 0
PASS_METHODS = {"log_pt_f": "other", "grad_pt_f": "other", "hess_pt_f": "hess",
                "drift": "drift", "drift_and_hess_vt": "hess"}


def _rows(x) -> int:
    shape = np.shape(x)
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []      # [layer, name, start, end, parent]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.batch_underflow = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def reset(self):
        self.spans, self._stack = [], []
        self.counts = defaultdict(float)
        self.batch_underflow = False

    def _wrap(self, layer: str, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [layer, name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            out, underflow = None, False
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                underflow = type(exc).__name__ == "DensityUnderflowError"
                raise
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
                if counter is not None:
                    counter(tracer, args, kwargs, out, underflow)

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        import heatflow
        from heatflow import bounds, cli, diagnostics, flow, potentials, quadrature, semigroup
        modules = {"quadrature": quadrature, "potentials": potentials,
                   "semigroup": semigroup, "flow": flow, "bounds": bounds,
                   "diagnostics": diagnostics, "cli": cli}
        namespaces = [heatflow, *modules.values()]
        for layer, (funcs, classes) in ENTRY_POINTS.items():
            mod = modules[layer]
            for name in funcs:
                orig = getattr(mod, name)
                wrapped = self._wrap(layer, name, orig, _COUNTERS.get((layer, name)))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._restore.append((ns, attr, orig))
                            setattr(ns, attr, wrapped)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    orig = cls.__dict__[name]
                    key = f"{cls_name}.{name}"
                    self._restore.append((cls, name, orig))
                    setattr(cls, name, self._wrap(layer, key, orig,
                                                  _COUNTERS.get((layer, name))))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time of the recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name` (children included)."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)


# -- counters, keyed by (layer, function name) -----------------------------
#
# Each counter runs after its span has closed and receives the tracer, the
# call's arguments, its result (None if it raised) and whether it raised
# DensityUnderflowError.

BATCH_SPAN = "FlowIntegrator.transport_batch"


def _count_potential(kind):
    def count(tr, args, kwargs, out, underflow):
        tr.counts[f"potentials.{kind}_calls"] += 1
        tr.counts["potentials.node_evals"] += _rows(args[1] if len(args) > 1 else kwargs["x"])
    return count


def _count_pass(name):
    def count(tr, args, kwargs, out, underflow):
        c = tr.counts
        ev, x = args[0], args[1]
        t = args[2] if len(args) > 2 else kwargs["t"]
        in_batch = any(tr.spans[i][1] == BATCH_SPAN for i in tr._stack)
        if underflow:
            c["semigroup.underflows"] += 1
            if in_batch:
                tr.batch_underflow = True
        if t <= 0.0:
            return
        kind = PASS_METHODS[name]
        n = _rows(x)
        k, dim = ev._nodes.shape
        c[f"semigroup.{kind}_passes"] += 1
        c["semigroup.node_evals"] += n * k
        if in_batch:
            c["flow.semigroup_passes"] += 1
        # arrays the pass materializes: points, log-weights and densities,
        # and the potential's gradient (plus, on the commute route, two
        # Hessian-sized arrays) at every node
        per_node = 2 * dim + 2
        route = args[3] if len(args) > 3 else kwargs.get("route", kwargs.get("hess_route"))
        if kind == "hess" and route == "commute":
            per_node += 2 * dim * dim
        c["semigroup.bytes_computed"] += 8 * n * k * per_node
        g = ev.potential.grad_sup_norm
        if name in ("drift", "drift_and_hess_vt") and out is not None and g:
            drift = out[0] if name == "drift_and_hess_vt" else out
            sup = float(np.max(np.linalg.norm(np.atleast_2d(drift), axis=-1)))
            c["semigroup.drift_bound_ratio_max"] = max(
                c["semigroup.drift_bound_ratio_max"], sup / (math.exp(-t) * g))
    return count


def _count_transport_batch(tr, args, kwargs, out, underflow):
    rows = _rows(args[1] if len(args) > 1 else kwargs["y"])
    tr.counts["flow.transport_batches"] += 1
    tr.counts["flow.rows_mapped"] += rows
    if tr.batch_underflow:
        # the batch restarted as single-row integrations
        tr.counts["flow.serial_retry_rows"] += rows
        tr.batch_underflow = False
    if out is not None:
        tr.counts["flow.failed_rows"] += int(np.sum(out[2]))


def _count_adaptive(tr, args, kwargs, out, underflow):
    if out is not None:
        tr.counts["quadrature.adaptive_nodes"] += out.node_count


def _count_nodes_weights(tr, args, kwargs, out, underflow):
    tr.counts["quadrature.nodes_weights_calls"] += 1


def _count_lipschitz(tr, args, kwargs, out, underflow):
    if out is not None:
        tr.counts["diagnostics.lipschitz_pairs"] += out.pairs_evaluated


_COUNTERS = {
    ("potentials", "value"): _count_potential("value"),
    ("potentials", "__call__"): _count_potential("value"),
    ("potentials", "grad"): _count_potential("grad"),
    ("potentials", "hess"): _count_potential("hess"),
    ("flow", "transport_batch"): _count_transport_batch,
    ("quadrature", "gaussian_expectation_adaptive"): _count_adaptive,
    ("quadrature", "nodes_weights"): _count_nodes_weights,
    ("diagnostics", "empirical_lipschitz"): _count_lipschitz,
    **{("semigroup", m): _count_pass(m) for m in PASS_METHODS},
}
