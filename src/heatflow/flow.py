"""Transport along the interpolation flow dS_t/dt = grad V_t(S_t).

Forward integration moves mass from the target measure toward gamma;
integrating the same vector field backward from the truncation horizon
t_max realizes the inverse map T approx S_{t_max}^{-1}, which pushes gamma
onto e^{-V} dgamma up to a truncation error of e^{-t_max} sup|grad V|
(the drift obeys |grad V_t| <= e^{-t} sup|grad V|).

One classic RK4 loop integrates the state (z, J) on a grid uniform in the
angle theta, e^{-t} = cos theta, where the flow's point is cos theta x +
sin theta Z.  The fields dz/dtheta = tan theta grad V_t(z) and dJ/dtheta =
tan theta D^2 V_t(z) J are smooth on the closed interval (in t the drift
has a sqrt(t) singularity at t = 0) and vanish at theta = 0.  Every stage
off theta = 0 is one semigroup pass at t = -log cos theta: `drift`, or
`drift_and_hess_vt` when the Jacobian (else None) rides along; a stage at
theta = 0 makes none.  Backward runs negate the step.  Points come as
(N, dim) batches only; a (dim,) array raises ValueError.

Rows of a batch never interact, so `pushforward_samples` cuts its rows
into spans of at most MAX_SPAN_ROWS rows, their count a multiple of the
CPUs the process may use, and maps them on those CPUs (forked worker
processes); the outputs do not depend on the span sizes or the worker
count.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DensityUnderflowError, HeatflowError
from .semigroup import SemigroupEvaluator, _as_batch

MAX_SPAN_ROWS = 8192    # rows in one span of pushforward_samples, at most


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray                   # (M,)
    states: np.ndarray                  # (M, N, dim)
    jacobians: Optional[np.ndarray]     # (M, N, dim, dim) or None

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class TransportResult:
    point: np.ndarray
    error_bound: Optional[float]
    certified: bool


@dataclass(frozen=True)
class PushforwardSamples:
    inputs: np.ndarray
    outputs: np.ndarray
    jacobian_norms: Optional[np.ndarray]
    error_bound: Optional[float]
    certified: bool
    failed_indices: np.ndarray


def map_table(samples: "PushforwardSamples") -> list[dict]:
    """JSON-ready records (input, output, jacobian_norm, error_bound)."""
    out = []
    for i in range(samples.inputs.shape[0]):
        out.append({
            "input": samples.inputs[i].tolist(),
            "output": samples.outputs[i].tolist(),
            "jacobian_norm": (None if samples.jacobian_norms is None
                              else float(samples.jacobian_norms[i])),
            "error_bound": None if i in samples.failed_indices else samples.error_bound,
        })
    return out


# The (integrator, inputs, with_jacobian) whose spans this thread maps: set
# by the pool initializer in a worker, which under fork inherits it rather
# than unpickling it (potentials are closures), or around the builtin map
# in the caller.
_span_job = threading.local()


def _set_span_job(job) -> None:
    _span_job.job = job


def _transport_span(span: tuple[int, int]):
    """transport_batch over the rows [lo, hi) of the current job's inputs."""
    fi, inputs, with_jacobian = _span_job.job
    lo, hi = span
    return fi.transport_batch(inputs[lo:hi], with_jacobian=with_jacobian)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _span_map(job, workers: int):
    """A map function that applies _transport_span to spans of `job`.

    With workers > 1 it is the map of a pool of that many forked processes;
    it is the builtin map when workers is 1, when the "fork" start method
    is unavailable or when this process is a daemon (which may not have
    children).  A worker's exception reaches the caller as raised; a worker
    that dies raises HeatflowError.  No worker outlives the block.
    """
    if workers > 1:
        import multiprocessing
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_set_span_job, initargs=(job,))
            try:
                yield pool.map
            except BrokenProcessPool as exc:
                raise HeatflowError(f"a transport worker process died: {exc}") from exc
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            return
    _set_span_job(job)
    try:
        yield map
    finally:
        _set_span_job(None)


def _axpy(y, a, k):
    """The state y + a k, componentwise; None components stay None, and a
    field k of None (a zero one) leaves y as it is."""
    if k is None:
        return y
    return tuple(None if yi is None else yi + a * ki for yi, ki in zip(y, k))


def _time(theta):
    """t = -log cos theta, written with 1 - cos theta = 2 sin^2(theta/2) so
    small angles keep their digits."""
    return -np.log1p(-2.0 * np.sin(0.5 * theta) ** 2)


@dataclass(frozen=True)
class FlowIntegrator:
    """Time-stepping engine for the flow and its variational equation.

    Classic RK4 with n_steps steps, uniform in the angle theta (e^{-t} =
    cos theta); backward transport starts at the truncation horizon t_max.
    """

    evaluator: SemigroupEvaluator
    t_max: float = 12.0
    n_steps: int = 600

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (np.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError("t_max must be finite and >= 0")

    # -- the vector field and its one stepper ----------------------------

    def _field(self, y, t: float):
        """(tan theta, (dz/dt, dJ/dt or None)) at y = (z, J or None), whose
        product is the theta-field; (0, None) at t = 0.  tan theta comes from t,
        as the pass's cos and sin do, so |dz/dtheta| <= sin theta sup|grad V|."""
        if t == 0.0:
            return 0.0, None
        z, J = y
        if J is None:
            k = self.evaluator.drift(z, t), None
        else:
            dz, H = self.evaluator.drift_and_hess_vt(z, t)
            k = dz, np.einsum("nde,nef->ndf", H, J)
        return math.sqrt(math.expm1(2.0 * t)), k

    def _rk4(self, z0, grid: np.ndarray, with_jac: bool, record: bool = False):
        """RK4 for the state (z, J) over the angle grid.

        J starts at the identity when `with_jac`, else stays None.  Returns
        the final state, or the states at every grid angle when `record`.
        """
        z = np.array(z0, dtype=float)
        n, dim = z.shape
        y = (z, np.broadcast_to(np.eye(dim), (n, dim, dim)).copy() if with_jac else None)
        path = [y]
        t, mid = _time(grid).tolist(), _time(0.5 * (grid[:-1] + grid[1:])).tolist()
        for i, h in enumerate(np.diff(grid).tolist()):
            a1, k1 = self._field(y, t[i])
            a2, k2 = self._field(_axpy(y, 0.5 * h * a1, k1), mid[i])
            _, k3 = self._field(_axpy(y, 0.5 * h * a2, k2), mid[i])
            a4, k4 = self._field(_axpy(y, h * a2, k3), t[i + 1])
            for a, k in ((h * a1 / 6.0, k1), (h * a2 / 3.0, k2),
                         (h * a2 / 3.0, k3), (h * a4 / 6.0, k4)):
                y = _axpy(y, a, k)
            if record:
                path.append(y)
        return path if record else y

    def _grid(self, t0: float, t1: float) -> np.ndarray:
        """n_steps + 1 angles from theta(t0) to theta(t1), uniform.  atan2
        keeps both ends precise (arccos(e^{-t}) loses digits at small t)
        and theta(0) = 0 exact."""
        t = np.array([t0, t1])
        th0, th1 = np.arctan2(np.sqrt(-np.expm1(-2.0 * t)), np.exp(-t))
        return np.linspace(th0, th1, self.n_steps + 1)

    # -- public operations --------------------------------------------------

    def forward_flow(self, x: np.ndarray, t0: float, t1: float,
                     with_jacobian: bool = False) -> TrajectoryRecord:
        """Trajectory of the flow from time t0 to t1 >= t0, states recorded."""
        if t1 < t0 or t0 < 0:
            raise ValueError("need 0 <= t0 <= t1")
        xb = _as_batch(x, self.evaluator.potential.dim)
        grid = self._grid(t0, t1)
        path = self._rk4(xb, grid, with_jacobian, record=True)
        jacs = np.asarray([J for _, J in path]) if with_jacobian else None
        times = _time(grid)
        times[0], times[-1] = t0, t1
        return TrajectoryRecord(times, np.asarray([z for z, _ in path]), jacs)

    def transport_batch(self, y: np.ndarray, with_jacobian: bool = False):
        """Backward integration from t_max to 0 for a batch of points.

        Returns (points, jacobians or None, failed_mask).  A sample fails
        when its density falls below the evaluator's floor at some stage or
        its state ends non-finite; either way it is returned at its input,
        with an identity Jacobian, and flagged rather than dropped, so
        indices stay aligned.  The floor check names the rows it rejects:
        those rows are dropped and the survivors rerun as one batch, so
        every other sample is bit-identical to a batch without the failures.
        """
        yb = _as_batch(y, self.evaluator.potential.dim)
        n, dim = yb.shape
        grid = self._grid(self.t_max, 0.0)
        z = yb.copy()
        J = np.broadcast_to(np.eye(dim), (n, dim, dim)).copy() if with_jacobian else None
        failed = np.ones(n, dtype=bool)
        live = np.arange(n)
        while live.size:
            try:
                z_live, J_live = self._rk4(yb[live], grid, with_jacobian)
            except DensityUnderflowError as exc:
                if not exc.rows:
                    raise
                live = np.delete(live, exc.rows)
                continue
            ok = np.all(np.isfinite(z_live), axis=1)
            if with_jacobian:
                ok &= np.all(np.isfinite(J_live), axis=(1, 2))
                J[live[ok]] = J_live[ok]
            z[live[ok]] = z_live[ok]
            failed[live[ok]] = False
            break
        return z, J, failed

    def truncation_error_bound(self) -> Optional[float]:
        g = self.evaluator.potential.grad_sup_norm
        if g is None:
            return None
        return float(np.exp(-self.t_max) * g)

    def inverse_transport(self, y: np.ndarray) -> TransportResult:
        """T(y) approx S_{t_max}^{-1}(y): the map pushing gamma onto e^{-V} dgamma.

        When the potential declares no gradient bound, or in dims >= 2, the
        result is still returned but not certified (see pushforward_samples).
        """
        z, _, failed = self.transport_batch(y)
        if failed.any():
            raise DensityUnderflowError("drift underflow along the trajectory")
        bound = self.truncation_error_bound() if z.shape[1] == 1 else None
        return TransportResult(z, bound, bound is not None)

    def jacobian_along_flow(self, y: np.ndarray):
        """(J, opnorms): spatial Jacobians of the inverse transport at the
        rows of y and their operator norms."""
        _, J, failed = self.transport_batch(y, with_jacobian=True)
        if failed.any():
            raise DensityUnderflowError("drift underflow along the trajectory")
        return J, np.linalg.svd(J, compute_uv=False)[..., 0]

    def pushforward_samples(self, count: int, seed: int,
                            with_jacobian: bool = True) -> PushforwardSamples:
        """Map `count` gamma-samples drawn from `seed` through the transport.

        The rows are cut into contiguous spans of about equal size, at most
        MAX_SPAN_ROWS rows each.  The span count is the least multiple of
        the CPU count in the process's affinity mask that allows this, so
        every worker maps about as many rows, but never more than `count`.
        Each span is one transport_batch call, run in one of
        min(CPUs, spans) worker processes started with "fork", which
        inherit the integrator and inputs; only span bounds and results
        cross the pipe.  The spans run in this process instead when one CPU
        is available, the "fork" start method is not, or this process is a
        daemon.  Rows never interact, so the result is deterministic for
        fixed (count, seed) and independent of the span sizes and of the
        worker count, bit for bit.  Per-sample failures are flagged by
        index, never dropped; a worker that dies raises HeatflowError.  The
        run is certified only in dim 1, with a truncation bound and no
        failed sample: a failed sample comes back at its input, not within
        the bound of T(y).  In dims >= 2 nothing bounds the quadrature
        error (2-d bump at 24^2 nodes: 3.4e-3 by the Z rule alone, 2.5e-7
        with the y rule, against a truncation bound of 7.5e-6).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        dim = self.evaluator.potential.dim
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((count, dim))
        outputs = np.empty_like(inputs)
        norms = np.empty(count) if with_jacobian else None
        failed = np.zeros(count, dtype=bool)
        workers = _worker_count()
        # ceil(count / MAX_SPAN_ROWS) spans, rounded up to a multiple of the
        # worker count so that every worker maps the same number of rows
        n_spans = -(-count // MAX_SPAN_ROWS)
        n_spans = min(count, -(-n_spans // workers) * workers)
        edges = [count * i // n_spans for i in range(n_spans + 1)]
        spans = list(zip(edges[:-1], edges[1:]))
        with _span_map((self, inputs, with_jacobian), min(workers, n_spans)) as span_map:
            for (lo, hi), (z, J, bad) in zip(spans, span_map(_transport_span, spans)):
                outputs[lo:hi] = z
                failed[lo:hi] = bad
                if with_jacobian:
                    norms[lo:hi] = np.linalg.svd(J, compute_uv=False)[..., 0]
        bound = self.truncation_error_bound() if dim == 1 else None
        return PushforwardSamples(inputs, outputs, norms, bound,
                                  bound is not None and not failed.any(),
                                  np.flatnonzero(failed))
