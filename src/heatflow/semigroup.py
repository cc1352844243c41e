"""Smoothing semigroup P_t f(x) = E f(e^{-t} x + sqrt(1-e^{-2t}) Z) for f = e^{-V}.

One evaluator owns a potential and a quadrature scheme.  log f_t, grad V_t
and D^2 V_t are weighted sums over the same Gauss-Hermite nodes, so one
private pass computes them all; the public methods are views that apply
their final scaling, and ratios such as the drift grad(-log f_t) benefit
from correlated error cancellation.  Weighted sums over the density are
max-shifted in log space, so potentials unbounded below (quadratic tails
of the wrong sign) do not overflow.

Batched evaluation: x may be a single point of shape (dim,) or a batch
(N, dim); outputs follow suit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DensityUnderflowError, HermiteAtTimeZeroError
from .potentials import Potential, sym_eig_bounds
from .quadrature import QuadratureScheme

LOG_FLOOR_DEFAULT = 1e-300


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.shape[0] == dim:
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == dim:
        return x, False
    raise ValueError(f"point batch must have shape (dim,) or (N, dim) with dim={dim}")


def ou_expectation(fn, x: np.ndarray, t: float, scheme: QuadratureScheme) -> np.ndarray:
    """E fn(e^{-t} x + sqrt(1-e^{-2t}) Z) for an arbitrary integrand fn.

    fn maps (..., dim) -> (...).  At t = 0 this is fn(x) exactly.
    """
    xb, single = _as_batch(x, scheme.dim)
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        out = fn(xb)
        return out[0] if single else out
    e = np.exp(-t)
    s = np.sqrt(-np.expm1(-2.0 * t))
    nodes, w = scheme.nodes_weights()
    pts = e * xb[:, None, :] + s * nodes[None, :, :]
    out = fn(pts) @ w
    return out[0] if single else out


@dataclass(frozen=True)
class SemigroupEvaluator:
    """Evaluates f_t = P_t e^{-V}, its derivatives and the flow drift.

    floor: estimates at or below this density, or undefined ones (V = +inf
    at every node), raise DensityUnderflowError rather than silently
    flushing to zero; the drift divides by f_t and a silent zero would
    poison trajectories.  The error's `rows` names every offending row of
    the batch, so a caller can drop exactly those rows and rerun the rest
    (see FlowIntegrator.transport_batch).  Immutable, safe to share.
    """

    potential: Potential
    scheme: QuadratureScheme
    floor: float = LOG_FLOOR_DEFAULT

    def __post_init__(self):
        if self.scheme.dim != self.potential.dim:
            raise ValueError("scheme dimension must match potential dimension")
        nodes, w = self.scheme.nodes_weights()
        with np.errstate(divide="ignore"):
            logw = np.log(w)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_logw", logw)

    # -- the shared-node pass ---------------------------------------------

    def _relative_density(self, pts: np.ndarray,
                          logw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, m): u = w * f(pts) / e^m rowwise, m the rowwise log maximum.

        A helper of its own so the (N, K) log-weight temporary is freed
        before the pass allocates the potential's gradient at the nodes.
        """
        a = logw[None, :] - self.potential.value(pts)
        m = np.max(a, axis=1)
        with np.errstate(invalid="ignore"):
            # a row with V = +inf at every node gives -inf - (-inf) = NaN,
            # which the caller's floor test flags
            u = np.exp(a - m[:, None])
        return u, m

    def _moments(self, xb: np.ndarray, t: float, grad: bool = False,
                 hess_route: str | None = None):
        """One pass over the nodes e^{-t} x + s Z: (e, m, den, G, H).

        With u = w f(pts) / e^m (max-shifted weights) and e = e^{-t}:
        den = sum u, so f_t = e^m den; G = sum u grad V (if `grad`); H is
        sum u (Z Z^T - Id) on the hermite route or sum u (grad V grad V^T -
        D^2 V) on the commute route (None without a route).  At t = 0 the
        point x is its own single node with unit weight, so every sum is V
        and its derivatives evaluated exactly at x.  Raises
        DensityUnderflowError, naming the rows, when f_t is at or below
        the floor or undefined for any row.
        """
        if hess_route not in (None, "commute", "hermite"):
            raise ValueError(f"unknown hessian route {hess_route!r}")
        if hess_route == "hermite" and t <= 0.0:
            raise HermiteAtTimeZeroError("hermite route requires t > 0")
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t == 0.0:
            e, pts, logw = 1.0, xb[:, None, :], np.zeros(1)
        else:
            e = float(np.exp(-t))
            s = float(np.sqrt(-np.expm1(-2.0 * t)))
            pts = e * xb[:, None, :] + s * self._nodes[None, :, :]
            logw = self._logw
        u, m = self._relative_density(pts, logw)
        den = np.sum(u, axis=1)
        # NaN-safe: a row with zero density at every node has log f_t = NaN
        low = ~(m + np.log(den) > np.log(self.floor))
        if np.any(low):
            raise DensityUnderflowError(
                "smoothed density at or below floor; quadrature range too "
                "small for the queried tail", rows=np.flatnonzero(low))
        G = H = None
        if grad or hess_route == "commute":
            gv = self.potential.grad(pts)
            if grad:
                G = np.einsum("nk,nkd->nd", u, gv)
        if hess_route == "hermite":
            dim = self.potential.dim
            outer = (self._nodes[:, :, None] * self._nodes[:, None, :]
                     - np.eye(dim)[None, :, :])
            H = np.einsum("nk,kde->nde", u, outer)
        elif hess_route == "commute":
            hv = self.potential.hess(pts)
            d2f = gv[..., :, None] * gv[..., None, :] - hv
            H = np.einsum("nk,nkde->nde", u, d2f)
        return e, m, den, G, H

    # -- public surface: views over the pass ----------------------------------

    def log_pt_f(self, x: np.ndarray, t: float) -> np.ndarray:
        xb, single = _as_batch(x, self.potential.dim)
        _, m, den, _, _ = self._moments(xb, t)
        out = m + np.log(den)
        return out[0] if single else out

    def pt_f(self, x: np.ndarray, t: float) -> np.ndarray:
        """f_t(x); exact f(x) at t = 0, quadrature estimate otherwise."""
        return np.exp(self.log_pt_f(x, t))

    def v_t(self, x: np.ndarray, t: float) -> np.ndarray:
        """-log f_t(x)."""
        return -self.log_pt_f(x, t)

    def grad_pt_f(self, x: np.ndarray, t: float) -> np.ndarray:
        """grad f_t(x) = -e^{-t} E[(f grad V)(e^{-t} x + s Z)], shared nodes."""
        xb, single = _as_batch(x, self.potential.dim)
        e, m, _, G, _ = self._moments(xb, t, grad=True)
        out = -e * np.exp(m)[:, None] * G
        return out[0] if single else out

    def hess_pt_f(self, x: np.ndarray, t: float, route: str = "commute") -> np.ndarray:
        """Hessian of f_t by either route.

        route "commute": e^{-2t} E[(D^2 f)(pts)] with D^2 f = f (grad V grad V^T - D^2 V);
        needs Hessian access on the potential, valid at every t >= 0.
        route "hermite": E[(Z Z^T - Id) f(pts)] / (e^{2t} - 1); only samples V,
        so it works for rough potentials, but requires t > 0.
        """
        xb, single = _as_batch(x, self.potential.dim)
        e, m, _, _, H = self._moments(xb, t, hess_route=route)
        if route == "hermite":
            out = H * (np.exp(m) / np.expm1(2.0 * t))[:, None, None]
        else:
            out = (e * e) * np.exp(m)[:, None, None] * H
        return out[0] if single else out

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """grad V_t(x) = -grad f_t / f_t, from one shared-node pass.

        Uses the gradient-commutation form, whose quadrature value obeys
        |drift| <= e^{-t} sup|grad V| identically (positive weights average
        grad V pointwise), and which stays finite in the t -> 0 limit.
        """
        xb, single = _as_batch(x, self.potential.dim)
        e, _, den, G, _ = self._moments(xb, t, grad=True)
        out = e * G / den[:, None]
        return out[0] if single else out

    def drift_and_hess_vt(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(grad V_t, D^2 V_t) sharing a single quadrature pass.

        D^2 V_t = -D^2 f_t / f_t + (grad f_t / f_t) (grad f_t / f_t)^T, with
        D^2 f_t from the hermite route (it only samples V, so it is correct
        for rough potentials whose pointwise Hessian misses kink curvature).
        At t = 0 no route is used: D^2 V_0 is the potential's own Hessian.
        """
        xb, single = _as_batch(x, self.potential.dim)
        hess_route = None if t == 0.0 else "hermite"
        e, _, den, G, H = self._moments(xb, t, grad=True, hess_route=hess_route)
        grad_ratio = -e * G / den[:, None]
        if hess_route is None:
            hess_vt = self.potential.hess(xb)
        else:
            hess_ratio = H / (den * np.expm1(2.0 * t))[:, None, None]
            hess_vt = -hess_ratio + grad_ratio[..., :, None] * grad_ratio[..., None, :]
        drift = -grad_ratio
        return (drift[0], hess_vt[0]) if single else (drift, hess_vt)

    def log_concavity(self, x: np.ndarray, t: float) -> np.ndarray:
        """Largest eigenvalue of D^2 log f_t(x) = -D^2 V_t(x) pointwise."""
        _, hess_vt = self.drift_and_hess_vt(x, t)
        _, top = sym_eig_bounds(-hess_vt)
        return top


def concavity_profile(e: SemigroupEvaluator, grid, t: float) -> float:
    """lam_hat(t): sup over the grid of the top eigenvalue of D^2 log f_t.

    f_t is -lam_hat(t)-log-concave on the grid.  `grid` may be a GridSpec
    or an (N, dim) array of points.
    """
    pts = grid.points() if hasattr(grid, "points") else np.asarray(grid, float)
    return float(np.max(e.log_concavity(pts, t)))
