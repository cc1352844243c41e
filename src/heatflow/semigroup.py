"""Smoothing semigroup P_t f(x) = E f(e^{-t} x + sqrt(1-e^{-2t}) Z) for f = e^{-V}.

One evaluator owns a potential and a quadrature scheme.  log f_t, grad V_t
and D^2 V_t are weighted sums over the same Gauss-Hermite nodes, so one
private pass computes them all; the public methods are views that apply
their final scaling, and ratios such as the drift grad(-log f_t) benefit
from correlated error cancellation.  Weighted sums over the density are
max-shifted in log space, so potentials unbounded below (quadratic tails
of the wrong sign) do not overflow.  The pass runs over bounded blocks of
rows and makes one potential call per block, value and gradient together
(Potential.value_and_grad) when it needs the gradient.

A pass visits only the nodes that can reach its sums: when the potential
declares a finite oscillation c, a node whose weight lies more than
e^{-c} 2^{-53} / K below the heaviest one's is dropped once, when the
evaluator is built (see SemigroupEvaluator).  A 64-node rule keeps 44 of
its nodes for a bump of height 1/2.

Node arrays are dim-major: the points e^{-t} x + s Z of a block are stored
as (dim, rows, K) and reach the potential as an (rows, K, dim) view, so the
shapes and values a potential sees are the usual ones while numpy's inner
loops run over the K nodes rather than over the 1-3 coordinates.  The
weighted sums follow the same rule: the row is the outer loop and K the
contiguous one.  In dim 1 the two layouts are the same memory.

Batched evaluation: x is a batch of points of shape (N, dim), and every
output has the leading N axis.  Every view needs a time t > 0, else ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DensityUnderflowError
from .potentials import Potential, sym_eig_bounds
from .quadrature import QuadratureScheme

DENSITY_FLOOR = 1e-300
# target size of the per-node arrays of one block of rows in the shared-node
# pass: bounded temporaries are reused by the allocator across passes, where
# whole-batch (N, K, dim) arrays are returned to the OS and page-faulted in
# again on every stage
BLOCK_BYTES = 2**19


def _as_batch(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"point batch must have shape (N, dim) with dim={dim}, "
                         f"got {x.shape}")
    return x


def _times(t: float) -> tuple[float, float]:
    """(e^{-t}, sqrt(1 - e^{-2t})) for t > 0; ValueError otherwise."""
    if not t > 0.0:
        raise ValueError(f"time must be > 0, got {t!r}")
    return float(np.exp(-t)), float(np.sqrt(-np.expm1(-2.0 * t)))


def _node_points(x: np.ndarray, e: float, sz_dm: np.ndarray) -> np.ndarray:
    """The points e x + s z for rows x (N, dim) and scaled nodes s z stored
    dim-major (dim, K): an (N, K, dim) view of a C-ordered (dim, N, K) array."""
    xt = np.ascontiguousarray(x.T)[:, :, None]
    return (e * xt + sz_dm[:, None, :]).transpose(1, 2, 0)


def ou_expectation(fn, x: np.ndarray, t: float, scheme: QuadratureScheme) -> np.ndarray:
    """E fn(e^{-t} x + sqrt(1-e^{-2t}) Z) for an arbitrary integrand fn.

    fn maps (..., dim) -> (...); t must be > 0.
    """
    xb = _as_batch(x, scheme.dim)
    e, s = _times(t)
    nodes, w = scheme.nodes_weights()
    pts = e * xb[:, None, :] + s * nodes[None, :, :]
    return fn(pts) @ w


@dataclass(frozen=True)
class SemigroupEvaluator:
    """Evaluates f_t = P_t e^{-V}, its derivatives and the flow drift.

    Estimates at or below DENSITY_FLOOR, or undefined ones (V = +inf at
    every node), raise DensityUnderflowError rather than silently
    flushing to zero; the drift divides by f_t and a silent zero would
    poison trajectories.  The error's `rows` names every offending row of
    the batch, so a caller can drop exactly those rows and rerun the rest
    (see FlowIntegrator.transport_batch).  Immutable, safe to share.

    Kept nodes: when the potential declares a finite oscillation c =
    sup V - inf V, the evaluator keeps exactly the nodes with log-weight
    at least max(log w) - c - log(2^53 K), K the rule's full node count.
    A term w_k e^{-V_k} of a pass is at most e^{c} w_k / w_max times the
    heaviest node's term, so each dropped term is below 2^{-53} / K of
    it and all of them together below 2^{-53} of the density sum: no sum
    moves by more than rounding, the max-shift never comes from a dropped
    node, and the kept weights stay positive, so |drift| <= e^{-t}
    sup|grad V| still holds exactly.  An oscillation understated by delta
    multiplies that dropped-mass bound by e^{delta}.  With no oscillation
    or an infinite one every node is kept, and so is every Monte Carlo
    node, whose weights are all equal.  A negative oscillation raises
    ValueError.
    """

    potential: Potential
    scheme: QuadratureScheme

    def __post_init__(self):
        if self.scheme.dim != self.potential.dim:
            raise ValueError("scheme dimension must match potential dimension")
        c = self.potential.oscillation
        if c is not None and not c >= 0:
            raise ValueError(f"oscillation must be >= 0, got {c!r}")
        nodes, logw = self.scheme.nodes_log_weights()
        if c is not None and np.isfinite(c):
            keep = logw >= np.max(logw) - c - np.log(2.0**53 * logw.size)
            nodes, logw = nodes[keep], logw[keep]
        nodes_dm = np.ascontiguousarray(nodes.T)
        # Z Z^T - Id at every node, stored (dim, dim, K)
        outer = nodes_dm[:, None] * nodes_dm[None, :] - np.eye(self.potential.dim)[..., None]
        object.__setattr__(self, "_nodes", nodes)  # (K, dim), as the scheme gives them
        object.__setattr__(self, "_nodes_dm", nodes_dm)
        object.__setattr__(self, "_logw", logw)
        object.__setattr__(self, "_outer", outer)

    # -- the shared-node pass ---------------------------------------------

    @staticmethod
    def _relative_density(v: np.ndarray,
                          logw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, m) from V at the nodes: u = w e^{-V} / e^m rowwise, m the
        rowwise log maximum of w e^{-V}.  u is computed in v's memory, so v
        must be a fresh array (Potential.value and value_and_grad return
        one: they add the shift)."""
        u = np.subtract(logw, v, out=v)
        m = np.max(u, axis=1)
        with np.errstate(invalid="ignore"):
            # a row with V = +inf at every node gives -inf - (-inf) = NaN,
            # which the caller's floor test flags
            u -= m[:, None]
        return np.exp(u, out=u), m

    def _moments(self, xb: np.ndarray, t: float, grad: bool = False,
                 hess_route: str | None = None):
        """One pass over the nodes e^{-t} x + s Z: (e, m, den, G, H).

        With u = w f(pts) / e^m (max-shifted weights) and e = e^{-t}:
        den = sum u, so f_t = e^m den; G = sum u grad V (if `grad`); H is
        sum u (Z Z^T - Id) on the hermite route or sum u (grad V grad V^T -
        D^2 V) on the commute route (None without a route).  Raises
        ValueError unless t > 0, and DensityUnderflowError, naming every
        offending row, when f_t is at or below the floor or undefined for
        any row.

        Rows go through in blocks sized so every (rows, K, .) temporary
        stays near BLOCK_BYTES; each row's sums do not depend on the block.
        The node arrays of a block are dim-major (see the module docstring).
        """
        if hess_route not in (None, "commute", "hermite"):
            raise ValueError(f"unknown hessian route {hess_route!r}")
        e, s = _times(t)
        sz, logw = s * self._nodes_dm, self._logw
        n, dim = xb.shape
        with_grad = grad or hess_route == "commute"
        m, den = np.empty(n), np.empty(n)
        G = np.empty((n, dim)) if grad else None
        H = None if hess_route is None else np.empty((n, dim, dim))
        step = max(1, BLOCK_BYTES // (8 * logw.size * (2 * dim + 3)))
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            pts = _node_points(xb[rows], e, sz)
            if with_grad:
                v, gv = self.potential.value_and_grad(pts)
                gv = gv.transpose(2, 0, 1)
            else:
                v = self.potential.value(pts)
            u, m[rows] = self._relative_density(v, logw)
            den[rows] = np.sum(u, axis=1)
            if grad:
                G[rows] = np.einsum("nk,dnk->nd", u, gv)
            if hess_route == "hermite":
                H[rows] = np.einsum("nk,dek->nde", u, self._outer)
            elif hess_route == "commute":
                hv = self.potential.hess(pts).transpose(2, 3, 0, 1)
                d2f = gv[:, None] * gv[None, :] - hv
                H[rows] = np.einsum("nk,denk->nde", u, d2f)
        # NaN-safe: a row with zero density at every node has log f_t = NaN
        low = ~(m + np.log(den) > np.log(DENSITY_FLOOR))
        if np.any(low):
            raise DensityUnderflowError(
                "smoothed density at or below floor; quadrature range too "
                "small for the queried tail", rows=np.flatnonzero(low))
        return e, m, den, G, H

    # -- public surface: views over the pass ----------------------------------

    def log_pt_f(self, x: np.ndarray, t: float) -> np.ndarray:
        """log f_t(x) = -V_t(x), a quadrature estimate."""
        _, m, den, _, _ = self._moments(_as_batch(x, self.potential.dim), t)
        return m + np.log(den)

    def grad_pt_f(self, x: np.ndarray, t: float) -> np.ndarray:
        """grad f_t(x) = -e^{-t} E[(f grad V)(e^{-t} x + s Z)], shared nodes."""
        e, m, _, G, _ = self._moments(_as_batch(x, self.potential.dim), t, grad=True)
        return -e * np.exp(m)[:, None] * G

    def hess_pt_f(self, x: np.ndarray, t: float, route: str = "commute") -> np.ndarray:
        """Hessian of f_t by either route.

        route "commute": e^{-2t} E[(D^2 f)(pts)] with D^2 f = f (grad V grad V^T - D^2 V);
        needs Hessian access on the potential.
        route "hermite": E[(Z Z^T - Id) f(pts)] / (e^{2t} - 1); only samples V,
        so it works for rough potentials.
        """
        e, m, _, _, H = self._moments(_as_batch(x, self.potential.dim), t,
                                      hess_route=route)
        if route == "hermite":
            return H * (np.exp(m) / np.expm1(2.0 * t))[:, None, None]
        return (e * e) * np.exp(m)[:, None, None] * H

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """grad V_t(x) = -grad f_t / f_t, from one shared-node pass.

        Uses the gradient-commutation form, whose quadrature value obeys
        |drift| <= e^{-t} sup|grad V| identically (positive weights average
        grad V pointwise).
        """
        e, _, den, G, _ = self._moments(_as_batch(x, self.potential.dim), t, grad=True)
        return e * G / den[:, None]

    def drift_and_hess_vt(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(grad V_t, D^2 V_t) sharing a single quadrature pass.

        D^2 V_t = -D^2 f_t / f_t + (grad f_t / f_t) (grad f_t / f_t)^T, with
        D^2 f_t from the hermite route (it only samples V, so it is correct
        for rough potentials whose pointwise Hessian misses kink curvature).
        """
        e, _, den, G, H = self._moments(_as_batch(x, self.potential.dim), t,
                                        grad=True, hess_route="hermite")
        drift = e * G / den[:, None]
        hess_ratio = H / (den * np.expm1(2.0 * t))[:, None, None]
        return drift, drift[:, :, None] * drift[:, None, :] - hess_ratio

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
