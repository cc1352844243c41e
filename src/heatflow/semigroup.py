"""Smoothing semigroup P_t f(x) = E f(e^{-t} x + sqrt(1-e^{-2t}) Z) for f = e^{-V}.

One evaluator owns a potential and a quadrature scheme.  log f_t, grad V_t
and D^2 V_t are weighted sums over the same nodes, so one private pass
computes them all; the public methods are views that apply their final
scaling, and ratios such as the drift grad(-log f_t) benefit from
correlated error cancellation.  A pass takes one of two rules, chosen from
its time t alone (s = sqrt(1 - e^{-2t}) = sin theta below):

* The Z rule, over the Gauss-Hermite nodes Z of the scheme: the points
  e^{-t} x + s Z.  Weighted sums over the density are max-shifted in log
  space, so potentials unbounded below (quadratic tails of the wrong sign)
  do not overflow.  The pass runs over bounded blocks of rows and makes one
  potential call per block, value and gradient together
  (Potential.value_and_grad) when it needs the gradient.  It visits only
  the nodes that can reach its sums: when the potential declares a finite
  oscillation c, a node whose weight lies more than e^{-c} 2^{-53} / K
  below the heaviest one's is dropped once, when the evaluator is built.
  A 64-node rule keeps 44 of its nodes for a bump of height 1/2.

* The y rule, for a potential that declares a locus (c, r) (a bump), once
  s >= LOCUS_SWITCH r.  For a target of width r the Z integrand has width
  r / s, so the Z rule stops resolving it as s grows past r.  With g =
  e^{-V} - e^{-shift}, which decays like a Gaussian of width r around c,

      f_t(x) = e^{-shift} + int g(y) N(y; e^{-t} x, s^2 Id) dy,

  and the integral is a fixed tensor Gauss-Hermite sum over y_j = c +
  LOCUS_SCALE r u_j, built once with the evaluator together with its
  coefficients a_j g_j.  The drift and D^2 f_t follow in closed form from
  the kernel's first and second derivatives, so a y pass calls no
  potential.  Every pass with s below the switch, and every pass on the
  commute Hessian route, takes the Z rule.

Node arrays are dim-major: the points e^{-t} x + s Z of a block are stored
as (dim, rows, K) and reach the potential as an (rows, K, dim) view, so the
shapes and values a potential sees are the usual ones while numpy's inner
loops run over the K nodes rather than over the 1-3 coordinates.  The
weighted sums follow the same rule: the row is the outer loop and K the
contiguous one.  In dim 1 the two layouts are the same memory.  The y
rule's offsets (y_j - e^{-t} x) / s are stored the same way.

Batched evaluation: x is a batch of points of shape (N, dim), and every
output has the leading N axis.  Every view needs a time t > 0, else
ValueError.  Each row's sums depend on its own point and t only, never on
the batch, its blocks or the other rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DensityUnderflowError
from .potentials import Potential, sym_eig_bounds
from .quadrature import GH_TENSOR_DIM_MAX, QuadratureScheme

DENSITY_FLOOR = 1e-300
# the y rule of a potential with a locus (c, r): min(node_count,
# LOCUS_NODES_MAX) Gauss-Hermite nodes per axis at c + LOCUS_SCALE r u,
# taken by every pass with sin(theta) >= LOCUS_SWITCH r (see
# SemigroupEvaluator for the measurements behind the three)
LOCUS_NODES_MAX = 32
LOCUS_SCALE = 0.65
LOCUS_SWITCH = 1.0
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
    ValueError, and so does a locus whose center is not a dim-tuple or
    whose radius is not positive.

    The y rule (module docstring) is built when the potential declares a
    locus (c, r) and the dimension is at most GH_TENSOR_DIM_MAX: Y =
    min(node_count, LOCUS_NODES_MAX) nodes per axis at c + LOCUS_SCALE r u,
    and coefficients b_j = a_j (e^{-raw(y_j)} - 1), a_j = w_j / N(y_j; c,
    (LOCUS_SCALE r)^2 Id) formed from the log-weights.  A pass at s >=
    LOCUS_SWITCH r then gives f_t = e^{-shift} (1 + sum_j b_j N(y_j; e x,
    s^2 Id)).  The three constants come from the pass errors against the Z
    rule at 4096 nodes (1-d; rows in [-4.5, 4.5], s / r from 1 to 3):
      * for |height| <= 1 and r from .15 to .5, Y = 32 errs by at most
        3e-12 on drift and D^2 V_t (bump(0, .5, .5): 2e-13 at s = r, where
        the Z rule at 64 nodes errs by 2e-13 too, and by 5e-11 at s =
        1.2 r), Y = 24 by up to 4e-9, and Y = 48 is at rounding;
      * scaling the nodes by 0.65 r beats r itself by 2 to 5 orders: the
        tail of g wants a width near r, the peak terms of e^{-raw} - 1 a
        narrower one (bump(0, .5, .5), Y = 32: 2e-13 at 0.65 r, 3e-9 at r);
      * taller bumps converge more slowly but far faster than the Z rule at
        the same node count (height 10, r = .3, s = r: 9e-12 at Y = 64
        against 6e-5 for the Z rule at 64 nodes; 40: 2e-7 against 3e-2),
        and rounding stays at about 1e-12 up to height 40 with Y = 256;
      * in 2-d, bump((.3, -.2), .4, .8) against the Z rule at 256^2: Y =
        24^2 errs by 2e-10 at s = r, the Z rule at 24^2 by 8e-7.
    A y pass over 512 rows takes 0.14 ms at Y = 32 against 0.28 ms for the
    Z rule's 44 kept nodes (drift and Hessian, one core).  Above 32 nodes
    per axis the y rule does not refine with node_count.

    The drift bound on y passes: a Z pass obeys |drift| <= e^{-t}
    sup|grad V| identically, because its positive weights average grad V.
    A y pass does not by construction, but its drift is the exact one to
    about 1e-12, and the exact |grad V_t| is far below the bound once s >=
    r: over rows in [-8, 8] (1-d) or [-6, 6]^2 (2-d) and every angle past
    the switch the largest ratio is 0.53 (1-d bumps of height -5 to 10, 2-d
    bumps of height +-0.8), at the switch.
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
        locus, dim = self.potential.locus, self.potential.dim
        y_switch = np.inf
        if locus is not None and dim <= GH_TENSOR_DIM_MAX:
            center, r = locus
            if not (len(center) == dim and r > 0):
                raise ValueError(f"locus must be (center of {dim} coordinates, "
                                 f"radius > 0), got {locus!r}")
            u, logw_u = QuadratureScheme(
                dim, node_count=min(self.scheme.node_count, LOCUS_NODES_MAX)).nodes_log_weights()
            sigma = LOCUS_SCALE * r
            y = np.asarray(center) + sigma * u
            # a_j = w_j / N(y_j; c, sigma^2 Id), formed from the log-weight
            # so that no weight underflows, times g_j e^{shift} = e^{-raw} - 1
            log_a = (logw_u + 0.5 * np.sum(u * u, axis=1)
                     + 0.5 * dim * np.log(2.0 * np.pi * sigma * sigma))
            coef = np.exp(log_a) * np.expm1(-self.potential.raw_fn(y))
            object.__setattr__(self, "_y_nodes_dm", np.ascontiguousarray(y.T))
            object.__setattr__(self, "_y_coef", coef)
            y_switch = LOCUS_SWITCH * r
        object.__setattr__(self, "_y_switch", y_switch)

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
        """One pass at time t: (e, m, den, G, H), by the Z rule or the y rule.

        With e = e^{-t}, f_t = e^m den, the drift is e G / den, and on the
        hermite route D^2 f_t = e^m H / (e^{2t} - 1).  G is computed only
        with `grad`, H only with a route.

        Z rule, over the nodes e x + s Z: u = w f(pts) / e^m (max-shifted
        weights, m the rowwise log maximum of w f), den = sum u, G = sum u
        grad V, and H = sum u (Z Z^T - Id) on the hermite route or sum u
        (grad V grad V^T - D^2 V) on the commute route.

        y rule, taken when the potential has a locus (c, r), s >= the
        switch and the route is not commute: u = b_j k_j with k_j =
        exp(-|w_j|^2 / 2), w_j = (y_j - e x) / s, den = (2 pi s^2)^{dim/2}
        + sum u, m = -shift - dim/2 log(2 pi s^2), G = -sum u w / s and H =
        sum u (w w^T - Id).  No potential call.

        Raises ValueError unless t > 0, and DensityUnderflowError, naming
        every offending row, when f_t is at or below the floor or undefined
        for any row.  Rows go through in blocks sized so every (rows, K, .)
        temporary stays near BLOCK_BYTES; each row's sums do not depend on
        the block.  The node arrays of a block are dim-major (see the
        module docstring).
        """
        if hess_route not in (None, "commute", "hermite"):
            raise ValueError(f"unknown hessian route {hess_route!r}")
        e, s = _times(t)
        n, dim = xb.shape
        m, den = np.empty(n), np.empty(n)
        G = np.empty((n, dim)) if grad else None
        H = None if hess_route is None else np.empty((n, dim, dim))
        y_rule = s >= self._y_switch and hess_route != "commute"
        if y_rule:
            coef, k = self._y_coef, self._y_coef.size
            y_dm, x_scale = self._y_nodes_dm / s, e / s
            mass0 = (2.0 * np.pi * s * s) ** (0.5 * dim)
            m[:] = -self.potential.shift - np.log(mass0)
        else:
            sz, logw, k = s * self._nodes_dm, self._logw, self._logw.size
        step = max(1, BLOCK_BYTES // (8 * k * (2 * dim + 3)))
        # the body is inline, so a block's temporaries stay bound until the
        # next block's replace them: freed on return from a helper, they
        # would leave a free chunk at the top of the heap that glibc trims,
        # and every block would fault its arrays in again
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            if y_rule:
                # w = (y - e x) / s, stored (dim, rows, K)
                w = y_dm[:, None, :] - x_scale * xb[rows].T[:, :, None]
                kern = w[0] * w[0]
                for d in range(1, dim):
                    kern += w[d] * w[d]
                kern *= -0.5
                np.exp(kern, out=kern)
                mass = np.einsum("nk,k->n", kern, coef)
                den[rows] = mass0 + mass
                if grad or hess_route:
                    kw = kern * w
                if grad:
                    G[rows] = np.einsum("dnk,k->nd", kw, coef) / -s
                if hess_route:
                    H[rows] = (np.einsum("dnk,enk,k->nde", kw, w, coef)
                               - mass[:, None, None] * np.eye(dim))
                continue
            pts = _node_points(xb[rows], e, sz)
            if grad or hess_route == "commute":
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
        # NaN-safe: a row with zero density at every node has log f_t = NaN,
        # and a y-rule den <= 0 has no logarithm
        with np.errstate(invalid="ignore", divide="ignore"):
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
        """grad f_t(x) = -e^{-t} E[(f grad V)(e^{-t} x + s Z)] on the Z rule,
        the kernel's gradient on the y rule."""
        e, m, _, G, _ = self._moments(_as_batch(x, self.potential.dim), t, grad=True)
        return -e * np.exp(m)[:, None] * G

    def hess_pt_f(self, x: np.ndarray, t: float, route: str = "commute") -> np.ndarray:
        """Hessian of f_t by either route.

        route "commute": e^{-2t} E[(D^2 f)(pts)] with D^2 f = f (grad V grad V^T - D^2 V);
        needs Hessian access on the potential.
        route "hermite": E[(Z Z^T - Id) f(pts)] / (e^{2t} - 1); only samples V,
        so it works for rough potentials.  Past the y rule's switch it is
        the kernel's second derivative instead; the commute route always
        takes the Z rule, as an independent check.
        """
        e, m, _, _, H = self._moments(_as_batch(x, self.potential.dim), t,
                                      hess_route=route)
        if route == "hermite":
            return H * (np.exp(m) / np.expm1(2.0 * t))[:, None, None]
        return (e * e) * np.exp(m)[:, None, None] * H

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        """grad V_t(x) = -grad f_t / f_t, from one shared-node pass.

        The Z rule uses the gradient-commutation form, whose quadrature
        value obeys |drift| <= e^{-t} sup|grad V| identically (positive
        weights average grad V pointwise); a y pass obeys it as measured
        (see SemigroupEvaluator).
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
