"""Potentials V defining target measures e^{-V} dgamma.

A Potential stores the unnormalized definition plus an explicit additive
constant, so normalization never loses the original function.  Built-in
families cover the example measures used throughout: Gaussian scalings,
an analytic bump perturbation, a linear-tail measure, the localized
spike family indexed by T, and the capped-Gaussian sharpness family.

Conventions: points are arrays whose last axis is the ambient dimension;
`value` maps (..., dim) -> (...), `grad` maps to (..., dim) and `hess`
to (..., dim, dim).  Gradient and Hessian fall back to central finite
differences with step 1e-4 * (1 + |x|) when no analytic form is given.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import HeatflowError
from .quadrature import (
    GH_TENSOR_DIM_MAX,
    QuadratureScheme,
    gaussian_expectation_adaptive,
    gaussian_expectation_mc,
)

FD_STEP = 1e-4
# Newton steps that centre mollify's nodes on the mode of its integrand
MOLLIFY_NEWTON_STEPS = 4

# Gaussian bump profile psi(u) = exp(-u^2/2): shape constants used for
# declared metadata.  min psi'' = -1 at u = 0; max psi'' = 2 e^{-3/2} at
# u = sqrt(3); max |psi'| = e^{-1/2} at u = 1.
_BUMP_MAX_D2 = 2.0 * np.exp(-1.5)
_BUMP_MAX_D1 = np.exp(-0.5)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform evaluation grid."""

    lo: float
    hi: float
    count: int
    dim: int = 1

    def points(self) -> np.ndarray:
        axis = np.linspace(self.lo, self.hi, self.count)
        if self.dim == 1:
            return axis[:, None]
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)


@dataclass(frozen=True)
class Potential:
    """A potential V with V(x) = raw_fn(x) + shift.

    curvature_lower is a declared lam >= 0 with D^2 V >= -lam (None when no
    finite bound is declared); oscillation bounds sup V - inf V; both are
    metadata validated on grids, not enforced at evaluation time.
    Instances are immutable and all evaluations are pure, so they are safe
    to share across parallel workers.

    Point batches may arrive as views whose last (dim) axis is not the
    contiguous one: the semigroup pass stores its node points dim-major
    and passes an (rows, K, dim) view.  Index x[..., i] or reduce over
    axis -1; a reshape works (it copies), but do not assume C-contiguity.
    """

    dim: int
    raw_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # optional fused (raw, grad) for potentials that share work between
    # the two; must agree bit for bit with (raw_fn, grad_fn)
    value_grad_fn: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    shift: float = 0.0
    curvature_lower: Optional[float] = 0.0
    oscillation: Optional[float] = None
    grad_sup_norm: Optional[float] = None
    normalized: bool = False
    norm_tol: Optional[float] = None
    name: str = "potential"
    kinks: tuple[float, ...] = ()

    # -- evaluation ----------------------------------------------------

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.raw_fn(x) + self.shift

    __call__ = value

    def density(self, x: np.ndarray) -> np.ndarray:
        """e^{-V(x)}, the density against gamma."""
        return np.exp(-self.value(x))

    def lebesgue_density(self, x: np.ndarray) -> np.ndarray:
        """Density of e^{-V} dgamma against Lebesgue measure."""
        x = np.asarray(x, dtype=float)
        sq = np.sum(x * x, axis=-1)
        norm = (2.0 * np.pi) ** (-self.dim / 2.0)
        return norm * np.exp(-self.value(x) - sq / 2.0)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad_fn is not None:
            return self.grad_fn(x)
        return self._fd_grad(x)

    def value_and_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(value(x), grad(x)) from one call where the potential fuses them."""
        x = np.asarray(x, dtype=float)
        if self.value_grad_fn is None:
            return self.value(x), self.grad(x)
        raw, g = self.value_grad_fn(x)
        return raw + self.shift, g

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess_fn is not None:
            return self.hess_fn(x)
        return self._fd_hess(x)

    def _steps(self, x: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
        return FD_STEP * (1.0 + r)

    def _fd_grad(self, x: np.ndarray) -> np.ndarray:
        h = self._steps(x)
        out = np.empty(x.shape, dtype=float)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            step = h * e
            out[..., i] = (self.value(x + step) - self.value(x - step)) / (2.0 * h[..., 0])
        return out

    def _fd_hess(self, x: np.ndarray) -> np.ndarray:
        h = self._steps(x)
        h0 = h[..., 0]
        out = np.empty(x.shape + (self.dim,), dtype=float)
        v0 = self.value(x)
        for i in range(self.dim):
            ei = np.zeros(self.dim)
            ei[i] = 1.0
            si = h * ei
            out[..., i, i] = (self.value(x + si) - 2.0 * v0 + self.value(x - si)) / h0**2
            for j in range(i + 1, self.dim):
                ej = np.zeros(self.dim)
                ej[j] = 1.0
                sj = h * ej
                mixed = (
                    self.value(x + si + sj)
                    - self.value(x + si - sj)
                    - self.value(x - si + sj)
                    + self.value(x - si - sj)
                ) / (4.0 * h0**2)
                out[..., i, j] = mixed
                out[..., j, i] = mixed
        return out


# -- eigenvalue helpers (closed form for dim <= 2) ----------------------


def sym_eig_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalues of a batch of symmetric (..., n, n) matrices."""
    n = mats.shape[-1]
    if n == 1:
        v = mats[..., 0, 0]
        return v, v
    if n == 2:
        a = mats[..., 0, 0]
        b = mats[..., 1, 1]
        c = mats[..., 0, 1]
        mean = (a + b) / 2.0
        rad = np.sqrt(((a - b) / 2.0) ** 2 + c * c)
        return mean - rad, mean + rad
    vals = np.linalg.eigvalsh(mats)
    return vals[..., 0], vals[..., -1]


# -- metadata validation -------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    curvature_violation: Optional[float]
    oscillation_violation: Optional[float]
    min_hess_eigenvalue: float


def validate_metadata(p: Potential, grid: GridSpec) -> ValidationReport:
    """Worst-case declared-metadata violations over the grid; never mutates p."""
    pts = grid.points()
    if pts.shape[-1] != p.dim:
        raise ValueError("grid dimension does not match potential dimension")
    lo_eig, _ = sym_eig_bounds(p.hess(pts))
    min_eig = float(np.min(lo_eig))
    curv_viol = None
    if p.curvature_lower is not None:
        curv_viol = max(0.0, -(min_eig + p.curvature_lower))
    osc_viol = None
    if p.oscillation is not None:
        vals = p.value(pts)
        osc_viol = max(0.0, float(np.max(vals) - np.min(vals)) - p.oscillation)
    return ValidationReport(curv_viol, osc_viol, min_eig)


# -- normalization --------------------------------------------------------


def log_mass(p: Potential, scheme: QuadratureScheme) -> tuple[float, float]:
    """(log integral of e^{-V} dgamma, achieved relative tolerance).

    Raises ValueError for a Gauss-Hermite scheme above GH_TENSOR_DIM_MAX
    and HeatflowError when the mass estimate diverges, vanishes or is not
    finite.
    """
    if scheme.kind == "monte_carlo":
        val = gaussian_expectation_mc(lambda z: p.density(z), scheme)
        if not np.isfinite(val) or val <= 0:
            raise HeatflowError("Monte Carlo mass estimate not finite")
        return float(np.log(val)), 1.0 / np.sqrt(scheme.sample_count)
    if p.dim > GH_TENSOR_DIM_MAX:
        raise ValueError(
            "dim above Gauss-Hermite cap; supply a monte_carlo scheme"
        )
    res = gaussian_expectation_adaptive(
        lambda z: -p.value(z), p.dim, start_nodes=scheme.node_count,
        log_integrand=True,
    )
    if res.value <= 0:
        raise HeatflowError("mass estimate vanished")
    return float(np.log(res.value)), res.rel_change


def normalize(p: Potential, scheme: QuadratureScheme | None = None) -> Potential:
    """Shift V so that e^{-V} dgamma is a probability measure.

    Curvature, oscillation and gradient bounds are unchanged by the shift.
    """
    if scheme is None:
        scheme = QuadratureScheme(dim=p.dim)
    lm, tol = log_mass(p, scheme)
    return dataclasses.replace(
        p, shift=p.shift + lm, normalized=True, norm_tol=tol
    )


# -- built-in families -----------------------------------------------------


def gaussian(rho: float, dim: int = 1) -> Potential:
    """V(x) = rho |x|^2 / 2: target measure N(0, 1/(1+rho) Id); needs rho > -1."""
    if rho <= -1.0:
        raise ValueError("gaussian family requires rho > -1 for integrability")

    def raw(x):
        return rho * np.sum(x * x, axis=-1) / 2.0

    def grad(x):
        return rho * x

    def hess(x):
        eye = np.eye(dim)
        return np.broadcast_to(rho * eye, x.shape + (dim,)).copy()

    return Potential(
        dim=dim, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=max(0.0, -rho),
        oscillation=(0.0 if rho == 0.0 else None),
        grad_sup_norm=(0.0 if rho == 0.0 else None),
        name=f"gaussian(rho={rho})",
    )


def constant(dim: int = 1) -> Potential:
    return dataclasses.replace(gaussian(0.0, dim), name="constant", normalized=True)


def bump(center: float | Sequence[float] = 0.0, radius: float = 1.0,
         height: float = 0.5, dim: int = 1) -> Potential:
    """Analytic bump V(x) = height * exp(-|x-center|^2 / (2 radius^2)).

    Entire function, so semigroup quadrature on it is spectrally accurate.
    Declared bounds: oscillation |height|; curvature height/radius^2 for
    height > 0 (profile second derivative has minimum -1 at the center)
    and 2 e^{-3/2} |height|/radius^2 for height < 0; sup |grad V| =
    e^{-1/2} |height| / radius.
    """
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
    r2 = radius * radius

    def raw(x):
        d = x - c
        return height * np.exp(-np.sum(d * d, axis=-1) / (2.0 * r2))

    def grad(x):
        return value_grad(x)[1]

    def value_grad(x):
        d = x - c
        prof = np.exp(-np.sum(d * d, axis=-1) / (2.0 * r2))
        return height * prof, -(height / r2) * prof[..., None] * d

    def hess(x):
        d = x - c
        prof = np.exp(-np.sum(d * d, axis=-1) / (2.0 * r2))
        eye = np.eye(dim)
        outer = d[..., :, None] * d[..., None, :]
        return (height / r2) * prof[..., None, None] * (outer / r2 - eye)

    if height >= 0:
        lam = height / r2
    else:
        lam = _BUMP_MAX_D2 * (-height) / r2
    return Potential(
        dim=dim, raw_fn=raw, grad_fn=grad, hess_fn=hess, value_grad_fn=value_grad,
        curvature_lower=lam,
        oscillation=abs(height),
        grad_sup_norm=_BUMP_MAX_D1 * abs(height) / radius,
        name=f"bump(center={center}, radius={radius}, height={height})",
    )


def _clipped_quadratic(lo: float, hi: float, center: float, k: float,
                       offset: float, **metadata) -> Potential:
    """Dim-1 V(x) = offset + k (clip(x, lo, hi) - center)^2 / 2.

    On the open interval (lo, hi) grad V = k (x - center) and D^2 V = k;
    outside it both are 0.  The finite ends are the kinks.
    """

    def active(t):
        return (lo < t) & (t < hi)

    def raw(x):
        return offset + k * (np.clip(x[..., 0], lo, hi) - center) ** 2 / 2.0

    def grad(x):
        t = x[..., 0]
        return np.where(active(t), k * (t - center), 0.0)[..., None]

    def hess(x):
        return np.where(active(x[..., 0]), k, 0.0)[..., None, None]

    return Potential(
        dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        kinks=tuple(e for e in (lo, hi) if np.isfinite(e)), **metadata,
    )


def linear_tail() -> Potential:
    """Dim-1 measure whose Lebesgue density is proportional to e^{-x} for x >= 1.

    V(x) = c0 for x < 1 and c0 - (x-1)^2/2 beyond; V'' >= -1, V is bounded
    above but not below, and |V'| is unbounded.
    """
    return _clipped_quadratic(
        1.0, np.inf, 1.0, -1.0, 0.0,
        curvature_lower=1.0, oscillation=None, grad_sup_norm=None,
        name="linear_tail",
    )


def vt_counterexample(T: float) -> Potential:
    """V(x) = max(0, T^2/4 - 64 (x - T)^2) - c_T, the localized spike family.

    Non-constant exactly on [15T/16, 17T/16]; second derivative is -128 on
    that interval and 0 elsewhere, with upward kinks at the junctions, so
    D^2 V >= -128 everywhere.
    """
    if T <= 0:
        raise ValueError("vt_counterexample requires T > 0")
    return _clipped_quadratic(
        15.0 * T / 16.0, 17.0 * T / 16.0, T, -128.0, T * T / 4.0,
        curvature_lower=128.0,
        oscillation=T * T / 4.0,
        grad_sup_norm=16.0 * T,  # |V'| = 128|x-T| <= 128 * T/16 on the active region
        name=f"vt_counterexample(T={T})",
    )


def sharpness(T: float, scale: float) -> Potential:
    """V(x) = -min(T^2/2, x^2/(2 scale^2)): capped inverted-Gaussian family.

    D^2 V >= -1/scale^2 (the cap produces upward kinks), oscillation T^2/2.
    At scale = sqrt(1 - e^{-2t}) the declared curvature saturates the
    propagation-domain boundary lam * (1 - e^{-2t}) = 1 for that t.
    """
    if T <= 0 or scale <= 0:
        raise ValueError("sharpness requires T > 0 and scale > 0")
    return _clipped_quadratic(
        -T * scale, T * scale, 0.0, -1.0 / (scale * scale), 0.0,
        curvature_lower=1.0 / (scale * scale),
        oscillation=T * T / 2.0,
        grad_sup_norm=T / scale,
        name=f"sharpness(T={T}, scale={scale})",
    )


def sharpness_critical_scale(t: float) -> float:
    """Scale at which the sharpness family saturates the curvature domain at time t."""
    return float(np.sqrt(1.0 - np.exp(-2.0 * t)))


# -- tabulated potentials ---------------------------------------------------


def tabulated(grid: np.ndarray, values: np.ndarray, name: str = "tabulated",
              **metadata) -> Potential:
    """Dim-1 potential from (grid, values) with linear interpolation.

    Each point falls in one cell [grid[i], grid[i+1]] and takes that cell's
    line; the end cells extend past the table, so the end slopes continue
    and a Lipschitz table stays Lipschitz globally.  The Hessian of a
    piecewise linear interpolant is zero between knots; smoothed-Hessian
    routes that only sample V remain available at positive times.

    The cell of t is clip(searchsorted(grid, t, "right") - 1, 0, n - 2).
    On an evenly spaced grid (every knot within h/4 of grid[0] + i h) it is
    found by arithmetic instead of a binary search: floor((t - grid[0])/h),
    then one step up and one step down against the knots, which gives the
    same cell for every float, NaN and +-inf included.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise ValueError("tabulated potential needs matching 1-d grid/values")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ValueError("tabulated grid and values must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("tabulated grid must be strictly increasing")
    slopes = np.diff(values) / np.diff(grid)
    lo, hi, last = grid[0], grid[-1], grid.size - 2
    h = (hi - lo) / (grid.size - 1)

    if np.isfinite(h) and np.max(np.abs(grid - (lo + np.arange(grid.size) * h))) <= h / 4:
        def cell(t):
            # every knot within h/4 of lo + i h puts the guess within one
            # cell of the right one; NaN goes to the last cell, as
            # searchsorted sorts it last
            s = np.fmin(np.maximum(t, lo), hi)
            i = np.minimum(((s - lo) / h).astype(np.intp), last)
            i = np.minimum(i + (grid[i + 1] <= s), last)
            return i - (grid[i] > s)
    else:
        def cell(t):
            return np.clip(np.searchsorted(grid, t, side="right") - 1, 0, last)

    def value_grad(x):
        t = x[..., 0]
        i = cell(t)
        slope = slopes[i]
        return values[i] + slope * (t - grid[i]), slope[..., None]

    def raw(x):
        return value_grad(x)[0]

    def grad(x):
        return slopes[cell(x[..., 0])][..., None]

    def hess(x):
        return np.zeros(x.shape[:-1] + (1, 1))

    return Potential(dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
                     value_grad_fn=value_grad, name=name, **metadata)


# -- regularization ---------------------------------------------------------


def mollify(p: Potential, sigma: float,
            scheme: QuadratureScheme | None = None) -> Potential:
    """Potential of (e^{-V} dgamma) convolved with N(0, sigma^2 Id), against gamma.

    Completing the square in the convolution, with a = 1/(1+sigma^2) and
    tau = sigma sqrt(a): V_sigma(x) = -(dim/2) log a - tau^2 |x|^2/2
    - log E[e^{-V(a x + tau Z)}].  The nodes are then centred at the mode c
    of the whole integrand, the minimizer of |c|^2/2 + V(a x + tau c), found
    by MOLLIFY_NEWTON_STEPS Newton steps from c = 0 whose curvature is
    floored at the Gaussian's own (adaptive Gauss-Hermite quadrature, Liu &
    Pierce 1994): E[g(Z)] = E[g(Z + c) e^{-c.Z - |c|^2/2}].  So the nodes
    follow the peak also where V itself grows quadratically, far out in the
    tails.  Derivatives differentiate the kernel, so they are smooth even
    where V has kinks, and the sums are max-shifted in log space, so they
    stay finite wherever V is.  No gradient bound is declared: the smoothed
    gradient can grow without bound in the tails (linear_tail), so a sup
    over a finite window would certify nothing.
    """
    if sigma <= 0:
        raise ValueError("mollify requires sigma > 0")
    if scheme is None:
        scheme = QuadratureScheme(dim=p.dim)
    nodes, w = scheme.nodes_weights()  # (K, dim), (K,)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    dim = p.dim
    a = 1.0 / (1.0 + sigma * sigma)
    tau = sigma * np.sqrt(a)
    log_a_term = -0.5 * dim * np.log(a)
    eye = np.eye(dim)

    def centre(ax):
        """Mode of c -> |c|^2/2 + V(ax + tau c); a step that is not finite
        leaves c where it was."""
        c = np.zeros_like(ax)
        for _ in range(MOLLIFY_NEWTON_STEPS):
            y = ax + tau * c
            g = c + tau * p.grad(y)
            h = eye + tau * tau * p.hess(y)
            # where V is concave the step is damped to the Gaussian curvature
            lo, _ = sym_eig_bounds(h)
            h = h + np.maximum(1.0 - lo, 0.0)[..., None, None] * eye
            c_next = c - np.linalg.solve(h, g[..., None])[..., 0]
            c = np.where(np.isfinite(c_next), c_next, c)
        return c

    def moments(x):
        """(log E[e^{-V(a x + tau Z)}], weights u of the centred nodes
        summing to 1, E_u[node], centre c); E_u[Z] = E_u[node] + c."""
        ax = a * x
        c = centre(ax)
        s = (logw - p.value(ax[..., None, :] + tau * (c[..., None, :] + nodes))
             - c @ nodes.T - 0.5 * np.sum(c * c, axis=-1)[..., None])
        m = np.max(s, axis=-1)
        u = np.exp(s - m[..., None])
        den = np.sum(u, axis=-1)
        u /= den[..., None]
        return m + np.log(den), u, u @ nodes, c

    def value_grad(x):
        log_e, _, mean_node, c = moments(x)
        return (log_a_term - tau * tau * np.sum(x * x, axis=-1) / 2.0 - log_e,
                -tau * tau * x - (a / tau) * (mean_node + c))

    def raw(x):
        return value_grad(x)[0]

    def grad(x):
        return value_grad(x)[1]

    def hess(x):
        _, u, mean_node, _ = moments(x)
        cov_z = (np.einsum("...k,kd,ke->...de", u, nodes, nodes)
                 - mean_node[..., :, None] * mean_node[..., None, :])
        return -tau * tau * eye - (a / tau) ** 2 * (cov_z - eye)

    return Potential(
        dim=dim, raw_fn=raw, grad_fn=grad, hess_fn=hess, value_grad_fn=value_grad,
        curvature_lower=None, oscillation=None, grad_sup_norm=None,
        name=f"mollify({p.name}, sigma={sigma})",
    )


# knots of the envelope table: |x| <= r + EVAL_PAD, EVAL_POINTS_PER_UNIT per unit
EVAL_PAD = 6.0
EVAL_POINTS_PER_UNIT = 400


def lipschitz_regularize(
    p: Potential,
    l: float,
    r: float,
    points_per_axis: int = 4096,
    grid_tol: float = 5e-3,
    scheme: QuadratureScheme | None = None,
) -> Potential:
    """l-Lipschitz envelope inf{V(y) + l |x-y| : |y| <= r}, renormalized.

    The infimum ranges over y (over the first argument the envelope would
    be V itself): over a sorted y-grid, plus the query point itself when it
    lies in the ball.  Over the grid it is min(min_{y<=x}(V(y) - l y) + l x,
    min_{y>x}(V(y) + l y) - l x), one prefix and one suffix minimum (the 1-d
    distance transform).  The result is stored as a piecewise-linear table
    whose chord slopes are bounded by l by construction.  A doubled y-grid
    must agree with the first pass within grid_tol, else HeatflowError.
    Only dim 1 is supported.
    """
    if l < 0 or r <= 0:
        raise ValueError("need l >= 0 and r > 0")
    if p.dim != 1:
        raise ValueError("inf-convolution envelope implemented for dim 1")

    span = r + EVAL_PAD
    xs = np.linspace(-span, span, max(int(2 * span * EVAL_POINTS_PER_UNIT) + 1, 801))
    inside = np.abs(xs) <= r
    v_inside = p.value(xs[inside, None])

    def envelope(n_grid):
        ys = np.linspace(-r, r, n_grid)
        vy = p.value(ys[:, None])
        if l == 0.0:
            # zero-slope envelope is the constant inf of V over the ball
            return np.full_like(xs, min(vy.min(), v_inside.min()))
        pad = np.array([np.inf])
        left = np.minimum.accumulate(np.concatenate([pad, vy - l * ys]))
        right = np.minimum.accumulate(np.concatenate([vy + l * ys, pad])[::-1])[::-1]
        k = np.searchsorted(ys, xs, side="right")  # ys[:k] <= x < ys[k:]
        out = np.minimum(left[k] + l * xs, right[k] - l * xs)
        # the query point itself is an admissible candidate inside the ball,
        # so the envelope is exact wherever V is already l-Lipschitz
        out[inside] = np.minimum(out[inside], v_inside)
        return out

    env = envelope(points_per_axis)
    env_fine = envelope(2 * points_per_axis)
    drift = float(np.max(np.abs(env - env_fine)))
    if drift > grid_tol:
        raise HeatflowError(
            f"envelope moved {drift:.3e} under grid refinement (tol {grid_tol:.1e})"
        )

    out = tabulated(
        xs, env_fine,
        name=f"lipschitz_regularize({p.name}, l={l}, r={r})",
        curvature_lower=None,
        oscillation=None,
        grad_sup_norm=l,
    )
    return normalize(out, scheme or QuadratureScheme(dim=1))


def caffarelli_reduction(p: Potential) -> tuple[Potential, float]:
    """Log-concave reduction for curvature deficit lam < 1, plus its dilation.

    Returns (q, a) with a = 1/sqrt(1-lam) such that the dilation x -> a x
    pushes e^{-q} dgamma onto e^{-V} dgamma and q is convex-compatible:
    D^2 q = D^2 V(x/sqrt(1-lam)) / (1-lam) + lam/(1-lam) >= 0.

    Writing W(x) = V(x / sqrt(1-lam)) + lam |x|^2 / (2 (1-lam)), the
    substitution u = x / sqrt(1-lam) gives
        integral e^{-W} dgamma = (1-lam)^{dim/2} * integral e^{-V} dgamma,
    so for normalized V the exact normalizing shift is (dim/2) log(1-lam).
    """
    lam = p.curvature_lower
    if lam is None or lam >= 1.0:
        raise ValueError(
            "dilation reduction needs declared curvature_lower < 1"
        )
    if lam == 0.0:
        return p, 1.0
    a = 1.0 / np.sqrt(1.0 - lam)
    cfac = lam / (1.0 - lam)

    def raw(x):
        sq = np.sum(x * x, axis=-1)
        return p.value(x / np.sqrt(1.0 - lam)) + cfac * sq / 2.0

    def grad(x):
        return p.grad(x / np.sqrt(1.0 - lam)) * a + cfac * x

    def hess(x):
        eye = np.eye(p.dim)
        return p.hess(x / np.sqrt(1.0 - lam)) / (1.0 - lam) + cfac * eye

    shift = (p.dim / 2.0) * np.log(1.0 - lam) if p.normalized else 0.0
    out = Potential(
        dim=p.dim, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        shift=shift,
        curvature_lower=0.0,
        oscillation=None, grad_sup_norm=None,
        normalized=p.normalized,
        name=f"caffarelli({p.name})",
    )
    return out, float(a)


# -- JSON configuration -----------------------------------------------------
#
# The readers below check what a JSON config gives them: an unknown key, a
# number written as a string, a boolean, NaN or Infinity, or a flag that is
# not a JSON boolean raises ValueError, so a misspelt or retired key is
# never ignored.


def check_keys(cfg, allowed, where: str) -> None:
    """Raise ValueError unless cfg is a JSON object with keys among `allowed`."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")


def json_number(cfg: dict, key: str, default=None):
    """cfg[key], or `default` when given and the key is absent: a JSON
    number or a list of them (KeyError when absent without a default).
    JSON has no NaN or Infinity, so the literals Python's parser accepts
    for them are rejected too."""
    v = cfg[key] if default is None else cfg.get(key, default)
    if any(isinstance(x, bool) or not isinstance(x, (int, float))
           or (isinstance(x, float) and not math.isfinite(x))
           for x in (v if isinstance(v, list) else [v])):
        raise ValueError(f"{key!r} must be a JSON number, got {v!r}")
    return v


def json_int(cfg: dict, key: str, default=None) -> int:
    """json_number(cfg, key, default) as an int.  A number with a fractional
    part, or a list, is rejected rather than truncated; 100.0 is 100."""
    v = json_number(cfg, key, default)
    if isinstance(v, list) or v != int(v):
        raise ValueError(f"{key!r} must be an integer, got {v!r}")
    return int(v)


def json_flag(cfg: dict, key: str, default: bool) -> bool:
    """cfg[key], or `default` when absent: a JSON boolean."""
    v = cfg.get(key, default)
    if not isinstance(v, bool):
        raise ValueError(f"{key!r} must be true or false, got {v!r}")
    return v


_FAMILIES = {
    "gaussian": gaussian,
    "constant": constant,
    "bump": bump,
    "linear_tail": linear_tail,
    "vt_counterexample": vt_counterexample,
    "sharpness": sharpness,
}
_METADATA_KEYS = ("curvature_lower", "oscillation", "grad_sup_norm")
# each transform op's number keys, besides "op"
_TRANSFORM_KEYS = {"mollify": ("sigma",),
                   "lipschitz_regularize": ("l", "r", "points_per_axis", "grid_tol")}


def from_family(tag: str, params: dict | None = None) -> Potential:
    if tag not in _FAMILIES:
        raise ValueError(f"unknown potential family {tag!r}")
    try:
        return _FAMILIES[tag](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {tag!r}: {exc}") from exc


def from_config(cfg: dict, scheme: QuadratureScheme | None = None) -> Potential:
    """Build a potential from a JSON-style description.

    {"family": name, "params": {...}} or {"table": {"grid": [...], "values": [...]}},
    with optional metadata overrides (curvature_lower, oscillation,
    grad_sup_norm), an optional "transforms" list applied in order
    ({"op": "mollify", "sigma": s} | {"op": "lipschitz_regularize", "l": .., "r": ..}),
    and "normalize": false to skip the final normalization.  A key outside
    this schema, at any level, raises ValueError, as does a parameter or
    number that is not a JSON number.
    """
    source = ("family", "params") if "family" in cfg else ("table",)
    check_keys(cfg, source + _METADATA_KEYS + ("transforms", "normalize"),
               "potential config")
    if "family" in cfg:
        params = cfg.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        for key in params:                 # the family's signature checks the names
            json_number(params, key)
        pot = from_family(cfg["family"], params)
    elif "table" in cfg:
        tab = cfg["table"]
        check_keys(tab, ("grid", "values"), "table")
        pot = tabulated(np.asarray(json_number(tab, "grid"), dtype=float),
                        np.asarray(json_number(tab, "values"), dtype=float))
    else:
        raise ValueError("potential config needs 'family' or 'table'")

    overrides = {key: json_number(cfg, key) for key in _METADATA_KEYS if key in cfg}
    if overrides:
        pot = dataclasses.replace(pot, **overrides)

    for tr in cfg.get("transforms", []):
        op = tr.get("op") if isinstance(tr, dict) else None
        if op not in _TRANSFORM_KEYS:
            raise ValueError(f"unknown transform {op!r}")
        check_keys(tr, ("op",) + _TRANSFORM_KEYS[op], f"{op} transform")
        for key in tr.keys() - {"op"}:
            json_number(tr, key)
        if op == "mollify":
            pot = mollify(pot, float(tr["sigma"]), scheme)
        else:
            kwargs = {k: tr[k] for k in ("points_per_axis", "grid_tol") if k in tr}
            pot = lipschitz_regularize(pot, float(tr["l"]), float(tr["r"]),
                                       scheme=scheme, **kwargs)

    if json_flag(cfg, "normalize", True):
        pot = normalize(pot, scheme)
    return pot
