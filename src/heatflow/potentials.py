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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    DimensionTooHighError,
    GridTooCoarseError,
    LambdaTooLargeError,
    NonIntegrableError,
)
from .quadrature import (
    GH_TENSOR_DIM_MAX,
    QuadratureScheme,
    gaussian_expectation_adaptive,
    gaussian_expectation_mc,
)

FD_STEP = 1e-4

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
    """

    dim: int
    raw_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
    grid_points: int
    curvature_violation: Optional[float]
    oscillation_violation: Optional[float]
    min_hess_eigenvalue: float
    grid_oscillation: float


def validate_metadata(p: Potential, grid: GridSpec) -> ValidationReport:
    """Worst-case declared-metadata violations over the grid; never mutates p."""
    pts = grid.points()
    if pts.shape[-1] != p.dim:
        raise ValueError("grid dimension does not match potential dimension")
    vals = p.value(pts)
    lo_eig, _ = sym_eig_bounds(p.hess(pts))
    min_eig = float(np.min(lo_eig))
    osc = float(np.max(vals) - np.min(vals))
    curv_viol = None
    if p.curvature_lower is not None:
        curv_viol = max(0.0, -(min_eig + p.curvature_lower))
    osc_viol = None
    if p.oscillation is not None:
        osc_viol = max(0.0, osc - p.oscillation)
    return ValidationReport(pts.shape[0], curv_viol, osc_viol, min_eig, osc)


# -- normalization --------------------------------------------------------


def log_mass(p: Potential, scheme: QuadratureScheme,
             rel_tol: float = 1e-10) -> tuple[float, float]:
    """(log integral of e^{-V} dgamma, achieved relative tolerance)."""
    if scheme.kind == "monte_carlo":
        val = gaussian_expectation_mc(lambda z: p.density(z), scheme)
        if not np.isfinite(val) or val <= 0:
            raise NonIntegrableError("Monte Carlo mass estimate not finite")
        return float(np.log(val)), 1.0 / np.sqrt(scheme.sample_count)
    if p.dim > GH_TENSOR_DIM_MAX:
        raise DimensionTooHighError(
            "dim above Gauss-Hermite cap; supply a monte_carlo scheme"
        )
    res = gaussian_expectation_adaptive(
        lambda z: -p.value(z), p.dim, rel_tol=rel_tol,
        start_nodes=scheme.node_count, log_integrand=True,
    )
    if res.value <= 0:
        raise NonIntegrableError("mass estimate vanished")
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
        raise BadParamsError("gaussian family requires rho > -1 for integrability")

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
        raise BadParamsError("bump radius must be positive")
    c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
    r2 = radius * radius

    def raw(x):
        d = x - c
        return height * np.exp(-np.sum(d * d, axis=-1) / (2.0 * r2))

    def grad(x):
        d = x - c
        prof = np.exp(-np.sum(d * d, axis=-1) / (2.0 * r2))
        return -(height / r2) * prof[..., None] * d

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
        dim=dim, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=lam,
        oscillation=abs(height),
        grad_sup_norm=_BUMP_MAX_D1 * abs(height) / radius,
        name=f"bump(center={center}, radius={radius}, height={height})",
    )


def bump_with(curvature: float, oscillation: float, dim: int = 1) -> Potential:
    """Bump with prescribed (curvature_lower, oscillation) metadata."""
    if curvature <= 0 or oscillation <= 0:
        raise BadParamsError("bump_with needs positive curvature and oscillation")
    radius = np.sqrt(oscillation / curvature)
    return bump(0.0, radius, oscillation, dim)


def linear_tail() -> Potential:
    """Dim-1 measure whose Lebesgue density is proportional to e^{-x} for x >= 1.

    V(x) = c0 for x < 1 and c0 - (x-1)^2/2 beyond; V'' >= -1, V is bounded
    above but not below, and |V'| is unbounded.
    """

    def raw(x):
        t = x[..., 0]
        return np.where(t < 1.0, 0.0, -((t - 1.0) ** 2) / 2.0)

    def grad(x):
        t = x[..., 0]
        return np.where(t < 1.0, 0.0, -(t - 1.0))[..., None]

    def hess(x):
        t = x[..., 0]
        return np.where(t < 1.0, 0.0, -1.0)[..., None, None]

    return Potential(
        dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=1.0, oscillation=None, grad_sup_norm=None,
        name="linear_tail", kinks=(1.0,),
    )


def vt_counterexample(T: float) -> Potential:
    """V(x) = max(0, T^2/4 - 64 (x - T)^2) - c_T, the localized spike family.

    Non-constant exactly on [15T/16, 17T/16]; second derivative is -128 on
    that interval and 0 elsewhere, with upward kinks at the junctions, so
    D^2 V >= -128 everywhere.
    """
    if T <= 0:
        raise BadParamsError("vt_counterexample requires T > 0")

    def raw(x):
        t = x[..., 0]
        return np.maximum(0.0, T * T / 4.0 - 64.0 * (t - T) ** 2)

    def grad(x):
        t = x[..., 0]
        active = (T * T / 4.0 - 64.0 * (t - T) ** 2) > 0
        return np.where(active, -128.0 * (t - T), 0.0)[..., None]

    def hess(x):
        t = x[..., 0]
        active = (T * T / 4.0 - 64.0 * (t - T) ** 2) > 0
        return np.where(active, -128.0, 0.0)[..., None, None]

    return Potential(
        dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=128.0,
        oscillation=T * T / 4.0,
        grad_sup_norm=16.0 * T,  # |V'| = 128|x-T| <= 128 * T/16 on the active region
        name=f"vt_counterexample(T={T})",
        kinks=(15.0 * T / 16.0, 17.0 * T / 16.0),
    )


def sharpness(T: float, scale: float) -> Potential:
    """V(x) = -min(T^2/2, x^2/(2 scale^2)): capped inverted-Gaussian family.

    D^2 V >= -1/scale^2 (the cap produces upward kinks), oscillation T^2/2.
    At scale = sqrt(1 - e^{-2t}) the declared curvature saturates the
    propagation-domain boundary lam * (1 - e^{-2t}) = 1 for that t.
    """
    if T <= 0 or scale <= 0:
        raise BadParamsError("sharpness requires T > 0 and scale > 0")
    s2 = scale * scale

    def raw(x):
        t = x[..., 0]
        return -np.minimum(T * T / 2.0, t * t / (2.0 * s2))

    def grad(x):
        t = x[..., 0]
        active = (t * t / (2.0 * s2)) < (T * T / 2.0)
        return np.where(active, -t / s2, 0.0)[..., None]

    def hess(x):
        t = x[..., 0]
        active = (t * t / (2.0 * s2)) < (T * T / 2.0)
        return np.where(active, -1.0 / s2, 0.0)[..., None, None]

    return Potential(
        dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=1.0 / s2,
        oscillation=T * T / 2.0,
        grad_sup_norm=T / scale,
        name=f"sharpness(T={T}, scale={scale})",
        kinks=(-T * scale, T * scale),
    )


def sharpness_critical_scale(t: float) -> float:
    """Scale at which the sharpness family saturates the curvature domain at time t."""
    return float(np.sqrt(1.0 - np.exp(-2.0 * t)))


# -- tabulated potentials ---------------------------------------------------


def tabulated(grid: np.ndarray, values: np.ndarray, name: str = "tabulated",
              **metadata) -> Potential:
    """Dim-1 potential from (grid, values) with linear interpolation.

    Outside the table the last interior slope is continued linearly, so a
    Lipschitz table stays Lipschitz globally.  The Hessian of a piecewise
    linear interpolant is zero between knots; smoothed-Hessian routes that
    only sample V remain available at positive times.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise BadParamsError("tabulated potential needs matching 1-d grid/values")
    if np.any(np.diff(grid) <= 0):
        raise BadParamsError("tabulated grid must be strictly increasing")
    slopes = np.diff(values) / np.diff(grid)
    lo_slope, hi_slope = slopes[0], slopes[-1]

    def raw(x):
        t = x[..., 0]
        inner = np.interp(t, grid, values)
        below = values[0] + lo_slope * (t - grid[0])
        above = values[-1] + hi_slope * (t - grid[-1])
        return np.where(t < grid[0], below, np.where(t > grid[-1], above, inner))

    def grad(x):
        t = x[..., 0]
        idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, slopes.size - 1)
        return slopes[idx][..., None]

    def hess(x):
        t = x[..., 0]
        return np.zeros_like(t)[..., None, None]

    return Potential(dim=1, raw_fn=raw, grad_fn=grad, hess_fn=hess,
                     name=name, **metadata)


# -- regularization ---------------------------------------------------------


def mollify(p: Potential, sigma: float,
            scheme: QuadratureScheme | None = None) -> Potential:
    """Potential of (e^{-V} dgamma) convolved with N(0, sigma^2 Id), against gamma.

    The Lebesgue density q = e^{-V} phi_n is smoothed to q_sigma = q * phi_sigma
    by quadrature over the mollifier variable; derivatives differentiate the
    mollifier, so the output has smooth gradient and Hessian even when V has
    kinks.  The quadrature sums are max-shifted in log space, so the value
    and gradient stay finite wherever V is finite, far past where q itself
    underflows.  No gradient bound is declared: the smoothed gradient can
    grow without bound in the tails (linear_tail), so a sup over a finite
    window would certify nothing.
    """
    if sigma <= 0:
        raise BadParamsError("mollify requires sigma > 0")
    if scheme is None:
        scheme = QuadratureScheme(dim=p.dim)
    nodes, w = scheme.nodes_weights()  # (K, dim), (K,)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    dim = p.dim
    log_norm = -0.5 * dim * np.log(2.0 * np.pi)

    def smooth_moments(x, want_grad=False, want_hess=False):
        """(log q_sigma(x), grad q_sigma / q_sigma, D^2 q_sigma / q_sigma)."""
        x = np.asarray(x, dtype=float)
        pts = x[..., None, :] - sigma * nodes  # (..., K, dim)
        a = logw - p.value(pts) - np.sum(pts * pts, axis=-1) / 2.0
        m = np.max(a, axis=-1)
        u = np.exp(a - m[..., None])  # w q(pts) / (norm e^m)
        den = np.sum(u, axis=-1)
        g = h = None
        if want_grad:
            g = -np.einsum("...k,kd->...d", u, nodes) / (sigma * den[..., None])
        if want_hess:
            outer = nodes[:, :, None] * nodes[:, None, :] - np.eye(dim)
            h = np.einsum("...k,kde->...de", u, outer) / (sigma**2 * den[..., None, None])
        return log_norm + m + np.log(den), g, h

    def raw(x):
        log_q0, _, _ = smooth_moments(x)
        sq = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return -log_q0 - sq / 2.0 - log_norm

    def grad(x):
        _, g, _ = smooth_moments(x, want_grad=True)
        return -g - np.asarray(x, dtype=float)

    def hess(x):
        _, g, h = smooth_moments(x, want_grad=True, want_hess=True)
        eye = np.eye(dim)
        return -h + g[..., :, None] * g[..., None, :] - eye

    return Potential(
        dim=dim, raw_fn=raw, grad_fn=grad, hess_fn=hess,
        curvature_lower=None, oscillation=None, grad_sup_norm=None,
        name=f"mollify({p.name}, sigma={sigma})",
    )


def lipschitz_regularize(
    p: Potential,
    l: float,
    r: float,
    points_per_axis: int = 4096,
    eval_pad: float = 6.0,
    eval_points_per_unit: int = 400,
    grid_tol: float = 5e-3,
    scheme: QuadratureScheme | None = None,
) -> Potential:
    """l-Lipschitz envelope inf{V(y) + l |x-y| : |y| <= r}, renormalized.

    The infimum ranges over y (taking it over the first argument would make
    the envelope trivially V itself); it is evaluated over a dense y-grid
    and the result stored as a piecewise-linear table whose chord slopes
    are bounded by l by construction.  A doubled y-grid must agree with the
    first pass within grid_tol, else GridTooCoarseError.

    Only dim 1 is supported at desk scale; the quadratic cost of the grid
    infimum makes dim 2 impractical at this resolution.
    """
    if l < 0 or r <= 0:
        raise BadParamsError("need l >= 0 and r > 0")
    if p.dim != 1:
        raise DimensionTooHighError("inf-convolution envelope implemented for dim 1")

    span = r + eval_pad
    n_eval = max(int(2 * span * eval_points_per_unit) + 1, 801)
    xs = np.linspace(-span, span, n_eval)

    def envelope(n_grid):
        ys = np.linspace(-r, r, n_grid)
        vy = p.value(ys[:, None])
        inside = np.abs(xs) <= r
        v_inside = p.value(xs[inside, None])
        if l == 0.0:
            # zero-slope envelope is the constant inf of V over the ball
            return np.full_like(xs, min(vy.min(), v_inside.min()))
        out = np.empty_like(xs)
        chunk = max(1, int(2_000_000 / n_grid))
        for i in range(0, xs.size, chunk):
            blk = xs[i:i + chunk]
            out[i:i + chunk] = np.min(
                vy[None, :] + l * np.abs(blk[:, None] - ys[None, :]), axis=1
            )
        # the query point itself is an admissible candidate inside the ball,
        # so the envelope is exact wherever V is already l-Lipschitz
        out[inside] = np.minimum(out[inside], v_inside)
        return out

    env = envelope(points_per_axis)
    env_fine = envelope(2 * points_per_axis)
    drift = float(np.max(np.abs(env - env_fine)))
    if drift > grid_tol:
        raise GridTooCoarseError(
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
        raise LambdaTooLargeError(
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

_FAMILIES = {
    "gaussian": lambda params: gaussian(**params),
    "constant": lambda params: constant(**params),
    "bump": lambda params: bump(**params),
    "linear_tail": lambda params: linear_tail(**params),
    "vt_counterexample": lambda params: vt_counterexample(**params),
    "sharpness": lambda params: sharpness(**params),
}


def from_family(tag: str, params: dict | None = None) -> Potential:
    if tag not in _FAMILIES:
        raise BadParamsError(f"unknown potential family {tag!r}")
    try:
        return _FAMILIES[tag](dict(params or {}))
    except TypeError as exc:
        raise BadParamsError(f"bad parameters for family {tag!r}: {exc}") from exc


def from_config(cfg: dict, scheme: QuadratureScheme | None = None) -> Potential:
    """Build a potential from a JSON-style description.

    {"family": name, "params": {...}} or {"table": {"grid": [...], "values": [...]}},
    with optional metadata overrides (curvature_lower, oscillation,
    grad_sup_norm), an optional "transforms" list applied in order
    ({"op": "mollify", "sigma": s} | {"op": "lipschitz_regularize", "l": .., "r": ..}),
    and "normalize": false to skip the final normalization.
    """
    if "family" in cfg:
        pot = from_family(cfg["family"], cfg.get("params"))
    elif "table" in cfg:
        tab = cfg["table"]
        pot = tabulated(np.asarray(tab["grid"], dtype=float),
                        np.asarray(tab["values"], dtype=float))
    else:
        raise BadParamsError("potential config needs 'family' or 'table'")

    overrides = {}
    for key in ("curvature_lower", "oscillation", "grad_sup_norm"):
        if key in cfg:
            overrides[key] = cfg[key]
    if overrides:
        pot = dataclasses.replace(pot, **overrides)

    for tr in cfg.get("transforms", []):
        op = tr.get("op")
        if op == "mollify":
            pot = mollify(pot, float(tr["sigma"]), scheme)
        elif op == "lipschitz_regularize":
            kwargs = {k: tr[k] for k in ("points_per_axis", "grid_tol") if k in tr}
            pot = lipschitz_regularize(pot, float(tr["l"]), float(tr["r"]),
                                       scheme=scheme, **kwargs)
        else:
            raise BadParamsError(f"unknown transform {op!r}")

    if cfg.get("normalize", True):
        pot = normalize(pot, scheme)
    return pot
