"""Independent oracles and counterexample reproductions.

Everything here deliberately avoids the semigroup/flow code paths it is
used to check: the 1-d monotone rearrangement inverts a quadrature CDF,
the sharpness family has closed forms, and the spike-family refutation
runs through direct adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import erfcx, ndtr, ndtri

from .errors import (
    DuplicateInputsError,
    EmptySamplesError,
    QuadratureFailError,
    TTooSmallError,
)
from .potentials import Potential, vt_counterexample

SQRT_2PI = np.sqrt(2.0 * np.pi)


# -- standard normal helpers --------------------------------------------------


def normal_pdf(x):
    return np.exp(-np.square(x) / 2.0) / SQRT_2PI


def normal_cdf(x):
    """Phi via the erf-style library routine; |error| < 1e-15 over the line."""
    return ndtr(x)


def normal_quantile(q):
    return ndtri(q)


def normal_cdf_scaled(x):
    """e^{x^2/2} Phi(-x), stable for arbitrarily large x >= 0."""
    return 0.5 * erfcx(np.asarray(x, dtype=float) / np.sqrt(2.0))


# -- quadrature CDF of a 1-d target -------------------------------------------


class TargetCdf:
    """CDF of the probability measure proportional to e^{-V} dgamma, dim 1.

    Built once from a dense cumulative-Simpson pass over the Lebesgue
    density and renormalized by the computed total mass, so it does not
    depend on the potential's own normalization constant.
    """

    def __init__(self, p: Potential, lo: float = -12.0, hi: float = 12.0,
                 step: float = 1e-3, density_floor: float = 1e-15):
        if p.dim != 1:
            raise ValueError("TargetCdf requires a 1-d potential")
        self.potential = p
        lo, hi = float(lo), float(hi)
        for _ in range(20):
            if p.lebesgue_density(np.array([[lo]]))[0] < density_floor:
                break
            lo -= 4.0
        for _ in range(20):
            if p.lebesgue_density(np.array([[hi]]))[0] < density_floor:
                break
            hi += 4.0
        n = int(np.ceil((hi - lo) / step)) + 1
        xs = np.linspace(lo, hi, n)
        dens = p.lebesgue_density(xs[:, None])
        cum = integrate.cumulative_simpson(dens, x=xs, initial=0.0)
        self.total_mass = float(cum[-1])
        if not np.isfinite(self.total_mass) or self.total_mass <= 0:
            raise QuadratureFailError("target mass is not positive-finite")
        self.lo, self.hi = lo, hi
        self._interp = PchipInterpolator(xs, cum / self.total_mass)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(self._interp(np.clip(x, self.lo, self.hi)), 0.0, 1.0)

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile defined for q in (0, 1)")
        return float(brentq(lambda x: self._interp(x) - q, self.lo, self.hi,
                            xtol=1e-12))


def monotone_rearrangement_1d(p: Potential, q: float,
                              cdf: TargetCdf | None = None) -> float:
    """F^{-1}(q) for the target CDF F; y -> F^{-1}(Phi(y)) is the unique
    increasing map pushing gamma onto the target."""
    table = cdf if cdf is not None else TargetCdf(p)
    return table.quantile(q)


def rearrangement_map(p: Potential, ys: np.ndarray) -> np.ndarray:
    """The increasing transport applied to points ys (gamma quantile chase)."""
    table = TargetCdf(p)
    return np.array([table.quantile(q) for q in normal_cdf(np.asarray(ys))])


# -- Kolmogorov-Smirnov ---------------------------------------------------------


def _ks_statistic(sorted_samples: np.ndarray, cdf_at_samples: np.ndarray) -> float:
    n = sorted_samples.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf_at_samples,
                                   cdf_at_samples - (i - 1) / n)))


def ks_distance(samples: np.ndarray, p: Potential,
                directions: int = 20, direction_seed: int = 2024,
                mc_count: int = 200_000) -> float:
    """sup |empirical CDF - target CDF|.

    Dim 1 uses the quadrature CDF exactly; higher dimensions use the
    sliced variant: the max of the 1-d statistic over `directions` fixed
    seeded unit vectors, with projected target CDFs estimated from one
    deterministic importance-weighted Gaussian sample.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EmptySamplesError("no samples provided")
    if samples.ndim == 1:
        samples = samples[:, None]
    if p.dim == 1:
        table = TargetCdf(p)
        xs = np.sort(samples[:, 0])
        return _ks_statistic(xs, table.cdf(xs))
    rng = np.random.default_rng(direction_seed)
    dirs = rng.standard_normal((directions, p.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ref = rng.standard_normal((mc_count, p.dim))
    wts = p.density(ref)
    wts = wts / wts.sum()
    worst = 0.0
    for u in dirs:
        proj_ref = ref @ u
        order = np.argsort(proj_ref)
        proj_sorted = proj_ref[order]
        cum = np.cumsum(wts[order])
        xs = np.sort(samples @ u)
        idx = np.searchsorted(proj_sorted, xs, side="right")
        cdf_vals = np.where(idx > 0, cum[np.minimum(idx, mc_count) - 1], 0.0)
        worst = max(worst, _ks_statistic(xs, cdf_vals))
    return worst


# -- empirical Lipschitz ---------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalLipschitz:
    ratio: float
    pairs_evaluated: int
    duplicates_skipped: int

    def __float__(self):
        return self.ratio


def empirical_lipschitz(inputs: np.ndarray, outputs: np.ndarray,
                        max_exact: int = 2000, pair_budget: int = 1_000_000,
                        seed: int = 7) -> EmpiricalLipschitz:
    """max over pairs of |out_i - out_j| / |in_i - in_j|.

    Exact over all pairs up to max_exact points; beyond that a seeded
    subsample of pair_budget random pairs is used (plus sorted-adjacent
    pairs in dim 1, where the largest local slopes live).  Coincident
    inputs are skipped and counted.
    """
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    n = inputs.shape[0]
    if n < 2:
        raise EmptySamplesError("need at least two pairs")

    if n <= max_exact:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, pair_budget)
        jj = rng.integers(0, n, pair_budget)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        if inputs.shape[1] == 1:
            order = np.argsort(inputs[:, 0], kind="stable")
            ii = np.concatenate([ii, order[:-1]])
            jj = np.concatenate([jj, order[1:]])

    din = np.linalg.norm(inputs[ii] - inputs[jj], axis=1)
    dout = np.linalg.norm(outputs[ii] - outputs[jj], axis=1)
    good = din > 0
    skipped = int(np.sum(~good))
    if not np.any(good):
        raise DuplicateInputsError("every sampled pair had coincident inputs")
    ratio = float(np.max(dout[good] / din[good]))
    return EmpiricalLipschitz(ratio, int(np.sum(good)), skipped)


# -- sharpness family closed forms ----------------------------------------------


def _scaled_tail_terms(x: float, T: float) -> float:
    """e^{T^2/2} (Phi(-x-T) + Phi(x-T)) without forming e^{T^2/2}."""
    out = 0.0
    for w, expo in (((x + T), -x * T - x * x / 2.0),
                    ((T - x), x * T - x * x / 2.0)):
        if w <= 0:
            raise ValueError("scaled branch needs |x| < T")
        out += normal_cdf_scaled(w) * np.exp(expo)
    return out


def sharpness_profile(x: float, T: float) -> float:
    """h(x) = E g(x + Z) for the capped profile g(u) = min(e^{T^2/2}, e^{u^2/2}).

    Closed form e^{T^2/2} (Phi(-x-T) + Phi(x-T)) + phi(x) (e^{xT} - e^{-xT}) / x,
    with the ratio read as 2T at x = 0 (series branch below |x| = 1e-4) and
    a scaled-exponential branch once e^{T^2/2} itself would overflow.
    """
    x = float(x)
    if T <= 0:
        raise ValueError("T must be positive")
    u = x * T
    if abs(x) < 1e-4:
        ratio = 2.0 * T * (1.0 + u * u / 6.0 + u**4 / 120.0)
    else:
        # sinh form avoids the e^{u} - e^{-u} cancellation near the branch point
        ratio = 2.0 * np.sinh(u) / x
    middle = normal_pdf(x) * ratio
    if T * T / 2.0 < 300.0:
        tails = np.exp(T * T / 2.0) * (normal_cdf(-x - T) + normal_cdf(x - T))
    else:
        tails = _scaled_tail_terms(x, T)
    return float(tails + middle)


def sharpness_h0(T: float) -> float:
    """h(0) = e^{T^2/2} 2 Phi(-T) + sqrt(2/pi) T, in overflow-proof form."""
    return float(erfcx(T / np.sqrt(2.0)) + np.sqrt(2.0 / np.pi) * T)


def sharpness_h2_at_zero(T: float) -> float:
    """h''(0) = sqrt(2/pi) T^3 / 3.

    The tail terms contribute 2 T phi(T) e^{T^2/2} = 2 T phi(0), which
    cancels the -2 T phi(0) from the product term exactly, leaving only
    the cubic term.
    """
    return float(np.sqrt(2.0 / np.pi) * T**3 / 3.0)


@dataclass(frozen=True)
class SharpnessCheck:
    T: float
    t: float
    measured: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.measured / self.bound


def sharpness_curvature_check(T: float, t: float) -> SharpnessCheck:
    """Log-curvature of the smoothed critical-scale profile at the origin.

    With f(x) = g(x / sqrt(1-e^{-2t})), smoothing gives
    f_t(x) = h(x / sqrt(e^{2t}-1)), so
    (log f_t)''(0) = h''(0) / (h(0) (e^{2t} - 1)); the comparison level is
    T^2 / (3 (e^{2t} - 1)).  The measured/bound ratio tends to 1 from below
    as T grows (it is 1/(1 + O(T^{-2}))), so the level is an asymptotic
    envelope, not a pointwise bound.
    """
    if T <= 0 or t <= 0:
        raise ValueError("need T > 0 and t > 0")
    denom = float(np.expm1(2.0 * t))
    measured = sharpness_h2_at_zero(T) / (sharpness_h0(T) * denom)
    bound = T * T / (3.0 * denom)
    return SharpnessCheck(T, t, measured, bound)


# -- spike-family refutation ------------------------------------------------------


@dataclass(frozen=True)
class VtCheck:
    T: float
    c_T: float
    mu_tail: float
    density_at_T: float
    density_closed_form: float
    isoperimetric_lower_bound: float
    analytic_threshold: float
    l: Optional[float] = None
    l_refuted: Optional[bool] = None


def vt_counterexample_check(T: float, l: float | None = None) -> VtCheck:
    """Quadrature verification of the spike-family refutation chain at T.

    Computes the normalizing constant c_T, the tail mass mu_T([T, inf)),
    and the Lebesgue density at T, then the two Lipschitz lower bounds:
    the honest isoperimetric bound mu / (sqrt(2 pi) g(T)) and the analytic
    threshold (16/17) exp(95 T^2 / 512) reconstructed from its exponent
    pieces 3/4 - 289/512.  A map with constant l < the isoperimetric bound
    cannot push gamma onto this target.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    W = lambda x: np.maximum(0.0, T * T / 4.0 - 64.0 * (x - T) ** 2)
    dens0 = lambda x: np.exp(-W(x)) * normal_pdf(x)   # un-normalized vs Lebesgue
    lo, hi = 15.0 * T / 16.0, 17.0 * T / 16.0
    mass, mass_err = 0.0, 0.0
    for a, b in ((-np.inf, lo), (lo, hi), (hi, np.inf)):
        val, err = integrate.quad(dens0, a, b, limit=300, epsabs=1e-13,
                                  epsrel=1e-12)
        mass += val
        mass_err += err
    if mass_err > 1e-9:
        raise QuadratureFailError("spike-family mass quadrature too inaccurate")
    c_T = float(-np.log(mass))

    tail = (integrate.quad(dens0, T, hi, limit=300, epsabs=1e-14)[0]
            + integrate.quad(dens0, hi, np.inf, epsabs=1e-14)[0])
    mu_tail = float(np.exp(c_T) * tail)
    if mu_tail > 0.5:
        raise TTooSmallError(
            "tail mass above 1/2: the isoperimetric inequality needs "
            "mu([T, inf)) <= 1/2; increase T"
        )

    pot = vt_counterexample(T)
    density_at_T = float(np.exp(-(pot.raw_fn(np.array([[T]]))[0] - c_T))
                         * normal_pdf(T))
    density_closed = float(np.exp(-0.75 * T * T + c_T) / SQRT_2PI)
    iso_bound = float(mu_tail / (SQRT_2PI * density_at_T))
    threshold = float((16.0 / 17.0) * np.exp((3.0 / 4.0 - 289.0 / 512.0) * T * T))
    refuted = None if l is None else bool(l < iso_bound)
    return VtCheck(T, c_T, mu_tail, density_at_T, density_closed,
                   iso_bound, threshold, l, refuted)


# -- tail decay fits ----------------------------------------------------------------


@dataclass(frozen=True)
class TailFit:
    xs: np.ndarray
    log_tail: np.ndarray
    linear_slope: float
    linear_intercept: float
    quad_coeff: float
    quad_linear: float
    quad_intercept: float
    gaussian_incompatible: bool
    implied_lipschitz: Optional[float]


def tail_test(p: Potential, xs: Sequence[float],
              incompatibility_level: float = -0.02) -> TailFit:
    """log Pr(X >= x) over xs with linear and quadratic least-squares fits.

    A Lipschitz image of gamma with constant L has a tail whose log decays
    like -x^2/(2 L^2); a fitted quadratic coefficient above
    `incompatibility_level` therefore flags the target as incompatible
    with any such pushforward (the refutation used by the linear-tail
    example, whose log tail is exactly affine).
    """
    if p.dim != 1:
        raise ValueError("tail_test requires a 1-d potential")
    xs = np.asarray(xs, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least 3 abscissas to fit")
    dens = lambda x: p.lebesgue_density(np.array([[x]]))[0]

    def quad_segmented(a, b):
        """Adaptive quadrature split at kinks; infinite limbs carry no break points."""
        cuts = sorted(k for k in p.kinks if a < k < b)
        edges = [a] + cuts + [b]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate.quad(dens, lo, hi, limit=300)[0]
        return total

    total = quad_segmented(-np.inf, np.inf)
    tails = np.empty(xs.size)
    for i, x in enumerate(xs):
        tails[i] = quad_segmented(x, np.inf) / total
        if not np.isfinite(tails[i]) or tails[i] <= 0:
            raise QuadratureFailError(f"tail mass at x={x} not positive-finite")
    log_tail = np.log(tails)
    A1 = np.vstack([np.ones_like(xs), xs]).T
    (b0, b1), *_ = np.linalg.lstsq(A1, log_tail, rcond=None)[:1]
    A2 = np.vstack([np.ones_like(xs), xs, xs * xs]).T
    (a0, a1, a2), *_ = np.linalg.lstsq(A2, log_tail, rcond=None)[:1]
    incompatible = bool(a2 > incompatibility_level)
    implied = float(np.sqrt(-1.0 / (2.0 * a2))) if a2 < -1e-12 else None
    return TailFit(xs, log_tail, float(b1), float(b0), float(a2), float(a1),
                   float(a0), incompatible, implied)


# -- report containers ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundComparison:
    name: str
    measured: float
    bound: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "bound": self.bound, "tolerance": self.tolerance,
                "pass": self.passed}


@dataclass
class DiagnosticsReport:
    ks_distance: Optional[float] = None
    empirical_lipschitz: Optional[float] = None
    bound_comparisons: list = field(default_factory=list)
    counterexample_results: dict = field(default_factory=dict)
    failed_sample_indices: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.bound_comparisons)

    def as_dict(self) -> dict:
        return {
            "ks_distance": self.ks_distance,
            "empirical_lipschitz": self.empirical_lipschitz,
            "bound_comparisons": [c.as_dict() for c in self.bound_comparisons],
            "counterexample_results": self.counterexample_results,
            "failed_sample_indices": list(map(int, self.failed_sample_indices)),
        }
