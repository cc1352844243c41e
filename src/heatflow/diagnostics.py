"""Independent oracles and counterexample reproductions.

Everything here deliberately avoids the semigroup/flow code paths it is
used to check, and imports nothing from the package but `errors` and
`potentials`: the 1-d monotone rearrangement bisects a CDF that Simpson's
rule builds from the target density alone, the sharpness family has
closed forms, and the spike-family refutation, the tail test and the
verify profile integrals run through the module's own vectorized
tanh-sinh quadrature (`tanhsinh_integrals`).

Only the test and benchmark oracles `rearrangement_map` and
`sharpness_profile` call scipy (`scipy.special`, imported inside the
function that calls it), so importing this module, as `import heatflow`
does, loads no scipy module, and neither does any command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import HeatflowError
from .potentials import Potential, vt_counterexample

SQRT_2PI = np.sqrt(2.0 * np.pi)
KS_DIRECTIONS = 20
KS_DIRECTION_SEED = 2024
KS_REFERENCE_SIZE = 200_000
QUANTILE_BISECTIONS = 64
LIPSCHITZ_MAX_EXACT = 2000
LIPSCHITZ_PAIR_BUDGET = 1_000_000
LIPSCHITZ_PAIR_SEED = 7
LIPSCHITZ_BLOCK_PAIRS = 2**16
TAIL_INCOMPATIBILITY_LEVEL = -0.02
# tail_test's window ends where the Lebesgue density is below this
TAIL_DENSITY_FLOOR = 1e-300
# tanh-sinh: steps t in [-4, 4], halved from 1 at level 0 down to 2^-12
TANHSINH_T_MAX = 4.0
TANHSINH_MIN_LEVEL = 3
TANHSINH_MAX_LEVEL = 12
TANHSINH_RTOL = float(np.finfo(float).eps) ** 0.75
# _erfcx switches from math.erfc to its asymptotic series here
ERFCX_SERIES_FROM = 26.0


# -- standard normal helpers --------------------------------------------------


def normal_pdf(x):
    return np.exp(-np.square(x) / 2.0) / SQRT_2PI


def normal_cdf(x):
    """Phi via the erf-style library routine; |error| < 1e-15 over the line."""
    from scipy.special import ndtr
    return ndtr(x)


def normal_cdf_scaled(x):
    """e^{x^2/2} Phi(-x), stable for arbitrarily large x >= 0."""
    from scipy.special import erfcx
    return 0.5 * erfcx(np.asarray(x, dtype=float) / np.sqrt(2.0))


# -- quadrature CDF of a 1-d target -------------------------------------------


def _window_end(p: Potential, side: float, ends, floor: float) -> float:
    """The first of `ends` times `side` (+1 or -1) at which p's Lebesgue
    density is below `floor` (a NaN density is not below it)."""
    for e in ends:
        x = side * e
        if p.lebesgue_density(np.array([[x]]))[0] < floor:
            return x
    raise HeatflowError(f"target density is still >= {floor:g} at {x:g}; "
                        "the window would truncate its mass")


def _tanhsinh_rule(t, a, b):
    """Nodes and weights at the steps t for the intervals [a, b]: the
    tanh-sinh map x = (a + b)/2 + (b - a)/2 tanh(u), u = pi/2 sinh t, or
    the exp-sinh map x = a + e^u where b = +inf.  A finite-interval node
    is placed by its distance from the nearer end, so no node falls on an
    end and poles there are kept."""
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    a, b = a[..., None], b[..., None]
    infinite = np.isinf(b)
    length = np.where(infinite, 0.0, b - a)
    q = np.exp(-2.0 * np.abs(u))
    gap = length * q / (1.0 + q)
    x = np.where(t < 0, a + gap, b - gap)
    w = length * 2.0 * du * q / (1.0 + q) ** 2
    grow = np.exp(u)
    return np.where(infinite, a + grow, x), np.where(infinite, du * grow, w)


def tanhsinh_integrals(f, a, b, what: str, atol: float = 0.0,
                       rtol: float = TANHSINH_RTOL) -> np.ndarray:
    """Integrals of the elementwise f over [a, b] (broadcast arrays, a
    finite, b finite or +inf) by tanh-sinh quadrature (Takahasi-Mori 1974).

    Level k sums f w over t = j 2^-k in [-TANHSINH_T_MAX, TANHSINH_T_MAX],
    adding only the new odd nodes.  An interval's estimate is final at the
    first level >= TANHSINH_MIN_LEVEL where it moved by at most
    max(atol, rtol |I|) and its outermost terms |f w| are below that too
    (otherwise the truncated t-range would cut off mass).  An interval
    that has not settled by TANHSINH_MAX_LEVEL raises HeatflowError naming
    `what` and the first such interval.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b) | (b == np.inf))):
        raise ValueError(f"{what}: tanh-sinh needs a finite and b finite or +inf")

    def terms(t, rows):
        x, w = _tanhsinh_rule(t, a[rows], b[rows])
        return f(x) * w

    h = 1.0
    first = terms(np.arange(-TANHSINH_T_MAX, TANHSINH_T_MAX + 0.5), slice(None))
    sums = first.sum(axis=-1)
    edge = np.maximum(np.abs(first[:, 0]), np.abs(first[:, -1]))
    est = sums.copy()
    err = np.full(a.shape, np.inf)
    active = np.arange(a.size)
    for level in range(1, TANHSINH_MAX_LEVEL + 1):
        h /= 2.0
        t = (2.0 * np.arange(TANHSINH_T_MAX / h) + 1.0) * h - TANHSINH_T_MAX
        sums[active] += terms(t, active).sum(axis=-1)
        new = h * sums[active]
        err[active] = np.maximum(np.abs(new - est[active]), edge[active])
        est[active] = new
        if level >= TANHSINH_MIN_LEVEL:
            # a NaN estimate or error never settles
            settled = err[active] <= np.maximum(atol, rtol * np.abs(new))
            active = active[~settled]
            if not active.size:
                return est.reshape(shape)
    i = active[0]
    raise HeatflowError(f"tanh-sinh quadrature of {what} on [{a[i]:g}, {b[i]:g}] "
                        f"did not converge (error estimate {err[i]:.3g} after "
                        f"{TANHSINH_MAX_LEVEL} levels)")


def _simpson(density, a, density_a, b):
    """Simpson's rule for the density over [a, b], given density_a =
    density(a): nonnegative wherever the density is."""
    return (b - a) / 6.0 * (density_a + 4.0 * density(0.5 * (a + b)) + density(b))


class TargetCdf:
    """CDF of the probability measure proportional to e^{-V} dgamma, dim 1.

    The window is [-12, 12], each end widened by 4 (at most 20 times, to
    92 on either side) until the Lebesgue density there is below 1e-15.
    Knots 1e-3 apart carry the running sum of Simpson's rule over each
    cell, h/6 (rho(x_k) + 4 rho(mid_k) + rho(x_{k+1})), so the knot values
    never decrease; between the knots the CDF adds Simpson's rule over
    [x_k, x] from the same helper, so it is continuous at the knots.  The
    sums are divided by the computed total mass, so the CDF does not
    depend on the potential's own normalization constant.  Raises
    HeatflowError when either end still has density >= 1e-15 after the
    widening (the window would cut off mass) or the mass is not positive
    and finite.
    """

    def __init__(self, p: Potential):
        if p.dim != 1:
            raise ValueError("TargetCdf requires a 1-d potential")
        ends = 12.0 + 4.0 * np.arange(21)
        lo, hi = (_window_end(p, side, ends, 1e-15) for side in (-1.0, 1.0))
        n = int(np.ceil((hi - lo) / 1e-3)) + 1
        xs = np.linspace(lo, hi, n)
        self._density = lambda x: p.lebesgue_density(x[..., None])
        self._knot_density = self._density(xs)
        cells = _simpson(self._density, xs[:-1], self._knot_density[:-1], xs[1:])
        self._mass = np.concatenate([[0.0], np.cumsum(cells)])
        self.total_mass = float(self._mass[-1])
        if not np.isfinite(self.total_mass) or self.total_mass <= 0:
            raise HeatflowError("target mass is not positive-finite")
        self.lo, self.hi = lo, hi
        self._knots = xs
        self._values = self._mass / self.total_mass

    def _cdf_in_cell(self, cell, x):
        """The CDF at x in [x_cell, x_{cell+1}]: equal to the knot values at
        both ends."""
        partial = _simpson(self._density, self._knots[cell], self._knot_density[cell], x)
        return (self._mass[cell] + partial) / self.total_mass

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        # cell k holds [x_k, x_{k+1}); the last cell is closed
        cell = np.minimum(np.searchsorted(self._knots, x, side="right") - 1,
                          self._knots.size - 2)
        return np.clip(self._cdf_in_cell(cell, x), 0.0, 1.0)

    def quantile(self, q):
        """F^{-1}(q) for each q in (0, 1): the cell whose knot values bracket
        q, then QUANTILE_BISECTIONS halvings of the cell (width
        1e-3 * 2^-64 < 1e-22, below the float spacing at |x| > 1e-6)."""
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ValueError("quantile defined for q in (0, 1)")
        cell = np.minimum(np.searchsorted(self._values, q, side="right") - 1,
                          self._knots.size - 2)
        start = self._knots[cell]
        a = np.zeros(q.shape)
        b = self._knots[cell + 1] - start
        for _ in range(QUANTILE_BISECTIONS):
            mid = 0.5 * (a + b)
            below = self._cdf_in_cell(cell, start + mid) < q
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        return (start + 0.5 * (a + b))[()]


def monotone_rearrangement_1d(p: Potential, q: float) -> float:
    """F^{-1}(q) for the target CDF F; y -> F^{-1}(Phi(y)) is the unique
    increasing map pushing gamma onto the target."""
    return float(TargetCdf(p).quantile(q))


def rearrangement_map(p: Potential, ys: np.ndarray) -> np.ndarray:
    """The increasing transport applied to points ys (gamma quantile chase)."""
    return TargetCdf(p).quantile(normal_cdf(np.asarray(ys, dtype=float)))


# -- Kolmogorov-Smirnov ---------------------------------------------------------


def _ks_statistic(sorted_samples: np.ndarray, cdf_at_samples: np.ndarray) -> float:
    n = sorted_samples.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - cdf_at_samples,
                                   cdf_at_samples - (i - 1) / n)))


def ks_distance(samples: np.ndarray, p: Potential) -> float:
    """sup |empirical CDF - target CDF|.

    Dim 1 uses the quadrature CDF exactly; higher dimensions use the
    sliced variant: the max of the 1-d statistic over KS_DIRECTIONS fixed
    seeded unit vectors, with projected target CDFs estimated from one
    deterministic importance-weighted Gaussian sample of KS_REFERENCE_SIZE
    points.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples provided")
    if samples.ndim == 1:
        samples = samples[:, None]
    if p.dim == 1:
        table = TargetCdf(p)
        xs = np.sort(samples[:, 0])
        return _ks_statistic(xs, table.cdf(xs))
    rng = np.random.default_rng(KS_DIRECTION_SEED)
    dirs = rng.standard_normal((KS_DIRECTIONS, p.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ref = rng.standard_normal((KS_REFERENCE_SIZE, p.dim))
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
        cdf_vals = np.where(idx > 0, cum[np.minimum(idx, KS_REFERENCE_SIZE) - 1], 0.0)
        worst = max(worst, _ks_statistic(xs, cdf_vals))
    return worst


# -- empirical Lipschitz ---------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalLipschitz:
    ratio: float
    pairs_evaluated: int
    duplicates_skipped: int


def _adjacent_pairs(x: np.ndarray, y: np.ndarray):
    """The pairs of the 1-d ratio: the neighbours of the order by input (ties
    by output), plus, where either side of a step between distinct inputs
    holds a tie, the lowest output on its left with the highest on its
    right.  Every chord whose inputs differ then has a path through one
    such pair per step, so its slope is below their largest."""
    order = np.lexsort((y, x))
    xs = x[order]
    first = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    last = np.concatenate([first[1:] - 1, [xs.size - 1]])
    tied = (last > first)[:-1] | (last > first)[1:]
    return (np.concatenate([order[:-1], order[first[:-1][tied]]]),
            np.concatenate([order[1:], order[last[1:][tied]]]))


def _pair_blocks(inputs: np.ndarray, outputs: np.ndarray):
    """The pairs (ii, jj) of empirical_lipschitz: in dim 1 (a scalar map)
    the adjacent pairs of _adjacent_pairs in one block; otherwise at most
    LIPSCHITZ_BLOCK_PAIRS at a time, whole rows i of the pairs i < j on the
    exact path and slices of the drawn list (self-pairs dropped) on the
    random one."""
    n = inputs.shape[0]
    if inputs.shape[1] == 1 == outputs.shape[1]:
        yield _adjacent_pairs(inputs[:, 0], outputs[:, 0])
        return
    if n <= LIPSCHITZ_MAX_EXACT:
        step = max(1, LIPSCHITZ_BLOCK_PAIRS // (n - 1))
        for lo in range(0, n - 1, step):
            rows = np.arange(lo, min(lo + step, n - 1))
            ii, jj = np.nonzero(np.arange(n) > rows[:, None])
            yield ii + lo, jj
        return
    rng = np.random.default_rng(LIPSCHITZ_PAIR_SEED)
    ii = rng.integers(0, n, LIPSCHITZ_PAIR_BUDGET)
    jj = rng.integers(0, n, LIPSCHITZ_PAIR_BUDGET)
    for lo in range(0, LIPSCHITZ_PAIR_BUDGET, LIPSCHITZ_BLOCK_PAIRS):
        i, j = ii[lo:lo + LIPSCHITZ_BLOCK_PAIRS], jj[lo:lo + LIPSCHITZ_BLOCK_PAIRS]
        keep = i != j
        yield i[keep], j[keep]


def empirical_lipschitz(inputs: np.ndarray, outputs: np.ndarray) -> EmpiricalLipschitz:
    """max over pairs of |out_i - out_j| / |in_i - in_j|.

    In dim 1 (scalar inputs and outputs) the max over every pair comes
    exactly from the sorted-adjacent pairs of _adjacent_pairs.  Otherwise
    it is exact over all pairs up to LIPSCHITZ_MAX_EXACT points; beyond
    that LIPSCHITZ_PAIR_BUDGET random pairs drawn from LIPSCHITZ_PAIR_SEED
    are used.  Coincident inputs are skipped and counted.  The pairs are
    evaluated in blocks (see _pair_blocks), so memory stays bounded.
    """
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    if inputs.shape[0] < 2:
        raise ValueError("need at least two pairs")

    peaks, good, skipped = [], 0, 0
    for ii, jj in _pair_blocks(inputs, outputs):
        din = np.linalg.norm(inputs[ii] - inputs[jj], axis=1)
        dout = np.linalg.norm(outputs[ii] - outputs[jj], axis=1)
        ok = din > 0
        count = int(np.sum(ok))
        if count:
            peaks.append(np.max(dout[ok] / din[ok]))
        good += count
        skipped += ok.size - count
    if not good:
        raise ValueError("every sampled pair had coincident inputs")
    return EmpiricalLipschitz(float(np.max(peaks)), good, skipped)


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


def _erfcx(x: float) -> float:
    """e^{x^2} erfc(x) for x >= 0: math.erfc times e^{x^2} taken as
    e^{h^2} e^{(x - h)(x + h)}, h the top 26 bits of x (so h^2 is exact),
    below ERFCX_SERIES_FROM; beyond, the asymptotic series
    (1 / (x sqrt(pi))) sum_n (-1)^n (2n - 1)!! / (2x^2)^n to 10 terms, whose
    next term is below 4e-23 of the sum there."""
    if x < ERFCX_SERIES_FROM:
        split = 134217729.0 * x     # Veltkamp split: 2^27 + 1
        h = split - (split - x)
        return math.erfc(x) * math.exp(h * h) * math.exp((x - h) * (x + h))
    term, total = 1.0, 1.0
    for n in range(1, 10):
        term *= -(2 * n - 1) / (2.0 * x * x)
        total += term
    return total / (x * math.sqrt(math.pi))


def sharpness_h0(T: float) -> float:
    """h(0) = e^{T^2/2} 2 Phi(-T) + sqrt(2/pi) T, in overflow-proof form."""
    return _erfcx(T / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * T


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
    cannot push gamma onto this target; a given l must be >= 0.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if l is not None and l < 0:
        raise ValueError("l must be >= 0")
    pot = vt_counterexample(T)
    W = lambda x: np.maximum(0.0, T * T / 4.0 - 64.0 * (x - T) ** 2)
    dens0 = lambda x: np.exp(-W(x)) * normal_pdf(x)   # un-normalized vs Lebesgue
    ends = 2.0 ** np.arange(3, 15)
    lo, hi = (_window_end(pot, side, ends, TAIL_DENSITY_FLOOR) for side in (-1.0, 1.0))
    # the mass is all four pieces, split at the kinks and at T; the tail the last two
    edges = np.array([lo, 15.0 * T / 16.0, T, 17.0 * T / 16.0, hi])
    pieces = tanhsinh_integrals(dens0, edges[:-1], edges[1:],
                                "the spike-family density", rtol=1e-13)
    c_T = float(-np.log(pieces.sum()))
    tail = pieces[2:].sum()
    mu_tail = float(np.exp(c_T) * tail)
    if mu_tail > 0.5:
        raise ValueError(
            "tail mass above 1/2: the isoperimetric inequality needs "
            "mu([T, inf)) <= 1/2; increase T"
        )

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
    quad_coeff: float
    gaussian_incompatible: bool
    implied_lipschitz: Optional[float]


def tail_test(p: Potential, xs: Sequence[float]) -> TailFit:
    """log Pr(X >= x) over xs with linear and quadratic least-squares fits.

    A Lipschitz image of gamma with constant L has a tail whose log decays
    like -x^2/(2 L^2); a fitted quadratic coefficient above
    TAIL_INCOMPATIBILITY_LEVEL therefore flags the target as incompatible
    with any such pushforward (the refutation used by the linear-tail
    example, whose log tail is exactly affine).  The fit reads only the
    tail, so every abscissa must have tail mass <= 1/2, and it needs at
    least 3 distinct abscissas; otherwise ValueError.

    The masses come from one vectorized tanh-sinh call over every
    (abscissa, segment) pair, split at p.kinks, on a finite window: each
    end is the first of 8, 16, ..., 2^14 (times -1 on the left) where the
    Lebesgue density is below TAIL_DENSITY_FLOOR.  The exp-sinh end of an
    infinite limb samples x up to about 4e18, where a potential such as
    linear_tail cancels catastrophically.  No such end, or an integral that does not
    converge, raises HeatflowError.
    """
    if p.dim != 1:
        raise ValueError("tail_test requires a 1-d potential")
    xs = np.asarray(xs, dtype=float)
    if np.unique(xs).size < 3:
        raise ValueError("need at least 3 distinct abscissas to fit")
    ends = 2.0 ** np.arange(3, 15)
    lo, hi = (_window_end(p, side, ends, TAIL_DENSITY_FLOOR) for side in (-1.0, 1.0))
    # row 0 is the total mass, row i + 1 the tail from xs[i]
    a, b, owner = [], [], []
    for i, start in enumerate(np.concatenate([[lo], xs])):
        edges = [start, *sorted(k for k in p.kinks if start < k < hi), hi]
        a += edges[:-1]
        b += edges[1:]
        owner += [i] * (len(edges) - 1)
    # a segment whose mass is below the floor (kinks far out) converges at 0
    seg = tanhsinh_integrals(lambda x: p.lebesgue_density(x[..., None]),
                             np.array(a), np.array(b), "the Lebesgue density",
                             atol=TAIL_DENSITY_FLOOR)
    masses = np.bincount(owner, weights=seg)
    tails = masses[1:] / masses[0]
    for x, tail in zip(xs, tails):
        if not np.isfinite(tail) or tail <= 0:
            raise HeatflowError(f"tail mass at x={x} not positive-finite")
        if tail > 0.5:
            raise ValueError(f"tail mass {tail:.3g} at x={x:g} is above 1/2; "
                             "the tail fit needs abscissas in the upper tail")
    log_tail = np.log(tails)
    A1 = np.vstack([np.ones_like(xs), xs]).T
    (_, b1), *_ = np.linalg.lstsq(A1, log_tail, rcond=None)[:1]
    A2 = np.vstack([np.ones_like(xs), xs, xs * xs]).T
    (_, _, a2), *_ = np.linalg.lstsq(A2, log_tail, rcond=None)[:1]
    incompatible = bool(a2 > TAIL_INCOMPATIBILITY_LEVEL)
    implied = float(np.sqrt(-1.0 / (2.0 * a2))) if a2 < -1e-12 else None
    return TailFit(xs, log_tail, float(b1), float(a2), incompatible, implied)
