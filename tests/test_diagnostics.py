import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import erfcx, log_ndtr, ndtri

import heatflow as hf
from heatflow.diagnostics import (
    ERFCX_SERIES_FROM,
    LIPSCHITZ_BLOCK_PAIRS,
    LIPSCHITZ_MAX_EXACT,
    LIPSCHITZ_PAIR_BUDGET,
    LIPSCHITZ_PAIR_SEED,
    SQRT_2PI,
    TAIL_DENSITY_FLOOR,
    TargetCdf,
    _window_end,
    empirical_lipschitz,
    ks_distance,
    monotone_rearrangement_1d,
    normal_cdf,
    normal_cdf_scaled,
    normal_pdf,
    rearrangement_map,
    sharpness_curvature_check,
    sharpness_h0,
    sharpness_h2_at_zero,
    sharpness_profile,
    tail_test,
    tanhsinh_integrals,
    vt_counterexample_check,
)
from heatflow.errors import HeatflowError


# -- tanh-sinh quadrature -------------------------------------------------------


def test_tanhsinh_smooth_finite_integral():
    got = tanhsinh_integrals(np.exp, -1.0, 2.0, "e^x")
    assert got == pytest.approx(np.exp(2.0) - np.exp(-1.0), rel=1e-15)


def test_tanhsinh_endpoint_singularity():
    # no node lands on the pole at 0
    got = tanhsinh_integrals(lambda x: x ** -0.5, 0.0, 1.0, "x^-1/2")
    assert got == pytest.approx(2.0, rel=1e-14)


def test_tanhsinh_half_line_at_verify_split_points():
    # the exp-sinh end: integral_s^inf dt / (e^{2t} - 1) = -log(1 - e^{-2s}) / 2
    s = np.concatenate([hf.bounds.switch_time(lam) * np.array([0.5, 1.0, 1.5])
                        for lam in (1.0, 2.0, 4.0)])
    with np.errstate(over="ignore"):
        got = tanhsinh_integrals(lambda t: 1.0 / np.expm1(2.0 * t), s, np.inf,
                                 "the oscillation route", atol=1e-13, rtol=1e-13)
    want = -0.5 * np.log(-np.expm1(-2.0 * s))
    assert got.shape == s.shape
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_tanhsinh_broadcast_intervals():
    a = np.array([0.0, 1.0, 2.0])
    got = tanhsinh_integrals(np.sin, a, 3.0, "sin")
    assert got.shape == (3,)
    np.testing.assert_allclose(got, np.cos(a) - np.cos(3.0), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("T", [5.0, 6.0])
def test_tanhsinh_spike_family_pieces_against_quad(T):
    # the pieces of the spike-family mass and tail, half-lines cut at the
    # density floor as vt_counterexample_check cuts them
    dens = lambda x: (np.exp(-np.maximum(0.0, T * T / 4.0 - 64.0 * (x - T) ** 2))
                      * normal_pdf(x))
    lo, hi = 15.0 * T / 16.0, 17.0 * T / 16.0
    ends = 2.0 ** np.arange(3, 15)
    left, right = (_window_end(hf.vt_counterexample(T), side, ends, TAIL_DENSITY_FLOOR)
                   for side in (-1.0, 1.0))
    pieces = [(-np.inf, lo), (lo, hi), (hi, np.inf), (T, hi), (hi, np.inf)]
    got = tanhsinh_integrals(dens, [max(a, left) for a, _ in pieces],
                             [min(b, right) for _, b in pieces], "the spike family",
                             rtol=1e-13)
    want = [integrate.quad(dens, a, b, limit=300, epsabs=0.0, epsrel=1e-13)[0]
            for a, b in pieces]
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_tanhsinh_divergent_integral_raises():
    with pytest.raises(HeatflowError, match=r"of 1/x on \[0, 1\] did not converge"):
        tanhsinh_integrals(lambda x: 1.0 / x, 0.0, 1.0, "1/x")


@pytest.mark.parametrize("a, b", [(-np.inf, 0.0), (0.0, -np.inf), (np.nan, 1.0)])
def test_tanhsinh_refuses_ends_it_cannot_map(a, b):
    with pytest.raises(ValueError, match="a finite and b finite or"):
        tanhsinh_integrals(normal_pdf, a, b, "phi")


# -- normal distribution helpers ------------------------------------------------


def test_normal_cdf_against_quadrature():
    # agreement is limited by the reference quadrature, not by the routine
    for x in np.linspace(-5, 5, 20):
        want = integrate.quad(normal_pdf, -np.inf, x, epsabs=1e-15,
                              epsrel=1e-13)[0]
        assert abs(normal_cdf(x) - want) < 1e-13


def test_normal_cdf_scaled_identity():
    for x in (0.5, 3.0, 10.0):
        assert normal_cdf_scaled(x) == pytest.approx(
            np.exp(x * x / 2.0) * normal_cdf(-x), rel=1e-12)
    # survives arguments far past the overflow point of e^{x^2/2}
    assert np.isfinite(normal_cdf_scaled(50.0))


def test_normal_quantile_round_trip():
    for q in (0.01, 0.3, 0.5, 0.975):
        assert normal_cdf(ndtri(q)) == pytest.approx(q, abs=1e-14)


# -- monotone rearrangement ----------------------------------------------------------


def test_rearrangement_identity_on_gamma():
    p = hf.normalize(hf.gaussian(0.0))
    got = monotone_rearrangement_1d(p, float(normal_cdf(1.0)))
    assert got == pytest.approx(1.0, abs=1e-8)


def test_rearrangement_gaussian_scaling(gaussian_one):
    got = monotone_rearrangement_1d(gaussian_one, float(normal_cdf(1.0)))
    assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_rearrangement_linear_tail_cross_check():
    p = hf.normalize(hf.linear_tail())
    q = 0.999
    got = monotone_rearrangement_1d(p, q)
    # independent oracle: root-find on the direct adaptive-quadrature CDF
    dens = lambda x: p.lebesgue_density(np.array([[x]]))[0]
    total = (integrate.quad(dens, -np.inf, 1.0, limit=300)[0]
             + integrate.quad(dens, 1.0, np.inf, limit=300)[0])

    def cdf_direct(x):
        if x <= 1.0:
            return integrate.quad(dens, -np.inf, x, limit=300)[0] / total
        return (integrate.quad(dens, -np.inf, 1.0, limit=300)[0]
                + integrate.quad(dens, 1.0, x, limit=300)[0]) / total

    want = brentq(lambda x: cdf_direct(x) - q, 0.0, 30.0, xtol=1e-12)
    assert got == pytest.approx(want, abs=1e-8)


def test_rearrangement_map_monotone(std_bump):
    ys = np.linspace(-3, 3, 25)
    out = rearrangement_map(std_bump, ys)
    assert np.all(np.diff(out) > 0)


def test_target_cdf_refuses_a_truncated_window():
    # N(0, 1000) still has density 2.4e-4 at the widest window end, 92;
    # a CDF cut off there would map 2 to 62.26 instead of 63.25
    p = hf.normalize(hf.gaussian(-0.999))
    with pytest.raises(HeatflowError, match="truncate"):
        rearrangement_map(p, np.array([2.0]))


TABLE_POTENTIALS = {
    "bump(0, .5, .5)": lambda: hf.bump(0.0, 0.5, 0.5),
    "bump(.5, .25, 1)": lambda: hf.bump(0.5, 0.25, 1.0),
    "regularized linear tail": lambda: hf.lipschitz_regularize(hf.linear_tail(),
                                                               l=1.0, r=6.0),
}


@pytest.mark.parametrize("rho", [1.0, -0.5])
def test_target_cdf_matches_gaussian_closed_form(rho):
    # gaussian(rho) is N(0, 1/(1 + rho)); unnormalized, so the table's own
    # total mass does the normalizing
    table = TargetCdf(hf.gaussian(rho))
    x = np.random.default_rng(5).uniform(-4.0, 4.0, 400)
    assert np.max(np.abs(table.cdf(x) - normal_cdf(x * np.sqrt(1.0 + rho)))) <= 1e-13


def test_quantile_matches_gaussian_closed_form():
    ys = np.linspace(-3.0, 3.0, 121)
    for rho in (1.0, 3.0, -0.5):
        got = TargetCdf(hf.gaussian(rho)).quantile(normal_cdf(ys))
        assert np.max(np.abs(got - ys / np.sqrt(1.0 + rho))) <= 1e-11, rho


def test_target_cdf_monotone_beside_a_density_jump(walled_gaussian):
    # the density jumps to 0 at the walls |x| = 5; every cell's mass is
    # nonnegative, so the knot values never decrease and no quantile lies
    # left of the support
    table = TargetCdf(walled_gaussian)
    assert np.all(np.diff(table._values) >= 0)
    assert table.quantile(1e-300) >= -5.0


@pytest.mark.parametrize("name", TABLE_POTENTIALS)
def test_rearrangement_map_matches_brentq(name):
    p = TABLE_POTENTIALS[name]()
    table = TargetCdf(p)
    ys = np.linspace(-3.0, 3.0, 61)
    want = [brentq(lambda x: table.cdf(x) - q, table.lo, table.hi, xtol=1e-12)
            for q in normal_cdf(ys)]
    got = rearrangement_map(p, ys)
    assert np.max(np.abs(got - want)) <= 1e-12
    # a batch call is elementwise, bit for bit
    one_by_one = [rearrangement_map(p, np.array([y]))[0] for y in ys]
    assert np.array_equal(got, one_by_one)
    assert monotone_rearrangement_1d(p, float(normal_cdf(ys[7]))) == got[7]


def test_quantile_refuses_levels_outside_the_open_interval(std_bump):
    table = TargetCdf(std_bump)
    for bad in (0.0, 1.0, np.nan, [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"q in \(0, 1\)"):
            table.quantile(bad)


# -- Kolmogorov-Smirnov ----------------------------------------------------------------


def test_ks_point_mass_against_gamma():
    p = hf.normalize(hf.gaussian(0.0))
    assert ks_distance(np.zeros(1000), p) == pytest.approx(0.5, abs=1e-3)


def test_ks_of_target_samples(std_bump):
    table = TargetCdf(std_bump)
    rng = np.random.default_rng(31)
    samples = table.quantile(rng.uniform(0.001, 0.999, 2000))
    assert ks_distance(samples, std_bump) < 1.63 / np.sqrt(2000)


def test_ks_critical_level_pass_rate(std_bump):
    # at the 1% level the statistic should clear 1.63/sqrt(n) in >= 95/100 runs
    table = TargetCdf(std_bump)
    n, passes = 400, 0
    grid = np.linspace(1e-4, 1 - 1e-4, 4001)
    inv = table.quantile(grid)
    for seed in range(100):
        u = np.random.default_rng(seed).uniform(0, 1, n)
        samples = np.interp(u, grid, inv)
        if ks_distance(samples, std_bump) < 1.63 / np.sqrt(n):
            passes += 1
    assert passes >= 95


def test_ks_empty_error(std_bump):
    with pytest.raises(ValueError, match="no samples provided"):
        ks_distance(np.array([]), std_bump)


def test_ks_sliced_2d():
    p = hf.normalize(hf.gaussian(0.0, dim=2))
    rng = np.random.default_rng(8)
    assert ks_distance(rng.standard_normal((5000, 2)), p) < 0.03
    assert ks_distance(rng.standard_normal((5000, 2)) * 2.0, p) > 0.1


# -- empirical Lipschitz -----------------------------------------------------------------


def test_empirical_lipschitz_identity():
    xs = np.linspace(-1, 1, 50)
    assert empirical_lipschitz(xs, xs).ratio == pytest.approx(1.0, abs=1e-12)


def test_empirical_lipschitz_linear_map():
    xs = np.linspace(-3, 3, 500)
    emp = empirical_lipschitz(xs, xs / np.sqrt(2.0))
    assert emp.ratio == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_empirical_lipschitz_duplicates_counted():
    xs = np.array([0.0, 0.0, 1.0])
    ys = np.array([0.0, 0.0, 2.0])
    emp = empirical_lipschitz(xs, ys)
    assert emp.duplicates_skipped == 1
    assert emp.ratio == pytest.approx(2.0)


def test_empirical_lipschitz_all_duplicates():
    with pytest.raises(ValueError, match="every sampled pair had coincident inputs"):
        empirical_lipschitz(np.ones(5), np.arange(5.0))


def test_empirical_lipschitz_subsampled_deterministic():
    rng = np.random.default_rng(2)
    xs = rng.standard_normal(3000)
    ys = np.tanh(xs)
    a = empirical_lipschitz(xs, ys)
    b = empirical_lipschitz(xs, ys)
    assert a.ratio == b.ratio
    # tanh slope is below 1 everywhere and near 1 at the origin
    assert 0.9 < a.ratio <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_empirical_lipschitz_affine_property(slope):
    xs = np.linspace(-2, 2, 40)
    emp = empirical_lipschitz(xs, slope * xs + 0.7)
    assert emp.ratio == pytest.approx(abs(slope), abs=1e-9)


def lipschitz_reference(inputs, outputs):
    """The all-at-once form: every pair's distances in one array."""
    inputs, outputs = (np.asarray(a, dtype=float).reshape(len(a), -1)
                       for a in (inputs, outputs))
    n = len(inputs)
    if n <= LIPSCHITZ_MAX_EXACT:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(LIPSCHITZ_PAIR_SEED)
        ii = rng.integers(0, n, LIPSCHITZ_PAIR_BUDGET)
        jj = rng.integers(0, n, LIPSCHITZ_PAIR_BUDGET)
        ii, jj = ii[ii != jj], jj[ii != jj]
    din = np.linalg.norm(inputs[ii] - inputs[jj], axis=1)
    dout = np.linalg.norm(outputs[ii] - outputs[jj], axis=1)
    good = din > 0
    return float(np.max(dout[good] / din[good])), int(np.sum(good)), int(np.sum(~good))


def ratio_by_value(x, y):
    """1-d: the largest slope between the output ranges of neighbouring
    distinct input values, which bounds every chord's."""
    values, group = np.unique(x, return_inverse=True)
    lo = np.full(values.size, np.inf)
    hi = np.full(values.size, -np.inf)
    np.minimum.at(lo, group, y)
    np.maximum.at(hi, group, y)
    spread = np.maximum(hi[1:] - lo[:-1], hi[:-1] - lo[1:])
    return float(np.max(spread / np.diff(values)))


# the largest point count whose pairs all fit in one block
ONE_BLOCK = math.isqrt(LIPSCHITZ_BLOCK_PAIRS) + 1


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [2, 3, ONE_BLOCK - 1, ONE_BLOCK, ONE_BLOCK + 1, 2000, 2001,
                               100_000])
def test_empirical_lipschitz_matches_all_pairs_reference(dim, n):
    rng = np.random.default_rng(n + dim)
    xs = rng.standard_normal((n, dim))
    xs[-1] = xs[0]                      # a duplicated input (n = 2: every pair)
    xs[n // 2] = xs[n // 3]
    xs[::100] = xs[0]                   # so that drawn pairs meet duplicates too
    ys = np.tanh(xs) * rng.uniform(0.5, 2.0, (n, dim))
    if n == 2:
        with pytest.raises(ValueError, match="coincident"):
            empirical_lipschitz(xs, ys)
        return
    emp = empirical_lipschitz(xs, ys)
    assert emp.duplicates_skipped >= 1
    if dim == 2:
        assert (emp.ratio, emp.pairs_evaluated, emp.duplicates_skipped) == \
            lipschitz_reference(xs, ys)
        return
    # dim 1 takes the sorted-adjacent pairs only: at least one per input
    # step, and the all-pairs ratio bit for bit
    assert emp.pairs_evaluated + emp.duplicates_skipped >= n - 1
    assert emp.ratio == ratio_by_value(xs[:, 0], ys[:, 0])
    if n <= LIPSCHITZ_MAX_EXACT:
        assert emp.ratio == lipschitz_reference(xs, ys)[0]


@pytest.mark.parametrize("seed", range(20))
def test_empirical_lipschitz_1d_ties_match_all_pairs(seed):
    # inputs rounded to one decimal: most of them tied, with unequal outputs
    rng = np.random.default_rng(seed)
    xs = np.round(rng.standard_normal(int(rng.integers(3, 300))), 1)
    ys = np.tanh(xs) * rng.uniform(0.5, 2.0, xs.size)
    assert empirical_lipschitz(xs, ys).ratio == lipschitz_reference(xs, ys)[0]


@pytest.mark.parametrize("n, limit_mb", [(2000, 16), (100_000, 24)])
def test_empirical_lipschitz_memory(n, limit_mb):
    # the all-pairs form peaked at 106.8 MB (n = 2000) and 60.5 MB (n = 1e5);
    # the drawn pair list alone is 16 MB at n = 1e5
    xs = np.random.default_rng(5).standard_normal(n)
    ys = np.sin(xs)
    tracemalloc.start()
    try:
        empirical_lipschitz(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


# -- sharpness closed forms ------------------------------------------------------------------


def convolution_oracle(x, T):
    """E g(x+Z) by piecewise adaptive quadrature, independent of the closed form."""
    a, b = -T - x, T - x
    mid = integrate.quad(lambda z: np.exp((x + z) ** 2 / 2.0) * normal_pdf(z),
                         a, b, limit=300)[0]
    left = np.exp(T * T / 2.0) * integrate.quad(normal_pdf, -np.inf, a)[0]
    right = np.exp(T * T / 2.0) * integrate.quad(normal_pdf, b, np.inf)[0]
    return left + mid + right


@pytest.mark.parametrize("T", [1.0, 2.0, 4.0])
def test_sharpness_profile_matches_convolution(T):
    for x in np.linspace(-3, 3, 25):
        assert abs(sharpness_profile(x, T) - convolution_oracle(x, T)) < 1e-8


def test_sharpness_profile_even():
    for T in (1.0, 3.0):
        for x in (0.3, 1.1, 2.5):
            assert sharpness_profile(x, T) == pytest.approx(
                sharpness_profile(-x, T), rel=1e-14)


def test_sharpness_h0_value():
    # h(0) = 2 e^{T^2/2} Phi(-T) + sqrt(2/pi) T
    T = 1.0
    want = 2.0 * np.exp(0.5) * normal_cdf(-1.0) + np.sqrt(2.0 / np.pi)
    assert sharpness_h0(T) == pytest.approx(want, rel=1e-12)
    assert sharpness_profile(0.0, T) == pytest.approx(want, rel=1e-10)


def test_sharpness_h0_matches_erfcx():
    # math.erfc below x = T / sqrt(2) = ERFCX_SERIES_FROM, the series above
    Ts = np.geomspace(1e-3, 1e3, 601)
    assert Ts[0] / np.sqrt(2.0) < ERFCX_SERIES_FROM < Ts[-1] / np.sqrt(2.0)
    for T in Ts:
        want = erfcx(T / np.sqrt(2.0)) + np.sqrt(2.0 / np.pi) * T
        assert sharpness_h0(T) == pytest.approx(want, rel=1e-13)


def test_sharpness_h2_matches_finite_differences():
    for T in (1.0, 3.0):
        h = 1e-4
        fd = (sharpness_profile(h, T) - 2 * sharpness_profile(0.0, T)
              + sharpness_profile(-h, T)) / h**2
        assert sharpness_h2_at_zero(T) == pytest.approx(fd, rel=1e-5)


def test_smoothed_profile_flat_at_origin():
    # f_t'(0) = 0: the smoothed profile is even
    T, t = 4.0, 0.3
    scale = np.sqrt(np.expm1(2.0 * t))
    h = 1e-5
    fd = (sharpness_profile(h / scale, T) - sharpness_profile(-h / scale, T)) / (2 * h)
    assert abs(fd) < 1e-8


def test_sharpness_check_ratio_large_T():
    chk = sharpness_curvature_check(20.0, 0.5 * np.log(2.0))
    assert chk.ratio >= 0.95
    assert chk.ratio <= 1.0


def test_sharpness_measured_unbounded_in_T():
    t = 0.5 * np.log(2.0)
    m20 = sharpness_curvature_check(20.0, t).measured
    m40 = sharpness_curvature_check(40.0, t).measured
    assert m40 > 3.8 * m20


# -- spike-family refutation --------------------------------------------------------------------


@pytest.mark.parametrize("T", [3.0, 4.0, 5.0, 6.0])
def test_vt_chain_inequalities(T):
    chk = vt_counterexample_check(T)
    assert 0.0 < chk.c_T <= np.log(2.0)
    assert chk.mu_tail <= 0.5
    # tail dominates the plain Gaussian tail past 17T/16 (c_T >= 0)
    assert chk.mu_tail >= 1.0 - normal_cdf(17.0 * T / 16.0)
    assert chk.density_at_T == pytest.approx(chk.density_closed_form, rel=1e-8)


def test_vt_threshold_value_at_4():
    chk = vt_counterexample_check(4.0)
    assert chk.analytic_threshold == pytest.approx(
        (16.0 / 17.0) * np.exp(95.0 * 16.0 / 512.0), rel=1e-12)
    assert chk.analytic_threshold == pytest.approx(18.33, abs=0.01)


def test_vt_refutation_flag():
    chk = vt_counterexample_check(6.0, l=10.0)
    assert chk.l_refuted is True
    chk2 = vt_counterexample_check(6.0, l=1e6)
    assert chk2.l_refuted is False
    # l = 0 is a valid constant, and no constant map reaches the target
    assert vt_counterexample_check(6.0, l=0.0).l_refuted is True
    with pytest.raises(ValueError, match="l must be >= 0"):
        vt_counterexample_check(6.0, l=-5.0)


def test_vt_isoperimetric_consistency_with_certified_map(gaussian_one):
    # a genuinely 1/sqrt(2)-Lipschitz image of gamma satisfies the density
    # lower bound g(a) >= mu([a, inf)) / (sqrt(2 pi) L) wherever mu <= 1/2
    L = 1.0 / np.sqrt(2.0)
    for a in (0.1, 0.5, 1.0, 2.0):
        mu_tail = 1.0 - normal_cdf(a * np.sqrt(2.0))
        dens = gaussian_one.lebesgue_density(np.array([[a]]))[0]
        assert dens * np.sqrt(2.0 * np.pi) * L >= mu_tail * (1.0 - 1e-3)


# -- tail fits --------------------------------------------------------------------------------


def test_tail_linear_decay_flagged():
    p = hf.normalize(hf.linear_tail())
    fit = tail_test(p, np.linspace(2, 6, 17))
    assert fit.linear_slope == pytest.approx(-1.0, abs=0.1)
    assert fit.gaussian_incompatible


def test_tail_gamma_quadratic():
    p = hf.normalize(hf.gaussian(0.0))
    fit = tail_test(p, np.linspace(2, 6, 17))
    assert fit.quad_coeff == pytest.approx(-0.5, abs=0.05)
    assert not fit.gaussian_incompatible


def test_tail_dilated_gaussian_coefficient():
    # N(0, L^2) pushforward with L = 2: quadratic coefficient -1/(2 L^2),
    # read off in the asymptotic window
    p = hf.normalize(hf.gaussian(-0.75))
    fit = tail_test(p, np.linspace(6, 12, 17))
    assert fit.quad_coeff == pytest.approx(-0.125, rel=0.05)
    assert fit.implied_lipschitz == pytest.approx(2.0, rel=0.05)



@pytest.mark.parametrize("rho, lo, hi, scale", [(0.0, 2.0, 6.0, 1.0),
                                               (-0.75, 6.0, 12.0, 2.0)])
def test_tail_matches_log_ndtr(rho, lo, hi, scale):
    # N(0, scale^2): log Pr(X >= x) = log Phi(-x / scale)
    xs = np.linspace(lo, hi, 17)
    fit = tail_test(hf.normalize(hf.gaussian(rho)), xs)
    assert np.max(np.abs(fit.log_tail - log_ndtr(-xs / scale))) <= 1e-12


def test_tail_linear_closed_form():
    # beyond 1 the Lebesgue density is phi(0) e^{1/2 - x}, and the total mass
    # is Phi(1) + phi(1), so log Pr(X >= x) is affine in x with slope -1
    xs = np.linspace(2.0, 6.0, 17)
    fit = tail_test(hf.normalize(hf.linear_tail()), xs)
    want = 0.5 - xs - np.log(SQRT_2PI * (normal_cdf(1.0) + normal_pdf(1.0)))
    assert np.max(np.abs(fit.log_tail - want)) <= 1e-12


def test_tail_refuses_abscissas_below_the_median():
    # gamma's own tail on [-6, -2] is nearly 1 and would fit as "incompatible"
    with pytest.raises(ValueError, match="above 1/2"):
        tail_test(hf.normalize(hf.gaussian(0.0)), np.linspace(-6.0, -2.0, 17))


@pytest.mark.parametrize("xs", [[3.0, 3.0, 3.0], [2.0, 3.0, 2.0, 3.0], [2.0, 3.0]])
def test_tail_needs_three_distinct_abscissas(xs):
    with pytest.raises(ValueError, match="3 distinct"):
        tail_test(hf.normalize(hf.linear_tail()), xs)


def test_tail_nan_density_raises():
    # NaN inside (3, 4): the window ends are found, the integrals fail
    p = hf.Potential(dim=1, raw_fn=lambda x: np.where(np.abs(x[..., 0] - 3.5) < 0.5,
                                                      np.nan, 0.0))
    with pytest.raises(HeatflowError, match="did not converge"):
        tail_test(p, np.linspace(2.0, 6.0, 5))


def test_tail_window_cap_raises():
    # V = -x^2/2 makes the Lebesgue density flat: no end below the floor by 2^14
    p = hf.Potential(dim=1, raw_fn=lambda x: -0.5 * x[..., 0] ** 2)
    with pytest.raises(HeatflowError, match="truncate"):
        tail_test(p, np.linspace(2.0, 6.0, 5))