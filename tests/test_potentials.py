import dataclasses
import json

import numpy as np
import pytest
from scipy import integrate

import heatflow as hf
from heatflow import cli
from heatflow.errors import (
    BadParamsError,
    GridTooCoarseError,
    LambdaTooLargeError,
    NonIntegrableError,
)
from heatflow.potentials import Potential, sym_eig_bounds


def quad_mass(p, lo=-40.0, hi=60.0):
    """Independent adaptive check of the gamma-mass of e^{-V}."""
    val, err = integrate.quad(
        lambda x: p.lebesgue_density(np.array([[x]]))[0], lo, hi,
        points=[k for k in p.kinks] or None, limit=300,
    )
    return val


# -- normalization -------------------------------------------------------------


def test_normalize_identity_case():
    p = hf.normalize(hf.gaussian(0.0))
    assert p.shift == pytest.approx(0.0, abs=1e-12)
    assert p.normalized


def test_normalize_gaussian_closed_form(gaussian_one):
    # mass of e^{-x^2/2} under gamma is 1/sqrt(2)
    assert gaussian_one.shift == pytest.approx(-0.5 * np.log(2.0), abs=1e-12)


def test_normalize_linear_tail_constant():
    p = hf.normalize(hf.linear_tail())
    c0 = p.shift
    assert 0.5 <= np.exp(-c0) <= 1.0
    # independent adaptive integration agrees with the recorded tolerance
    mass = quad_mass(p)
    tol = max(10.0 * (p.norm_tol or 1e-10), 1e-9)
    assert abs(mass - 1.0) <= tol


def test_normalize_idempotent(std_bump):
    again = hf.normalize(std_bump)
    assert abs(again.shift - std_bump.shift) < 1e-9


@pytest.mark.parametrize("rho", [-0.5, 0.5, 3.0])
def test_normalized_mass_is_one(rho):
    p = hf.normalize(hf.gaussian(rho))
    assert quad_mass(p) == pytest.approx(1.0, abs=1e-9)


def test_normalize_diverges_for_super_gaussian():
    bad = Potential(dim=1, raw_fn=lambda x: -0.6 * x[..., 0] ** 2)
    with pytest.raises(NonIntegrableError):
        hf.normalize(bad)


def test_gaussian_family_requires_integrable_rho():
    with pytest.raises(BadParamsError):
        hf.gaussian(-1.0)


# -- metadata validation ----------------------------------------------------------


def test_validate_gaussian_curvature_ok():
    p = dataclasses.replace(hf.gaussian(1.0), curvature_lower=0.0)
    rep = hf.validate_metadata(p, hf.GridSpec(-4, 4, 41))
    assert rep.curvature_violation == 0.0


def test_validate_vt_declared_curvature():
    p = hf.vt_counterexample(4.0)
    rep = hf.validate_metadata(p, hf.GridSpec(-1, 6, 1401))
    assert p.curvature_lower == 128.0
    assert rep.curvature_violation <= 1e-6


def test_validate_bump_oscillation_violation():
    p = dataclasses.replace(hf.bump(0.0, 1.0, 0.5), oscillation=0.4)
    rep = hf.validate_metadata(p, hf.GridSpec(-6, 6, 241))
    assert rep.oscillation_violation == pytest.approx(0.1, abs=1e-3)


def test_validate_never_mutates(std_bump):
    before = std_bump.oscillation
    hf.validate_metadata(std_bump, hf.GridSpec(-3, 3, 31))
    assert std_bump.oscillation == before


# -- analytic derivatives vs finite differences -------------------------------------


FAMILIES = [
    hf.gaussian(1.0),
    hf.gaussian(-0.5),
    hf.bump(0.3, 0.8, 0.5),
    hf.linear_tail(),
    hf.vt_counterexample(3.0),
    hf.sharpness(2.0, 0.7),
]


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.name)
def test_fd_gradient_matches_analytic(p):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, size=(100, p.dim))
    # keep stencils clear of kink abscissas, where V is not C^3
    for k in p.kinks:
        pts = pts[np.abs(pts[:, 0] - k) > 5e-3]
    stripped = dataclasses.replace(p, grad_fn=None, hess_fn=None)
    g_fd = stripped.grad(pts)
    g = p.grad(pts)
    scale = np.maximum(np.abs(g), 1.0)
    assert np.max(np.abs(g_fd - g) / scale) < 1e-5


def test_fd_hessian_matches_analytic_2d():
    p = hf.bump([0.2, -0.1], 0.9, 0.4, dim=2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(40, 2))
    stripped = dataclasses.replace(p, grad_fn=None, hess_fn=None)
    h_fd = stripped.hess(pts)
    h = p.hess(pts)
    assert np.max(np.abs(h_fd - h)) < 1e-5


def test_sym_eig_bounds_match_numpy():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 2, 2))
    mats = (a + np.swapaxes(a, -1, -2)) / 2
    lo, hi = sym_eig_bounds(mats)
    vals = np.linalg.eigvalsh(mats)
    assert np.allclose(lo, vals[:, 0]) and np.allclose(hi, vals[:, -1])


# -- builtins ---------------------------------------------------------------------


def test_vt_active_interval():
    T = 4.0
    p = hf.vt_counterexample(T)
    xs = np.array([[15 * T / 16 - 1e-6], [15 * T / 16 + 1e-3],
                   [17 * T / 16 - 1e-3], [17 * T / 16 + 1e-6]])
    vals = p.raw_fn(xs)
    assert vals[0] == 0.0 and vals[3] == 0.0
    assert vals[1] > 0.0 and vals[2] > 0.0


def test_linear_tail_density_exponential():
    p = hf.normalize(hf.linear_tail())
    xs = np.linspace(1.5, 5.0, 8)
    dens = p.lebesgue_density(xs[:, None])
    # log-density slope is exactly -1 past the kink
    slopes = np.diff(np.log(dens)) / np.diff(xs)
    assert np.allclose(slopes, -1.0, atol=1e-12)


def test_sharpness_critical_scale_saturates_domain():
    t = 0.4
    s = hf.sharpness_critical_scale(t)
    p = hf.sharpness(3.0, s)
    assert p.curvature_lower * (1 - np.exp(-2 * t)) == pytest.approx(1.0, abs=1e-12)


def test_bump_with_prescribed_metadata():
    p = hf.bump_with(2.0, 0.5)
    assert p.curvature_lower == pytest.approx(2.0)
    assert p.oscillation == pytest.approx(0.5)


# -- mollify -----------------------------------------------------------------------


def test_mollify_small_sigma_preserves_distribution(gaussian_one):
    from heatflow.diagnostics import TargetCdf
    sm = hf.normalize(hf.mollify(gaussian_one, 1e-3))
    base = TargetCdf(gaussian_one)
    out = TargetCdf(sm)
    xs = np.linspace(-4, 4, 161)
    assert np.max(np.abs(base.cdf(xs) - out.cdf(xs))) < 1e-3


def test_mollify_gaussian_closed_form():
    # N(0, s^2) convolved with N(0, sigma^2) is N(0, s^2 + sigma^2)
    rho, sigma = 1.0, 0.6
    p = hf.normalize(hf.gaussian(rho))
    sm = hf.mollify(p, sigma)
    s2 = 1.0 / (1.0 + rho)
    rho_out = 1.0 / (s2 + sigma**2) - 1.0
    xs = np.linspace(-3, 3, 25)[:, None]
    got = sm.value(xs) - sm.value(np.zeros((1, 1)))
    want = rho_out * xs[:, 0] ** 2 / 2.0
    assert np.max(np.abs(got - want)) < 1e-8


def test_mollify_declares_no_grad_bound(tmp_path):
    # |V'| of a mollified linear tail grows without bound, so no window sup
    # may stand in for sup |grad V| and certify a transport
    sm = hf.mollify(hf.normalize(hf.linear_tail()), 0.5)
    assert sm.grad_sup_norm is None
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "transport",
        "potential": {"family": "linear_tail",
                      "transforms": [{"op": "mollify", "sigma": 0.5}]},
        "scheme": {"node_count": 16},
        "flow": {"t_max": 4.0, "n_steps": 20},
        "samples": 20,
        "with_jacobian": False,
    }))
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certified"] is False and summary["error_bound"] is None


# -- inf-convolution envelope ---------------------------------------------------------


def test_envelope_of_already_lipschitz_potential(std_bump):
    # sup|V'| ~ 0.61 < l = 2: the envelope equals V up to the normalizing shift
    reg = hf.lipschitz_regularize(std_bump, l=2.0, r=8.0)
    xs = np.linspace(-4, 4, 81)[:, None]
    diff = reg.value(xs) - std_bump.value(xs)
    assert np.max(diff) - np.min(diff) < 1e-4


def test_envelope_moreau_closed_form():
    # V = x^2: cone slope 2 gives x^2 inside |x|<=1, 2|x|-1 beyond
    p = Potential(dim=1, raw_fn=lambda x: x[..., 0] ** 2)
    reg = hf.lipschitz_regularize(p, l=2.0, r=10.0)
    xs = np.linspace(-6, 6, 200)
    want = np.where(np.abs(xs) <= 1.0, xs**2, 2.0 * np.abs(xs) - 1.0)
    got = reg.value(xs[:, None])
    diff = got - want
    assert np.max(diff) - np.min(diff) < 5e-3


def test_envelope_zero_slope_is_constant():
    reg = hf.lipschitz_regularize(hf.normalize(hf.gaussian(1.0)), l=0.0, r=6.0)
    xs = np.linspace(-5, 5, 101)[:, None]
    assert np.ptp(reg.value(xs)) < 1e-12


def test_envelope_slopes_bounded(regularized_linear_tail):
    reg = regularized_linear_tail
    assert reg.grad_sup_norm == 1.0
    xs = np.linspace(-8, 8, 2001)
    vals = reg.value(xs[:, None])
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    assert slopes.max() <= 1.0 * (1 + 1e-3)


def test_envelope_grid_refinement_guard():
    p = Potential(dim=1, raw_fn=lambda x: np.cos(40.0 * x[..., 0]) * 8.0)
    with pytest.raises(GridTooCoarseError):
        hf.lipschitz_regularize(p, l=1.0, r=6.0, points_per_axis=64,
                                grid_tol=1e-7)


# -- dilation reduction ----------------------------------------------------------------


def test_caffarelli_identity_at_zero_deficit(gaussian_one):
    q, a = hf.caffarelli_reduction(gaussian_one)
    assert a == 1.0 and q is gaussian_one


def test_caffarelli_dilation_constant():
    p = dataclasses.replace(hf.gaussian(-0.75), curvature_lower=0.75)
    p = hf.normalize(p)
    _, a = hf.caffarelli_reduction(p)
    assert a == pytest.approx(2.0, rel=1e-12)


def test_caffarelli_rejects_large_deficit():
    p = hf.vt_counterexample(3.0)
    with pytest.raises(LambdaTooLargeError):
        hf.caffarelli_reduction(p)


def test_caffarelli_pushforward_identity(gaussian_half):
    # lam = 1/2: the reduced measure is gamma itself; the dilation by
    # 1/sqrt(1-lam) must push its density onto the target's exactly
    q, a = hf.caffarelli_reduction(gaussian_half)
    assert a == pytest.approx(np.sqrt(2.0), rel=1e-12)
    us = np.linspace(-4, 4, 81)[:, None]
    lhs = q.lebesgue_density(us / a) / a
    rhs = gaussian_half.lebesgue_density(us)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_caffarelli_output_log_concave(gaussian_half):
    q, _ = hf.caffarelli_reduction(gaussian_half)
    rep = hf.validate_metadata(q, hf.GridSpec(-4, 4, 81))
    assert rep.min_hess_eigenvalue >= -1e-6


# -- tabulated and config loading ---------------------------------------------------------


def test_tabulated_interpolation_and_continuation():
    grid = np.linspace(-2, 2, 401)
    p = hf.tabulated(grid, grid**2)
    assert p.value(np.array([[1.0]]))[0] == pytest.approx(1.0)
    # linear continuation with the edge slope outside the table
    v3 = p.value(np.array([[3.0]]))[0]
    slope = (grid[-1] ** 2 - grid[-2] ** 2) / (grid[-1] - grid[-2])
    assert v3 == pytest.approx(4.0 + slope * 1.0, rel=1e-12)


def test_from_config_family_and_overrides():
    p = hf.from_config({"family": "gaussian", "params": {"rho": -0.9},
                        "curvature_lower": 0.1})
    assert p.curvature_lower == 0.1
    assert p.normalized


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_from_config_table():
    # quad flags roundoff on the 1600-knot piecewise-linear density; the
    # achieved accuracy is still orders beyond the tolerance checked here
    grid = np.linspace(-8, 8, 1601)
    cfg = {"table": {"grid": grid.tolist(), "values": (0.3 * grid**2).tolist()}}
    p = hf.from_config(cfg)
    assert p.normalized
    assert quad_mass(p, -20, 20) == pytest.approx(1.0, abs=1e-6)


def test_from_config_transforms():
    cfg = {"family": "linear_tail",
           "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}]}
    p = hf.from_config(cfg)
    assert p.grad_sup_norm == 1.0
    assert p.normalized


def test_from_config_rejects_unknown_family():
    with pytest.raises(BadParamsError):
        hf.from_config({"family": "nope"})
