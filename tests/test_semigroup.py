import dataclasses
import warnings

import numpy as np
import pytest

import heatflow as hf
from heatflow import semigroup
from heatflow.errors import DensityUnderflowError
from heatflow.semigroup import concavity_profile, ou_expectation


def gaussian_rho_t(rho, t):
    e2 = np.exp(-2.0 * t)
    return rho * e2 / (1.0 + rho * (1.0 - e2))


def gaussian_log_ft(rho, shift, x, t):
    """Complete-the-square closed form of log P_t e^{-V} for V = rho x^2/2 + shift."""
    e2 = np.exp(-2.0 * t)
    s2 = 1.0 - e2
    return (-0.5 * np.log(1.0 + rho * s2)
            - 0.5 * gaussian_rho_t(rho, t) * x**2 - shift)


@pytest.fixture(scope="module")
def ev_half(gaussian_half, gh_scheme):
    return hf.SemigroupEvaluator(gaussian_half, gh_scheme)


@pytest.fixture(scope="module")
def ev_one(gaussian_one, gh_scheme):
    return hf.SemigroupEvaluator(gaussian_one, gh_scheme)


@pytest.fixture(scope="module")
def ev_const(gh_scheme):
    return hf.SemigroupEvaluator(hf.gaussian(0.0), gh_scheme)


# -- basic fixed points ------------------------------------------------------------


def test_constant_density_is_fixed_point(ev_const):
    for t in (0.3, 2.0, 10.0):
        assert np.exp(ev_const.log_pt_f(np.array([[1.7]]), t)[0]) == pytest.approx(1.0, abs=1e-12)


def test_linear_integrand_eigenfunction(gh_scheme):
    # E[(e^{-t} x + s Z)] = e^{-t} x: the identity decays at rate e^{-t}
    for t in (0.4, 1.5):
        val = ou_expectation(lambda p: p[..., 0], np.array([[2.0]]), t, gh_scheme)
        assert val[0] == pytest.approx(2.0 * np.exp(-t), abs=1e-12)


# -- Gaussian closed forms -----------------------------------------------------------


@pytest.mark.parametrize("rho", [-0.5, 0.5, 1.0, 3.0])
def test_pt_f_gaussian_closed_form(rho, gh_scheme):
    p = hf.normalize(hf.gaussian(rho))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    for t in (0.1, 0.5, 2.0):
        for x in (-2.0, 0.3, 1.7):
            want = np.exp(gaussian_log_ft(rho, p.shift, x, t))
            got = np.exp(ev.log_pt_f(np.array([[x]]), t)[0])
            assert got == pytest.approx(want, rel=1e-8)


def test_grad_pt_f_gaussian_closed_form(ev_one, gaussian_one):
    rho = 1.0
    for t in (0.2, 1.0):
        for x in (-1.5, 0.8):
            f = np.exp(gaussian_log_ft(rho, gaussian_one.shift, x, t))
            want = -gaussian_rho_t(rho, t) * x * f
            got = ev_one.grad_pt_f(np.array([[x]]), t)[0, 0]
            assert got == pytest.approx(want, rel=1e-8)


def test_grad_pt_f_matches_finite_differences(bump_evaluator):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(50):
        x = rng.uniform(-3, 3)
        t = rng.uniform(0.05, 2.5)
        g = bump_evaluator.grad_pt_f(np.array([[x]]), t)[0, 0]
        f = np.exp(bump_evaluator.log_pt_f(np.array([[x + h], [x - h]]), t))
        fd = (f[0] - f[1]) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-5)


def test_grad_constant_density_zero(ev_const):
    assert abs(ev_const.grad_pt_f(np.array([[0.9]]), 0.7)[0, 0]) < 1e-14


# -- Hessian routes ---------------------------------------------------------------------


def test_hessian_routes_agree_on_bump(bump_evaluator):
    xs = np.linspace(-3, 3, 13)[:, None]
    cm = bump_evaluator.hess_pt_f(xs, 0.5, route="commute")
    hm = bump_evaluator.hess_pt_f(xs, 0.5, route="hermite")
    assert np.max(np.abs(cm - hm)) < 1e-6


def test_every_view_refuses_nonpositive_time(bump_evaluator, gh_scheme):
    # t = 0 has no pass (the flow never asks for it), and a negative or NaN
    # time is no time at all
    x = np.array([[0.3]])
    calls = [lambda t, view=view: getattr(bump_evaluator, view)(x, t)
             for view in VIEWS]
    calls += [lambda t, route=route: bump_evaluator.hess_pt_f(x, t, route=route)
              for route in ("commute", "hermite")]
    calls += [lambda t: bump_evaluator._moments(x, t),
              lambda t: ou_expectation(lambda p: p[..., 0], x, t, gh_scheme),
              lambda t: concavity_profile(bump_evaluator, x, t)]
    for call in calls:
        for t in (0.0, -0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="time must be > 0"):
                call(t)


def test_hermite_zero_matrix_for_constant(ev_const):
    h = ev_const.hess_pt_f(np.array([[0.5]]), 0.8, route="hermite")
    assert abs(h[0, 0, 0]) < 1e-12


def test_hermite_operator_norm_bound(bump_evaluator, std_bump):
    # E[(Z^2-1) f] <= sup f * E[Z^2] pointwise under positive weights
    sup_f = float(np.max(std_bump.density(np.linspace(-6, 6, 401)[:, None])))
    for t in (0.1, 0.5, 1.5):
        xs = np.linspace(-4, 4, 17)[:, None]
        h = bump_evaluator.hess_pt_f(xs, t, route="hermite")
        bound = sup_f / np.expm1(2.0 * t)
        assert np.max(h) <= bound + 1e-10


# -- drift ---------------------------------------------------------------------------------


def test_drift_constant_zero(ev_const):
    assert abs(ev_const.drift(np.array([[1.2]]), 0.9)[0, 0]) < 1e-14


def test_drift_gaussian_closed_form(ev_one):
    for t in (0.05, 0.3, 1.0, 3.0):
        for x in (-2.0, 0.7, 3.1):
            got = ev_one.drift(np.array([[x]]), t)[0, 0]
            assert got == pytest.approx(gaussian_rho_t(1.0, t) * x, rel=1e-7)


def test_drift_bound_regularized_tail(regularized_linear_tail, gh_scheme):
    ev = hf.SemigroupEvaluator(regularized_linear_tail, gh_scheme)
    xs = np.linspace(-4, 4, 41)[:, None]
    for t in (0.1, 0.5, 1.0, 2.0):
        sup = np.max(np.abs(ev.drift(xs, t)))
        assert sup <= np.exp(-t) * 1.0 + 1e-4


def test_drift_underflow_raises(gh_scheme):
    p = hf.normalize(hf.gaussian(3.0))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    with pytest.raises(DensityUnderflowError):
        ev.drift(np.array([[40.0]]), 0.001)


@pytest.mark.parametrize("t", [1e-6, 0.01])
def test_zero_density_row_raises_with_its_index(walled_gaussian, gh_scheme, t):
    # V is +inf at every node of the row at -50, so log f_t is NaN there:
    # it must count as below the floor, and without a numpy warning first
    ev = hf.SemigroupEvaluator(walled_gaussian, gh_scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DensityUnderflowError) as exc:
            ev.drift(np.array([[0.5], [-50.0], [1.0]]), t)
    assert exc.value.rows == [1]


def recording(p):
    """p with a log of (kind, array) for every array its value, Hessian
    and fused value-and-gradient calls receive."""
    seen = []

    def wrap(kind, fn):
        def rec(x):
            seen.append((kind, x))
            return fn(x)
        return None if fn is None else rec

    return dataclasses.replace(
        p, raw_fn=wrap("value", p.raw_fn), hess_fn=wrap("hess", p.hess_fn),
        value_grad_fn=wrap("value_grad", p.value_grad_fn)), seen


def test_blocked_pass_matches_row_by_row(std_bump):
    p, seen = recording(std_bump)
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=128))
    # rows per block, from the nodes the pass keeps: the batch spans two
    # and a half blocks
    step = semigroup.BLOCK_BYTES // (8 * ev._logw.size * 5)
    xs = np.linspace(-4.0, 4.0, 2 * step + step // 2)[:, None]
    # both below the y rule's switch (sin theta < 0.5 here), so every pass
    # calls the potential; test_y_pass_rows_do_not_depend_on_blocks covers
    # the passes above it
    for t in (0.05, 0.1):
        seen.clear()
        drift, hess = ev.drift_and_hess_vt(xs, t)
        blocks = [kind for kind, _ in seen if kind == "value_grad"]
        assert len(blocks) >= 3
        log_f = ev.log_pt_f(xs, t)
        grad_f = ev.grad_pt_f(xs, t)
        hess_f = ev.hess_pt_f(xs, t, route="commute")
        for i in range(xs.shape[0]):
            row = xs[i:i + 1]
            d1, h1 = ev.drift_and_hess_vt(row, t)
            assert np.array_equal(d1, drift[i:i + 1]) and np.array_equal(h1, hess[i:i + 1])
            assert np.array_equal(ev.log_pt_f(row, t), log_f[i:i + 1])
            assert np.array_equal(ev.grad_pt_f(row, t), grad_f[i:i + 1])
            assert np.array_equal(ev.hess_pt_f(row, t, route="commute"), hess_f[i:i + 1])


MULTIDIM_POTENTIALS = {
    "gaussian": lambda dim: hf.gaussian(0.8, dim),
    "bump": lambda dim: hf.bump(0.2, 0.6, 0.5, dim),
}


@pytest.mark.parametrize("family", sorted(MULTIDIM_POTENTIALS))
@pytest.mark.parametrize("dim, node_count", [(2, 10), (3, 6)])
def test_blocked_pass_matches_row_by_row_multidim(monkeypatch, family, dim, node_count):
    # 4 rows a block: 23 rows make blocks of 4, 4, 4, 4, 4 and 3,
    # and the 5 rows put in front move every row to another block position
    k = node_count ** dim
    monkeypatch.setattr(semigroup, "BLOCK_BYTES", 8 * k * (2 * dim + 3) * 4)
    p, seen = recording(MULTIDIM_POTENTIALS[family](dim))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=dim, node_count=node_count))
    r = np.random.default_rng(dim)
    xs = 1.5 * r.standard_normal((23, dim))
    shifted = np.concatenate([r.standard_normal((5, dim)), xs])
    # both below the bump's y-rule switch (sin theta < 0.6)
    for t in (0.05, 0.2):
        seen.clear()
        drift = ev.drift(xs, t)
        blocks = [x.shape[0] for kind, x in seen if kind in ("value", "value_grad")]
        assert blocks == [4, 4, 4, 4, 4, 3]
        dh_drift, dh_hess = ev.drift_and_hess_vt(xs, t)
        hess_f = ev.hess_pt_f(xs, t, route="commute")
        s_drift = ev.drift(shifted, t)[5:]
        s_dh_drift, s_dh_hess = (a[5:] for a in ev.drift_and_hess_vt(shifted, t))
        s_hess_f = ev.hess_pt_f(shifted, t, route="commute")[5:]
        for i in range(xs.shape[0]):
            row, one = xs[i:i + 1], slice(i, i + 1)
            d1, h1 = ev.drift_and_hess_vt(row, t)
            for got, batch, moved in ((ev.drift(row, t), drift, s_drift),
                                      (d1, dh_drift, s_dh_drift), (h1, dh_hess, s_dh_hess),
                                      (ev.hess_pt_f(row, t, route="commute"), hess_f,
                                       s_hess_f)):
                assert np.array_equal(got, batch[one]) and np.array_equal(got, moved[one])


@pytest.mark.parametrize("dim, node_count", [(1, 64), (2, 12), (3, 6)])
def test_potential_sees_the_node_points(dim, node_count):
    # the pass stores its points dim-major, but a potential receives them
    # as the usual (rows, K, dim) array with the values e^{-t} x + s z
    p, seen = recording(hf.bump(0.2, 0.6, 0.5, dim))
    scheme = hf.QuadratureScheme(dim=dim, node_count=node_count)
    ev = hf.SemigroupEvaluator(p, scheme)
    # the nodes that can reach the sums under the oscillation 0.5: 44 of
    # the 64 in dim 1, every node of the smaller rules
    nodes, logw = scheme.nodes_log_weights()
    keep = logw >= logw.max() - 0.5 - np.log(2.0**53 * logw.size)
    nodes, logw = nodes[keep], logw[keep]
    xs = 1.5 * np.random.default_rng(dim).standard_normal((40, dim))
    # both below the y-rule switch (sin theta < 0.6), where a pass calls
    # the potential
    for t in (0.05, 0.2):
        e, s = np.exp(-t), np.sqrt(-np.expm1(-2.0 * t))
        pts = e * xs[:, None, :] + s * nodes[None, :, :]
        seen.clear()
        drift, hess = ev.drift_and_hess_vt(xs, t)
        assert {kind for kind, _ in seen} == {"value_grad"}
        assert all(x.shape[1:] == (nodes.shape[0], dim) for _, x in seen)
        assert np.array_equal(np.concatenate([x for _, x in seen]), pts)
        # the same pass written inline over C-ordered (rows, K, dim) arrays
        v, gv = p.value_and_grad(pts)
        u = logw[None, :] - v
        u = np.exp(u - np.max(u, axis=1)[:, None])
        den = np.sum(u, axis=1)
        grad_ratio = -e * np.einsum("nk,nkd->nd", u, gv) / den[:, None]
        outer = nodes[:, :, None] * nodes[:, None, :] - np.eye(dim)
        hess_ratio = np.einsum("nk,kde->nde", u, outer) / (den * np.expm1(2.0 * t))[:, None, None]
        want = -hess_ratio + grad_ratio[..., :, None] * grad_ratio[..., None, :]
        if dim == 1:
            assert np.array_equal(drift, -grad_ratio) and np.array_equal(hess, want)
        else:
            # only the order of the weighted sums differs, so both agree to
            # rounding relative to the size of the terms that are summed
            g_size = e * np.einsum("nk,nkd->nd", u, np.abs(gv)) / den[:, None]
            h_size = (np.einsum("nk,kde->nde", u, np.abs(outer))
                      / (den * np.expm1(2.0 * t))[:, None, None])
            assert np.all(np.abs(drift + grad_ratio) <= 1e-14 * g_size)
            assert np.all(np.abs(hess - want)
                          <= 1e-14 * (h_size + g_size[..., :, None] * g_size[..., None, :]))


# -- the nodes a pass keeps ------------------------------------------------------

@pytest.mark.parametrize("dim, node_count", [(1, 64), (1, 128), (2, 24), (2, 32), (3, 12)])
def test_pruned_pass_matches_every_node(dim, node_count):
    # dropping the nodes that cannot reach a sum moves every output by
    # rounding only; tolerances are absolute, since entries near 1e-23
    # move by more than 1e-8 of themselves
    scheme = hf.QuadratureScheme(dim=dim, node_count=node_count)
    p = hf.bump(0.2, 0.6, 0.5, dim)
    pruned = hf.SemigroupEvaluator(p, scheme)
    full = hf.SemigroupEvaluator(dataclasses.replace(p, oscillation=None), scheme)
    xs = np.concatenate([1.5 * np.random.default_rng(dim).standard_normal((30, dim)),
                         np.full((1, dim), 4.0), np.full((1, dim), -6.0)])
    for t in (0.012, 0.05, 1.0, 8.0):
        assert np.max(np.abs(pruned.log_pt_f(xs, t) - full.log_pt_f(xs, t))) <= 1e-15
        assert np.max(np.abs(pruned.drift(xs, t) - full.drift(xs, t))) <= 1e-15
        hessians = [(pruned.drift_and_hess_vt(xs, t)[1], full.drift_and_hess_vt(xs, t)[1])]
        hessians += [(pruned.hess_pt_f(xs, t, route), full.hess_pt_f(xs, t, route))
                     for route in ("commute", "hermite")]
        for got, want in hessians:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, node_count, kept", [
    (1, 64, 44), (1, 128, 64), (2, 24, 520), (2, 32, 756), (3, 16, 3920), (1, 8, 8)])
def test_kept_node_counts(dim, node_count, kept):
    ev = hf.SemigroupEvaluator(hf.bump(0.2, 0.6, 0.5, dim),
                               hf.QuadratureScheme(dim=dim, node_count=node_count))
    assert ev._nodes.shape == (kept, dim) and ev._logw.shape == (kept,)
    assert ev._nodes_dm.shape == (dim, kept) and ev._outer.shape == (dim, dim, kept)


@pytest.mark.parametrize("case", ["gaussian", "tail", "none", "inf", "monte_carlo"])
def test_every_node_kept_without_a_finite_oscillation(case, regularized_linear_tail):
    scheme = hf.QuadratureScheme(dim=1, node_count=128)
    p = {"gaussian": hf.gaussian(1.0),
         "tail": regularized_linear_tail,
         "none": dataclasses.replace(hf.bump(), oscillation=None),
         "inf": dataclasses.replace(hf.bump(), oscillation=np.inf),
         "monte_carlo": hf.bump(dim=4)}[case]
    if case == "monte_carlo":
        # equal weights: none lies below the heaviest, whatever the oscillation
        scheme = hf.QuadratureScheme(dim=4, sample_count=500, seed=1)
    ev = hf.SemigroupEvaluator(p, scheme)
    nodes, logw = scheme.nodes_log_weights()
    assert np.array_equal(ev._nodes, nodes) and np.array_equal(ev._logw, logw)


def test_zero_oscillation_keeps_nodes_by_weight_alone():
    scheme = hf.QuadratureScheme(dim=1, node_count=128)
    ev = hf.SemigroupEvaluator(hf.gaussian(0.0), scheme)
    nodes, logw = scheme.nodes_log_weights()
    keep = logw >= logw.max() - np.log(2.0**53 * 128)
    # 64 of 128; a declared oscillation of 5 widens the cut to 68
    assert keep.sum() == 64
    assert hf.SemigroupEvaluator(hf.bump(height=5.0), scheme)._logw.size == 68
    assert np.array_equal(ev._nodes, nodes[keep]) and np.array_equal(ev._logw, logw[keep])
    x = np.linspace(-5.0, 5.0, 11)[:, None]
    assert np.array_equal(ev.log_pt_f(x, 0.7), np.zeros(11))


def test_negative_oscillation_refused():
    with pytest.raises(ValueError, match="oscillation must be >= 0"):
        hf.SemigroupEvaluator(dataclasses.replace(hf.bump(), oscillation=-3.0),
                              hf.QuadratureScheme(dim=1, node_count=64))


@pytest.mark.parametrize("dim, node_count", [(1, 64), (2, 24)])
def test_drift_bound_exact_on_pruned_bump(dim, node_count):
    p = hf.bump(0.2, 0.6, 0.5, dim)
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=dim, node_count=node_count))
    xs = 3.0 * np.random.default_rng(dim).standard_normal((200, dim))
    for t in (0.012, 0.05, 1.0, 8.0):
        norms = np.linalg.norm(ev.drift(xs, t), axis=-1)
        assert np.all(norms <= np.exp(-t) * p.grad_sup_norm)


@pytest.mark.parametrize("oscillation", [0.5, None])
@pytest.mark.parametrize("dim, node_count", [(1, 64), (2, 24)])
def test_potential_receives_the_kept_node_axis(dim, node_count, oscillation):
    # the benchmark tracer counts a pass's node evaluations as rows times
    # ev._nodes.shape[0]; that must be the K axis the potential is given
    p, seen = recording(dataclasses.replace(hf.bump(0.2, 0.6, 0.5, dim),
                                            oscillation=oscillation))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=dim, node_count=node_count))
    k = ev._nodes.shape[0]
    assert k == ev._logw.size and (k < node_count ** dim) == (oscillation is not None)
    xs = np.random.default_rng(dim).standard_normal((50, dim))
    # both below the y-rule switch (sin theta < 0.6); a y pass calls no
    # potential, and the tracer still counts rows times this K
    for t in (0.05, 0.2):
        seen.clear()
        ev.log_pt_f(xs, t)
        ev.drift(xs, t)
        ev.drift_and_hess_vt(xs, t)
        ev.hess_pt_f(xs, t, route="commute")
        assert {kind for kind, _ in seen} == {"value", "value_grad", "hess"}
        assert all(x.shape[1:] == (k, dim) for _, x in seen)


def test_underflow_rows_in_different_blocks_named_by_one_error(monkeypatch, gh_scheme):
    monkeypatch.setattr(semigroup, "BLOCK_BYTES", 8 * 128 * 5 * 4)  # 4 rows
    ev = hf.SemigroupEvaluator(hf.normalize(hf.gaussian(3.0)), gh_scheme)
    xs = np.zeros((12, 1))
    xs[2, 0], xs[9, 0] = 40.0, -40.0
    with pytest.raises(DensityUnderflowError) as exc:
        ev.drift(xs, 0.001)
    assert exc.value.rows == [2, 9]


def test_mollified_tail_drift_finite_far_out():
    # the mollified density underflows past x ~ -43, but its log-space
    # quadrature keeps grad V finite there, so the drift at -41 is finite
    # and equals -d/dx log f_t
    ev = hf.SemigroupEvaluator(hf.mollify(hf.linear_tail(), 0.5),
                               hf.QuadratureScheme(dim=1, node_count=64))
    x, t, h = -41.0, 0.02, 1e-4
    drift = ev.drift(np.array([[x]]), t)[0, 0]
    log_f = ev.log_pt_f(np.array([[x + h], [x - h]]), t)
    fd = -(log_f[0] - log_f[1]) / (2 * h)
    assert np.isfinite(drift)
    assert drift == pytest.approx(fd, rel=1e-8)


# -- log-concavity profiles -------------------------------------------------------------------


def test_profile_gaussian_equality_case(ev_half):
    # the curvature route is exact for Gaussians
    grid = hf.GridSpec(-2, 2, 9)
    lam = 0.5
    for t in (0.05, 0.2, 1.0, 2.0):
        got = concavity_profile(ev_half, grid, t)
        want = hf.curvature_profile_value(lam, t)
        assert got == pytest.approx(want, rel=1e-6)


def test_profile_log_concave_stays_log_concave(ev_one):
    grid = hf.GridSpec(-3, 3, 13)
    for t in (0.1, 0.5, 2.0):
        assert concavity_profile(ev_one, grid, t) <= 1e-8


def test_profile_sharpness_meets_level(gh_scheme):
    t = 0.5 * np.log(2.0)
    T = 6.0
    p = hf.normalize(hf.sharpness(T, hf.sharpness_critical_scale(t)))
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    got = ev.log_concavity(np.array([[0.0]]), t)[0]
    level = T * T / (3.0 * np.expm1(2.0 * t))
    assert got >= 0.9 * level


@pytest.mark.parametrize("p_fix", ["gaussian_half", "std_bump"])
def test_curvature_budget_invariant(p_fix, gh_scheme, request):
    p = request.getfixturevalue(p_fix)
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    grid = hf.GridSpec(-4, 4, 33)
    lam = p.curvature_lower
    for t in (0.05, 0.2, 0.5, 1.0):
        if lam * (1.0 - np.exp(-2.0 * t)) < 0.9:
            got = concavity_profile(ev, grid, t)
            assert got <= hf.curvature_profile_value(lam, t) + 1e-4


@pytest.mark.parametrize("build", [
    lambda: hf.normalize(hf.bump(0.0, 0.5, 0.5)),
    lambda: hf.normalize(hf.vt_counterexample(3.0)),
    lambda: hf.normalize(hf.sharpness(2.0, 0.8)),
])
def test_oscillation_budget_invariant(build, gh_scheme):
    p = build()
    ev = hf.SemigroupEvaluator(p, gh_scheme)
    grid = hf.GridSpec(-4, 4, 33)
    for t in (0.1, 0.3, 1.0):
        got = concavity_profile(ev, grid, t)
        assert got <= hf.oscillation_profile_value(p.oscillation, t) + 1e-4


# -- semigroup structure -------------------------------------------------------------------------


def test_semigroup_composition_via_tabulation(std_bump, gh_scheme):
    # P_{s+t} f equals P_s applied to a dense tabulation of f_t
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    t, s = 0.25, 0.4
    grid = np.linspace(-10, 10, 16001)
    vt_vals = -ev.log_pt_f(grid[:, None], t)
    mid = hf.tabulated(grid, vt_vals, normalized=True)
    ev_mid = hf.SemigroupEvaluator(mid, gh_scheme)
    xs = np.linspace(-4, 4, 17)[:, None]
    direct = np.exp(ev.log_pt_f(xs, s + t))
    stepped = np.exp(ev_mid.log_pt_f(xs, s))
    assert np.max(np.abs(direct - stepped)) < 1e-6


def test_sup_contraction(std_bump, gh_scheme):
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    xs = np.linspace(-6, 6, 241)[:, None]
    f0 = std_bump.density(xs)
    for t in (0.2, 1.0, 4.0):
        ft = np.exp(ev.log_pt_f(xs, t))
        assert ft.max() <= f0.max() + 1e-10
        assert ft.min() >= f0.min() - 1e-10


def test_long_time_limit(std_bump, gh_scheme):
    ev = hf.SemigroupEvaluator(std_bump, gh_scheme)
    xs = np.linspace(-4, 4, 33)[:, None]
    assert np.max(np.abs(np.exp(ev.log_pt_f(xs, 10.0)) - 1.0)) < 1e-4


def test_batch_matches_pointwise(bump_evaluator):
    xs = np.linspace(-2, 2, 7)
    batch = bump_evaluator.log_pt_f(xs[:, None], 0.6)
    rows = np.concatenate([bump_evaluator.log_pt_f(np.array([[x]]), 0.6) for x in xs])
    assert np.array_equal(batch, rows)


VIEWS = ("log_pt_f", "grad_pt_f", "hess_pt_f", "drift", "drift_and_hess_vt",
         "log_concavity")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("view", VIEWS + ("ou_expectation",))
def test_single_point_shape_rejected(view, dim):
    # points come as (N, dim) batches only; a (dim,) point is not one
    scheme = hf.QuadratureScheme(dim=dim, node_count=8)
    ev = hf.SemigroupEvaluator(hf.bump(0.2, 0.6, 0.5, dim), scheme)

    def call(x):
        if view == "ou_expectation":
            return ou_expectation(lambda p: p[..., 0], x, 0.5, scheme)
        return getattr(ev, view)(x, 0.5)

    out = call(np.full((1, dim), 0.3))
    assert all(a.shape[0] == 1 for a in (out if isinstance(out, tuple) else (out,)))
    with pytest.raises(ValueError, match="shape \\(N, dim\\)"):
        call(np.full(dim, 0.3))


def test_monte_carlo_scheme_pt_f():
    # V = |x|^2 / 2 in dim 4, unnormalized: P_t e^{-V}(x) is a product of
    # the 1-d closed form over the axes, here at x = (1, 0, 0, 0)
    mc = hf.QuadratureScheme(dim=4, sample_count=200_000, seed=5)
    ev = hf.SemigroupEvaluator(hf.gaussian(1.0, dim=4), mc)
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    got = np.exp(ev.log_pt_f(x, 0.5)[0])
    e2 = np.exp(-1.0)
    want = np.exp(-2.0 * np.log(2.0 - e2) - 0.5 * e2 / (2.0 - e2))
    assert got == pytest.approx(want, rel=5e-3)


def test_high_dim_needs_monte_carlo():
    p = hf.gaussian(1.0, dim=4)
    with pytest.raises(ValueError, match="needs a sample_count"):
        hf.normalize(p)
    mc = hf.QuadratureScheme(dim=4, sample_count=400_000, seed=3)
    q = hf.normalize(p, mc)
    assert q.shift == pytest.approx(-2.0 * np.log(2.0), abs=2e-2)


# -- the y rule ----------------------------------------------------------------------


def z_only(p):
    """p without its locus: every pass takes the Z rule."""
    return dataclasses.replace(p, locus=None)


def y_times(r, ratios):
    """The times t > 0 at which s = sqrt(1 - e^{-2t}) is ratio * r, for the
    ratios that give s < 1 (all at or above the switch)."""
    return [float(-0.5 * np.log1p(-(q * r) ** 2)) for q in ratios if q * r < 1.0]


# the target, its node count and the node count of the Z-rule reference
Y_RULE_CASES = {
    "1d_bump(0,.5,.5)": (lambda: hf.normalize(hf.bump(0.0, 0.5, 0.5)), 64, 4096),
    "1d_bump(.5,.25,1)": (lambda: hf.normalize(hf.bump(0.5, 0.25, 1.0)), 64, 4096),
    "2d_bump((.3,-.2),.4,.8)": (
        lambda: hf.normalize(hf.bump((0.3, -0.2), 0.4, 0.8, dim=2)), 32, 256),
    "3d_bump((.2,-.1,.3),.5,.6)": (
        lambda: hf.normalize(hf.bump((0.2, -0.1, 0.3), 0.5, 0.6, dim=3)), 24, 128),
}


@pytest.mark.parametrize("case", sorted(Y_RULE_CASES))
def test_y_pass_matches_the_fine_z_rule(case):
    # at and above the switch the y rule agrees with the Z rule at 4096
    # nodes (1-d), 256^2 (2-d) or 128^3 (3-d), and makes no potential call
    build, nodes, ref_nodes = Y_RULE_CASES[case]
    p, seen = recording(build())
    dim, r = p.dim, p.locus[1]
    assert semigroup.LOCUS_SWITCH * r < 1.0
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=dim, node_count=nodes))
    ref = hf.SemigroupEvaluator(z_only(p), hf.QuadratureScheme(dim=dim, node_count=ref_nodes))
    xs = 1.5 * np.random.default_rng(dim).standard_normal(({1: 64, 2: 16, 3: 8}[dim], dim))
    ratios = (semigroup.LOCUS_SWITCH * (1.0 + 1e-9), 1.3, 2.0, 3.0)
    for t in y_times(r, ratios) + [8.0]:
        seen.clear()
        drift, hess = ev.drift_and_hess_vt(xs, t)
        views = [drift, hess, ev.drift(xs, t), ev.log_pt_f(xs, t), ev.grad_pt_f(xs, t),
                 ev.hess_pt_f(xs, t, route="hermite")]
        assert seen == []
        want_drift, want_hess = ref.drift_and_hess_vt(xs, t)
        wants = [want_drift, want_hess, want_drift, ref.log_pt_f(xs, t), ref.grad_pt_f(xs, t),
                 ref.hess_pt_f(xs, t, route="hermite")]
        for got, want in zip(views, wants):
            assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("locus", [((0.0,), 0.0), ((0.0,), -0.5), ((0.0, 0.0), 0.5)])
def test_malformed_locus_refused(std_bump, locus):
    with pytest.raises(ValueError, match="locus must be"):
        hf.SemigroupEvaluator(dataclasses.replace(std_bump, locus=locus),
                              hf.QuadratureScheme(dim=1, node_count=16))


def test_switch_is_chosen_from_t_alone(std_bump):
    # sin theta just below LOCUS_SWITCH r takes the Z rule, just above it
    # the y rule; the commute route always takes the Z rule
    p, seen = recording(std_bump)
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=64))
    seen.clear()        # the y rule's one call, at its nodes
    below, above = y_times(p.locus[1], (0.999 * semigroup.LOCUS_SWITCH,
                                        1.001 * semigroup.LOCUS_SWITCH))
    xs = np.linspace(-2.0, 2.0, 5)[:, None]
    ev.drift(xs, below)
    assert [kind for kind, _ in seen] == ["value_grad"]
    seen.clear()
    ev.drift(xs, above)
    ev.log_pt_f(xs, above)
    assert seen == []
    ev.hess_pt_f(xs, above, route="commute")
    assert [kind for kind, _ in seen] == ["value_grad", "hess"]


@pytest.mark.parametrize("dim, node_count", [(1, 64), (2, 10), (3, 6)])
def test_y_pass_rows_do_not_depend_on_blocks(monkeypatch, dim, node_count):
    # blocks of one row, of 4 rows (23 rows make blocks of 4, 4, 4, 4, 4
    # and 3) and of every row give the same bits, row by row, and so do
    # the 23 rows moved to other block positions by 5 rows put in front
    k = min(node_count, semigroup.LOCUS_NODES_MAX) ** dim
    p, seen = recording(hf.bump(0.2, 0.6, 0.5, dim))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=dim, node_count=node_count))
    seen.clear()        # the y rule's one call, at its nodes
    r = np.random.default_rng(dim)
    xs = 1.5 * r.standard_normal((23, dim))
    shifted = np.concatenate([r.standard_normal((5, dim)), xs])

    def views(x, t, rows_per_block):
        monkeypatch.setattr(semigroup, "BLOCK_BYTES", 8 * k * (2 * dim + 3) * rows_per_block)
        return (ev.drift(x, t), *ev.drift_and_hess_vt(x, t), ev.log_pt_f(x, t),
                ev.grad_pt_f(x, t), ev.hess_pt_f(x, t, route="hermite"))

    for t in (0.3, 1.3, 8.0):
        batch = views(xs, t, 4)
        others = [views(xs, t, 1), views(xs, t, 23), [v[5:] for v in views(shifted, t, 4)]]
        for other in others:
            assert all(np.array_equal(a, b) for a, b in zip(batch, other))
        for i in range(xs.shape[0]):
            one = slice(i, i + 1)
            assert all(np.array_equal(a, b[one]) for a, b in zip(views(xs[one], t, 4), batch))
    assert seen == []


@pytest.mark.parametrize("height", [10.0, 40.0])
def test_tall_bump_y_pass_keeps_its_digits(monkeypatch, height):
    # f_t = e^{-shift} (1 + sum_j b_j N_j) cancels where f_t is far below
    # e^{-shift}: on these bumps e^{-V} falls to e^{-height} e^{-shift} at
    # the centre.  Rounding stays small (a y rule of 256 nodes against the Z
    # rule at 4096), and the default y rule beats the Z rule at 64 nodes that
    # it replaces by an order of magnitude or more
    p = hf.normalize(hf.bump(0.1, 0.3, height))
    xs = np.linspace(-4.5, 4.5, 91)[:, None]
    ref = hf.SemigroupEvaluator(z_only(p), hf.QuadratureScheme(dim=1, node_count=4096))
    z64 = hf.SemigroupEvaluator(z_only(p), hf.QuadratureScheme(dim=1, node_count=64))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=64))
    monkeypatch.setattr(semigroup, "LOCUS_NODES_MAX", 256)
    fine = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=256))

    def err(e, t):
        d, h = e.drift_and_hess_vt(xs, t)
        d_ref, h_ref = ref.drift_and_hess_vt(xs, t)
        return max(np.max(np.abs(d - d_ref)), np.max(np.abs(h - h_ref)))

    for t in y_times(0.3, (1.001 * semigroup.LOCUS_SWITCH, 1.5, 2.0, 3.0)):
        assert err(fine, t) <= 1e-11
        assert err(ev, t) <= 0.1 * err(z64, t)


DRIFT_RATIO_CASES = {
    "1d_bump(0,.5,.5)": lambda: hf.normalize(hf.bump(0.0, 0.5, 0.5)),
    "1d_bump(.5,.25,1)": lambda: hf.normalize(hf.bump(0.5, 0.25, 1.0)),
    "1d_bump(0,.5,-.5)": lambda: hf.normalize(hf.bump(0.0, 0.5, -0.5)),
    "2d_bump((.3,-.2),.4,.8)": lambda: hf.normalize(hf.bump((0.3, -0.2), 0.4, 0.8, dim=2)),
}


@pytest.mark.parametrize("case", sorted(DRIFT_RATIO_CASES))
def test_y_pass_drift_ratio_within_measured_margin(case):
    # a y pass does not obey |drift| <= e^{-t} sup|grad V| by construction,
    # as a Z pass does; over a grid of rows and every angle past the switch
    # its ratio to that bound stays below 0.75 (measured: at most 0.51)
    p = DRIFT_RATIO_CASES[case]()
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=p.dim, node_count=32))
    axis = np.linspace(-6.0, 6.0, 241 if p.dim == 1 else 41)
    xs = np.stack([g.ravel() for g in np.meshgrid(*[axis] * p.dim)], axis=-1)
    th0 = np.arcsin(semigroup.LOCUS_SWITCH * p.locus[1])
    for theta in np.linspace(th0 * (1.0 + 1e-9), 0.5 * np.pi * (1.0 - 1e-9), 25):
        t = float(-np.log(np.cos(theta)))
        norms = np.linalg.norm(ev.drift(xs, t), axis=-1)
        assert np.max(norms) <= 0.75 * np.exp(-t) * p.grad_sup_norm
