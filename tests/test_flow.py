import numpy as np
import pytest

import heatflow as hf
from heatflow.diagnostics import empirical_lipschitz, ks_distance, rearrangement_map
from heatflow.flow import StepperConfig


def make_flow(p, t_max=8.0, n_steps=300, nodes=128):
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=nodes))
    return hf.FlowIntegrator(ev, t_max=t_max, stepper=StepperConfig(n_steps=n_steps))


@pytest.fixture(scope="module")
def flow_one(gaussian_one):
    return make_flow(gaussian_one)


@pytest.fixture(scope="module")
def flow_const():
    return make_flow(hf.potentials.constant())


# -- trivial cases -------------------------------------------------------------


def test_constant_potential_trajectory_is_constant(flow_const):
    rec = flow_const.forward_flow(np.array([1.3]), 0.0, 3.0)
    assert np.max(np.abs(rec.states - 1.3)) < 1e-12


def test_constant_potential_identity_transport(flow_const):
    res = flow_const.inverse_transport(np.array([0.8]))
    assert res.point[0] == pytest.approx(0.8, abs=1e-12)
    J, nrm = flow_const.jacobian_along_flow(np.array([0.8]))
    assert nrm == pytest.approx(1.0, abs=1e-12)


# -- Gaussian closed forms ----------------------------------------------------------


def test_forward_flow_gaussian_endpoint(gaussian_one, flow_one):
    # scalar linear drift rho_t z integrates to z sqrt(1 + rho (1 - e^{-2t}))
    rec = flow_one.forward_flow(np.array([1.0]), 0.0, 8.0)
    want = np.sqrt(1.0 + 1.0 * (1.0 - np.exp(-16.0)))
    assert rec.endpoint[0, 0] == pytest.approx(want, abs=1e-6)
    assert rec.endpoint[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_inverse_transport_gaussian(flow_one):
    res = flow_one.inverse_transport(np.array([2.0]))
    assert res.point[0] == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-3)
    # no declared gradient bound: returned but uncertified
    assert not res.certified and res.error_bound is None


def test_jacobian_gaussian(flow_one):
    for y in (-1.5, 0.3, 2.0):
        _, nrm = flow_one.jacobian_along_flow(np.array([y]))
        assert nrm == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)


def test_certified_error_bound_for_bounded_family(std_bump):
    fi = make_flow(std_bump, t_max=10.0, n_steps=150, nodes=64)
    res = fi.inverse_transport(np.array([1.0]))
    assert res.certified
    assert res.error_bound == pytest.approx(
        np.exp(-10.0) * std_bump.grad_sup_norm, rel=1e-12)


# -- structural invariants ------------------------------------------------------------


def test_trajectories_never_cross(flow_one):
    xs = np.linspace(-2, 2, 9)[:, None]
    rec = flow_one.forward_flow(xs, 0.0, 4.0)
    for state in rec.states:
        assert np.all(np.diff(state[:, 0]) > 0)


def test_monotone_on_sorted_batch(std_bump):
    fi = make_flow(std_bump, t_max=10.0, n_steps=150, nodes=64)
    ys = np.linspace(-3.5, 3.5, 41)[:, None]
    z, _, _ = fi.transport_batch(ys)
    assert np.all(np.diff(z[:, 0]) > 0)


def test_log_concave_flow_expands(flow_one):
    # zero-deficit targets: forward spacing never shrinks
    xs = np.array([[0.2], [1.0]])
    rec = flow_one.forward_flow(xs, 0.0, 5.0)
    gaps = rec.states[:, 1, 0] - rec.states[:, 0, 0]
    assert np.all(np.diff(gaps) >= -1e-12)


def test_jacobian_positive_along_trajectories(std_bump):
    fi = make_flow(std_bump, t_max=8.0, n_steps=200, nodes=64)
    J, _ = fi.jacobian_along_flow(np.linspace(-2, 2, 9)[:, None])
    assert np.all(np.linalg.det(J) > 0)
    # and at every recorded time, not just the endpoint
    rec = fi.forward_flow(np.linspace(-2, 2, 5)[:, None], 0.0, 3.0,
                          with_jacobian=True)
    assert rec.jacobians is not None
    assert np.all(np.linalg.det(rec.jacobians) > 0)


def test_jacobian_bounded_by_profile_integral(std_bump):
    # combined budget for (lam, c) = (2, 1/2) dominates every local factor
    fi = make_flow(std_bump, t_max=10.0, n_steps=150, nodes=64)
    rng = np.random.default_rng(5)
    ys = rng.standard_normal((20, 1)) * 1.5
    _, norms = fi.jacobian_along_flow(ys)
    km = hf.lipschitz_from_profile(hf.combined_profile(2.0, 0.5))
    assert np.all(norms <= km * 1.05)


def test_halving_steps_stable(flow_one):
    y = np.array([1.7])
    a = make_flow(flow_one.evaluator.potential, n_steps=300).inverse_transport(y)
    b = make_flow(flow_one.evaluator.potential, n_steps=600).inverse_transport(y)
    assert abs(a.point[0] - b.point[0]) < 1e-7


# -- sampling harness ----------------------------------------------------------------------


def test_pushforward_deterministic(std_bump):
    fi = make_flow(std_bump, t_max=8.0, n_steps=100, nodes=48)
    a = fi.pushforward_samples(500, seed=9, with_jacobian=False)
    b = fi.pushforward_samples(500, seed=9, with_jacobian=False)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.outputs, b.outputs)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_pushforward_chunk_independent(std_bump, with_jacobian):
    fi = make_flow(std_bump, t_max=8.0, n_steps=100, nodes=48)
    a = fi.pushforward_samples(500, seed=9, with_jacobian=with_jacobian, chunk=500)
    b = fi.pushforward_samples(500, seed=9, with_jacobian=with_jacobian, chunk=77)
    assert np.array_equal(a.outputs, b.outputs)
    if with_jacobian:
        assert np.array_equal(a.jacobian_norms, b.jacobian_norms)


def assert_row_isolated(fi, ys, bad, with_jacobian):
    """Only row `bad` fails; it comes back at its input with an identity
    Jacobian, and the others exactly as in a batch that never contained it."""
    z, J, failed = fi.transport_batch(ys, with_jacobian=with_jacobian)
    assert np.flatnonzero(failed).tolist() == [bad]
    assert np.array_equal(z[bad], ys[bad])
    if with_jacobian:
        assert np.array_equal(J[bad], np.eye(ys.shape[1]))
    keep = np.arange(ys.shape[0]) != bad
    z_ok, J_ok, failed_ok = fi.transport_batch(ys[keep], with_jacobian=with_jacobian)
    assert not failed_ok.any()
    assert np.array_equal(z[keep], z_ok)
    if with_jacobian:
        assert np.array_equal(J[keep], J_ok)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_underflow_row_isolated(with_jacobian):
    # the row at 80 underflows the density floor
    fi = make_flow(hf.normalize(hf.gaussian(3.0)), t_max=8.0, n_steps=100, nodes=64)
    ys = np.array([[0.5], [80.0], [-1.0], [2.0]])
    assert_row_isolated(fi, ys, 1, with_jacobian)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_zero_density_row_isolated(walled_gaussian, with_jacobian):
    # V is +inf past |x| = 5 (the density is exactly zero there), so the
    # row at -50 ends up with a NaN log f_t rather than one below the floor
    fi = make_flow(walled_gaussian, t_max=8.0, n_steps=100, nodes=64)
    ys = np.array([[0.5], [-50.0], [-1.0], [2.0]])
    assert_row_isolated(fi, ys, 1, with_jacobian)


def test_underflow_row_reruns_survivors_once(monkeypatch):
    # one failing row costs at most one more batch integration, not a
    # serial integration per row
    fi = make_flow(hf.normalize(hf.gaussian(3.0)), t_max=8.0, n_steps=100, nodes=64)
    passes = []
    inner = hf.SemigroupEvaluator.drift_and_hess_vt

    def counting(self, *args, **kwargs):
        passes.append(1)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(hf.SemigroupEvaluator, "drift_and_hess_vt", counting)
    ys = np.random.default_rng(0).standard_normal((64, 1))
    fi.transport_batch(ys, with_jacobian=True)
    clean = len(passes)
    ys[17, 0] = 80.0
    passes.clear()
    _, _, failed = fi.transport_batch(ys, with_jacobian=True)
    assert np.flatnonzero(failed).tolist() == [17]
    assert len(passes) <= 2 * clean


def test_pushforward_identity_for_constant(flow_const):
    ps = flow_const.pushforward_samples(1000, seed=3, with_jacobian=False)
    assert np.max(np.abs(ps.outputs - ps.inputs)) < 1e-9
    assert ps.failed_indices.size == 0


def test_pushforward_gaussian_variance(gaussian_one):
    fi = make_flow(gaussian_one, t_max=8.0, n_steps=150)
    ps = fi.pushforward_samples(20_000, seed=42, with_jacobian=False)
    assert ps.outputs.var() == pytest.approx(0.5, abs=0.01)


def test_pushforward_ks_against_target(std_bump):
    fi = make_flow(std_bump, t_max=10.0, n_steps=120, nodes=48)
    ps = fi.pushforward_samples(20_000, seed=11, with_jacobian=False)
    assert ks_distance(ps.outputs[:, 0], std_bump) < 0.02


def test_flow_agrees_with_rearrangement(std_bump):
    fi = make_flow(std_bump, t_max=12.0, n_steps=240, nodes=128)
    ys = np.linspace(-2.5, 2.5, 11)
    z, _, _ = fi.transport_batch(ys[:, None])
    oracle = rearrangement_map(std_bump, ys)
    assert np.max(np.abs(z[:, 0] - oracle)) < 5e-3


def test_empirical_lipschitz_from_flow(gaussian_one):
    fi = make_flow(gaussian_one, t_max=8.0, n_steps=150)
    ps = fi.pushforward_samples(1500, seed=4, with_jacobian=False)
    emp = empirical_lipschitz(ps.inputs, ps.outputs)
    assert emp.ratio == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_dim2_gaussian_transport():
    p = hf.normalize(hf.gaussian(1.0, dim=2))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=2, node_count=32))
    fi = hf.FlowIntegrator(ev, t_max=8.0, stepper=StepperConfig(n_steps=120))
    ys = np.array([[1.0, -2.0], [0.5, 0.5], [-3.0, 1.0]])
    z, _, failed = fi.transport_batch(ys)
    assert not failed.any()
    assert np.max(np.abs(z - ys / np.sqrt(2.0))) < 1e-3
    J, norms = fi.jacobian_along_flow(ys)
    assert np.allclose(norms, 1.0 / np.sqrt(2.0), atol=1e-3)


def test_trajectory_and_map_tables(std_bump):
    from heatflow.flow import map_table
    fi = make_flow(std_bump, t_max=4.0, n_steps=50, nodes=48)
    rec = fi.forward_flow(np.array([[0.5], [1.0]]), 0.0, 4.0)
    assert rec.times.size == 51 and rec.states.shape == (51, 2, 1)
    assert rec.states[0, 1, 0] == 1.0
    ps = fi.pushforward_samples(5, seed=1, with_jacobian=True)
    table = map_table(ps)
    assert len(table) == 5
    assert set(table[0]) == {"input", "output", "jacobian_norm", "error_bound"}
