import json
import multiprocessing
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import heatflow as hf
from heatflow import cli, flow, semigroup
from heatflow.errors import DensityUnderflowError, HeatflowError
from heatflow.diagnostics import empirical_lipschitz, ks_distance, rearrangement_map
from heatflow.flow import T_HESS_FLOOR

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def make_flow(p, t_max=8.0, n_steps=300, nodes=128):
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=p.dim, node_count=nodes))
    return hf.FlowIntegrator(ev, t_max=t_max, n_steps=n_steps)


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


@pytest.mark.parametrize("t0,t1,n", [(0.0, 3.0, 7), (0.5, 12.0, 300), (0.0, 12.0, 600)])
def test_forward_grid_hits_both_ends_and_is_monotone(flow_const, t0, t1, n):
    fi = make_flow(flow_const.evaluator.potential, n_steps=n, nodes=8)
    rec = fi.forward_flow(np.array([0.4]), t0, t1)
    assert rec.times.size == n + 1
    assert rec.times[0] == t0 and rec.times[-1] == t1
    assert np.all(np.diff(rec.times) > 0)


@pytest.mark.parametrize("t_max,n", [(8.0, 7), (10.0, 200), (12.0, 600)])
def test_transport_grid_hits_both_ends_and_is_monotone(monkeypatch, std_bump, t_max, n):
    fi = make_flow(std_bump, t_max=t_max, n_steps=n, nodes=8)
    grid = fi._grid(fi.t_max, 0.0)
    assert grid.size == n + 1 and grid[0] == t_max and grid[-1] == 0.0
    assert np.all(np.diff(grid) < 0)
    # every stage of transport_batch is a grid time or a midpoint, and the
    # last one lands on t = 0 exactly
    times = []
    inner = hf.SemigroupEvaluator.drift_and_hess_vt

    def recording(self, x, t):
        times.append(t)
        return inner(self, x, t)

    monkeypatch.setattr(hf.SemigroupEvaluator, "drift_and_hess_vt", recording)
    fi.transport_batch(np.array([[0.3]]), with_jacobian=True)
    assert times[0] == t_max and times[-1] == 0.0
    assert times[1] == 0.5 * (grid[0] + grid[1])


@pytest.mark.parametrize("kwargs", [{"n_steps": 0}, {"n_steps": -3}, {"t_max": -5.0},
                                    {"t_max": np.inf}, {"t_max": np.nan}])
def test_flow_rejects_bad_grid(flow_const, kwargs):
    # a one-point grid would map every sample to itself, and t_max < 0 puts
    # log1p of a negative time on the grid
    with pytest.raises(ValueError):
        hf.FlowIntegrator(flow_const.evaluator, **kwargs)


def test_gaussian_map_error_fourth_order_on_graded_grid(gaussian_one):
    # the inverse transport of gaussian(1) is y / sqrt(1 + (1 - e^{-2 t_max}))
    ys = np.linspace(-2.5, 2.5, 41)
    want = ys / np.sqrt(2.0 - np.exp(-24.0))
    errs = []
    for n in (20, 40, 80):
        fi = make_flow(gaussian_one, t_max=12.0, n_steps=n, nodes=64)
        z, _, failed = fi.transport_batch(ys[:, None])
        assert not failed.any()
        errs.append(np.max(np.abs(z[:, 0] - want)))
    assert errs[0] / errs[1] >= 10.0 and errs[1] / errs[2] >= 10.0


def count_passes(monkeypatch):
    calls = {"drift": 0, "drift_and_hess_vt": 0}
    for name in calls:
        inner = getattr(hf.SemigroupEvaluator, name)

        def counting(self, *args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(hf.SemigroupEvaluator, name, counting)
    return calls


def _jacobian_runs():
    # (t_max, n_steps) of every shipped transport config with the Jacobian
    # on, plus the acceptance gate's Jacobian run (criterion 11)
    runs = {"criterion_11": (8.0, 100)}
    for path in sorted(CONFIGS.glob("transport_*.json")):
        cfg = json.loads(path.read_text())
        if cfg.get("with_jacobian", True):
            runs[path.stem] = (cfg["flow"]["t_max"], cfg["flow"]["n_steps"])
    return runs


@pytest.mark.parametrize("run", sorted(_jacobian_runs()))
def test_jacobian_run_makes_one_pass_per_stage(monkeypatch, std_bump, run):
    # the first stage midpoint stays above T_HESS_FLOOR, so every stage is
    # a single drift_and_hess_vt pass
    t_max, n = _jacobian_runs()[run]
    fi = make_flow(std_bump, t_max=t_max, n_steps=n, nodes=8)
    calls = count_passes(monkeypatch)
    fi.transport_batch(np.array([[0.3]]), with_jacobian=True)
    assert calls == {"drift": 0, "drift_and_hess_vt": 4 * n}


def test_hess_floor_splits_first_stage_past_threshold(monkeypatch, std_bump):
    # the last step runs from expm1(du) to 0, du = log1p(t_max) / n; once its
    # midpoint falls below T_HESS_FLOOR its two midpoint stages make a drift
    # pass at t plus a Hessian pass at the floor
    t_max = 12.0
    n_split = int(np.floor(np.log1p(t_max) / np.log1p(2.0 * T_HESS_FLOOR))) + 1
    for n, extra in ((n_split - 1, 0), (n_split, 2)):
        fi = make_flow(std_bump, t_max=t_max, n_steps=n, nodes=8)
        calls = count_passes(monkeypatch)
        fi.transport_batch(np.array([[0.3]]), with_jacobian=True)
        assert calls == {"drift": extra, "drift_and_hess_vt": 4 * n}


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


# (dim, with_jacobian); the 1-d cases keep their plain ids
DIM_CASES = ([pytest.param(1, j, id=str(j)) for j in (False, True)]
             + [pytest.param(2, j, id=f"2d-{j}") for j in (False, True)])


@pytest.mark.parametrize("dim, with_jacobian", DIM_CASES)
def test_pushforward_chunk_independent(std_bump, dim, with_jacobian):
    p = std_bump if dim == 1 else hf.bump((0.3, -0.2), 0.6, 0.5, dim=2)
    fi = make_flow(p, t_max=8.0, n_steps=100, nodes=48 if dim == 1 else 8)
    a = fi.pushforward_samples(500, seed=9, with_jacobian=with_jacobian, chunk=500)
    b = fi.pushforward_samples(500, seed=9, with_jacobian=with_jacobian, chunk=77)
    assert np.array_equal(a.outputs, b.outputs)
    if with_jacobian:
        assert np.array_equal(a.jacobian_norms, b.jacobian_norms)


# -- spans on worker processes -------------------------------------------------------


def pushforward_bytes(ps):
    """Every array of a PushforwardSamples, as bytes."""
    norms = None if ps.jacobian_norms is None else ps.jacobian_norms.tobytes()
    return ps.inputs.tobytes(), ps.outputs.tobytes(), norms, ps.failed_indices.tobytes()


@pytest.fixture
def parent_calls(monkeypatch):
    """Count the transport_batch calls made in this process (a worker's
    calls land in its own copy of the list)."""
    calls = []
    inner = hf.FlowIntegrator.transport_batch

    def counting(self, y, *args, **kwargs):
        calls.append(len(y))
        return inner(self, y, *args, **kwargs)

    monkeypatch.setattr(hf.FlowIntegrator, "transport_batch", counting)
    return calls


@pytest.mark.parametrize("chunk", [0, -1])
def test_pushforward_rejects_bad_chunk(std_bump, chunk):
    fi = make_flow(std_bump, t_max=8.0, n_steps=20, nodes=16)
    with pytest.raises(ValueError, match="chunk"):
        fi.pushforward_samples(10, seed=0, chunk=chunk)


def test_spans_contiguous_at_most_chunk_about_equal(monkeypatch, std_bump, parent_calls):
    monkeypatch.setattr(flow, "_worker_count", lambda: 1)
    fi = make_flow(std_bump, t_max=8.0, n_steps=20, nodes=16)
    fi.pushforward_samples(500, seed=9, with_jacobian=False, chunk=77)
    assert sum(parent_calls) == 500
    assert max(parent_calls) <= 77 and max(parent_calls) - min(parent_calls) <= 1
    parent_calls.clear()
    fi.pushforward_samples(500, seed=9, with_jacobian=False)
    assert parent_calls == [500]


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_pushforward_worker_count_independent(monkeypatch, std_bump, parent_calls,
                                              with_jacobian):
    fi = make_flow(std_bump, t_max=8.0, n_steps=60, nodes=48)
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(flow, "_worker_count", lambda: workers)
        for chunk in (77, 8192):
            parent_calls.clear()
            ps = fi.pushforward_samples(300, seed=4, with_jacobian=with_jacobian,
                                        chunk=chunk)
            # with more than one worker no span runs in this process
            assert (sum(parent_calls) == 300) == (workers == 1)
            runs[workers, chunk] = pushforward_bytes(ps)
    first = runs[1, 8192]
    assert (first[2] is None) != with_jacobian
    assert all(r == first for r in runs.values())
    assert multiprocessing.active_children() == []


class FixedRng:
    """Stands in for np.random.default_rng: draws the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_pushforward_zero_density_row_flagged_on_workers(monkeypatch, walled_gaussian,
                                                         with_jacobian):
    fi = make_flow(walled_gaussian, t_max=8.0, n_steps=100, nodes=64)
    ys = np.random.default_rng(2).standard_normal((40, 1))
    ys[23, 0] = -50.0
    keep = np.arange(40) != 23
    z_ok, J_ok, failed_ok = fi.transport_batch(ys[keep], with_jacobian=with_jacobian)
    assert not failed_ok.any()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedRng(ys))
    for workers in (1, 2, 3):
        monkeypatch.setattr(flow, "_worker_count", lambda: workers)
        ps = fi.pushforward_samples(40, seed=0, with_jacobian=with_jacobian, chunk=7)
        assert ps.failed_indices.tolist() == [23]
        assert not ps.certified
        assert ps.outputs[23, 0] == -50.0
        assert ps.outputs[keep].tobytes() == z_ok.tobytes()
        if with_jacobian:
            assert ps.jacobian_norms[23] == 1.0
            ok_norms = np.linalg.svd(J_ok, compute_uv=False)[..., 0]
            assert ps.jacobian_norms[keep].tobytes() == ok_norms.tobytes()


def _pushforward_in_daemon(fi, conn):
    try:
        conn.send(pushforward_bytes(fi.pushforward_samples(60, seed=5, chunk=7)))
    except BaseException as exc:        # report, never hang the test
        conn.send(repr(exc))
    conn.close()


def test_pushforward_in_daemon_runs_serially(monkeypatch, std_bump):
    # a daemon process may not have children, so it maps the spans itself
    fi = make_flow(std_bump, t_max=8.0, n_steps=30, nodes=16)
    monkeypatch.setattr(flow, "_worker_count", lambda: 1)
    serial = pushforward_bytes(fi.pushforward_samples(60, seed=5))
    monkeypatch.setattr(flow, "_worker_count", lambda: 2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_pushforward_in_daemon, args=(fi, send), daemon=True)
    proc.start()
    assert recv.poll(120), "the daemon sent no result"
    got = recv.recv()
    proc.join(30)
    assert proc.exitcode == 0
    assert got == serial
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [
    HeatflowError("divergent integral"),
    DensityUnderflowError("density below floor", rows=[3, 7]),
    DensityUnderflowError("density below floor"),
], ids=["heatflow", "underflow_rows", "underflow"])
def test_errors_survive_pickle(exc):
    # a worker's exception comes back to the parent through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert getattr(back, "rows", None) == getattr(exc, "rows", None)


def raising_in_worker(exc):
    """A transport_batch that raises `exc`, or exits, in a worker only."""
    parent = os.getpid()
    inner = hf.FlowIntegrator.transport_batch

    def transport_batch(self, *args, **kwargs):
        if os.getpid() != parent:
            if exc is None:
                os._exit(1)
            raise exc
        return inner(self, *args, **kwargs)

    return transport_batch


@pytest.mark.parametrize("exc", [
    HeatflowError("divergent integral"),
    DensityUnderflowError("density below floor", rows=[3, 7]),
], ids=["heatflow", "underflow"])
def test_worker_exception_reaches_caller_intact(monkeypatch, std_bump, exc):
    monkeypatch.setattr(flow, "_worker_count", lambda: 2)
    monkeypatch.setattr(hf.FlowIntegrator, "transport_batch", raising_in_worker(exc))
    fi = make_flow(std_bump, t_max=8.0, n_steps=20, nodes=16)
    with pytest.raises(type(exc)) as info:
        fi.pushforward_samples(50, seed=1, chunk=7)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert getattr(info.value, "rows", None) == getattr(exc, "rows", None)
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_heatflow_error(monkeypatch, std_bump):
    monkeypatch.setattr(flow, "_worker_count", lambda: 2)
    monkeypatch.setattr(hf.FlowIntegrator, "transport_batch", raising_in_worker(None))
    fi = make_flow(std_bump, t_max=8.0, n_steps=20, nodes=16)
    with pytest.raises(HeatflowError, match="worker process died"):
        fi.pushforward_samples(50, seed=1, chunk=7)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [HeatflowError("divergent integral"), None],
                         ids=["raises", "dies"])
def test_cli_exit_3_on_worker_failure(monkeypatch, tmp_path, capsys, exc):
    monkeypatch.setattr(flow, "_worker_count", lambda: 2)
    monkeypatch.setattr(hf.FlowIntegrator, "transport_batch", raising_in_worker(exc))
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "transport", "potential": {"family": "gaussian", "params": {"rho": 1.0}},
        "scheme": {"node_count": 16}, "flow": {"n_steps": 20}, "samples": 50}))
    assert cli.main(["transport", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "numeric failure: HeatflowError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "samples.csv").exists()
    assert multiprocessing.active_children() == []


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


# V = |x|^2/2 inside the box max|x_i| <= 5 and +inf outside it
WALLED_GAUSSIAN_2D = hf.Potential(
    dim=2,
    raw_fn=lambda x: np.where(np.all(np.abs(x) <= 5.0, axis=-1),
                              0.5 * np.sum(x * x, axis=-1), np.inf),
    grad_fn=lambda x: np.array(x, dtype=float),
    hess_fn=lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
    name="walled_gaussian_2d",
)


@pytest.mark.parametrize("dim, with_jacobian", DIM_CASES)
def test_zero_density_row_isolated(walled_gaussian, dim, with_jacobian):
    # V is +inf past |x_i| = 5 (the density is exactly zero there), so the
    # row at -50 ends up with a NaN log f_t rather than one below the floor
    p = walled_gaussian if dim == 1 else WALLED_GAUSSIAN_2D
    fi = make_flow(p, t_max=8.0, n_steps=100, nodes=64 if dim == 1 else 8)
    ys = np.array([[0.5, 0.2], [-50.0, 1.0], [-1.0, 0.3], [2.0, -1.5]])[:, :dim]
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


def test_underflow_rows_in_two_blocks_rerun_once(monkeypatch):
    # rows 5 and 50 fall in different blocks of the shared-node pass; one
    # error names both, so the survivors are rerun as a single batch
    monkeypatch.setattr(semigroup, "BLOCK_BYTES", 8 * 64 * 5 * 8)  # 8 rows
    fi = make_flow(hf.normalize(hf.gaussian(3.0)), t_max=8.0, n_steps=100, nodes=64)
    ys = np.random.default_rng(1).standard_normal((64, 1))
    clean, _, _ = fi.transport_batch(ys, with_jacobian=True)
    ys[5, 0], ys[50, 0] = 80.0, -80.0
    calls = count_passes(monkeypatch)
    z, _, failed = fi.transport_batch(ys, with_jacobian=True)
    assert np.flatnonzero(failed).tolist() == [5, 50]
    keep = ~failed
    assert np.array_equal(z[keep], clean[keep])
    assert 4 * 100 < calls["drift_and_hess_vt"] <= 2 * 4 * 100


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
    fi = hf.FlowIntegrator(ev, t_max=8.0, n_steps=120)
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
