import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatflow as hf
from heatflow import quadrature
from heatflow.errors import HeatflowError
from heatflow.quadrature import (
    gauss_hermite_1d,
    gaussian_expectation_adaptive,
)


RULE_SIZES = [1, 2, 3, 4, 5, 8, 32, 33, 64, 127, 128, 255, 256, 257, 511, 512,
              1024, 2048, 4096]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gh_moments(n):
    # an n-point rule is exact to degree 2n - 1: E Z^{2j} = (2j - 1)!!, the
    # weights sum to 1 and the odd moments vanish
    z, w = gauss_hermite_1d(n)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(w @ z) < 1e-12
    for j in range(1, min(n, 40)):
        exact = math.prod(range(1, 2 * j, 2))
        assert float(w @ z ** (2 * j)) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gh_rule_shape(n):
    z, w = gauss_hermite_1d(n)
    assert z.shape == w.shape == (n,)
    assert np.array_equal(z, -z[::-1])
    if n % 2:
        assert z[n // 2] == 0.0
    assert np.all(np.diff(z) > 0)
    _, logw = hf.QuadratureScheme(dim=1, node_count=n).nodes_log_weights()
    assert np.all(np.isfinite(logw))        # every weight is positive
    assert np.array_equal(np.exp(logw), w)
    assert not (z.flags.writeable or w.flags.writeable or logw.flags.writeable)


def test_gh_log_weights_finite_where_weights_underflow():
    _, w = gauss_hermite_1d(4096)
    _, logw = hf.QuadratureScheme(dim=1, node_count=4096).nodes_log_weights()
    assert np.all(np.isfinite(logw))
    assert np.sum(w == 0.0) > 0 and logw.min() < -5000.0


def _decimal_root(n, x0):
    """Root of He_n near x0 and log of its Christoffel weight, from the
    orthonormal recurrence in 40-digit decimal arithmetic."""
    ctx = decimal.Context(prec=40)
    sqrt_k = [ctx.sqrt(k) for k in range(n + 1)]

    def q(x):
        qp, qk = decimal.Decimal(0), decimal.Decimal(1)
        for k in range(n):
            qp, qk = qk, ctx.divide(ctx.subtract(ctx.multiply(x, qk),
                                                 ctx.multiply(sqrt_k[k], qp)), sqrt_k[k + 1])
        return qk, qp

    x = decimal.Decimal(float(x0))
    for _ in range(2):
        qn, qm = q(x)
        x = ctx.subtract(x, ctx.divide(qn, ctx.multiply(sqrt_k[n], qm)))
    _, qm = q(x)
    return float(x), float(-ctx.ln(ctx.multiply(n, ctx.multiply(qm, qm))))


@pytest.mark.parametrize("n", [7, 200, 2048, 4096])
def test_gh_matches_decimal_recurrence(n):
    # nodes to about an ulp of max(1, |x|) and weights to 1e-12 relative, at
    # the outermost nodes, the innermost and a few between
    z, _ = gauss_hermite_1d(n)
    _, logw = hf.QuadratureScheme(dim=1, node_count=n).nodes_log_weights()
    for i in sorted({n - 1, n - 2, (n * 9) // 10, (n * 3) // 4, n // 2, (n - 1) // 2}):
        x, lw = _decimal_root(n, z[i])
        assert abs(z[i] - x) <= 1e-15 * max(1.0, abs(x))
        assert abs(logw[i] - lw) <= 1e-12


@pytest.mark.parametrize("n", list(range(1, 201)) + [255, 256, 257, 511, 512, 1024,
                                                     2048, 4096])
def test_gh_matches_scipy(n):
    # scipy switches to an asymptotic rule above 150 nodes, whose interior
    # nodes are off by up to 6e-14 (n = 2048) and 9e-14 (n = 4096) against
    # the decimal recurrence above; below that size 5e-14 holds
    from scipy.special import roots_hermitenorm
    z, w = gauss_hermite_1d(n)
    zs, ws = roots_hermitenorm(n)
    ws = ws / ws.sum()
    tol = 5e-14 if n <= 1024 else 2e-13
    assert np.all(np.abs(z - zs) <= tol * np.maximum(1.0, np.abs(zs)))
    big = ws >= 1e-300
    assert np.all(np.abs(w[big] / ws[big] - 1.0) <= 1e-11)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensorized_moments(dim):
    scheme = hf.QuadratureScheme(dim=dim, node_count=16)
    nodes, w = scheme.nodes_weights()
    assert nodes.shape == (16**dim, dim)
    assert abs(w.sum() - 1.0) < 1e-12
    for d in range(dim):
        assert abs(w @ nodes[:, d]) < 1e-12
        assert abs(w @ nodes[:, d] ** 2 - 1.0) < 1e-10
    if dim >= 2:  # cross moments vanish
        assert abs(w @ (nodes[:, 0] * nodes[:, 1])) < 1e-12


def test_gh_dim_cap():
    # the dimension picks the rule: above dim 3 Monte Carlo, whose sample
    # count must be given, and no sample count up to dim 3
    with pytest.raises(ValueError, match="dim 4 is above the Gauss-Hermite cap 3: "
                                         "its Monte Carlo scheme needs a sample_count"):
        hf.QuadratureScheme(dim=4, node_count=8)
    with pytest.raises(ValueError, match="dim 3 uses Gauss-Hermite, which reads no sample_count"):
        hf.QuadratureScheme(dim=3, sample_count=1000)


def test_mc_deterministic_and_antithetic():
    scheme = hf.QuadratureScheme(dim=4, sample_count=1000, seed=7)
    n1, w1 = scheme.nodes_weights()
    n2, _ = scheme.nodes_weights()
    assert np.array_equal(n1, n2)
    assert abs(w1.sum() - 1.0) < 1e-12
    # antithetic pairing kills odd moments exactly
    assert abs(np.sum(n1, axis=0)).max() < 1e-10


def test_adaptive_quadratic_exact():
    # E[Z^2] = 1, given as log z^2 (the doubled node counts are even, so
    # no node sits at 0)
    res = gaussian_expectation_adaptive(lambda z: 2.0 * np.log(np.abs(z[:, 0])), dim=1)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-12


def test_adaptive_gaussian_mass():
    # E[e^{-z^2/2}] = 1/sqrt(2)
    res = gaussian_expectation_adaptive(lambda z: -z[:, 0] ** 2 / 2.0, dim=1)
    assert abs(res.value - 1.0 / np.sqrt(2.0)) < 1e-12


def test_adaptive_divergence_detected():
    with pytest.raises(HeatflowError, match="grow without stabilizing"):
        gaussian_expectation_adaptive(lambda z: 0.6 * z[:, 0] ** 2, dim=1)


@pytest.mark.parametrize("dim, n_last", [(1, 4096), (2, 4096), (3, 256)])
def test_adaptive_caps_nodes_in_all(monkeypatch, dim, n_last):
    # an estimate that never settles doubles until one more doubling would
    # take over ADAPTIVE_MAX_NODES**2 nodes in all (or the per-axis cap);
    # the stub records each slab's request and returns one node for it,
    # log-weighted by the slab's share of the first axis
    asked = []

    def one_node(n, d, first=slice(None)):
        asked.append((n, d))
        share = len(range(n)[first]) / n
        return np.zeros((1, d)), np.log([(1.0 + 1.0 / n) * share])

    monkeypatch.setattr(quadrature, "_tensor_nodes", one_node)
    res = gaussian_expectation_adaptive(lambda z: np.zeros(len(z)), dim, start_nodes=16)
    assert not res.converged
    assert res.node_count == n_last and asked[-1] == (n_last, dim)
    assert max(n ** d for n, d in asked) <= quadrature.ADAPTIVE_MAX_NODES ** 2


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.9, max_value=5.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_adaptive_matches_gaussian_closed_form(rho, mu):
    # E[e^{-rho (Z - mu)^2 / 2}] has a complete-the-square closed form
    res = gaussian_expectation_adaptive(lambda z: -rho * (z[:, 0] - mu) ** 2 / 2.0, dim=1)
    closed = np.exp(-rho * mu * mu / (2.0 * (1.0 + rho))) / np.sqrt(1.0 + rho)
    assert res.value == pytest.approx(closed, rel=1e-9)


def test_adaptive_dim3_estimate_memory_is_bounded_by_slabs(monkeypatch):
    # 64^3 then 128^3 nodes: at 128 per axis an estimate is 8 slabs of 16
    # first-axis rows; building all 2.1M nodes at once peaked at 144 MB
    p = hf.gaussian(0.5, dim=3)
    fn = lambda z: -p.value(z)
    gauss_hermite_1d(64), gauss_hermite_1d(128)
    tracemalloc.start()
    try:
        res = gaussian_expectation_adaptive(fn, 3, start_nodes=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.node_count == 128 and res.converged
    assert peak < 48 * 2**20
    assert res.value == pytest.approx(1.5 ** -1.5, rel=1e-12)
    monkeypatch.setattr(quadrature, "ADAPTIVE_SLAB_NODES", 128**3)
    one_slab = gaussian_expectation_adaptive(fn, 3, start_nodes=64)
    assert abs(res.value - one_slab.value) <= 1e-14 * one_slab.value


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 512)])
def test_adaptive_estimate_is_one_slab_up_to_budget(dim, n):
    # dim-1 estimates, and dim-2 ones up to 512 per axis, see the whole
    # tensor rule in one call and equal the one-pass max-shifted sum
    sizes = []

    def fn(z):
        sizes.append(len(z))
        return -0.3 * np.sum(z * z, axis=1) + np.sin(z[:, 0])

    res = gaussian_expectation_adaptive(fn, dim, start_nodes=n // 2)
    assert res.converged and res.node_count == n
    assert sizes == [(n // 2) ** dim, n ** dim]
    nodes, logw = hf.QuadratureScheme(dim=dim, node_count=n).nodes_log_weights()
    a = logw + fn(nodes)
    m = np.max(a)
    assert res.value == float(np.exp(m) * np.exp(a - m).sum())
