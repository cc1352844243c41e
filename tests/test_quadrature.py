import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatflow as hf
from heatflow.errors import DimensionTooHighError, NonIntegrableError
from heatflow.quadrature import (
    gauss_hermite_1d,
    gaussian_expectation_adaptive,
)


@pytest.mark.parametrize("n", [8, 32, 128, 512, 4096])
def test_gh_moments(n):
    z, w = gauss_hermite_1d(n)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(w @ z) < 1e-12
    assert abs(w @ z**2 - 1.0) < 1e-10


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
    with pytest.raises(DimensionTooHighError):
        hf.QuadratureScheme(dim=4, node_count=8).nodes_weights()


def test_mc_deterministic_and_antithetic():
    scheme = hf.QuadratureScheme(dim=2, kind="monte_carlo",
                                 sample_count=1000, seed=7)
    n1, w1 = scheme.nodes_weights()
    n2, _ = scheme.nodes_weights()
    assert np.array_equal(n1, n2)
    assert abs(w1.sum() - 1.0) < 1e-12
    # antithetic pairing kills odd moments exactly
    assert abs(np.sum(n1, axis=0)).max() < 1e-10


def test_adaptive_quadratic_exact():
    res = gaussian_expectation_adaptive(lambda z: z[:, 0] ** 2, dim=1)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-12


def test_adaptive_gaussian_mass():
    # E[e^{-z^2/2}] = 1/sqrt(2)
    res = gaussian_expectation_adaptive(
        lambda z: -z[:, 0] ** 2 / 2.0, dim=1, log_integrand=True
    )
    assert abs(res.value - 1.0 / np.sqrt(2.0)) < 1e-12


def test_adaptive_divergence_detected():
    with pytest.raises(NonIntegrableError):
        gaussian_expectation_adaptive(
            lambda z: 0.6 * z[:, 0] ** 2, dim=1, log_integrand=True
        )


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.9, max_value=5.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_adaptive_matches_gaussian_closed_form(rho, mu):
    # E[e^{-rho (Z - mu)^2 / 2}] has a complete-the-square closed form
    res = gaussian_expectation_adaptive(
        lambda z: -rho * (z[:, 0] - mu) ** 2 / 2.0, dim=1, log_integrand=True
    )
    closed = np.exp(-rho * mu * mu / (2.0 * (1.0 + rho))) / np.sqrt(1.0 + rho)
    assert res.value == pytest.approx(closed, rel=1e-9)
