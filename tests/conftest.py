import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import heatflow as hf  # noqa: E402


@pytest.fixture(scope="session")
def gh_scheme():
    return hf.QuadratureScheme(dim=1, node_count=128)


@pytest.fixture(scope="session")
def gaussian_half():
    """Normalized gaussian(rho=-0.5): target N(0, 2), curvature deficit 1/2."""
    return hf.normalize(hf.gaussian(-0.5))


@pytest.fixture(scope="session")
def gaussian_one():
    """Normalized gaussian(rho=1): target N(0, 1/2), log-concave."""
    return hf.normalize(hf.gaussian(1.0))


@pytest.fixture(scope="session")
def std_bump():
    """Normalized bump with curvature 2 and oscillation 1/2."""
    return hf.normalize(hf.bump(0.0, 0.5, 0.5))


@pytest.fixture(scope="session")
def bump_evaluator(std_bump, gh_scheme):
    return hf.SemigroupEvaluator(std_bump, gh_scheme)


@pytest.fixture(scope="session")
def walled_gaussian():
    """V = x^2/2 on |x| <= 5 and +inf beyond: the density is exactly zero
    past the walls, so a row whose nodes all lie there has no density."""

    def raw(x):
        return np.where(np.abs(x[..., 0]) <= 5.0, 0.5 * x[..., 0] ** 2, np.inf)

    return hf.Potential(
        dim=1,
        raw_fn=raw,
        value_grad_fn=lambda x: (raw(x), x),
        hess_fn=lambda x: np.ones(x.shape + (1,)),
        name="walled_gaussian",
    )


@pytest.fixture(scope="session")
def regularized_linear_tail():
    return hf.lipschitz_regularize(hf.linear_tail(), l=1.0, r=6.0)


def rng(seed=0):
    return np.random.default_rng(seed)
