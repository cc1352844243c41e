"""Gaussian quadrature and Monte Carlo schemes for expectations under gamma.

All weights use the probabilists' normalization, so a scheme integrates
against the standard Gaussian measure directly: sum(w) = 1, sum(w z) = 0,
sum(w z^2) = 1 per axis.  Gauss-Hermite tensorizes up to dimension 3;
higher dimensions must use the Monte Carlo scheme.

The Gauss-Hermite roots come from scipy.special, imported inside
`gauss_hermite_1d`, so a job that builds no Gauss-Hermite rule loads no
scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HeatflowError

GH_TENSOR_DIM_MAX = 3
ADAPTIVE_REL_TOL = 1e-10
ADAPTIVE_MAX_NODES = 4096
# nodes per slab of one adaptive estimate: every dim-1 estimate, and dim-2
# estimates up to 512 nodes per axis, are one slab
ADAPTIVE_SLAB_NODES = 2**18


@lru_cache(maxsize=64)
def gauss_hermite_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum(w) = 1 for E[f(Z)], Z ~ N(0,1).

    scipy's hermitenorm roots stay finite for n in the thousands, unlike
    the numpy recurrences which overflow past a few hundred nodes.
    """
    from scipy.special import roots_hermitenorm
    if n < 1:
        raise ValueError("node count must be >= 1")
    z, w = roots_hermitenorm(int(n))
    w = w / w.sum()
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _tensor_nodes(n: int, dim: int, first=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes (K, dim) and weights (K,), first axis slowest; `first`
    keeps a slab of the first axis's nodes."""
    z1, w1 = gauss_hermite_1d(n)
    if dim == 1:
        return z1[first, None], w1[first]
    grids = np.meshgrid(z1[first], *([z1] * (dim - 1)), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = w1[first]
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)
    return nodes, w.reshape(-1)


@dataclass(frozen=True)
class QuadratureScheme:
    """Rule for computing E[g(Z)] with Z ~ N(0, Id) in `dim` dimensions.

    kind "gauss_hermite": `node_count` nodes per axis, tensorized.
    kind "monte_carlo": `sample_count` antithetic draws from `seed`; the
    full stream is generated in one pass from the seed, so results do not
    depend on how work is later split across workers.
    """

    dim: int
    kind: str = "gauss_hermite"
    node_count: int = 128
    sample_count: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind not in ("gauss_hermite", "monte_carlo"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.node_count < 1:
            raise ValueError("node count must be >= 1")
        if self.sample_count < 1:
            raise ValueError("sample count must be >= 1")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (nodes (K, dim), weights (K,)) with weights summing to 1."""
        if self.kind == "gauss_hermite":
            if self.dim > GH_TENSOR_DIM_MAX:
                raise ValueError(
                    f"tensorized Gauss-Hermite capped at dim {GH_TENSOR_DIM_MAX}; "
                    "use a monte_carlo scheme"
                )
            return _tensor_nodes(self.node_count, self.dim)
        m = max(1, self.sample_count // 2)
        rng = np.random.default_rng(self.seed)
        half = rng.standard_normal((m, self.dim))
        nodes = np.concatenate([half, -half], axis=0)
        weights = np.full(2 * m, 1.0 / (2 * m))
        return nodes, weights


@dataclass
class AdaptiveResult:
    value: float
    rel_change: float
    node_count: int
    converged: bool


def gaussian_expectation_adaptive(fn, dim: int, start_nodes: int = 64) -> AdaptiveResult:
    """E[e^{fn(Z)}] by Gauss-Hermite with node doubling until stabilized.

    `fn` maps (K, dim) -> (K,) and returns the log of the integrand; the
    sum is taken with a max-shift so integrands spanning hundreds of
    orders of magnitude stay finite.  An estimate is summed over slabs of
    the first axis of at most ADAPTIVE_SLAB_NODES nodes each, and only one
    slab's nodes exist at a time.

    Raises HeatflowError when the estimates keep growing by large
    factors across refinements, the signature of a divergent integral.
    Doubling stops at ADAPTIVE_MAX_NODES per axis and before one estimate
    would take more than ADAPTIVE_MAX_NODES**2 nodes in all (256 per axis
    in dim 3).  If the sequence is stable but has not met ADAPTIVE_REL_TOL
    by then, the last estimate is returned with converged=False and the
    achieved relative change recorded.
    """
    if dim > GH_TENSOR_DIM_MAX:
        raise ValueError(
            f"adaptive Gauss-Hermite capped at dim {GH_TENSOR_DIM_MAX}"
        )

    def estimate(n: int) -> float:
        # slabs of the first axis; total = e^M sum_c s_c e^{m_c - M}
        step = max(1, ADAPTIVE_SLAB_NODES // n ** (dim - 1))
        peaks, sums = [], []
        for lo in range(0, n, step):
            nodes, w = _tensor_nodes(n, dim, slice(lo, lo + step))
            with np.errstate(divide="ignore"):
                a = np.log(w) + fn(nodes)
            m = np.max(a)
            peaks.append(m)
            sums.append(np.exp(a - m).sum() if np.isfinite(m) else 0.0)
        m = np.max(peaks)
        if not np.isfinite(m):
            return 0.0 if m == -np.inf else float("inf")
        return float(np.exp(m) * (np.array(sums) * np.exp(np.array(peaks) - m)).sum())

    prev = estimate(start_nodes)
    n = start_nodes
    growth_streak = 0
    rel = np.inf
    while n < ADAPTIVE_MAX_NODES and (2 * n) ** dim <= ADAPTIVE_MAX_NODES ** 2:
        n *= 2
        cur = estimate(n)
        if not np.isfinite(cur):
            raise HeatflowError("quadrature estimate overflowed")
        denom = max(abs(cur), 1e-300)
        rel = abs(cur - prev) / denom
        if cur > 2.0 * abs(prev) + 1e-300:
            growth_streak += 1
            if growth_streak >= 3:
                raise HeatflowError(
                    "estimates grow without stabilizing across refinements"
                )
        else:
            growth_streak = 0
        if rel < ADAPTIVE_REL_TOL:
            return AdaptiveResult(cur, rel, n, True)
        prev = cur
    return AdaptiveResult(prev, rel, n, False)


def gaussian_expectation_mc(fn, scheme: QuadratureScheme) -> float:
    """E[fn(Z)] by the scheme's deterministic antithetic Monte Carlo stream."""
    nodes, w = scheme.nodes_weights()
    return float(w @ fn(nodes))
