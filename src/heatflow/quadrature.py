"""Gaussian quadrature and Monte Carlo schemes for expectations under gamma.

All weights use the probabilists' normalization, so a scheme integrates
against the standard Gaussian measure directly: sum(w) = 1, sum(w z) = 0,
sum(w z^2) = 1 per axis.  The dimension picks the rule: tensor
Gauss-Hermite up to dimension 3, antithetic Monte Carlo above.

The Gauss-Hermite rule is computed here with numpy alone (see
`gauss_hermite_1d`), so this module imports no scipy module.  A rule's
weights are also kept as logarithms, which stay finite where the weights
themselves underflow (the outer weights are 0.0 in rules of 389 nodes and
more): the adaptive estimate, the semigroup pass and `mollify` add
log-weights to log-integrands.
"""

from __future__ import annotations

import math
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
# a node whose Halley step was at most this times max(1, |x|) is within
# rounding of its root, so the next evaluation of the recurrence is its last
GH_SETTLED_STEP = 1e-8
# evaluations of the recurrence before the rule gives up; every rule up to
# 4096 nodes needs three, or four below 12 nodes
GH_MAX_STEPS = 10


def _airy_zeros(k: np.ndarray) -> np.ndarray:
    """Zeros a_k < 0 of the Airy function Ai, k = 1, 2, ..., from their
    asymptotic series (DLMF 9.9.6, 9.9.18): relative error 1e-3 at k = 1,
    1e-7 at k = 2 and falling fast after."""
    t = 3.0 * np.pi / 8.0 * (4.0 * k - 1.0)
    u = t ** -2.0
    series = 1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 + u * (-108056875.0 / 6967296.0
                                 + u * (162375596875.0 / 334430208.0)))))
    return -t ** (2.0 / 3.0) * series


def _gh_start(n: int) -> np.ndarray:
    """Starting values for the nonnegative nodes of the n-point rule, in
    increasing order, with 0 first for odd n (Townsend, Trogdon & Olver
    2016, Lemmas 3.1 and 3.2, rescaled from H_n to He_n by sqrt 2).

    Tricomi's interior expansion serves the inner nodes and Gatteschi's
    Airy-zero expansion the outer ones, split where the two are equally
    accurate (their fitted turnover, about 98% of the way out).
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    inner = min(m, max(0, round(0.49082003 * n - 4.37859653) + 1))
    k = np.arange(1, inner + 1, dtype=float)
    # Tricomi: tau - sin(tau) = c by Newton's method, sigma = cos^2(tau/2)
    c = (4.0 * m - 4.0 * k + 3.0) * np.pi / nu
    tau = np.full_like(c, np.pi / 2.0)
    for _ in range(10):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sig = np.cos(tau / 2.0) ** 2
    x2_inner = nu * sig - (5.0 / (4.0 * (1.0 - sig) ** 2) - 1.0 / (1.0 - sig)
                           - 0.25) / (3.0 * nu)
    # Gatteschi: the largest node belongs to the first Airy zero
    a = _airy_zeros(np.arange(m - inner, 0, -1, dtype=float))
    x2_outer = (nu + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0)
                + 0.2 * 2.0 ** (4.0 / 3.0) * a ** 2 * nu ** (-1.0 / 3.0)
                + (9.0 / 140.0 - 12.0 / 175.0 * a ** 3) / nu
                + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4)
                * 2.0 ** (2.0 / 3.0) * nu ** (-5.0 / 3.0)
                - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a ** 2)
                * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0))
    x = np.sqrt(2.0 * np.concatenate([x2_inner, x2_outer]))
    return np.concatenate([[0.0], x]) if n % 2 else x


def _hermite_q(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, e) with q_n(x) = a 2^e and q_{n-1}(x) = b 2^e, for the
    orthonormal q_k = He_k / sqrt(k!) of the standard Gaussian.

    Runs q_{k+1} = (x q_k - sqrt(k) q_{k-1}) / sqrt(k+1) from q_0 = 1.  A
    step grows the pair by at most |x| + 2, so every few steps each node's
    pair is rescaled by a power of two (exact) into [1/2, 1), and the
    exponent e is that node's running log2 scale: nothing overflows or
    underflows, whatever n.
    """
    q, qp, t = np.ones_like(x), np.zeros_like(x), np.empty_like(x)
    e = np.zeros(x.shape, dtype=np.int64)
    every = max(1, int(600 // math.log2(2.0 + float(np.max(np.abs(x), initial=0.0)))))
    sqrt_k = [math.sqrt(k) for k in range(n + 1)]
    for k in range(n):
        np.multiply(x, q, out=t)
        qp *= sqrt_k[k]
        t -= qp
        t *= 1.0 / sqrt_k[k + 1]
        qp, q, t = q, t, qp
        if k % every == every - 1:
            ex = np.frexp(np.maximum(np.abs(q), np.abs(qp)))[1]
            q, qp = np.ldexp(q, -ex), np.ldexp(qp, -ex)
            e += ex
    return q, qp, e


@lru_cache(maxsize=64)
def _gauss_hermite_log(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of the n-point rule; see gauss_hermite_1d."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    x = _gh_start(n)
    log_q = np.empty_like(x)                # log |q_{n-1}| at the final nodes
    todo = np.arange(x.size)
    settled = np.zeros(x.size, dtype=bool)
    for _ in range(GH_MAX_STEPS):
        xa = x[todo]
        qn, qm, e = _hermite_q(n, xa)
        last = settled[todo]
        log_q[todo[last]] = np.log(np.abs(qm[last])) + e[last] * math.log(2.0)
        todo, xa, qn, qm = todo[~last], xa[~last], qn[~last], qm[~last]
        if not todo.size:
            break
        # Halley's step: q_n' = sqrt(n) q_{n-1} and, from Hermite's
        # equation, q_n'' = x q_n' - n q_n
        u = qn / (math.sqrt(n) * qm)
        step = u / (1.0 - 0.5 * u * (xa - n * u))
        x[todo] = xa - step
        settled[todo] = np.abs(step) <= GH_SETTLED_STEP * np.maximum(1.0, xa)
    else:
        raise HeatflowError(f"Gauss-Hermite nodes for n={n} did not converge")
    # Christoffel weights 1 / sum_{k<n} q_k^2 = 1 / (n q_{n-1}^2) at a root
    logw = -math.log(n) - 2.0 * log_q
    # mirror the n // 2 positive nodes (an odd rule's 0 is not repeated)
    m = n // 2
    z = np.concatenate([-x[::-1][:m], x])
    logw = np.concatenate([logw[::-1][:m], logw])
    logw -= np.log(np.exp(logw).sum())
    z.setflags(write=False)
    logw.setflags(write=False)
    return z, logw


@lru_cache(maxsize=64)
def gauss_hermite_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum(w) = 1 for E[f(Z)], Z ~ N(0,1).

    The nodes are the roots of He_n, found with numpy alone for every n
    (Townsend, Trogdon & Olver, "Fast computation of Gauss quadrature nodes
    and weights on the whole real line", IMA J. Numer. Anal. 2016, for the
    starting values):
      * only the nonnegative half is computed, then mirrored, so z = -z[::-1]
        exactly and the middle node of an odd rule is exactly 0;
      * starting values from Tricomi's expansion inside and Gatteschi's
        near the edge, with Airy zeros from their asymptotic series;
      * Halley steps on the orthonormal three-term recurrence, run with a
        running power-of-two scale per node so nothing overflows at
        n = 4096 (largest node 127.4); a node stops once a step falls below
        GH_SETTLED_STEP relative, after one more evaluation;
      * log-weights -log n - 2 log|q_{n-1}| from that last evaluation,
        shifted so the weights sum to 1.
    Cost O(n^2): about 0.1 s for all of 64, 128, ..., 4096 nodes on one
    core.  Against a 40-digit evaluation of the same recurrence (n up to
    4096), nodes are right to about 1e-17 max(1, |x|) and log-weights to
    1e-12.  Against scipy's roots_hermitenorm, nodes agree within
    5e-14 max(1, |x|) up to n = 1024 and 1e-13 above, where scipy's
    asymptotic rule is itself that far off, and weights within 4e-12
    relative.  The outer weights underflow to 0 from n = 389 on; the
    log-weights behind them (QuadratureScheme.nodes_log_weights) stay
    finite.
    """
    z, logw = _gauss_hermite_log(n)
    w = np.exp(logw)
    w.setflags(write=False)
    return z, w


def _tensor_nodes(n: int, dim: int, first=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes (K, dim) and log-weights (K,), first axis slowest;
    `first` keeps a slab of the first axis's nodes."""
    z1, lw1 = _gauss_hermite_log(n)
    if dim == 1:
        return z1[first, None], lw1[first]
    grids = np.meshgrid(z1[first], *([z1] * (dim - 1)), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    logw = lw1[first]
    for _ in range(dim - 1):
        logw = np.add.outer(logw, lw1)
    return nodes, logw.reshape(-1)


@dataclass(frozen=True)
class QuadratureScheme:
    """Rule for computing E[g(Z)] with Z ~ N(0, Id) in `dim` dimensions.

    Up to GH_TENSOR_DIM_MAX: `node_count` Gauss-Hermite nodes per axis,
    tensorized.  Above it: `sample_count` antithetic draws from `seed`,
    generated in one pass from the seed, so results do not depend on how
    work is later split across workers.  `sample_count` is given exactly
    when the dimension is above the cap (ValueError otherwise).
    """

    dim: int
    node_count: int = 128
    sample_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.node_count < 1:
            raise ValueError("node count must be >= 1")
        if self.dim <= GH_TENSOR_DIM_MAX and self.sample_count is not None:
            raise ValueError(f"dim {self.dim} uses Gauss-Hermite, which reads no sample_count")
        if self.dim > GH_TENSOR_DIM_MAX and self.sample_count is None:
            raise ValueError(
                f"dim {self.dim} is above the Gauss-Hermite cap {GH_TENSOR_DIM_MAX}: "
                "its Monte Carlo scheme needs a sample_count"
            )
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample count must be >= 1")

    def nodes_log_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (nodes (K, dim), log-weights (K,)), every log-weight
        finite; the weights they stand for sum to 1."""
        if self.dim <= GH_TENSOR_DIM_MAX:
            return _tensor_nodes(self.node_count, self.dim)
        m = max(1, self.sample_count // 2)
        rng = np.random.default_rng(self.seed)
        half = rng.standard_normal((m, self.dim))
        nodes = np.concatenate([half, -half], axis=0)
        return nodes, np.full(2 * m, -np.log(2 * m))

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (nodes (K, dim), weights (K,)) with weights summing to 1."""
        nodes, logw = self.nodes_log_weights()
        return nodes, np.exp(logw)


@dataclass
class AdaptiveResult:
    value: float
    rel_change: float
    node_count: int
    converged: bool


def gaussian_expectation_adaptive(fn, dim: int, start_nodes: int = 64) -> AdaptiveResult:
    """E[e^{fn(Z)}] by Gauss-Hermite with node doubling until stabilized.

    `fn` maps (K, dim) -> (K,) and returns the log of the integrand; the
    rule's log-weights are added to it and the sum is taken with a
    max-shift, so integrands spanning hundreds of orders of magnitude stay
    finite and no node drops out because its weight underflows.  An
    estimate is summed over slabs of the first axis of at most
    ADAPTIVE_SLAB_NODES nodes each, and only one slab's nodes exist at a
    time.

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
            nodes, logw = _tensor_nodes(n, dim, slice(lo, lo + step))
            a = logw + fn(nodes)
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
    """E[fn(Z)] as the scheme's weighted node sum: the deterministic
    antithetic Monte Carlo stream above GH_TENSOR_DIM_MAX."""
    nodes, w = scheme.nodes_weights()
    return float(w @ fn(nodes))
