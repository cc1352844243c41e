#!/usr/bin/env python3
"""End-to-end demo: map gamma onto N(0, 1/(1+rho)) and check the closed form.

Usage: python scripts/run_gaussian_transport.py [rho] [n_samples]
"""

import sys

import numpy as np

sys.path.insert(0, "src")

import heatflow as hf
from heatflow.diagnostics import empirical_lipschitz, ks_distance


def main():
    rho = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    p = hf.normalize(hf.gaussian(rho))
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=64))
    fi = hf.FlowIntegrator(ev, t_max=10.0, n_steps=200)

    ps = fi.pushforward_samples(n, seed=42, with_jacobian=False)
    scale = 1.0 / np.sqrt(1.0 + rho)
    err = np.max(np.abs(ps.outputs - ps.inputs * scale))
    print(f"target N(0, {scale**2:.4f});  n = {n}")
    print(f"sup |T(y) - y/sqrt(1+rho)|  = {err:.3e}")
    print(f"KS distance to target       = {ks_distance(ps.outputs[:, 0], p):.4f}")
    emp = empirical_lipschitz(ps.inputs, ps.outputs)
    print(f"empirical Lipschitz         = {emp.ratio:.6f} (exact {scale:.6f})")


if __name__ == "__main__":
    main()
