"""Workload definitions and seeded job-config generation.

Each workload is a list of CLI jobs (command + JSON config) that one
benchmark "job" runs through ``heatflow.cli.main``.  The seed picks the
sample seed of every transport job, the probe rows checked against the
oracle and, for the certification suite, the order of its jobs; the
program itself only ever sees the generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Probe rows checked against the oracle per transport job, and the input
# radius within which the reported sup error is taken.  Outside the window
# the error of a linear map grows with |y|, so a sup over all rows would
# mostly measure how far out the seed's largest sample fell; every probe is
# still checked against the tolerance.
PROBE_ROWS = 512
PROBE_WINDOW = 2.0
TINY_SAMPLES = 32           # transport samples under --tiny (smoke test)

TAIL_POTENTIAL = {
    "family": "linear_tail",
    "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}],
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "transport" | "certify"
    why: str
    potential: dict | list         # potential config(s) built for setup_s
    scheme: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    samples: int = 0
    with_jacobian: bool = True
    oracle: str = ""               # "rearrangement" | "gaussian"
    tolerance: float = 0.0         # acceptance-gate tolerance on the probe error


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="bump1d_jac",
            kind="transport",
            why="transport_bump.json with the Jacobian on: every RK4 stage is a "
                "drift_and_hess_vt pass over a small working set, the path the "
                "fused-potential and surrogate items target",
            potential={"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
            scheme={"node_count": 64},
            flow={"t_max": 10.0, "n_steps": 200},
            samples=1024,
            with_jacobian=True, oracle="rearrangement", tolerance=5e-3,
        ),
        Workload(
            name="tail1d_envelope",
            kind="transport",
            why="regularized linear tail: a 14,401-knot table where interp and "
                "searchsorted dominate the job, plus the heaviest set-up "
                "(envelope and normalize)",
            potential=TAIL_POTENTIAL,
            scheme={"node_count": 64},
            flow={"t_max": 12.0, "n_steps": 300},
            samples=256,
            with_jacobian=True, oracle="rearrangement", tolerance=5e-3,
        ),
        Workload(
            name="gauss2d_drift",
            kind="transport",
            why="2-d Gaussian, 24^2 tensor nodes, Jacobian off: drift-only passes "
                "whose node arrays exceed L2, with an exact closed-form oracle",
            potential={"family": "gaussian", "params": {"rho": 1.0, "dim": 2}},
            scheme={"node_count": 24},
            flow={"t_max": 12.0, "n_steps": 60},
            samples=256,
            with_jacobian=False, oracle="gaussian", tolerance=1e-3,
        ),
        Workload(
            name="certify_suite",
            kind="certify",
            why="verify, bound, profile and counterexample jobs: never calls flow, "
                "many small Hessian passes, so flow and batch-potential work "
                "should leave it unchanged",
            potential=[{"family": "gaussian", "params": {"rho": -0.5}},
                       {"family": "gaussian", "params": {"rho": 1.0}},
                       {"family": "bump", "params": {"radius": 0.5, "height": 0.5}}],
        ),
    )
}

# The certification jobs: the example configs shipped with the package plus
# the two remaining counterexample kinds at their defaults.
CERTIFY_JOBS = (
    ("verify", {"command": "verify"}),
    ("bound", {"command": "bound", "lambda": 2.0, "c": 0.5}),
    ("profile", {"command": "profile", "lambda": 2.0, "c": 0.5,
                 "t_grid": {"lo": 0.001, "hi": 6.0, "count": 601}}),
    ("counterexample", {"command": "counterexample", "kind": "vt",
                        "T": 6.0, "l": 50.0}),
    ("counterexample", {"command": "counterexample", "kind": "sharpness"}),
    ("counterexample", {"command": "counterexample", "kind": "linear_tail"}),
)


@dataclass(frozen=True)
class Job:
    label: str
    command: str
    config: dict


@dataclass(frozen=True)
class Plan:
    workload: Workload
    jobs: tuple[Job, ...]
    probe_seed: int
    samples: int


def make_plan(w: Workload, seed: int, tiny: bool = False) -> Plan:
    """The jobs one benchmark job runs, generated from `seed` alone."""
    rng = np.random.default_rng(seed)
    sample_seed = int(rng.integers(2**31 - 1))
    probe_seed = int(rng.integers(2**31 - 1))
    if w.kind == "transport":
        samples = TINY_SAMPLES if tiny else w.samples
        cfg = {
            "command": "transport",
            "potential": w.potential,
            "scheme": w.scheme,
            "flow": w.flow,
            "samples": samples,
            "seed": sample_seed,
            "with_jacobian": w.with_jacobian,
        }
        return Plan(w, (Job(w.name, "transport", cfg),), probe_seed, samples)
    order = rng.permutation(len(CERTIFY_JOBS))
    jobs = []
    for i in order:
        command, cfg = CERTIFY_JOBS[i]
        label = cfg.get("kind", command)
        jobs.append(Job(label, command, dict(cfg, seed=sample_seed)))
    return Plan(w, tuple(jobs), probe_seed, 0)
