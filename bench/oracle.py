"""Correctness checks on job outputs, independent of the semigroup and flow code.

Transport outputs are compared on a seeded probe subset of `samples.csv`
rows: in 1-d against the monotone rearrangement (a quadrature CDF inverted
by root finding), for the Gaussian against the closed form y / sqrt(1 + rho).
The certification suite is checked against its own pass flags, the
counterexample conclusions, and a closed form of the bound job's
profile integral.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import PROBE_ROWS, PROBE_WINDOW, Workload

# Slack of the CLI's own ordering check (km_numeric <= l_tight + 1e-6).
KM_TOLERANCE = 1e-6


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)


def read_samples(path: Path) -> dict[str, np.ndarray]:
    """Columns of a `samples.csv`, skipping its `# key=value` header lines."""
    with path.open(encoding="utf-8") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {n: data[:, i] for i, n in enumerate(names)}


def probe_indices(n_rows: int, probe_seed: int) -> np.ndarray:
    rng = np.random.default_rng(probe_seed)
    return np.sort(rng.choice(n_rows, size=min(PROBE_ROWS, n_rows), replace=False))


def oracle_map(w: Workload, potential, inputs: np.ndarray) -> np.ndarray:
    """The exact map at `inputs` (rows, dim)."""
    if w.oracle == "gaussian":
        return inputs / np.sqrt(1.0 + w.potential["params"]["rho"])
    from heatflow import diagnostics
    return diagnostics.rearrangement_map(potential, inputs[:, 0])[:, None]


@dataclass
class MapError:
    sup_window: float      # sup over probes with |input| <= PROBE_WINDOW
    sup_all: float         # sup over every probe
    probes: int


def map_error(w: Workload, potential, csv_path: Path, probe_seed: int) -> MapError:
    cols = read_samples(csv_path)
    dim = sum(1 for n in cols if n.startswith("input_"))
    inputs = np.stack([cols[f"input_{d}"] for d in range(dim)], axis=1)
    outputs = np.stack([cols[f"output_{d}"] for d in range(dim)], axis=1)
    idx = probe_indices(inputs.shape[0], probe_seed)
    err = np.linalg.norm(outputs[idx] - oracle_map(w, potential, inputs[idx]), axis=1)
    inside = np.linalg.norm(inputs[idx], axis=1) <= PROBE_WINDOW
    return MapError(float(np.max(err[inside], initial=0.0)),
                    float(np.max(err, initial=0.0)), int(idx.size))


def map_check(w: Workload, err: MapError) -> Check:
    ok = bool(np.isfinite(err.sup_all) and err.sup_all <= w.tolerance)
    return Check("map_err_sup", ok,
                 f"sup over {err.probes} probes {err.sup_all:.3e} "
                 f"(tolerance {w.tolerance:g})")


def transport_checks(summary: dict, count: int) -> list[Check]:
    return [
        Check("summary_pass", summary.get("pass") is True),
        Check("no_failed_samples", summary.get("failed_samples") == [],
              f"{len(summary.get('failed_samples', []))} failed of {count}"),
    ]


def km_closed_form(lam: float, c: float) -> float:
    """exp of the combined profile's integral, split at the branch crossing.

    The routes cross at u = e^{-2t} = 1 - e^c / (lam (1 + e^c)); the
    curvature route integrates to -log(1 - lam (1 - u)) / 2 before it and
    the oscillation route to -e^c log(1 - u) / 2 after it.
    """
    ec = np.exp(c)
    u = 1.0 - ec / (lam * (1.0 + ec))
    return float(np.exp(-0.5 * np.log(1.0 - lam * (1.0 - u))
                        - 0.5 * ec * np.log1p(-u)))


def certify_checks(outs: dict[str, Path]) -> tuple[list[Check], int, int, float]:
    """(checks, verify checks run, verify checks failed, km error) for one set."""
    load = lambda label, name: json.loads(
        (outs[label] / name).read_text(encoding="utf-8"))
    verify = load("verify", "report.json")
    bound = load("bound", "summary.json")
    km_err = abs(bound["km_numeric"] - km_closed_form(bound["lambda"], bound["c"]))
    profile_rows = sum(1 for ln in (outs["profile"] / "profile.csv").open(encoding="utf-8")
                       if not ln.startswith("#")) - 1
    checks = [
        Check("verify_pass", verify.get("pass") is True and verify.get("failures") == 0,
              f"{verify.get('failures')} of {len(verify.get('checks', []))} checks failed"),
        Check("bound_ordering", bound.get("ordering_ok") is True),
        Check("bound_km_closed_form", km_err <= KM_TOLERANCE, f"|err| {km_err:.3e}"),
        Check("profile_rows", profile_rows == 601, f"{profile_rows} rows"),
        Check("vt_refuted", load("vt", "report.json").get("l_refuted") is True),
        Check("sharpness_ratio", load("sharpness", "report.json").get("ratio", 0.0) >= 0.95),
        Check("linear_tail_incompatible",
              load("linear_tail", "report.json").get("gaussian_incompatible") is True),
    ]
    return checks, len(verify.get("checks", [])), int(verify.get("failures", 0)), km_err


def tree_digest(out: Path) -> str:
    """Hash of every file a job wrote, in name order."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()
