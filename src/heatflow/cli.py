"""Batch front-end: JSON job in, CSV + JSON artifacts out.

    heatflow transport|bound|profile|verify|counterexample \
        --config job.json --out outdir [--quick] [--seed N]

Exit codes: 0 success, 1 invariant failure (verify), 2 config error
(ValueError), 3 numeric failure (HeatflowError).  Valid JSON never
produces a traceback: an unknown key, a number given as a string, a
boolean, NaN or Infinity, or a flag that is not a JSON boolean is a
config error.

Every output file carries the resolved config in its header, floats are
written with 17 significant digits, and nothing time- or host-dependent
is emitted, so reruns of the same config + seed are byte-identical.
The --out directory is made when the first output file is written, after
the config has been read and checked, so a config error leaves no
directory behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, diagnostics, potentials
from .errors import HeatflowError
from .flow import FlowIntegrator
from .potentials import (GridSpec, check_keys, from_config, json_flag, json_int,
                         json_number, validate_metadata)
from .quadrature import GH_TENSOR_DIM_MAX, QuadratureScheme
from .semigroup import SemigroupEvaluator, concavity_profile

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

QUICK_SCALE = 0.1          # node, sample and step counts multiplied by this under --quick
# top-level keys every command takes: --seed writes "seed" into any config
COMMON_KEYS = ("command", "seed")


def _quick_count(count: int, floor: int) -> int:
    """A config's count scaled by QUICK_SCALE, at least `floor`, but never
    above the configured count itself."""
    return min(count, max(floor, int(count * QUICK_SCALE)))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: dict, columns: dict[str, np.ndarray]):
    names = list(columns)
    rows = zip(*[np.asarray(columns[n]).tolist() for n in names])
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        for k, v in header.items():
            f.write(f"# {k}={v}\n")
        f.write(",".join(names) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        json.dump(_json_ready(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _provenance(cfg: dict) -> dict:
    return {"config": json.dumps(_json_ready(cfg), sort_keys=True),
            "package_version": __version__}


# -- config plumbing -----------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {cfg!r}")
    return cfg


def _scheme_from(cfg: dict, dim: int, quick: bool) -> QuadratureScheme:
    """The job's scheme: "node_count" up to GH_TENSOR_DIM_MAX, "sample_count"
    and "seed" above it; a key the dimension's rule does not read is refused."""
    sc = cfg.get("scheme", {})
    if dim <= GH_TENSOR_DIM_MAX:
        check_keys(sc, ("node_count",), f"dim-{dim} scheme")
        node_count = json_int(sc, "node_count", QuadratureScheme.node_count)
        return QuadratureScheme(
            dim=dim, node_count=_quick_count(node_count, 8) if quick else node_count)
    check_keys(sc, ("sample_count", "seed"), f"dim-{dim} scheme")
    sample_count = json_int(sc, "sample_count") if "sample_count" in sc else None
    if quick and sample_count is not None:
        sample_count = _quick_count(sample_count, 1000)
    return QuadratureScheme(dim=dim, sample_count=sample_count,
                            seed=json_int(sc, "seed", QuadratureScheme.seed))


def _potential_dim(pcfg: dict) -> int:
    """Dimension of a potential config, needed to build the scheme first
    (from_config checks the rest of the config)."""
    params = pcfg.get("params") if isinstance(pcfg, dict) else None
    return json_int(params, "dim", 1) if isinstance(params, dict) else 1


def _potential_from(pcfg: dict, scheme: QuadratureScheme):
    try:
        return from_config(pcfg, scheme)
    except (KeyError, TypeError) as exc:
        # a missing key or a value of the wrong shape is bad input too
        raise ValueError(f"bad potential config: {exc}") from exc


def _flow_from(cfg: dict, evaluator: SemigroupEvaluator, quick: bool) -> FlowIntegrator:
    fl = cfg.get("flow", {})
    check_keys(fl, ("t_max", "n_steps"), "flow")
    t_max = float(json_number(fl, "t_max", FlowIntegrator.t_max))
    n_steps = json_int(fl, "n_steps", FlowIntegrator.n_steps)
    if quick:
        n_steps = _quick_count(n_steps, 40)
    return FlowIntegrator(evaluator, t_max=t_max, n_steps=n_steps)


# -- commands --------------------------------------------------------------------


def run_transport(cfg: dict, out: Path, quick: bool) -> int:
    check_keys(cfg, COMMON_KEYS + ("potential", "scheme", "flow", "samples",
                                   "with_jacobian"), "transport config")
    if "potential" not in cfg:
        raise ValueError("config needs a 'potential' entry")
    count = json_int(cfg, "samples", 10_000)
    if count < 1:
        raise ValueError("samples must be >= 1")
    if quick:
        count = _quick_count(count, 100)
    seed = json_int(cfg, "seed", 0)
    scheme = _scheme_from(cfg, _potential_dim(cfg["potential"]), quick)
    pot = _potential_from(cfg["potential"], scheme)
    ev = SemigroupEvaluator(pot, scheme)
    fi = _flow_from(cfg, ev, quick)
    with_jac = json_flag(cfg, "with_jacobian", True)

    ps = fi.pushforward_samples(count, seed, with_jacobian=with_jac)
    header = _provenance(cfg) | {"seed": seed, "samples": count}
    cols = {"index": np.arange(count)}
    for d in range(pot.dim):
        cols[f"input_{d}"] = ps.inputs[:, d]
    for d in range(pot.dim):
        cols[f"output_{d}"] = ps.outputs[:, d]
    cols["jacobian_norm"] = (ps.jacobian_norms if with_jac
                             else np.full(count, np.nan))
    eb = ps.error_bound if ps.error_bound is not None else np.nan
    cols["error_bound"] = np.full(count, eb)
    cols["error_bound"][ps.failed_indices] = np.nan   # a failed row is at its input
    _write_csv(out / "samples.csv", header, cols)

    # the statistics need one good sample (KS) or two (Lipschitz ratio);
    # without them they are null and the summary is still written
    ok = np.setdiff1d(np.arange(count), ps.failed_indices)
    emp = (diagnostics.empirical_lipschitz(ps.inputs[ok], ps.outputs[ok])
           if ok.size >= 2 else None)
    lam, c = pot.curvature_lower, pot.oscillation
    summary = {
        "command": "transport",
        "seed": seed,
        "samples": count,
        "failed_samples": ps.failed_indices.tolist(),
        "ks": diagnostics.ks_distance(ps.outputs[ok], pot) if ok.size else None,
        "empirical_lipschitz": None if emp is None else emp.ratio,
        "duplicate_pairs_skipped": None if emp is None else emp.duplicates_skipped,
        "error_bound": ps.error_bound,
        "certified": ps.certified,
        # normalize's mass estimate; both null when it did not run
        "norm_tol": pot.norm_tol,
        "norm_converged": pot.norm_converged,
        "quick": quick,
    }
    if lam is not None and c is not None and lam >= 1.0:
        b = bounds.bound_summary(lam, c)
        summary["l_tight"] = b.l_tight
        summary["l_theorem"] = b.l_theorem
        summary["km_numeric"] = b.km_numeric
        summary["lipschitz_within_theorem"] = (
            None if emp is None else bool(emp.ratio <= b.l_theorem))
    summary["pass"] = (ps.failed_indices.size == 0
                       and summary.get("lipschitz_within_theorem") is not False)
    _write_json(out / "summary.json", {"provenance": _provenance(cfg)} | summary)
    return EXIT_OK if summary["pass"] else EXIT_NUMERIC


def run_bound(cfg: dict, out: Path, quick: bool) -> int:
    check_keys(cfg, COMMON_KEYS + ("lambda", "c"), "bound config")
    if "lambda" not in cfg:
        raise ValueError("bound command needs 'lambda'")
    lam = float(json_number(cfg, "lambda"))
    c = float(json_number(cfg, "c", 0.0))
    if lam < 0.0 or c < 0.0:
        raise ValueError(f"bound command needs lambda >= 0 and c >= 0, got {lam!r}, {c!r}")
    payload: dict = {"command": "bound", "lambda": lam, "c": c,
                     "provenance": _provenance(cfg)}
    if lam < 1.0:
        payload["path"] = "dilation_reduction"
        payload["dilation"] = 1.0 / float(np.sqrt(1.0 - lam))
        payload["note"] = ("curvature deficit below 1: compose a log-concave "
                          "transport with the dilation")
    else:
        s = bounds.bound_summary(lam, c)
        payload["path"] = "combined_profile"
        payload |= s.as_dict()
        payload["ordering_ok"] = s.ordering_ok
    _write_json(out / "summary.json", payload)
    if payload.get("path") == "combined_profile" and not payload["ordering_ok"]:
        return EXIT_INVARIANT
    return EXIT_OK


def run_profile(cfg: dict, out: Path, quick: bool) -> int:
    check_keys(cfg, COMMON_KEYS + ("lambda", "c", "t_grid"), "profile config")
    if "lambda" not in cfg:
        raise ValueError("profile command needs 'lambda'")
    lam = float(json_number(cfg, "lambda"))
    c = float(json_number(cfg, "c", 0.0))
    if lam < 1.0:
        raise ValueError("profile command needs lambda >= 1")
    tg = cfg.get("t_grid", {})
    check_keys(tg, ("lo", "hi", "count"), "t_grid")
    lo = float(json_number(tg, "lo", 1e-3))
    hi = float(json_number(tg, "hi", 6.0))
    count = json_int(tg, "count", 601)
    if not 0.0 <= lo <= hi:
        raise ValueError(f"t_grid needs 0 <= lo <= hi, got lo={lo!r}, hi={hi!r}")
    if count < 1:
        raise ValueError("t_grid count must be >= 1")
    ts = np.linspace(lo, hi, count)
    table = bounds.profile_table(lam, c, ts)
    _write_csv(out / "profile.csv", _provenance(cfg), table)
    s = bounds.bound_summary(lam, c)
    _write_json(out / "summary.json",
                {"provenance": _provenance(cfg)} | s.as_dict())
    return EXIT_OK


def run_counterexample(cfg: dict, out: Path, quick: bool) -> int:
    kind = cfg.get("kind")
    payload: dict = {"command": "counterexample", "kind": kind,
                     "provenance": _provenance(cfg)}
    if kind == "vt":
        check_keys(cfg, COMMON_KEYS + ("kind", "T", "l"), "vt counterexample config")
        chk = diagnostics.vt_counterexample_check(
            float(json_number(cfg, "T", 6.0)), json_number(cfg, "l") if "l" in cfg else None)
        payload |= dataclasses.asdict(chk)
    elif kind == "sharpness":
        check_keys(cfg, COMMON_KEYS + ("kind", "T", "t"), "sharpness counterexample config")
        chk = diagnostics.sharpness_curvature_check(float(json_number(cfg, "T", 20.0)),
                                                    float(json_number(cfg, "t", 0.5)))
        payload |= dataclasses.asdict(chk)
        payload["ratio"] = chk.ratio
    elif kind == "linear_tail":
        check_keys(cfg, COMMON_KEYS + ("kind", "x_lo", "x_hi", "points"),
                   "linear_tail counterexample config")
        scheme = QuadratureScheme(dim=1)
        pot = potentials.normalize(potentials.linear_tail(), scheme)
        xs = np.linspace(float(json_number(cfg, "x_lo", 2.0)),
                         float(json_number(cfg, "x_hi", 6.0)),
                         json_int(cfg, "points", 17))
        fit = diagnostics.tail_test(pot, xs)
        payload |= {
            "linear_slope": fit.linear_slope,
            "quad_coeff": fit.quad_coeff,
            "gaussian_incompatible": fit.gaussian_incompatible,
            "implied_lipschitz": fit.implied_lipschitz,
        }
        _write_csv(out / "tail.csv", _provenance(cfg),
                   {"x": fit.xs, "log_tail": fit.log_tail})
    else:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    _write_json(out / "report.json", payload)
    return EXIT_OK


# -- verify ------------------------------------------------------------------------
#
# Every record goes through _check, so a record passes exactly when
# measured <= bound + tolerance (a NaN measurement fails).  The measurement
# functions take their parameter sets, so the acceptance gate runs the same
# measurements with its own parameters and tolerances.

DEFAULT_VERIFY_JOBS = [
    {"family": "gaussian", "params": {"rho": -0.5}},
    {"family": "gaussian", "params": {"rho": 1.0}},
    {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
]
VERIFY_TOL = 1e-4


def _check(name: str, measured: float, bound: float, tolerance: float) -> dict:
    return {"name": name, "measured": measured, "bound": bound,
            "tolerance": tolerance, "pass": bool(measured <= bound + tolerance)}


def profile_integral_check(lams) -> dict:
    """Worst gap between the closed-form profile integrals (c = 0) and
    tanh-sinh quadrature, split at fractions of each lam's switch time (all
    inside the curvature route's domain).  One vectorized call per lam
    covers its three heads and one more covers every tail; an integral that
    does not converge raises HeatflowError."""
    tol = {"atol": 1e-13, "rtol": 1e-13}
    splits, tails, worst = [], [], 0.0
    for lam in lams:
        s = bounds.switch_time(lam) * np.array([0.5, 1.0, 1.5])
        head, tail = np.array([bounds.profile_integral_split(lam, 0.0, si)
                               for si in s]).T
        num_head = diagnostics.tanhsinh_integrals(
            lambda t: bounds.curvature_profile_value(lam, t), 0.0, s,
            f"the curvature route (lam={lam:g})", **tol)
        worst = max(worst, float(np.max(np.abs(head - num_head))))
        splits.append(s)
        tails.append(tail)
    num_tail = diagnostics.tanhsinh_integrals(
        lambda t: bounds.oscillation_profile_value(0.0, t), np.concatenate(splits),
        np.inf, "the oscillation route (c=0)", **tol)
    worst = max(worst, float(np.max(np.abs(np.concatenate(tails) - num_tail))))
    return _check("profile_integrals_closed_form", worst, 0.0, 1e-10)


def spike_chain_checks(T: float) -> list[dict]:
    """The spike-family refutation chain at T: c_T <= log 2, tail mass
    mu_T([T, inf)) <= 1/2, and the density at T against its closed form."""
    chk = diagnostics.vt_counterexample_check(T)
    rel_density = (abs(chk.density_at_T - chk.density_closed_form)
                   / chk.density_closed_form)
    return [
        _check(f"spike_family_chain[T={T:g}]", chk.c_T, float(np.log(2.0)), 0.0),
        _check(f"spike_family_tail_mass[T={T:g}]", chk.mu_tail, 0.5, 0.0),
        _check(f"spike_family_density[T={T:g}]", rel_density, 0.0, 1e-8),
    ]


def drift_bound_checks(ev: SemigroupEvaluator, points: np.ndarray, ts) -> list[dict]:
    """sup over the points of |grad V_t| against e^{-t} sup|grad V|."""
    pot = ev.potential
    return [
        _check(f"drift_bound[{pot.name}, t={t}]",
               float(np.max(np.linalg.norm(ev.drift(points, t), axis=-1))),
               float(np.exp(-t) * pot.grad_sup_norm), VERIFY_TOL)
        for t in ts
    ]


def _verify_potential_job(job: dict, quick: bool) -> list[dict]:
    """The checks of one job: a potential config plus an optional scheme."""
    if not isinstance(job, dict):
        raise ValueError(f"verify job must be a JSON object, got {job!r}")
    dim = _potential_dim(job)
    scheme = _scheme_from(job, dim, quick)
    pot = _potential_from({k: v for k, v in job.items() if k != "scheme"}, scheme)
    ev = SemigroupEvaluator(pot, scheme)
    grid = GridSpec(-4.0, 4.0, 21 if quick else 41, dim)

    rep = validate_metadata(pot, grid)
    checks = [_check(f"declared_metadata[{pot.name}]",
                     max(rep.curvature_violation or 0.0,
                         rep.oscillation_violation or 0.0), 0.0, 1e-6)]
    budgets = []
    lam = pot.curvature_lower
    if lam is not None:
        budgets += [("curvature_budget", t, bounds.curvature_profile_value(lam, t))
                    for t in (0.05, 0.2, 0.5)
                    if lam * (1.0 - np.exp(-2.0 * t)) < 0.9]
    if pot.oscillation is not None:
        budgets += [("oscillation_budget", t,
                     bounds.oscillation_profile_value(pot.oscillation, t))
                    for t in (0.2, 0.5, 1.0)]
    checks += [_check(f"{kind}[{pot.name}, t={t}]", concavity_profile(ev, grid, t),
                      budget, VERIFY_TOL)
               for kind, t, budget in budgets]
    if pot.grad_sup_norm is not None:
        checks += drift_bound_checks(ev, grid.points(), (0.1, 0.5, 1.0, 2.0))
    return checks


def _verify_global_checks() -> list[dict]:
    z, w = QuadratureScheme(dim=1).nodes_weights()
    z = z[:, 0]
    checks = [
        _check("quadrature_moments",
               max(abs(w.sum() - 1.0), abs(w @ z), abs(w @ z**2 - 1.0)), 0.0, 1e-10),
        profile_integral_check((1.0, 2.0, 4.0)),
    ]
    ordered = all(bounds.bound_summary(lam, c).ordering_ok
                  for lam in (1.0, 2.0, 4.0, 8.0) for c in (0.0, 0.5, 1.0))
    checks.append(_check("constant_ordering", 0.0 if ordered else 1.0, 0.0, 0.0))
    checks += spike_chain_checks(5.0)
    sc = diagnostics.sharpness_curvature_check(20.0, 0.5 * float(np.log(2.0)))
    checks.append(_check("sharpness_ratio[T=20]", -sc.ratio, -0.95, 0.0))
    return checks


def run_verify(cfg: dict, out: Path, quick: bool) -> int:
    check_keys(cfg, COMMON_KEYS + ("jobs",), "verify config")
    jobs = cfg.get("jobs")
    checks: list[dict] = []
    if jobs is None:
        checks.extend(_verify_global_checks())
        jobs = DEFAULT_VERIFY_JOBS
    elif not isinstance(jobs, list) or not jobs:
        # an empty list would certify a pass that rests on no check
        raise ValueError(f"'jobs' must be a non-empty JSON list, got {jobs!r}")
    for job in jobs:
        checks.extend(_verify_potential_job(job, quick))
    n_fail = sum(1 for c in checks if not c["pass"])
    _write_json(out / "report.json", {
        "command": "verify",
        "provenance": _provenance(cfg),
        "quick": quick,
        "checks": checks,
        "failures": n_fail,
        "pass": n_fail == 0,
    })
    return EXIT_OK if n_fail == 0 else EXIT_INVARIANT


# -- entry point ---------------------------------------------------------------------

_COMMANDS = {
    "transport": run_transport,
    "bound": run_bound,
    "profile": run_profile,
    "verify": run_verify,
    "counterexample": run_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatflow",
        description="transport maps onto Gaussian perturbation measures, "
                    "with certified Lipschitz bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON job description")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--quick", action="store_true",
                        help="scale node, sample and step counts down 10x")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        json_int(cfg, "seed", 0)        # a COMMON_KEYS integer, whether read or not
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ValueError(
                f"config command {declared!r} does not match {args.command!r}"
            )
        return _COMMANDS[args.command](cfg, Path(args.out), args.quick)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HeatflowError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
