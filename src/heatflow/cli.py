"""Batch front-end: JSON job in, CSV + JSON artifacts out.

    heatflow transport|bound|profile|verify|counterexample \
        --config job.json --out outdir [--quick] [--seed N]

Exit codes: 0 success, 1 invariant failure (verify), 2 config error,
3 numeric failure.  Valid JSON never produces a traceback.

Every output file carries the resolved config in its header, floats are
written with 17 significant digits, and nothing time- or host-dependent
is emitted, so reruns of the same config + seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

from . import __version__, bounds, diagnostics, potentials
from .errors import BadParamsError, HeatflowError
from .flow import FlowIntegrator, StepperConfig
from .potentials import GridSpec, from_config, validate_metadata
from .quadrature import QuadratureScheme
from .semigroup import SemigroupEvaluator, concavity_profile

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

QUICK_SCALE = 0.1          # node/sample counts multiplied by this under --quick


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: dict, columns: dict[str, np.ndarray]):
    names = list(columns)
    rows = zip(*[np.asarray(columns[n]).tolist() for n in names])
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
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _scheme_from(cfg: dict, dim: int, quick: bool) -> QuadratureScheme:
    sc = cfg.get("scheme", {})
    scheme = QuadratureScheme(
        dim=dim,
        kind=sc.get("kind", "gauss_hermite"),
        node_count=int(sc.get("node_count", 128)),
        sample_count=int(sc.get("sample_count", 1_000_000)),
        seed=int(sc.get("seed", 0)),
    )
    return scheme.scaled(QUICK_SCALE) if quick else scheme


def _potential_dim(pcfg: dict) -> int:
    """Dimension of a potential config, needed to build the scheme first."""
    return int(pcfg.get("params", {}).get("dim", 1))


def _potential_from(cfg: dict, scheme: QuadratureScheme):
    if "potential" not in cfg:
        raise ConfigError("config needs a 'potential' entry")
    try:
        return from_config(cfg["potential"], scheme)
    except (BadParamsError, KeyError, TypeError) as exc:
        # malformed descriptions are config errors; other HeatflowErrors
        # (divergent mass, coarse grids) surface as numeric failures
        raise ConfigError(f"bad potential config: {exc}") from exc


def _flow_from(cfg: dict, evaluator: SemigroupEvaluator, quick: bool) -> FlowIntegrator:
    fl = cfg.get("flow", {})
    method = fl.get("method", "rk4")
    if method != "rk4":
        raise ConfigError(f"unknown flow method {method!r}; the stepper is 'rk4'")
    n_steps = int(fl.get("n_steps", 600))
    if quick:
        n_steps = max(40, n_steps // 10)
    return FlowIntegrator(evaluator, t_max=float(fl.get("t_max", 12.0)),
                          stepper=StepperConfig(n_steps=n_steps))


# -- commands --------------------------------------------------------------------


def run_transport(cfg: dict, out: Path, quick: bool) -> int:
    count = int(cfg.get("samples", 10_000))
    if quick:
        count = max(100, count // 10)
    seed = int(cfg.get("seed", 0))
    scheme = _scheme_from(cfg, _potential_dim(cfg.get("potential", {})), quick)
    pot = _potential_from(cfg, scheme)
    ev = SemigroupEvaluator(pot, scheme)
    fi = _flow_from(cfg, ev, quick)
    with_jac = bool(cfg.get("with_jacobian", True))

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
    _write_csv(out / "samples.csv", header, cols)
    if cfg.get("map_table", False):
        from .flow import map_table
        _write_json(out / "map.json",
                    {"provenance": _provenance(cfg), "map": map_table(ps)})

    ok = np.setdiff1d(np.arange(count), ps.failed_indices)
    emp = diagnostics.empirical_lipschitz(ps.inputs[ok], ps.outputs[ok])
    lam, c = pot.curvature_lower, pot.oscillation
    summary = {
        "command": "transport",
        "seed": seed,
        "samples": count,
        "failed_samples": ps.failed_indices.tolist(),
        "ks": diagnostics.ks_distance(ps.outputs[ok], pot),
        "empirical_lipschitz": emp.ratio,
        "duplicate_pairs_skipped": emp.duplicates_skipped,
        "error_bound": ps.error_bound,
        "certified": ps.certified,
        "quick": quick,
    }
    if lam is not None and c is not None and lam >= 1.0:
        b = bounds.bound_summary(lam, c)
        summary["l_tight"] = b.l_tight
        summary["l_theorem"] = b.l_theorem
        summary["km_numeric"] = b.km_numeric
        summary["lipschitz_within_theorem"] = bool(emp.ratio <= b.l_theorem)
    summary["pass"] = (ps.failed_indices.size == 0
                       and summary.get("lipschitz_within_theorem", True))
    _write_json(out / "summary.json", {"provenance": _provenance(cfg)} | summary)
    return EXIT_OK if summary["pass"] else EXIT_NUMERIC


def run_bound(cfg: dict, out: Path, quick: bool) -> int:
    if "lambda" not in cfg:
        raise ConfigError("bound command needs 'lambda'")
    lam = float(cfg["lambda"])
    c = float(cfg.get("c", 0.0))
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
    if "lambda" not in cfg:
        raise ConfigError("profile command needs 'lambda'")
    lam = float(cfg["lambda"])
    c = float(cfg.get("c", 0.0))
    if lam < 1.0:
        raise ConfigError("profile command needs lambda >= 1")
    tg = cfg.get("t_grid", {})
    ts = np.linspace(float(tg.get("lo", 1e-3)), float(tg.get("hi", 6.0)),
                     int(tg.get("count", 601)))
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
        chk = diagnostics.vt_counterexample_check(float(cfg.get("T", 6.0)),
                                                  cfg.get("l"))
        payload |= dataclasses.asdict(chk)
    elif kind == "sharpness":
        chk = diagnostics.sharpness_curvature_check(float(cfg.get("T", 20.0)),
                                                    float(cfg.get("t", 0.5)))
        payload |= dataclasses.asdict(chk)
        payload["ratio"] = chk.ratio
    elif kind == "linear_tail":
        scheme = QuadratureScheme(dim=1)
        pot = potentials.normalize(potentials.linear_tail(), scheme)
        xs = np.linspace(float(cfg.get("x_lo", 2.0)), float(cfg.get("x_hi", 6.0)),
                         int(cfg.get("points", 17)))
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
        raise ConfigError(f"unknown counterexample kind {kind!r}")
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
    adaptive quadrature, split at fractions of each lam's switch time (all
    inside the curvature route's domain)."""
    worst = 0.0
    for lam in lams:
        s_star = bounds.switch_time(lam)
        for s in (0.5 * s_star, s_star, 1.5 * s_star):
            head, tail = bounds.profile_integral_split(lam, 0.0, s)
            num_head = integrate.quad(
                lambda t: bounds.curvature_profile_value(lam, t), 0, s,
                epsabs=1e-13, epsrel=1e-13)[0]
            num_tail = integrate.quad(
                lambda t: bounds.oscillation_profile_value(0.0, t), s, np.inf,
                epsabs=1e-13, epsrel=1e-13)[0]
            worst = max(worst, abs(head - num_head), abs(tail - num_tail))
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
    dim = _potential_dim(job)
    scheme = _scheme_from({"scheme": job.get("scheme", {})}, dim, quick)
    pot = from_config(job, scheme)
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


def _verify_global_checks(quick: bool) -> list[dict]:
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
    jobs = cfg.get("jobs")
    checks: list[dict] = []
    if jobs is None:
        checks.extend(_verify_global_checks(quick))
        jobs = DEFAULT_VERIFY_JOBS
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
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config command {declared!r} does not match {args.command!r}"
            )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.quick)
    except (ConfigError, BadParamsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HeatflowError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
