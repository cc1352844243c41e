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
    dim = int(cfg.get("potential", {}).get("params", {}).get("dim", 1))
    scheme = _scheme_from(cfg, dim, quick)
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

    report = diagnostics.DiagnosticsReport()
    report.failed_sample_indices = ps.failed_indices.tolist()
    ok = np.setdiff1d(np.arange(count), ps.failed_indices)
    report.ks_distance = diagnostics.ks_distance(ps.outputs[ok], pot)
    emp = diagnostics.empirical_lipschitz(ps.inputs[ok], ps.outputs[ok])
    report.empirical_lipschitz = emp.ratio
    lam, c = pot.curvature_lower, pot.oscillation
    summary = {
        "command": "transport",
        "seed": seed,
        "samples": count,
        "failed_samples": ps.failed_indices.tolist(),
        "ks": report.ks_distance,
        "empirical_lipschitz": emp.ratio,
        "duplicate_pairs_skipped": emp.duplicates_skipped,
        "error_bound": ps.error_bound,
        "certified": ps.certified,
        "quick": quick,
    }
    if lam is not None and c is not None and lam >= 1.0:
        l_tight, l_theorem = bounds.lipschitz_bound(lam, c)
        km = bounds.lipschitz_from_profile(bounds.combined_profile(lam, c))
        summary["l_tight"] = l_tight
        summary["l_theorem"] = l_theorem
        summary["km_numeric"] = km
        summary["lipschitz_within_theorem"] = bool(emp.ratio <= l_theorem)
        report.bound_comparisons.append(diagnostics.BoundComparison(
            "empirical_lipschitz_vs_theorem", emp.ratio, l_theorem, 0.0))
    summary["pass"] = bool(
        report.all_passed and ps.failed_indices.size == 0
    )
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
        payload["ordering_ok"] = bool(
            s.km_numeric <= s.l_tight + 1e-6 and s.l_tight <= s.l_theorem
        )
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

DEFAULT_VERIFY_JOBS = [
    {"family": "gaussian", "params": {"rho": -0.5}},
    {"family": "gaussian", "params": {"rho": 1.0}},
    {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
]


def _verify_potential_job(job: dict, quick: bool) -> list[dict]:
    scheme = _scheme_from({"scheme": job.get("scheme", {})}, 1, quick)
    pot = from_config(job, scheme)
    ev = SemigroupEvaluator(pot, scheme)
    grid = GridSpec(-4.0, 4.0, 21 if quick else 41)
    tol = 1e-4
    checks: list[dict] = []

    rep = validate_metadata(pot, grid)
    checks.append({
        "name": f"declared_metadata[{pot.name}]",
        "measured": max(rep.curvature_violation or 0.0,
                        rep.oscillation_violation or 0.0),
        "bound": 0.0, "tolerance": 1e-6,
        "pass": rep.ok,
    })

    lam = pot.curvature_lower
    if lam is not None:
        for t in (0.05, 0.2, 0.5):
            if lam * (1.0 - np.exp(-2.0 * t)) < 0.9:
                measured = concavity_profile(ev, grid, t)
                budget = bounds.curvature_profile_value(lam, t)
                checks.append({
                    "name": f"curvature_budget[{pot.name}, t={t}]",
                    "measured": measured, "bound": budget, "tolerance": tol,
                    "pass": bool(measured <= budget + tol),
                })
    if pot.oscillation is not None:
        for t in (0.2, 0.5, 1.0):
            measured = concavity_profile(ev, grid, t)
            budget = bounds.oscillation_profile_value(pot.oscillation, t)
            checks.append({
                "name": f"oscillation_budget[{pot.name}, t={t}]",
                "measured": measured, "bound": budget, "tolerance": tol,
                "pass": bool(measured <= budget + tol),
            })
    if pot.grad_sup_norm is not None:
        pts = grid.points()
        for t in (0.1, 0.5, 1.0, 2.0):
            sup = float(np.max(np.abs(ev.drift(pts, t))))
            budget = float(np.exp(-t) * pot.grad_sup_norm)
            checks.append({
                "name": f"drift_bound[{pot.name}, t={t}]",
                "measured": sup, "bound": budget, "tolerance": tol,
                "pass": bool(sup <= budget + tol),
            })
    return checks


def _verify_global_checks(quick: bool) -> list[dict]:
    checks = []
    # quadrature moments
    z, w = QuadratureScheme(dim=1).nodes_weights()
    z = z[:, 0]
    checks.append({
        "name": "quadrature_moments",
        "measured": max(abs(w.sum() - 1.0), abs(w @ z), abs(w @ z**2 - 1.0)),
        "bound": 0.0, "tolerance": 1e-10,
        "pass": bool(max(abs(w.sum() - 1.0), abs(w @ z), abs(w @ z**2 - 1.0)) < 1e-10),
    })
    # closed-form profile integrals vs adaptive quadrature; split points stay
    # inside the curvature route's domain (fractions of the switch time)
    from scipy import integrate as _sint
    worst = 0.0
    for lam in (1.0, 2.0, 4.0):
        s_star = bounds.switch_time(lam)
        for s in (0.5 * s_star, s_star, 1.5 * s_star):
            head, tail = bounds.profile_integral_split(lam, 0.0, s)
            num_head = _sint.quad(
                lambda t: bounds.curvature_profile_value(lam, t), 0, s,
                epsabs=1e-13, epsrel=1e-13)[0]
            num_tail = _sint.quad(
                lambda t: bounds.oscillation_profile_value(0.0, t), s, np.inf,
                epsabs=1e-13, epsrel=1e-13)[0]
            worst = max(worst, abs(head - num_head), abs(tail - num_tail))
    checks.append({
        "name": "profile_integrals_closed_form",
        "measured": worst, "bound": 0.0, "tolerance": 1e-10,
        "pass": bool(worst <= 1e-10),
    })
    # constant ordering on a grid
    ok = True
    for lam in (1.0, 2.0, 4.0, 8.0):
        for c in (0.0, 0.5, 1.0):
            s = bounds.bound_summary(lam, c)
            ok = ok and s.km_numeric <= s.l_tight + 1e-6 and s.l_tight <= s.l_theorem
    checks.append({
        "name": "constant_ordering",
        "measured": 0.0 if ok else 1.0, "bound": 0.0, "tolerance": 0.0,
        "pass": bool(ok),
    })
    # spike-family chain
    chk = diagnostics.vt_counterexample_check(5.0)
    ok = (chk.c_T <= np.log(2.0) and chk.mu_tail <= 0.5
          and abs(chk.density_at_T - chk.density_closed_form)
          <= 1e-8 * chk.density_closed_form)
    checks.append({
        "name": "spike_family_chain[T=5]",
        "measured": chk.c_T, "bound": float(np.log(2.0)), "tolerance": 0.0,
        "pass": bool(ok),
    })
    # sharpness ratio at large T
    sc = diagnostics.sharpness_curvature_check(20.0, 0.5 * float(np.log(2.0)))
    checks.append({
        "name": "sharpness_ratio[T=20]",
        "measured": -sc.ratio, "bound": -0.95, "tolerance": 0.0,
        "pass": bool(sc.ratio >= 0.95),
    })
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
