import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatflow as hf
from heatflow import cli, potentials, semigroup

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


TRANSPORT_CFG = {
    "command": "transport",
    "potential": {"family": "gaussian", "params": {"rho": 1.0}},
    "scheme": {"node_count": 48},
    "flow": {"t_max": 8.0, "n_steps": 120},
    "samples": 600,
    "seed": 42,
}
# above dim 3 the scheme is Monte Carlo and needs a sample count
GAUSSIAN_4D = {"family": "gaussian", "params": {"rho": 1.0, "dim": 4}}


def samples_columns(out):
    """samples.csv as {column name: values}."""
    lines = [l for l in (out / "samples.csv").read_text().splitlines()
             if not l.startswith("#")]
    return dict(zip(lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2).T))


def test_transport_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG)
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["empirical_lipschitz"] == pytest.approx(1 / np.sqrt(2), abs=1e-3)
    assert summary["ks"] < 0.1
    assert summary["pass"] is True
    lines = (out / "samples.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("config=" in l for l in header)
    cols = [l for l in lines if not l.startswith("#")][0].split(",")
    assert cols == ["index", "input_0", "output_0", "jacobian_norm", "error_bound"]


def test_transport_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["transport", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["transport", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_csv_floats_round_trip(tmp_path):
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {"samples": 50})
    out = tmp_path / "out"
    cli.main(["transport", "--config", cfg, "--out", str(out)])
    lines = [l for l in (out / "samples.csv").read_text().splitlines()
             if not l.startswith("#")][1:]
    ps_in, ps_out = [], []
    for line in lines:
        _, xin, xout, _, _ = line.split(",")
        ps_in.append(float(xin))
        ps_out.append(float(xout))
    # reparsed inputs reproduce the seeded stream bit for bit
    want = np.random.default_rng(42).standard_normal((50, 1))[:, 0]
    assert np.array_equal(np.array(ps_in), want)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {"samples": 50})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["transport", "--config", cfg, "--out", str(out1), "--seed", "7"])
    cli.main(["transport", "--config", cfg, "--out", str(out2), "--seed", "8"])
    a = json.loads((out1 / "summary.json").read_text())
    b = json.loads((out2 / "summary.json").read_text())
    assert a["seed"] == 7 and b["seed"] == 8
    assert a["ks"] != b["ks"]


def test_bound_command(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"command": "bound", "lambda": 1.0, "c": 0.0})
    out = tmp_path / "out"
    assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["l_theorem"] == 4.0
    assert s["l_tight"] == pytest.approx(2.0)
    assert s["ordering_ok"] is True


def test_bound_dilation_path(tmp_path):
    cfg = write_cfg(tmp_path / "b.json", {"command": "bound", "lambda": 0.75})
    out = tmp_path / "out"
    assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["path"] == "dilation_reduction"
    assert s["dilation"] == pytest.approx(2.0)


def test_profile_command(tmp_path):
    cfg = write_cfg(tmp_path / "p.json",
                    {"command": "profile", "lambda": 4.0, "c": 1.0,
                     "t_grid": {"lo": 0.01, "hi": 3.0, "count": 101}})
    out = tmp_path / "out"
    assert cli.main(["profile", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    cols = [l for l in lines if not l.startswith("#")][0]
    assert cols == "t,lambda5,lambda6,combined"
    s = json.loads((out / "summary.json").read_text())
    assert set(s) >= {"lambda", "c", "s", "l_tight", "l_theorem", "km_numeric"}


def assert_one_pass_rule(rep):
    """Every verify record passes exactly when measured <= bound + tolerance;
    non-finite values are written as strings ('nan', 'inf')."""
    for c in rep["checks"]:
        measured, bound = float(c["measured"]), float(c["bound"])
        assert c["pass"] == (measured <= bound + c["tolerance"]), c
    assert rep["failures"] == sum(not c["pass"] for c in rep["checks"])


def test_verify_default_passes(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out), "--quick"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pass"] is True and rep["failures"] == 0
    assert_one_pass_rule(rep)
    names = {c["name"] for c in rep["checks"]}
    assert {"spike_family_chain[T=5]", "spike_family_tail_mass[T=5]",
            "spike_family_density[T=5]"} <= names


BUMP2D = {"family": "bump", "params": {"radius": 0.5, "height": 0.5, "dim": 2}}


def test_verify_2d_job_passes(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "jobs": [BUMP2D]})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pass"] is True
    assert_one_pass_rule(rep)
    assert any("drift_bound" in c["name"] for c in rep["checks"])


def test_transport_2d_job(tmp_path):
    cfg = write_cfg(tmp_path / "job.json", {
        "command": "transport", "potential": BUMP2D,
        "scheme": {"node_count": 12}, "flow": {"t_max": 6.0, "n_steps": 30},
        "samples": 50, "seed": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    cols = [l for l in lines if not l.startswith("#")][0].split(",")
    assert cols[:5] == ["index", "input_0", "input_1", "output_0", "output_1"]


@pytest.mark.parametrize("potential, converged", [
    (TRANSPORT_CFG["potential"], True),
    # the regularized linear tail's mass estimate stops at the node cap
    ({"family": "linear_tail",
      "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}]}, False),
])
def test_transport_summary_reports_normalization(tmp_path, potential, converged):
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {
        "potential": potential, "samples": 20})
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out), "--quick"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["norm_converged"] is converged
    assert (summary["norm_tol"] < hf.quadrature.ADAPTIVE_REL_TOL) is converged


def test_transport_single_sample_writes_summary(tmp_path):
    # one good sample has a KS statistic but no pair for a Lipschitz ratio
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {
        "potential": {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
        "samples": 1,
    })
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_samples"] == [] and summary["pass"] is True
    assert 0.0 < summary["ks"] <= 1.0
    assert summary["empirical_lipschitz"] is None
    assert summary["duplicate_pairs_skipped"] is None
    assert summary["lipschitz_within_theorem"] is None


def test_transport_all_samples_failed_writes_summary(tmp_path, monkeypatch):
    # a density floor above every density makes every row fail (the forked
    # workers inherit it); the bump's gradient bound gives a truncation
    # bound, but a failed sample is not within it, so the run is not certified
    monkeypatch.setattr(semigroup, "DENSITY_FLOOR", 1e300)
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {
        "potential": {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
        "samples": 5,
    })
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_samples"] == [0, 1, 2, 3, 4]
    assert summary["pass"] is False
    bound = np.exp(-TRANSPORT_CFG["flow"]["t_max"]) * hf.bump(0.0, 0.5, 0.5).grad_sup_norm
    assert summary["error_bound"] == pytest.approx(bound, rel=1e-12)
    assert summary["certified"] is False
    assert summary["ks"] is None and summary["empirical_lipschitz"] is None
    # each failed row came back at its input, so it carries no bound
    assert np.all(np.isnan(samples_columns(out)["error_bound"]))


@pytest.mark.parametrize("dim", [1, 2])
def test_transport_certified_only_in_one_dim(tmp_path, dim):
    # in dims >= 2 the quadrature error, which nothing bounds, dominates the
    # truncation term, so a run there reports no bound and no certificate
    pot = {"family": "bump", "params": {"radius": 0.5, "height": 0.5, "dim": dim}}
    cfg = write_cfg(tmp_path / "job.json", {
        "command": "transport", "potential": pot,
        "scheme": {"node_count": 12}, "flow": {"t_max": 6.0, "n_steps": 30},
        "samples": 20, "seed": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    column = samples_columns(out)["error_bound"]
    if dim == 1:
        bound = np.exp(-6.0) * hf.bump(0.0, 0.5, 0.5).grad_sup_norm
        assert summary["certified"] is True
        assert summary["error_bound"] == pytest.approx(bound, rel=1e-12)
        assert np.all(column == summary["error_bound"])
    else:
        assert summary["certified"] is False and summary["error_bound"] is None
        assert np.all(np.isnan(column))


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_defaults_are_the_library_defaults(dim):
    scheme = hf.QuadratureScheme(dim, node_count=8)
    ev = hf.SemigroupEvaluator(hf.gaussian(1.0, dim), scheme)
    assert cli._flow_from({}, ev, False) == hf.FlowIntegrator(ev)
    assert cli._scheme_from({}, dim, False) == hf.QuadratureScheme(dim=dim)


def test_verify_wrong_declared_curvature_fails(tmp_path, monkeypatch):
    # a family whose declared curvature deficit (0.1) understates the true
    # one (0.9) misses its curvature budget
    monkeypatch.setitem(potentials._FAMILIES, "understated_gaussian",
                        lambda rho: dataclasses.replace(hf.gaussian(rho), curvature_lower=0.1))
    cfg = write_cfg(tmp_path / "v.json", {
        "command": "verify",
        "jobs": [{"family": "understated_gaussian", "params": {"rho": -0.9}}],
    })
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert_one_pass_rule(rep)
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert any("curvature_budget" in c["name"] for c in failed)


def test_verify_table_has_no_curvature_budget(tmp_path):
    # a table of the concave V = -0.3 x^2 / 2 declares no curvature bound,
    # so it has no curvature budget to miss
    xs = np.linspace(-6.0, 6.0, 121)
    job = {"table": {"grid": xs.tolist(), "values": (-0.15 * xs**2).tolist()}}
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "jobs": [job]})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert_one_pass_rule(rep)
    assert not [c for c in rep["checks"] if c["name"].startswith("curvature_budget")]


def test_verify_empty_jobs(tmp_path, capsys):
    # a pass over no checks certifies nothing, so it is a config error
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "jobs": []})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "non-empty" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_counterexample_vt(tmp_path):
    cfg = write_cfg(tmp_path / "c.json",
                    {"command": "counterexample", "kind": "vt", "T": 5.0, "l": 3.0})
    out = tmp_path / "out"
    assert cli.main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["c_T"] <= np.log(2.0)
    assert rep["l_refuted"] is True


def test_counterexample_linear_tail(tmp_path):
    cfg = write_cfg(tmp_path / "c.json",
                    {"command": "counterexample", "kind": "linear_tail"})
    out = tmp_path / "out"
    assert cli.main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["gaussian_incompatible"] is True
    assert abs(rep["linear_slope"] + 1.0) < 0.1
    assert (out / "tail.csv").exists()


@pytest.mark.parametrize("span", [{"x_lo": 3.0, "x_hi": 3.0},     # one distinct abscissa
                                  {"x_lo": -6.0, "x_hi": -2.0}])  # tail mass above 1/2
def test_counterexample_linear_tail_bad_abscissas(tmp_path, span):
    cfg = write_cfg(tmp_path / "c.json",
                    {"command": "counterexample", "kind": "linear_tail"} | span)
    out = tmp_path / "out"
    assert cli.main(["counterexample", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_profile_integral_check_catches_a_shifted_head(monkeypatch):
    split = hf.bounds.profile_integral_split
    monkeypatch.setattr(hf.bounds, "profile_integral_split",
                        lambda lam, c, s: (split(lam, c, s)[0] + 1e-9, split(lam, c, s)[1]))
    assert cli.profile_integral_check((1.0, 2.0, 4.0))["pass"] is False


def test_profile_integral_nan_integrand_is_numeric_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hf.bounds, "curvature_profile_value",
                        lambda lam, t: np.full(np.shape(t), np.nan))
    with pytest.raises(hf.errors.HeatflowError, match="curvature route"):
        cli.profile_integral_check((2.0,))
    assert cli.main(["verify", "--out", str(tmp_path)]) == 3
    assert "did not converge" in capsys.readouterr().err


# -- failure modes -------------------------------------------------------------------


def test_bad_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["transport", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_potential_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"command": "transport"})
    assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_command_mismatch_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"command": "bound", "lambda": 2.0})
    assert cli.main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_flow_method_config_error(tmp_path, capsys):
    # one stepper and no key to name it: even "rk4" is an unknown key
    for method in ("adaptive", "rk4"):
        cfg = write_cfg(tmp_path / "c.json", TRANSPORT_CFG | {"flow": {"method": method}})
        assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown flow keys ['method']" in capsys.readouterr().err


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("flow", [{"n_steps": 0}, {"t_max": -5.0}])
def test_bad_flow_grid_config_error(tmp_path, flow, quick):
    # checked on the config's value, before --quick raises the step count
    cfg = write_cfg(tmp_path / "c.json", TRANSPORT_CFG | {"flow": flow})
    out = tmp_path / "out"
    quick_flag = ["--quick"] if quick else []
    assert cli.main(["transport", "--config", cfg, "--out", str(out), *quick_flag]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("override,message", [
    ({"scheme": {"node_count": 0}}, "node count must be >= 1"),
    ({"potential": GAUSSIAN_4D, "scheme": {"sample_count": 0}}, "sample count must be >= 1"),
    ({"samples": 0}, "samples must be >= 1"),
], ids=["node_count", "sample_count", "samples"])
def test_bad_count_config_error(tmp_path, capsys, override, message, quick):
    # checked on the config's value, before --quick floors the counts
    cfg = write_cfg(tmp_path / "c.json", TRANSPORT_CFG | override)
    out = tmp_path / "out"
    quick_flag = ["--quick"] if quick else []
    assert cli.main(["transport", "--config", cfg, "--out", str(out), *quick_flag]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


PROFILE_CFG = {"command": "profile", "lambda": 2.0, "c": 0.5}


# every integer key, given a number with a fractional part, and a list
NON_INTEGERS = {
    "samples": TRANSPORT_CFG | {"samples": 100.9},
    "seed": TRANSPORT_CFG | {"seed": 3.7},
    "scheme.node_count": TRANSPORT_CFG | {"scheme": {"node_count": 48.5}},
    "scheme.sample_count": TRANSPORT_CFG | {
        "potential": GAUSSIAN_4D, "scheme": {"sample_count": 2000.5}},
    "scheme.seed": TRANSPORT_CFG | {
        "potential": GAUSSIAN_4D, "scheme": {"sample_count": 2000, "seed": 1.5}},
    "flow.n_steps": TRANSPORT_CFG | {"flow": {"n_steps": 40.5}},
    "potential.params.dim": TRANSPORT_CFG | {
        "potential": {"family": "gaussian", "params": {"rho": 1.0, "dim": 1.5}}},
    "t_grid.count": PROFILE_CFG | {"t_grid": {"count": 10.7}},
    "points": {"command": "counterexample", "kind": "linear_tail", "points": 17.5},
    "verify_seed": {"command": "verify", "seed": 2.5},
    "samples_list": TRANSPORT_CFG | {"samples": [100]},
}


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("name", NON_INTEGERS)
def test_non_integer_config_error(tmp_path, capsys, name, quick):
    # truncating 100.9 to 100 would run another job than the one written
    cfg = NON_INTEGERS[name]
    out = tmp_path / "out"
    quick_flag = ["--quick"] if quick else []
    path = write_cfg(tmp_path / "c.json", cfg)
    assert cli.main([cfg["command"], "--config", path, "--out", str(out), *quick_flag]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_quick_never_raises_a_count(tmp_path):
    # --quick floors its scaled counts, but a config already below a floor
    # keeps its own count
    cfg = write_cfg(tmp_path / "c.json", TRANSPORT_CFG | {"samples": 30})
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out), "--quick"]) == 0
    rows = [ln for ln in (out / "samples.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 1 + 30
    ev = hf.SemigroupEvaluator(hf.gaussian(1.0), hf.QuadratureScheme(1, node_count=8))
    assert cli._flow_from({"flow": {"n_steps": 10}}, ev, True).n_steps == 10
    assert cli._flow_from({"flow": {"n_steps": 600}}, ev, True).n_steps == 60
    assert cli._scheme_from({"scheme": {"node_count": 4}}, 1, True).node_count == 4
    assert cli._scheme_from({"scheme": {"sample_count": 500}}, 4, True).sample_count == 500


def test_integral_float_counts_accepted(tmp_path):
    # 600.0 samples, seed 42.0 and 120.0 steps are the integers 600, 42, 120
    as_floats = TRANSPORT_CFG | {"samples": 600.0, "seed": 42.0,
                                 "flow": {"t_max": 8.0, "n_steps": 120.0}}
    outs = []
    for name, cfg in (("int", TRANSPORT_CFG), ("float", as_floats)):
        out = tmp_path / name
        path = write_cfg(tmp_path / f"{name}.json", cfg)
        assert cli.main(["transport", "--config", path, "--out", str(out), "--quick"]) == 0
        outs.append([ln for ln in (out / "samples.csv").read_text().splitlines()
                     if not ln.startswith("# config=")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("t_grid", [
    {"lo": -1.0, "hi": 1.0, "count": 5},
    {"lo": 2.0, "hi": 1.0, "count": 5},
    {"count": 0},
], ids=["negative_lo", "lo_above_hi", "zero_count"])
def test_bad_profile_grid_config_error(tmp_path, t_grid):
    cfg = write_cfg(tmp_path / "c.json", PROFILE_CFG | {"t_grid": t_grid})
    out = tmp_path / "out"
    assert cli.main(["profile", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "profile.csv").exists()


def test_profile_grid_edges_accepted(tmp_path):
    # t = 0 and a one-point grid are meaningful: lo == hi, count 1
    cfg = write_cfg(tmp_path / "c.json",
                    PROFILE_CFG | {"t_grid": {"lo": 0.0, "hi": 0.0, "count": 1}})
    out = tmp_path / "out"
    assert cli.main(["profile", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln for ln in (out / "profile.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0].startswith("t,") and len(rows) == 2


def test_bad_family_params_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "command": "transport",
        "potential": {"family": "gaussian", "params": {"rho": -2.0}},
    })
    assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_invalid_counterexample_params_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "command": "counterexample", "kind": "vt", "T": -1.0,
    })
    assert cli.main(["counterexample", "--config", cfg, "--out", str(tmp_path)]) == 2


GAUSSIAN = {"family": "gaussian", "params": {"rho": 1.0}}

# bad input of every kind exits 2 and writes no output: values out of
# range, a dimension above the Gauss-Hermite cap without a sample count, a
# scheme key the dimension's rule does not read, a malformed verify job,
# unknown or retired keys, a string where a flag or a number belongs, the
# NaN literal json.load accepts, a negative Lipschitz constant, and params
# or transforms of the wrong JSON type
CONFIG_ERRORS = {
    "bound_negative_c": {"command": "bound", "lambda": 2.0, "c": -1.0},
    "bound_negative_lambda": {"command": "bound", "lambda": -5.0},
    "bound_negative_c_below_one": {"command": "bound", "lambda": 0.5, "c": -1.0},
    "profile_negative_c": {"command": "profile", "lambda": 2.0, "c": -0.5},
    "gauss_hermite_4d": {
        "command": "transport", "samples": 3,
        "potential": {"family": "gaussian", "params": {"rho": 1.0, "dim": 4}}},
    **{f"scheme_{name}": {"command": "transport", "samples": 3,
                          "potential": potential, "scheme": scheme}
       for name, potential, scheme in (
           ("sample_count_at_dim_1", GAUSSIAN, {"sample_count": 2000}),
           ("seed_at_dim_2", {"family": "gaussian", "params": {"rho": 1.0, "dim": 2}},
            {"node_count": 8, "seed": 3}),
           ("node_count_at_dim_4", GAUSSIAN_4D, {"sample_count": 2000, "node_count": 8}),
           ("kind", GAUSSIAN, {"kind": "gauss_hermite", "node_count": 8}))},
    "verify_job_without_grid": {"command": "verify", "jobs": [{"table": {}}]},
    "unknown_and_string_keys": {
        "command": "transport", "potential": GAUSSIAN, "samples": 3,
        "flow": {"nsteps": 1}, "map_table": True, "with_jacobian": "false"},
    "unknown_flow_key": {"command": "transport", "potential": GAUSSIAN,
                         "flow": {"nsteps": 1}},
    "string_flag": {"command": "transport", "potential": GAUSSIAN,
                    "with_jacobian": "false"},
    "string_number": {"command": "counterexample", "kind": "vt", "T": 6.0, "l": "50"},
    "nan_number": {"command": "bound", "lambda": float("nan")},
    "negative_lipschitz": {"command": "counterexample", "kind": "vt", "T": 6.0, "l": -5.0},
    **{f"params_{name}": {"command": "transport", "samples": 3,
                          "potential": {"family": "bump", "params": bad}}
       for name, bad in (("list", []), ("zero", 0), ("empty_string", ""),
                         ("false", False), ("null", None))},
    **{f"transforms_{name}": {"command": "transport", "samples": 3,
                              "potential": {"family": "bump", "transforms": bad}}
       for name, bad in (("empty_object", {}),
                         ("one_op", {"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}))},
    **{f"envelope_{name}": {
        "command": "transport", "samples": 3,
        "potential": {"family": "linear_tail", "transforms": [
            {"op": "lipschitz_regularize", "l": 1.0, "r": 6.0} | bad]}}
       for name, bad in (("fractional_points", {"points_per_axis": 64.5}),
                         ("zero_points", {"points_per_axis": 0}),
                         ("negative_grid_tol", {"grid_tol": -1.0}))},
    **{f"{name}_{key}": {"command": "transport", "samples": 3,
                         "potential": {"family": "bump", key: bad}}
       for name, key, bad in (("negative", "curvature_lower", -0.5),
                              ("negative", "oscillation", -3.0),
                              ("negative", "grad_sup_norm", -1.0),
                              ("list", "oscillation", [0.5]))},
}


# what a potential config no longer accepts: the family or transform
# supplies the metadata, from_config always normalizes, the mollify op has
# no config, and "constant" was gaussian with rho = 0
RETIRED = {
    **{key: {"family": "bump", key: value}
       for key, value in (("curvature_lower", 2.0), ("oscillation", 0.5),
                          ("grad_sup_norm", 1e-9), ("normalize", False))},
    "op_mollify": {"family": "linear_tail", "transforms": [{"op": "mollify", "sigma": 0.5}]},
    "family_constant": {"family": "constant"},
}


@pytest.mark.parametrize("command", ["transport", "verify"])
@pytest.mark.parametrize("name", RETIRED)
def test_retired_keys_refused_before_any_output(name, command, tmp_path, capsys):
    # refused when the config is read, before any job runs or writes
    job = ({"potential": RETIRED[name], "samples": 3} if command == "transport"
           else {"jobs": [RETIRED[name]]})
    cfg = write_cfg(tmp_path / "c.json", {"command": command} | job)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--quick"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_error_exit_code(name, tmp_path, capsys):
    # the --out directory is made only once the config has been read and
    # checked, so a config error leaves none behind
    cfg = CONFIG_ERRORS[name]
    path = write_cfg(tmp_path / "c.json", cfg)
    out = tmp_path / "out" / "nested"
    assert cli.main([cfg["command"], "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists() and [f.name for f in tmp_path.iterdir()] == ["c.json"]


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    # an envelope whose grid-refinement guard trips is a numeric failure
    monkeypatch.setattr(hf.potentials, "ENVELOPE_GRID_POINTS", 64)
    monkeypatch.setattr(hf.potentials, "ENVELOPE_GRID_TOL", 1e-9)
    grid = np.linspace(-8, 8, 3201)
    cfg = write_cfg(tmp_path / "c.json", {
        "command": "transport",
        "potential": {
            "table": {"grid": grid.tolist(),
                      "values": (8.0 * np.cos(40.0 * grid)).tolist()},
            "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0}],
        },
        "samples": 10,
    })
    assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_dim4_monte_carlo_transport(tmp_path):
    # above dim 3 the dimension picks the Monte Carlo rule; its stream comes
    # from the scheme's seed, so a rerun is byte-identical.  gaussian(1)
    # pushes gamma onto N(0, Id/2) by y -> y/sqrt(2)
    cfg = write_cfg(tmp_path / "c.json", {
        "command": "transport", "potential": GAUSSIAN_4D,
        "scheme": {"sample_count": 2048, "seed": 3},
        "flow": {"t_max": 8.0, "n_steps": 20}, "samples": 16})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 0
    for name in ("samples.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    lines = [l for l in (outs[0] / "samples.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].split(",")[1:9] == [f"{c}_{d}" for c in ("input", "output")
                                        for d in range(4)]
    table = np.loadtxt(lines[1:], delimiter=",")
    ys, zs = table[:, 1:5], table[:, 5:9]
    assert np.max(np.abs(zs - ys / np.sqrt(2.0))) <= 0.05


def gaussian2d_matches_closed_form(out):
    # the 2-d Gaussian rho = 1 pushes gamma onto N(0, Id/2) by y -> y/sqrt(2);
    # 1e-3 is the acceptance-gate tolerance on the map
    lines = [l for l in (out / "samples.csv").read_text().splitlines()
             if not l.startswith("#")]
    cols = lines[0].split(",")
    table = np.loadtxt(lines[1:], delimiter=",")
    ys = table[:, [cols.index("input_0"), cols.index("input_1")]]
    zs = table[:, [cols.index("output_0"), cols.index("output_1")]]
    assert len(ys) == 200
    assert np.max(np.abs(zs - ys / np.sqrt(2.0))) <= 1e-3


# checks on the --quick outputs of particular example configs, by stem
EXAMPLE_OUTPUT_CHECKS = {"transport_gaussian2d": gaussian2d_matches_closed_form}


@pytest.mark.parametrize("cfg", EXAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_example_config_quick_runs_byte_identical(cfg, tmp_path):
    command = json.loads(cfg.read_text())["command"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main([command, "--config", str(cfg), "--out", str(out), "--quick"]) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names and names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    if cfg.stem in EXAMPLE_OUTPUT_CHECKS:
        EXAMPLE_OUTPUT_CHECKS[cfg.stem](outs[0])


# pinned to one CPU, so the spans run in this process and its faults count
FAULT_PROBE = """
import os, resource, sys
from heatflow import cli, potentials, semigroup
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(["transport", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_transport_job_page_faults_bounded(tmp_path):
    # the shared-node pass works in bounded row blocks, so a transport job
    # reuses its temporaries instead of faulting fresh pages in on every
    # stage (about 565k minor faults for this job with whole-batch arrays)
    pytest.importorskip("resource")
    cfg = write_cfg(tmp_path / "job.json", {
        "command": "transport",
        "potential": {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
        "scheme": {"node_count": 64},
        "flow": {"t_max": 10.0, "n_steps": 40},
        "samples": 4096,
        "seed": 1,
        "with_jacobian": True,
    })
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE, cfg, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=600, check=True)
    code, faults = map(int, run.stdout.split())
    assert code == 0
    assert faults < 50_000


SCRIPT_ARGS = {"run_gaussian_transport.py": ["1.0", "500"],
               "cold_start.py": ["--repeats", "1", "--quick"]}


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_script_runs(script, tmp_path):
    # run from a scratch directory, since the scripts write into the cwd
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, str(script), *SCRIPT_ARGS.get(script.name, [])],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
