import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatflow as hf
from heatflow import cli

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


def test_transport_all_samples_failed_writes_summary(tmp_path):
    # e^{-800} is below the density floor everywhere, so every row fails;
    # a declared gradient bound gives a truncation bound, but a failed
    # sample is not within it, so the run is not certified
    cfg = write_cfg(tmp_path / "job.json", TRANSPORT_CFG | {
        "potential": {"table": {"grid": [-1.0, 1.0], "values": [800.0, 800.0]},
                      "normalize": False, "grad_sup_norm": 0.0},
        "samples": 5,
    })
    out = tmp_path / "out"
    assert cli.main(["transport", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_samples"] == [0, 1, 2, 3, 4]
    assert summary["pass"] is False
    assert summary["error_bound"] == 0.0 and summary["certified"] is False
    assert summary["ks"] is None and summary["empirical_lipschitz"] is None


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_defaults_are_the_library_defaults(dim):
    scheme = hf.QuadratureScheme(dim, node_count=8)
    ev = hf.SemigroupEvaluator(hf.gaussian(1.0, dim), scheme)
    assert cli._flow_from({}, ev, False) == hf.FlowIntegrator(ev)
    assert cli._scheme_from({}, dim, False) == hf.QuadratureScheme(dim=dim)


def test_verify_wrong_declared_curvature_fails(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {
        "command": "verify",
        "jobs": [{"family": "gaussian", "params": {"rho": -0.9},
                  "curvature_lower": 0.1}],
    })
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--quick"]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert_one_pass_rule(rep)
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert any("curvature_budget" in c["name"] for c in failed)


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


def test_unknown_flow_method_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", TRANSPORT_CFG | {"flow": {"method": "adaptive"}})
    assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 2


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
    ({"scheme": {"kind": "monte_carlo", "sample_count": 0}}, "sample count must be >= 1"),
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
        "scheme": {"kind": "monte_carlo", "sample_count": 2000.5}},
    "scheme.seed": TRANSPORT_CFG | {"scheme": {"node_count": 48, "seed": 1.5}},
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

# bad input of every kind exits 2: values out of range, a dimension above
# the Gauss-Hermite cap, a malformed verify job, unknown keys, a string
# where a flag or a number belongs, and the NaN literal json.load accepts
CONFIG_ERRORS = {
    "bound_negative_c": {"command": "bound", "lambda": 2.0, "c": -1.0},
    "profile_negative_c": {"command": "profile", "lambda": 2.0, "c": -0.5},
    "gauss_hermite_4d": {
        "command": "transport", "samples": 3,
        "potential": {"family": "gaussian", "params": {"rho": 1.0, "dim": 4}}},
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
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_error_exit_code(name, tmp_path, capsys):
    cfg = CONFIG_ERRORS[name]
    path = write_cfg(tmp_path / "c.json", cfg)
    assert cli.main([cfg["command"], "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


def test_numeric_failure_exit_code(tmp_path):
    # an envelope whose grid-refinement guard trips is a numeric failure
    grid = np.linspace(-8, 8, 3201)
    cfg = write_cfg(tmp_path / "c.json", {
        "command": "transport",
        "potential": {
            "table": {"grid": grid.tolist(),
                      "values": (8.0 * np.cos(40.0 * grid)).tolist()},
            "transforms": [{"op": "lipschitz_regularize", "l": 1.0, "r": 6.0,
                            "points_per_axis": 64, "grid_tol": 1e-9}],
        },
        "samples": 10,
    })
    assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 3


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
from heatflow import cli
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


SCRIPT_ARGS = {"run_gaussian_transport.py": ["1.0", "500"]}


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
