import json

import numpy as np
import pytest

from heatflow import cli


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


def test_verify_empty_jobs(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {"command": "verify", "jobs": []})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"] == []


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
