"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, in both modes, that the oracle check fails on a
perturbed output row, and that the command refuses to run without the
package sources.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from oracle import map_check, map_error, probe_indices, read_samples  # noqa: E402
from workloads import PROBE_WINDOW, WORKLOADS, make_plan  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_row_fails_map_check(tmp_path):
    from heatflow import cli, potentials
    from heatflow.quadrature import QuadratureScheme

    w = WORKLOADS["bump1d_jac"]
    plan = make_plan(w, seed=5, tiny=True)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(plan.jobs[0].config), encoding="utf-8")
    assert cli.main(["transport", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    pot = potentials.from_config(w.potential, QuadratureScheme(dim=1, node_count=64))
    csv = tmp_path / "samples.csv"
    clean = map_error(w, pot, csv, plan.probe_seed)
    assert map_check(w, clean).ok

    cols = read_samples(csv)
    probes = probe_indices(plan.samples, plan.probe_seed)
    row = next(int(i) for i in probes if abs(cols["input_0"][i]) <= PROBE_WINDOW)
    lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    data_start = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    fields = lines[data_start + row].rstrip("\n").split(",")
    fields[2] = repr(float(fields[2]) + 1e-2)          # output_0
    lines[data_start + row] = ",".join(fields) + "\n"
    csv.write_text("".join(lines), encoding="utf-8")

    bad = map_error(w, pot, csv, plan.probe_seed)
    assert not map_check(w, bad).ok
    assert bad.sup_window >= 1e-2 - clean.sup_all


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "bump1d_jac", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
