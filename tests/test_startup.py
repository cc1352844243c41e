"""Start-up: scipy is imported inside the function that calls it.

`import heatflow` loads numpy and no scipy module, and so does every
command: each config in `scripts/configs/` (verify, bound, profile, the vt
counterexample and every transport) and the sharpness and linear_tail
counterexamples.  Only the test and benchmark oracles `rearrangement_map`
and `sharpness_profile` call `scipy.special`.  The module sets are read in
a fresh interpreter, since this test process has scipy loaded already.  No
timings are asserted: they vary too much from run to run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
CONFIG_NAMES = sorted(p.name for p in CONFIGS.glob("*.json"))
TRANSPORT_CONFIGS = [c for c in CONFIG_NAMES if c.startswith("transport_")]
# the other example configs and the two counterexample kinds without one
CERTIFICATION_CONFIGS = ["counterexample_vt.json", "verify_default.json",
                         {"command": "counterexample", "kind": "sharpness"},
                         {"command": "counterexample", "kind": "linear_tail"}]


def _import_time_imports(tree: ast.Module):
    """The import statements that run when the module is imported: every
    one outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, [node.module]
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "heatflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno} {name}"
             for node, names in _import_time_imports(tree) for name in names
             if name == "scipy" or name.startswith("scipy.")]
    assert not found, f"scipy imported at module level: {found}"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "heatflow").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_interpolate_or_optimize_import(path):
    # anywhere in the module, function bodies included
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{a.name}" for a in node.names]
    assert not [n for n in names if n.startswith(("scipy.interpolate", "scipy.optimize"))]


def test_oracles_independent_of_the_semigroup_and_flow():
    # diagnostics.py checks the semigroup and flow code, so it may import
    # nothing of the package but errors and potentials, in any function
    path = ROOT / "src" / "heatflow" / "diagnostics.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= ({node.module} if node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("heatflow"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("heatflow")}
    assert found <= {"errors", "potentials", "heatflow.errors", "heatflow.potentials"}, found


# imports heatflow and its CLI, runs each config (argv[2:]) with --quick into
# argv[1], then prints the exit codes and the loaded scipy modules
MODULE_PROBE = """
import json, sys
import heatflow, heatflow.cli
codes = [heatflow.cli.main([json.load(open(cfg))["command"], "--config", cfg,
                            "--out", sys.argv[1], "--quick"])
         for cfg in sys.argv[2:]]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


# imports heatflow, maps five points through the 1-d monotone rearrangement
# of an unnormalized bump (whose CDF table needs no Gauss-Hermite rule), then
# prints the loaded scipy modules
REARRANGEMENT_PROBE = """
import json, sys
import numpy as np
import heatflow as hf
from heatflow.diagnostics import rearrangement_map
rearrangement_map(hf.bump(0.0, 0.5, 0.5), np.linspace(-2.0, 2.0, 5))
print(json.dumps({"scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def run_probe(probe: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", probe, *args],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def loaded_after(tmp_path, *configs) -> dict:
    """Runs the module probe on configs, each the name of an example config
    or a config dict (written to tmp_path)."""
    paths = []
    for i, cfg in enumerate(configs):
        if isinstance(cfg, dict):
            path = tmp_path / f"config_{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            paths.append(str(path))
        else:
            paths.append(str(CONFIGS / cfg))
    result = run_probe(MODULE_PROBE, str(tmp_path / "out"), *paths)
    assert result["codes"] == [0] * len(configs)
    return result


def test_import_loads_no_scipy(tmp_path):
    result = loaded_after(tmp_path)
    assert result["numpy"]
    assert result["scipy"] == []


def test_bound_and_profile_load_no_scipy(tmp_path):
    # the bound and profile jobs of the benchmark's certify_suite
    result = loaded_after(tmp_path, "bound_example.json", "profile_example.json")
    assert result["scipy"] == []


@pytest.mark.parametrize("config", TRANSPORT_CONFIGS)
def test_transport_loads_no_scipy(tmp_path, config):
    # the Gauss-Hermite rule, the KS line's CDF table and the Lipschitz
    # pairs are numpy only
    assert loaded_after(tmp_path, config)["scipy"] == []


@pytest.mark.parametrize("config", CERTIFICATION_CONFIGS,
                         ids=lambda c: c.get("kind") if isinstance(c, dict) else c)
def test_certification_loads_no_scipy(tmp_path, config):
    # tanh-sinh quadrature and the scaled erfc are the package's own
    assert loaded_after(tmp_path, config)["scipy"] == []


def test_every_example_config_is_probed():
    probed = {"bound_example.json", "profile_example.json", *TRANSPORT_CONFIGS,
              *(c for c in CERTIFICATION_CONFIGS if isinstance(c, str))}
    assert probed == set(CONFIG_NAMES)


# builds, in a fresh interpreter, the potential(s) of the benchmark workload
# argv[1] as its set-up probe does, then prints the loaded scipy modules
WORKLOAD_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS
import heatflow
from heatflow.quadrature import QuadratureScheme
w = WORKLOADS[sys.argv[1]]
cfgs = w.potential if isinstance(w.potential, list) else [w.potential]
scheme = QuadratureScheme(dim=int(cfgs[0].get("params", {}).get("dim", 1)),
                          node_count=int(w.scheme.get("node_count", 128)))
for cfg in cfgs:
    heatflow.potentials.from_config(cfg, scheme)
print(json.dumps({"scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]])
def test_workload_potentials_load_no_scipy(workload):
    # normalize and mollify build their Gauss-Hermite rules with numpy
    assert run_probe(WORKLOAD_PROBE, workload, str(ROOT / "bench"))["scipy"] == []


def test_quadrature_imports_no_scipy():
    # anywhere in the module, function bodies included: the rule has no
    # scipy fallback
    path = ROOT / "src" / "heatflow" / "quadrature.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")], names


def test_rearrangement_map_loads_only_special():
    # scipy itself, its private helpers and its version module come along
    loaded = run_probe(REARRANGEMENT_PROBE)["scipy"]
    assert "scipy.special" in loaded
    assert all(m in ("scipy", "scipy.version") or m.startswith(("scipy._", "scipy.special"))
               for m in loaded), loaded
