"""Start-up: scipy is imported inside the function that calls it.

`import heatflow` loads numpy and no scipy module, and a command loads only
the scipy modules its own work calls.  The module sets are read in a fresh
interpreter, since this test process has scipy loaded already.  No timings
are asserted: they vary too much from run to run.
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
    result = run_probe(MODULE_PROBE, str(tmp_path / "out"),
                       *(str(CONFIGS / c) for c in configs))
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


def test_2d_transport_loads_only_special(tmp_path):
    # the Gauss-Hermite roots need scipy.special; the 1-d oracle's
    # integrate, interpolate and optimize stay unloaded
    loaded = set(loaded_after(tmp_path, "transport_gaussian2d.json")["scipy"])
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}


@pytest.mark.parametrize("config", ["transport_bump.json", "transport_gaussian.json",
                                    "transport_regularized_tail.json"])
def test_1d_transport_loads_only_special(tmp_path, config):
    # the KS line's CDF table and the Lipschitz pairs are numpy only
    loaded = set(loaded_after(tmp_path, config)["scipy"])
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}


def test_rearrangement_map_loads_only_special():
    # scipy itself, its private helpers and its version module come along
    loaded = run_probe(REARRANGEMENT_PROBE)["scipy"]
    assert "scipy.special" in loaded
    assert all(m in ("scipy", "scipy.version") or m.startswith(("scipy._", "scipy.special"))
               for m in loaded), loaded
