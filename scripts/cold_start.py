#!/usr/bin/env python3
"""Cold-start cost of each example config: wall time and peak memory of a
fresh `python -m heatflow.cli` process.

Usage: python3 scripts/cold_start.py [--repeats N] [--quick]

Each config in `scripts/configs/` runs N times (default 5), in turn, each
time in a new interpreter with `src/` on the path and the BLAS/OpenMP threads
pinned to one, as `bench/run.py` pins them.  Prints, per config, the
median wall time from start to exit and the largest peak RSS of the
command's own process over the runs (its worker processes, if any, are
not counted).  `--quick` passes `--quick` to every command.  Outputs go
to a temporary directory that is removed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(config: Path, out: Path, quick: bool, env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh run of config."""
    command = json.loads(config.read_text(encoding="utf-8"))["command"]
    argv = [sys.executable, "-m", "heatflow.cli", command, "--config", str(config),
            "--out", str(out)] + (["--quick"] if quick else [])
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{config.name} exited with {code}")
    return wall, usage.ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    print(f"{'config':<34} {'median_s':>9} {'peak_rss_mb':>12}")
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(CONFIGS.glob("*.json")):
            runs = [run_once(path, Path(tmp) / f"{path.stem}_{i}", args.quick, env)
                    for i in range(args.repeats)]
            print(f"{path.name:<34} {statistics.median(w for w, _ in runs):>9.3f} "
                  f"{max(r for _, r in runs):>12.1f}", flush=True)


if __name__ == "__main__":
    main()
