"""Set-up probe, run in a fresh interpreter by run.py.

    python3 setup_probe.py SRC_DIR JOB_JSON

Times `import heatflow` plus `potentials.from_config` for each potential
of the job description {"potentials": [...], "dim": d, "node_count": k}
and prints the seconds taken.  The thread variables are inherited from the
parent, which pins them before starting this process.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    job = json.loads(sys.argv[2])
    import heatflow
    from heatflow.quadrature import QuadratureScheme

    scheme = QuadratureScheme(dim=job["dim"], node_count=job["node_count"])
    for cfg in job["potentials"]:
        heatflow.potentials.from_config(cfg, scheme)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
