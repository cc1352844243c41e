"""End-to-end and per-layer benchmark of heatflow CLI jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`.
BLAS/OpenMP threads are pinned to one before numpy is imported, and no
worker pool is used.

`--trace 0` times untraced jobs and prints the end-to-end metrics:
  setup_s      median over fresh interpreters of `import heatflow` plus
               `potentials.from_config` for the workload's potential(s);
  job_s        median wall time of one job (one `cli.main` call for a
               transport workload, one pass over the six certification
               jobs for `certify_suite`), after one warm-up job;
  map_err_sup  sup |output - oracle| over the seeded probe rows with
               |input| <= 3 (transport), or |km_numeric - closed form| of
               the bound job (certify_suite);
  peak_rss_mb  peak resident memory of this process.
`--trace 1` alternates untraced and traced jobs and prints the per-layer
metrics: per-job medians of the traced jobs' counters and layer self
times, plus the tracing overhead.

Both modes check every output (see oracle.py) and print, before the final
result line, a report line holding the environment, the job counts,
samples_per_s, ks, failed_frac and every check.  The last line is
{"correct", "attempted", "failed", "metrics"}.  Outputs and spans go under
`.bench_out/`.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from oracle import (Check, certify_checks, map_check, map_error,  # noqa: E402
                    transport_checks, tree_digest)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 3
MIN_JOBS = 5            # untraced jobs per run, at least
MIN_TRACED_JOBS = 3     # traced (and as many untraced) jobs per traced run
# the quadrature drift bound holds identically; allow only rounding
DRIFT_RATIO_SLACK = 1e-12
# share of a traced job's wall time the layer self times may leave out
# (the benchmark's own loop between `cli.main` calls)
UNATTRIBUTED_MAX = 1e-3


def _env_record() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        rev = "not a git checkout"
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs one workload's jobs in this process and tallies failures."""

    def __init__(self, plan, workdir: Path):
        from heatflow import cli
        self.cli = cli
        self.plan = plan
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.reference = None          # {label: digest} of the first job
        for job in plan.jobs:
            (workdir / f"{job.label}.json").write_text(json.dumps(job.config),
                                                       encoding="utf-8")

    def record(self, check):
        self.checks.append(check)
        self.attempted += 1
        self.failed += not check.ok

    def job(self, rep: int, keep: bool = False) -> float:
        """Run every CLI job once; returns the summed `cli.main` wall time."""
        elapsed = 0.0
        outs = {}
        for job in self.plan.jobs:
            out = self.workdir / f"rep{rep}" / job.label
            argv = [job.command, "--config", str(self.workdir / f"{job.label}.json"),
                    "--out", str(out)]
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed += time.perf_counter() - start
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.checks.append(Check(f"exit[{job.label}]", False, f"exit code {code}"))
            outs[job.label] = out
        digests = {label: tree_digest(out) for label, out in outs.items()}
        if self.reference is None:
            self.reference = digests
        else:
            same = digests == self.reference
            self.attempted += 1
            if not same:
                self.failed += 1
                self.checks.append(Check(f"byte_identical[rep{rep}]", False))
        if not keep:
            shutil.rmtree(self.workdir / f"rep{rep}")
        return elapsed

    def bytes_written(self, rep: int) -> int:
        return sum(p.stat().st_size for p in (self.workdir / f"rep{rep}").rglob("*")
                   if p.is_file())

    def output_checks(self) -> dict:
        """Checks on the kept first job; returns the accuracy figures."""
        w, plan = self.plan.workload, self.plan
        first = {job.label: self.workdir / "rep0" / job.label for job in plan.jobs}
        if w.kind == "certify":
            checks, verify_checks, verify_failed, km_err = certify_checks(first)
            self.attempted += verify_checks
            self.failed += verify_failed
            for c in checks:
                self.record(c)
            return {"map_err_sup": km_err}
        out = first[w.name]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for c in transport_checks(summary, plan.samples):
            self.record(c)
        self.attempted += plan.samples
        self.failed += len(summary["failed_samples"])
        potential = None
        if w.oracle == "rearrangement":
            from heatflow import potentials
            from heatflow.quadrature import QuadratureScheme
            potential = potentials.from_config(
                w.potential, QuadratureScheme(dim=1, node_count=w.scheme["node_count"]))
        err = map_error(w, potential, out / "samples.csv", plan.probe_seed)
        self.record(map_check(w, err))
        return {"map_err_sup": err.sup_window, "map_err_sup_all_probes": err.sup_all,
                "probes": err.probes, "ks": summary["ks"]}


def _setup_job(w) -> dict:
    if w.kind == "certify":
        return {"potentials": w.potential, "dim": 1, "node_count": 128}
    return {"potentials": [w.potential],
            "dim": int(w.potential.get("params", {}).get("dim", 1)),
            "node_count": int(w.scheme["node_count"])}


def measure_setup(w, probes: int) -> list[float]:
    """Seconds from a fresh interpreter to the built potential(s), per probe."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
           json.dumps(_setup_job(w))]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_untraced(runner: Runner, seconds: float, min_jobs: int) -> list[float]:
    runner.job(0, keep=True)                     # warm-up; its outputs are checked
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_jobs or time.perf_counter() < deadline:
        times.append(runner.job(len(times) + 1))
    return times


def run_traced(runner: Runner, w, seconds: float, min_jobs: int):
    """Alternate untraced and traced jobs; per-layer medians plus overhead."""
    from heatflow import potentials
    from heatflow.quadrature import QuadratureScheme

    tracer = Tracer()
    tracer.install()
    try:
        setup = _setup_job(w)
        scheme = QuadratureScheme(dim=setup["dim"], node_count=setup["node_count"])
        tracer.active = True
        for cfg in setup["potentials"]:
            potentials.from_config(cfg, scheme)
        tracer.active = False
        build_s = tracer.total("from_config")

        runner.job(0, keep=True)
        untraced, per_job = [], []
        rep = 0
        deadline = time.perf_counter() + seconds
        while len(per_job) < min_jobs or time.perf_counter() < deadline:
            rep += 1
            untraced.append(runner.job(rep))
            rep += 1
            tracer.reset()
            tracer.active = True
            job_s = runner.job(rep, keep=True)
            tracer.active = False
            per_job.append(_layer_metrics(tracer, job_s, runner.bytes_written(rep)))
            shutil.rmtree(runner.workdir / f"rep{rep}")
    finally:
        tracer.uninstall()

    metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    metrics["potentials.build_s"] = build_s
    metrics["trace.untraced_job_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
    ratio = max(m["semigroup.drift_bound_ratio_max"] for m in per_job)
    runner.record(Check("drift_bound_ratio_max", ratio <= 1.0 + DRIFT_RATIO_SLACK,
                        f"{float(ratio)!r}"))
    gap = max(abs(m["trace.job_s"] - m["trace.self_sum_s"]) / m["trace.job_s"]
              for m in per_job)
    runner.record(Check("self_times_add_up", gap <= UNATTRIBUTED_MAX,
                        f"max unattributed share {gap:.2e}"))
    info = {"jobs_traced": len(per_job), "jobs_untraced": len(untraced)}
    return metrics, info, tracer.spans


def _layer_metrics(tracer, job_s: float, bytes_written: int) -> dict:
    c = tracer.counts
    self_s = tracer.self_times()
    passes = c["semigroup.drift_passes"] + c["semigroup.hess_passes"] + c["semigroup.other_passes"]
    rows = c["flow.rows_mapped"]
    m = {
        "quadrature.nodes_weights_calls": c["quadrature.nodes_weights_calls"],
        "quadrature.adaptive_nodes": c["quadrature.adaptive_nodes"],
        "potentials.value_calls": c["potentials.value_calls"],
        "potentials.grad_calls": c["potentials.grad_calls"],
        "potentials.hess_calls": c["potentials.hess_calls"],
        "potentials.node_evals": c["potentials.node_evals"],
        "potentials.node_evals_per_s": (c["potentials.node_evals"] / self_s["potentials"]
                                        if self_s["potentials"] > 0 else 0.0),
        "semigroup.drift_passes": c["semigroup.drift_passes"],
        "semigroup.hess_passes": c["semigroup.hess_passes"],
        "semigroup.node_evals": c["semigroup.node_evals"],
        "semigroup.ms_per_pass": 1e3 * self_s["semigroup"] / passes if passes else 0.0,
        "semigroup.bytes_computed": c["semigroup.bytes_computed"],
        "semigroup.drift_bound_ratio_max": c["semigroup.drift_bound_ratio_max"],
        "semigroup.underflows": c["semigroup.underflows"],
        "flow.transport_batches": c["flow.transport_batches"],
        "flow.rows_mapped": rows,
        "flow.passes_per_sample": c["flow.semigroup_passes"] / rows if rows else 0.0,
        "flow.failed_rows": c["flow.failed_rows"],
        "flow.serial_retry_rows": c["flow.serial_retry_rows"],
        "bounds.calls": sum(1 for s in tracer.spans if s[0] == "bounds"),
        "diagnostics.cdf_build_s": tracer.total("TargetCdf.__init__"),
        "diagnostics.ks_s": tracer.total("ks_distance"),
        "diagnostics.lipschitz_s": tracer.total("empirical_lipschitz"),
        "diagnostics.lipschitz_pairs": c["diagnostics.lipschitz_pairs"],
        "cli.bytes_written": bytes_written,
        "trace.job_s": job_s,
        "trace.self_sum_s": sum(self_s.values()),
    }
    for layer, value in self_s.items():
        m[f"{layer}.self_s"] = value
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: few samples, two jobs, one set-up probe")
    args = parser.parse_args(argv)

    if not (SRC / "heatflow" / "__init__.py").is_file():
        print(f"heatflow sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    plan = make_plan(w, args.seed, tiny=args.tiny)
    min_jobs = 2 if args.tiny else (MIN_TRACED_JOBS if args.trace else MIN_JOBS)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = OUT_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": _env_record(),
              "sizes": {"samples": plan.samples, "scheme": w.scheme, "flow": w.flow,
                        "jobs_per_set": len(plan.jobs)}}
    try:
        runner = Runner(plan, workdir)
        if args.trace:
            metrics, report["jobs"], spans = run_traced(runner, w, args.seconds, min_jobs)
        else:
            setup = measure_setup(w, 1 if args.tiny else SETUP_PROBES)
            times = run_untraced(runner, args.seconds, min_jobs)
            job_s = statistics.median(times)
            metrics = {"setup_s": statistics.median(setup), "job_s": job_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            report["setup_s_samples"] = setup
            report["job_s"] = {"median": job_s, "quartiles": statistics.quantiles(times, n=4),
                               "count": len(times), "samples": times}
            if plan.samples:
                report["samples_per_s"] = plan.samples / job_s
        accuracy = runner.output_checks()
        if not args.trace:
            metrics["map_err_sup"] = accuracy.pop("map_err_sup")
        report["accuracy"] = accuracy
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["failed_frac"] = runner.failed / runner.attempted
    report["checks"] = [{"name": c.name, "ok": c.ok, "detail": c.detail}
                        for c in runner.checks]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"report": report, "result": result}
    if args.trace:
        record["last_job_spans"] = spans
    (OUT_ROOT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
