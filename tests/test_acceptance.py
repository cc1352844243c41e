"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1-5 and 7-10 run in seconds; criterion 6 maps 1e5 samples through
the flow and takes a few minutes on one core.  Tolerances are pinned here
and nowhere else: criteria 3, 8 and 10 measure through the same check
functions as `heatflow verify`, with the gate's own parameter sets, and
compare each record's `measured` against the literals below.
"""

import json

import numpy as np
import pytest
from scipy import integrate

import heatflow as hf
from heatflow import cli
from heatflow.diagnostics import (
    empirical_lipschitz,
    ks_distance,
    normal_pdf,
    normal_quantile,
    rearrangement_map,
    sharpness_curvature_check,
    sharpness_profile,
    tail_test,
    vt_counterexample_check,
)
from heatflow.flow import StepperConfig


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} {status}: {detail}")
    assert ok, detail


def make_flow(p, nodes, t_max, n_steps):
    ev = hf.SemigroupEvaluator(p, hf.QuadratureScheme(dim=1, node_count=nodes))
    return hf.FlowIntegrator(ev, t_max=t_max,
                             stepper=StepperConfig(n_steps=n_steps))


def test_criterion_01_gaussian_end_to_end():
    xs = np.linspace(-4.0, 4.0, 41)[:, None]
    worst = 0.0
    for rho in (0.5, 1.0, 3.0):
        p = hf.normalize(hf.gaussian(rho))
        fi = make_flow(p, nodes=128, t_max=12.0, n_steps=600)
        z, _, failed = fi.transport_batch(xs)
        assert not failed.any()
        err = np.max(np.abs(z[:, 0] - xs[:, 0] / np.sqrt(1.0 + rho)))
        worst = max(worst, err)
    report(1, worst < 1e-3,
           f"inverse transport matches x/sqrt(1+rho), sup err {worst:.2e} < 1e-3")


def test_criterion_02_curvature_tightness_on_gaussian(gaussian_half, gh_scheme):
    ev = hf.SemigroupEvaluator(gaussian_half, gh_scheme)
    grid = hf.GridSpec(-2.0, 2.0, 9)
    lam = 0.5
    worst = 0.0
    for t in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0):
        assert lam * (1.0 - np.exp(-2.0 * t)) <= 0.9
        got = hf.semigroup.concavity_profile(ev, grid, t)
        want = hf.curvature_profile_value(lam, t)
        worst = max(worst, abs(got - want) / want)
    report(2, worst < 1e-6,
           f"measured log-curvature equals the propagated bound, rel err {worst:.2e} < 1e-6")


def test_criterion_03_profile_integrals_closed_form():
    worst = cli.profile_integral_check((1.0, 2.0, 4.0, 8.0, 16.0))["measured"]
    report(3, worst < 1e-10,
           f"closed-form profile integrals match quadrature, err {worst:.2e} < 1e-10")


def test_criterion_04_constant_grid_and_base_value():
    ok = True
    for lam in np.linspace(1.0, 16.0, 5):
        for c in np.linspace(0.0, 2.0, 5):
            l_tight, l_theorem = hf.lipschitz_bound(lam, c)
            ok = ok and (l_tight <= l_theorem)
            ok = ok and l_tight == pytest.approx(
                np.sqrt(2.0) * (2.0 * lam) ** (np.exp(c) / 2.0), rel=1e-14)
    base = hf.lipschitz_bound(1.0, 0.0)[1]
    ok = ok and base == 4.0
    report(4, ok, "sqrt(2)(2 lam)^(e^c / 2) <= 2 (2 lam)^(e^c) on the grid; "
                  "base value exactly 4")


def test_criterion_05_sharpness_example():
    # closed form vs independent convolution quadrature
    def convolution(x, T):
        a, b = -T - x, T - x
        mid = integrate.quad(lambda z: np.exp((x + z) ** 2 / 2.0) * normal_pdf(z),
                             a, b, limit=300)[0]
        caps = np.exp(T * T / 2.0) * (integrate.quad(normal_pdf, -np.inf, a)[0]
                                      + integrate.quad(normal_pdf, b, np.inf)[0])
        return mid + caps

    sup = 0.0
    for T in (1.0, 2.0, 4.0):
        for x in np.linspace(-3.0, 3.0, 41):
            sup = max(sup, abs(sharpness_profile(x, T) - convolution(x, T)))
    t = 0.5 * np.log(2.0)
    chk20 = sharpness_curvature_check(20.0, t)
    chk40 = sharpness_curvature_check(40.0, t)
    ok = sup < 1e-8 and chk20.ratio >= 0.95 and chk40.measured > 3.8 * chk20.measured
    report(5, ok,
           f"closed form vs convolution sup {sup:.2e} < 1e-8; "
           f"ratio(T=20) {chk20.ratio:.4f} >= 0.95; "
           f"growth {chk40.measured / chk20.measured:.3f}x > 3.8x")


def test_criterion_06_bounded_perturbation_pipeline():
    p = hf.normalize(hf.bump(0.0, 0.5, 0.5))    # oscillation 1/2, curvature 2
    assert p.curvature_lower == pytest.approx(2.0)
    assert p.oscillation == pytest.approx(0.5)
    fi = make_flow(p, nodes=48, t_max=10.0, n_steps=150)
    ps = fi.pushforward_samples(100_000, seed=2024, with_jacobian=False)
    assert ps.failed_indices.size == 0
    ks = ks_distance(ps.outputs[:, 0], p)
    emp = empirical_lipschitz(ps.inputs, ps.outputs)
    km = hf.lipschitz_from_profile(hf.combined_profile(2.0, 0.5))
    _, l_theorem = hf.lipschitz_bound(2.0, 0.5)
    ok = ks < 0.01 and emp.ratio <= km * 1.05 and emp.ratio <= l_theorem
    report(6, ok,
           f"1e5 mapped samples: KS {ks:.4f} < 0.01; empirical Lipschitz "
           f"{emp.ratio:.3f} <= {km:.3f}*1.05 and <= {l_theorem:.2f}")


def test_criterion_07_uniqueness_oracle(std_bump, regularized_linear_tail):
    qs = np.arange(1, 100) / 100.0
    ys = normal_quantile(qs)
    worst = {}
    for name, p in (("bump", std_bump), ("linear_tail", regularized_linear_tail)):
        fi = make_flow(p, nodes=128, t_max=12.0, n_steps=240)
        z, _, failed = fi.transport_batch(ys[:, None])
        assert not failed.any()
        oracle = rearrangement_map(p, ys)
        worst[name] = float(np.max(np.abs(z[:, 0] - oracle)))
    ok = all(v < 5e-3 for v in worst.values())
    report(7, ok,
           "flow map equals monotone rearrangement on 99 quantiles: "
           + ", ".join(f"{k} sup {v:.2e}" for k, v in worst.items()) + " < 5e-3")


def test_criterion_08_spike_family_chain():
    T = 6.0
    c_T, mu_tail, rel_density = (r["measured"] for r in cli.spike_chain_checks(T))
    target = (16.0 / 17.0) * np.exp(95.0 * T * T / 512.0)
    rel_threshold = abs(vt_counterexample_check(T).analytic_threshold - target) / target
    ok = (c_T <= np.log(2.0) and mu_tail <= 0.5
          and rel_density <= 1e-8 and rel_threshold < 0.01)
    report(8, ok,
           f"c_T {c_T:.2e} <= log 2; mu_tail {mu_tail:.2e} <= 1/2; "
           f"density rel err {rel_density:.1e} <= 1e-8; "
           f"threshold within {rel_threshold:.1e} of (16/17)e^(95T^2/512)")


def test_criterion_09_linear_tail_incompatibility():
    p = hf.normalize(hf.linear_tail())
    fit = tail_test(p, np.linspace(2.0, 6.0, 17))
    # a genuinely Gaussian pushforward shows a quadratic tail and no flag
    dilated = hf.normalize(hf.gaussian(-0.75))     # N(0, 4) = image of a 2-Lipschitz map
    gfit = tail_test(dilated, np.linspace(6.0, 12.0, 17))
    ok = (abs(fit.linear_slope + 1.0) <= 0.1
          and fit.gaussian_incompatible
          and abs(gfit.quad_coeff + 0.125) <= 0.05 * 0.125
          and not gfit.gaussian_incompatible)
    report(9, ok,
           f"log-tail slope {fit.linear_slope:.3f} = -1 +/- 0.1, flagged "
           f"incompatible; Gaussian-image tail quadratic "
           f"({gfit.quad_coeff:.4f} ~ -1/8), not flagged")


def test_criterion_10_drift_bound(std_bump, regularized_linear_tail, gh_scheme):
    families = [
        std_bump,
        regularized_linear_tail,
        hf.normalize(hf.vt_counterexample(4.0)),
        hf.normalize(hf.sharpness(3.0, hf.sharpness_critical_scale(0.5))),
    ]
    xs = np.linspace(-4.0, 4.0, 41)[:, None]
    worst = max(r["measured"] - r["bound"]
                for p in families
                for r in cli.drift_bound_checks(hf.SemigroupEvaluator(p, gh_scheme),
                                                xs, (0.1, 0.5, 1.0, 2.0)))
    report(10, worst <= 1e-4,
           f"sup |grad V_t| <= e^-t sup|grad V| for every regularized family; "
           f"worst excess {worst:.2e} <= 1e-4")


def test_criterion_11_determinism(tmp_path, std_bump):
    cfg = {
        "command": "transport",
        "potential": {"family": "bump", "params": {"radius": 0.5, "height": 0.5}},
        "scheme": {"node_count": 48},
        "flow": {"t_max": 8.0, "n_steps": 100},
        "samples": 500,
        "seed": 314,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["transport", "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "samples.csv").read_bytes())
    identical = outs[0] == outs[1]

    # chunking (the worker-split axis) must not change a single bit
    fi = make_flow(std_bump, nodes=48, t_max=8.0, n_steps=100)
    a = fi.pushforward_samples(500, seed=314, with_jacobian=False, chunk=500)
    b = fi.pushforward_samples(500, seed=314, with_jacobian=False, chunk=61)
    chunk_ok = np.array_equal(a.outputs, b.outputs)
    report(11, identical and chunk_ok,
           "rerun CSVs byte-identical; outputs invariant to worker chunking")
