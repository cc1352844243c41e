import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import heatflow as hf
from heatflow import bounds
from heatflow.bounds import (
    SIMPSON_MAX_DEPTH,
    bound_summary,
    curvature_blowup_time,
    hessian_floor_profile,
    oscillation_profile,
    profile_table,
    simpson_adaptive,
    tabulated_profile,
)
from heatflow.errors import HeatflowError


# -- curvature route ----------------------------------------------------------


def test_curvature_value_at_zero_time():
    assert hf.curvature_profile_value(3.7, 0.0) == pytest.approx(3.7)


def test_curvature_value_zero_lambda():
    for t in (0.0, 1.0, 5.0):
        assert hf.curvature_profile_value(0.0, t) == 0.0


def test_curvature_value_worked_example():
    # lam = 2 at the time where 1 - e^{-2t} = 1/4: 2*(3/4)/(1/2) = 3
    t = -0.5 * np.log(0.75)
    assert hf.curvature_profile_value(2.0, t) == pytest.approx(3.0, rel=1e-12)


def test_curvature_domain_error_past_pole():
    t_pole = curvature_blowup_time(2.0)
    with pytest.raises(ValueError, match="curvature route undefined"):
        hf.curvature_profile_value(2.0, t_pole + 0.01)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.01, max_value=1.5),
       st.floats(min_value=0.01, max_value=1.5))
def test_curvature_propagation_composes(lam, t1, t2):
    # propagating to t1 and then t2 equals propagating to t1 + t2
    e2 = 1.0 - np.exp(-2.0 * (t1 + t2))
    if lam * e2 >= 0.999:
        return
    lam1 = hf.curvature_profile_value(lam, t1)
    stepped = hf.curvature_profile_value(lam1, t2)
    direct = hf.curvature_profile_value(lam, t1 + t2)
    assert stepped == pytest.approx(direct, rel=1e-12, abs=1e-12)


# -- oscillation route ------------------------------------------------------------


def test_oscillation_worked_examples():
    t = 0.5 * np.log(2.0)   # e^{2t} = 2
    assert hf.oscillation_profile_value(0.0, t) == pytest.approx(1.0, rel=1e-12)
    assert hf.oscillation_profile_value(1.0, t) == pytest.approx(np.e, rel=1e-12)


def test_oscillation_long_time_limit():
    assert hf.oscillation_profile_value(0.0, 20.0) < 1e-17


def test_oscillation_requires_positive_time():
    with pytest.raises(ValueError, match="oscillation route requires t > 0"):
        hf.oscillation_profile_value(1.0, 0.0)


# -- switch time --------------------------------------------------------------------


def test_switch_time_values():
    assert hf.switch_time(1.0) == pytest.approx(0.5 * np.log(2.0), rel=1e-12)
    assert hf.switch_time(2.0) == pytest.approx(-0.5 * np.log(0.75), rel=1e-12)


def test_switch_time_inverts_definition():
    for lam in (1.0, 3.0, 47.0):
        s = hf.switch_time(lam)
        assert 1.0 - np.exp(-2.0 * s) == pytest.approx(1.0 / (2.0 * lam), rel=1e-12)


def test_switch_time_monotone_to_zero():
    s_prev = hf.switch_time(1.0)
    for lam in (2.0, 10.0, 1e3, 1e6):
        s = hf.switch_time(lam)
        assert s < s_prev
        s_prev = s
    assert hf.switch_time(1e6) < 1e-6


def test_switch_time_rejects_small_lambda():
    with pytest.raises(ValueError, match="switch time defined for lam >= 1"):
        hf.switch_time(0.5)


# -- closed-form integrals -------------------------------------------------------------


def test_integral_split_at_switch_time():
    s = hf.switch_time(1.0)
    head, tail = hf.profile_integral_split(1.0, 0.0, s)
    assert head == pytest.approx(0.5 * np.log(2.0), rel=1e-12)
    assert head + tail == pytest.approx(np.log(2.0), rel=1e-12)


def test_integral_split_head_vanishes_at_zero():
    head, _ = hf.profile_integral_split(2.0, 1.0, 1e-300)
    assert head == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 8.0, 16.0])
@pytest.mark.parametrize("frac", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_integral_split_matches_quadrature(lam, frac, c):
    s = frac * hf.switch_time(lam)
    head, tail = hf.profile_integral_split(lam, c, s)
    num_head = integrate.quad(lambda t: hf.curvature_profile_value(lam, t),
                              0, s, epsabs=1e-13, epsrel=1e-13)[0]
    num_tail = integrate.quad(lambda t: hf.oscillation_profile_value(c, t),
                              s, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(head - num_head) < 1e-10
    assert abs(tail - num_tail) < 1e-10


# -- Lipschitz constants ------------------------------------------------------------------


def test_constants_at_base_point():
    l_tight, l_theorem = hf.lipschitz_bound(1.0, 0.0)
    assert l_theorem == 4.0
    assert l_tight == pytest.approx(2.0, rel=1e-12)


def test_constants_worked_example():
    l_tight, l_theorem = hf.lipschitz_bound(2.0, np.log(2.0))
    assert l_theorem == pytest.approx(32.0, rel=1e-12)
    assert l_tight == pytest.approx(np.sqrt(2.0) * 4.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=64.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_tight_constant_dominated(lam, c):
    l_tight, l_theorem = hf.lipschitz_bound(lam, c)
    assert l_tight <= l_theorem
    if c > 0:
        assert l_tight < l_theorem


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=32.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.01, max_value=2.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_constants_monotone(lam, c, dlam, dc):
    a = hf.lipschitz_bound(lam, c)
    b = hf.lipschitz_bound(lam + dlam, c + dc)
    assert b[0] >= a[0] and b[1] >= a[1]


# -- profiles and their integrals ------------------------------------------------------------


def test_combined_profile_branches():
    prof = hf.combined_profile(2.0, 0.5)
    # small t: the oscillation branch diverges, curvature branch is active
    assert prof(0.01) == pytest.approx(hf.curvature_profile_value(2.0, 0.01),
                                       rel=1e-12)
    # beyond the curvature pole only the oscillation branch remains
    t_late = curvature_blowup_time(2.0) + 0.5
    assert prof(t_late) == pytest.approx(
        hf.oscillation_profile_value(0.5, t_late), rel=1e-12)


def test_combined_profile_nonnegative_and_shape():
    # the curvature branch rises toward its pole when lam > 1, so the
    # combined profile is unimodal there: up to the crossover, then down;
    # for lam = 1 the branch is flat and the profile never increases
    prof = hf.combined_profile(3.0, 1.0)
    ts = np.linspace(1e-3, 6.0, 400)
    vals = prof(ts)
    assert np.all(vals >= 0)
    after = ts > prof.switch_point
    assert np.all(np.diff(vals[after]) <= 1e-12)

    flat = hf.combined_profile(1.0, 0.5)
    vals = flat(ts)
    assert np.all(np.diff(vals) <= 1e-12)


def test_combined_integral_below_split_bound():
    # numeric min-integral <= the split-at-s closed bound, to 1e-8
    for lam in (1.0, 2.0, 4.0):
        for c in (0.0, 0.5, 1.0):
            km = hf.lipschitz_from_profile(hf.combined_profile(lam, c))
            head, tail = hf.profile_integral_split(lam, c, hf.switch_time(lam))
            assert np.log(km) <= head + tail + 1e-8


def test_km_value_combined_base_case():
    km = hf.lipschitz_from_profile(hf.combined_profile(1.0, 0.0))
    assert 1.0 <= km <= 2.0 + 1e-6
    assert km == pytest.approx(2.0, rel=1e-8)


def test_km_matches_crossover_closed_form():
    prof = hf.combined_profile(2.0, 0.5)
    head, tail = hf.profile_integral_split(2.0, 0.5, prof.switch_point)
    assert hf.lipschitz_from_profile(prof) == pytest.approx(
        np.exp(head + tail), rel=1e-8)


def test_km_zero_profile():
    zero = tabulated_profile(np.array([0.0, 30.0]), np.array([0.0, 0.0]))
    assert hf.lipschitz_from_profile(zero) == pytest.approx(1.0, abs=1e-12)


def test_km_hessian_floor_closed_form():
    prof = hessian_floor_profile(1.0, 1.0)
    assert hf.lipschitz_from_profile(prof) == pytest.approx(np.exp(0.5), rel=1e-9)


def test_km_diverges_for_pure_oscillation_profile():
    with pytest.raises(HeatflowError, match="profile diverges at its left endpoint"):
        hf.lipschitz_from_profile(oscillation_profile(0.0))


def test_consistency_km_below_tight():
    for lam in (1.0, 2.0, 4.0, 16.0):
        for c in (0.0, 0.5, 1.0, 2.0):
            s = bound_summary(lam, c)
            assert s.km_numeric <= s.l_tight + 1e-6
            assert s.l_tight <= s.l_theorem


def test_simpson_adaptive_on_smooth_integrand():
    val = simpson_adaptive(np.exp, 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx(np.e - 1.0, rel=1e-11)


def _recursive_simpson(f, a, b, rel_tol=1e-10):
    """The depth-first adaptive Simpson, one scalar call of f per abscissa:
    the reference the level-synchronous version must match bit for bit."""
    simpson = bounds._simpson
    if b <= a:
        return 0.0
    fa, fb = float(f(a)), float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = simpson(a, b, fa, fm, fb)
    tol0 = rel_tol * max(abs(whole), 1e-12)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = float(f(lm)), float(f(rm))
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth >= SIMPSON_MAX_DEPTH or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, tol0, 0)


class _Recorder:
    """Wraps an integrand; keeps every abscissa and the number of calls.

    Given a budget, it fails once called more often than that, so a
    per-point regression fails instead of running for hours; given
    max_points, it fails on a wider array than that."""

    def __init__(self, fn, budget=None, max_points=None):
        self.fn, self.points, self.calls = fn, [], 0
        self.budget, self.max_points = budget, max_points

    def __call__(self, t):
        self.calls += 1
        assert self.budget is None or self.calls <= self.budget, "called once per point"
        assert self.max_points is None or np.size(t) <= self.max_points, "level too wide"
        self.points.extend(np.atleast_1d(np.asarray(t, dtype=float)).tolist())
        return self.fn(t)


def _jump(t):
    return np.where(np.asarray(t) < 1.0 / 3.0, 0.0, 1.0)


def _oracle_cases():
    for lam in (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 100.0):
        for c in (0.0, 0.25, 0.5, 1.0, 2.0):
            prof = hf.combined_profile(lam, c)
            t_cut = max(bounds.T_CUT, prof.switch_point + 1.0)
            yield f"combined({lam}, {c}) head", prof, 0.0, prof.switch_point, 1e-10
            yield f"combined({lam}, {c}) tail", prof, prof.switch_point, t_cut, 1e-10
    yield "exp", np.exp, 0.0, 1.0, 1e-12
    yield "hessian_floor", hessian_floor_profile(3.0, 0.25), 0.0, bounds.T_CUT, 1e-10
    table = tabulated_profile(np.array([0.0, 0.5, 2.0, 3.0, 30.0]),
                              np.array([2.0, 1.0, 0.75, 0.1, 0.0]))
    yield "tabulated", table, 0.0, bounds.T_CUT, 1e-10
    yield "jump", _jump, 0.0, 1.0, 1e-10


def test_simpson_adaptive_matches_recursion_bit_for_bit():
    # same leaves, abscissas and summation order as the recursion, so the
    # results are equal, not close
    for name, fn, a, b, rel_tol in _oracle_cases():
        ref, new = _Recorder(fn), _Recorder(fn)
        want = _recursive_simpson(lambda t: float(ref(t)), a, b, rel_tol)
        got = simpson_adaptive(new, a, b, rel_tol)
        assert got == want, name
        assert sorted(new.points) == sorted(ref.points), name


def test_simpson_adaptive_jump_reaches_max_depth_one_call_per_level():
    rec = _Recorder(_jump)
    simpson_adaptive(rec, 0.0, 1.0)
    # an interval SIMPSON_MAX_DEPTH halvings deep was refined: its quarter
    # points are 2^-(depth + 2) apart
    assert np.min(np.diff(np.unique(rec.points))) <= 2.0 ** -(SIMPSON_MAX_DEPTH + 2)
    # one call for the endpoints and midpoint, then one per level
    assert rec.calls <= SIMPSON_MAX_DEPTH + 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_raises(bad):
    prof = tabulated_profile(np.array([0.0, 1.0, 2.0, 30.0]),
                             np.array([1.0, bad, 0.5, 0.0]))
    budget = SIMPSON_MAX_DEPTH + 2
    guarded = bounds.LambdaProfile(_Recorder(prof.fn, budget), valid_from=prof.valid_from)
    with pytest.raises(HeatflowError, match="not finite"):
        hf.lipschitz_from_profile(guarded)
    with pytest.raises(HeatflowError, match="not finite"):
        simpson_adaptive(_Recorder(prof, budget), 0.0, 30.0)


def test_simpson_adaptive_bounds_level_width(monkeypatch):
    # an integrand that no tolerance can accept splits every interval at
    # every level; the width cap stops it before memory runs out
    monkeypatch.setattr(bounds, "SIMPSON_MAX_OPEN", 64)
    with pytest.raises(HeatflowError, match="does not converge"):
        simpson_adaptive(_Recorder(lambda t: np.sin(1e12 * t), SIMPSON_MAX_DEPTH + 2, 128),
                         0.0, 1.0)


def test_profile_table_columns():
    tbl = profile_table(2.0, 0.5, np.linspace(0.01, 2.0, 50))
    assert set(tbl) == {"t", "lambda5", "lambda6", "combined"}
    assert np.all(tbl["combined"] <= tbl["lambda5"] + 1e-12)
    assert np.all(tbl["combined"] <= tbl["lambda6"] + 1e-12)


def test_bound_summary_dict_keys():
    s = bound_summary(2.0, 0.5).as_dict()
    assert set(s) == {"lambda", "c", "s", "l_tight", "l_theorem", "km_numeric"}
