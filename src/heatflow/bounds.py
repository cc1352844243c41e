"""Closed-form curvature budgets lam(t) and the Lipschitz constants they imply.

Two decay laws feed everything here:

  curvature route   lam e^{-2t} / (1 - lam (1 - e^{-2t}))   while lam (1 - e^{-2t}) < 1
  oscillation route e^{c} / (e^{2t} - 1)                    for t > 0

A profile integrable on (0, inf) certifies an exp(integral) Lipschitz
transport.  The combined profile takes the pointwise minimum, switching to
the oscillation branch as soon as it is smaller (never evaluating the
curvature branch near its pole).  Splitting the integral at s with
1 - e^{-2s} = 1/(2 lam) gives the closed bound
exp((e^c/2) log(2 lam) + (1/2) log 2) = sqrt(2) (2 lam)^{e^c / 2}; the
headline constant 2 (2 lam)^{e^c} dominates it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from .errors import DomainError, LambdaBelowOneError, NonIntegrableError

T_CUT_DEFAULT = 20.0


def _curvature_route(lam: float, t):
    """lam e^{-2t} / (1 - lam (1 - e^{-2t})), +inf past the route's pole."""
    e2 = np.exp(-2.0 * t)
    denom = 1.0 - lam * (1.0 - e2)
    return np.where(denom > 0, lam * e2 / np.where(denom > 0, denom, 1.0), np.inf)


def _oscillation_route(c: float, t):
    """e^c / (e^{2t} - 1), +inf at t <= 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0, np.exp(c) / np.expm1(2.0 * t), np.inf)


def _oscillation_tail(c: float, s: float) -> float:
    """e^c * integral_s^inf dt / (e^{2t} - 1) = e^c (-log(1 - e^{-2s}) / 2).

    Diverges as s -> 0; inf is the correct value there.
    """
    with np.errstate(divide="ignore"):
        return float(np.exp(c) * (-0.5 * np.log1p(-np.exp(-2.0 * s))))


def curvature_profile_value(lam: float, t) -> np.ndarray:
    """Propagated curvature bound lam e^{-2t} / (1 - lam (1-e^{-2t})).

    Defined while lam (1 - e^{-2t}) < 1; raises DomainError past the
    blow-up time (certification by curvature alone ends there).
    """
    if lam < 0:
        raise DomainError("curvature parameter must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("time must be >= 0")
    if np.any(lam * (1.0 - np.exp(-2.0 * t)) >= 1.0):
        raise DomainError(
            f"curvature route undefined where lam*(1-e^-2t) >= 1 (lam={lam})"
        )
    out = _curvature_route(lam, t)
    return out if out.shape else float(out)


def oscillation_profile_value(c: float, t) -> np.ndarray:
    """Oscillation-budget bound e^c / (e^{2t} - 1), t > 0."""
    if c < 0:
        raise DomainError("oscillation parameter must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("oscillation route requires t > 0")
    out = _oscillation_route(c, t)
    return out if out.shape else float(out)


def curvature_blowup_time(lam: float) -> float:
    """Time where the curvature route's domain ends (inf for lam <= 1)."""
    if lam <= 1.0:
        return np.inf
    return -0.5 * np.log1p(-1.0 / lam)


def switch_time(lam: float) -> float:
    """s with 1 - e^{-2s} = 1/(2 lam), the split point behind the closed bound."""
    if lam < 1.0:
        raise LambdaBelowOneError(
            "switch time defined for lam >= 1; use the dilation reduction below"
        )
    return float(-0.5 * np.log1p(-1.0 / (2.0 * lam)))


def profile_integral_split(lam: float, c: float, s: float) -> tuple[float, float]:
    """Closed forms of the two profile integrals split at s.

    head = integral_0^s of the curvature route = -log(1 - lam (1-e^{-2s})) / 2
    tail = e^c * integral_s^inf dt/(e^{2t}-1) = e^c * (-log(1 - e^{-2s}) / 2)
    """
    if s < 0:
        raise DomainError("split point must be >= 0")
    e2 = np.exp(-2.0 * s)
    arg = 1.0 - lam * (1.0 - e2)
    if arg <= 0:
        raise DomainError("split point beyond the curvature route's domain")
    head = -0.5 * np.log(arg)
    return float(head), _oscillation_tail(c, s)


def lipschitz_bound(lam: float, c: float) -> tuple[float, float]:
    """(l_tight, l_theorem) for lam >= 1, c >= 0.

    l_tight = sqrt(2) (2 lam)^{e^c/2} from the optimal-split integral;
    l_theorem = 2 (2 lam)^{e^c} is the simpler dominating constant.
    """
    if lam < 1.0:
        raise LambdaBelowOneError("constants defined for lam >= 1")
    if c < 0:
        raise DomainError("oscillation must be >= 0")
    ec = np.exp(c)
    l_tight = float(np.sqrt(2.0) * (2.0 * lam) ** (ec / 2.0))
    l_theorem = float(2.0 * (2.0 * lam) ** ec)
    return l_tight, l_theorem


@dataclass(frozen=True)
class LambdaProfile:
    """A curvature budget t -> lam(t) with its integration metadata.

    valid_from: left end of the domain (0 unless the profile needs t > 0).
    closed_tail(t_cut): exact integral past t_cut, or None when the profile
    has no closed form there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    valid_from: float = 0.0
    switch_point: Optional[float] = None
    closed_tail: Optional[Callable[[float], float]] = None

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=float))


def curvature_profile(lam: float) -> LambdaProfile:
    tail = None
    if lam < 1.0:
        def tail(t_cut):
            e2 = np.exp(-2.0 * t_cut)
            return float(-0.5 * (np.log(1.0 - lam) - np.log(1.0 - lam * (1.0 - e2))))
    return LambdaProfile(lambda t: curvature_profile_value(lam, t), closed_tail=tail)


def oscillation_profile(c: float) -> LambdaProfile:
    return LambdaProfile(lambda t: oscillation_profile_value(c, t),
                         valid_from=np.nextafter(0.0, 1.0),
                         closed_tail=lambda t_cut: _oscillation_tail(c, t_cut))


def hessian_floor_profile(C: float, f_min: float) -> LambdaProfile:
    """lam(t) = C e^{-2t} / f_min from a Hessian upper bound and density floor.

    Integrating it certifies exp(C / (2 f_min)).  The companion constant
    C / (2 f_min^2) reported alongside in summaries uses the density floor
    squared; the two disagree and both are exposed rather than adjudicated.
    """
    if f_min <= 0:
        raise DomainError("density floor must be positive")
    return LambdaProfile(
        lambda t: C * np.exp(-2.0 * t) / f_min,
        closed_tail=lambda t_cut: float(C * np.exp(-2.0 * t_cut) / (2.0 * f_min)),
    )


def combined_profile(lam: float, c: float) -> LambdaProfile:
    """Pointwise minimum of the two routes for lam >= 1, c >= 0.

    The oscillation branch diverges at t -> 0+, so the curvature branch is
    active first; the branch switch happens at the first time the
    oscillation value is smaller, which is strictly before the curvature
    pole, so the pole is never evaluated.
    """
    if lam < 1.0:
        raise LambdaBelowOneError("combined profile defined for lam >= 1")
    if c < 0:
        raise DomainError("oscillation must be >= 0")
    # branch crossover in closed form: equating the two routes at u = e^{-2t}
    # gives u* = 1 - e^c / (lam (1 + e^c)), always inside (0, 1) and strictly
    # before the curvature pole
    ec = np.exp(c)
    u_star = 1.0 - ec / (lam * (1.0 + ec))
    t_star = -0.5 * np.log(u_star)
    return LambdaProfile(
        lambda t: np.minimum(_curvature_route(lam, t), _oscillation_route(c, t)),
        switch_point=float(t_star),
        closed_tail=lambda t_cut: _oscillation_tail(c, t_cut),
    )


def tabulated_profile(ts: np.ndarray, values: np.ndarray) -> LambdaProfile:
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)

    def value(t):
        return np.interp(np.asarray(t, dtype=float), ts, values, right=0.0)

    return LambdaProfile(value, valid_from=float(ts[0]))


# -- adaptive Simpson integration ------------------------------------------


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def simpson_adaptive(f, a: float, b: float, rel_tol: float = 1e-10,
                     max_depth: int = 48) -> float:
    """Recursive Simpson with interval halving to a relative tolerance.

    The tolerance budget is split between halves at every level, so the
    accumulated error over all leaves stays below rel_tol * |integral|.
    """
    if b <= a:
        return 0.0
    fa, fb = float(f(a)), float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = _simpson(a, b, fa, fm, fb)
    tol0 = rel_tol * max(abs(whole), 1e-12)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = float(f(lm)), float(f(rm))
        left = _simpson(a, m, fa, flm, fm)
        right = _simpson(m, b, fm, frm, fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    return recurse(a, b, fa, fm, fb, whole, tol0, 0)


def lipschitz_from_profile(profile: LambdaProfile,
                           t_cut: float = T_CUT_DEFAULT,
                           rel_tol: float = 1e-10) -> float:
    """exp(integral of the profile over (0, inf)).

    Numeric adaptive Simpson over (valid_from, t_cut], split at the branch
    crossover when the profile has one, plus the closed-form tail beyond
    t_cut.  Profiles without a closed tail must be negligible past t_cut.
    """
    a = profile.valid_from
    if not np.isfinite(profile(a)):
        raise NonIntegrableError("profile diverges at its left endpoint")
    if profile.switch_point is not None:
        t_cut = max(t_cut, profile.switch_point + 1.0)
    pieces = [t for t in (profile.switch_point,) if t is not None and a < t < t_cut]
    knots = [a] + pieces + [t_cut]
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        total += simpson_adaptive(lambda t: float(profile(t)), lo, hi, rel_tol)
    if profile.closed_tail is not None:
        tail = profile.closed_tail(t_cut)
    elif float(profile(t_cut)) * 0.5 > 1e-8:
        raise NonIntegrableError(
            "profile tail beyond t_cut is not negligible and has no closed form"
        )
    else:
        tail = 0.0
    if not np.isfinite(total) or not np.isfinite(tail):
        raise NonIntegrableError("profile integral diverged")
    return float(np.exp(total + tail))


# -- summaries and exports ---------------------------------------------------


@dataclass(frozen=True)
class BoundSummary:
    lam: float
    c: float
    s: float
    l_tight: float
    l_theorem: float
    km_numeric: float

    @property
    def ordering_ok(self) -> bool:
        """km_numeric <= l_tight (to 1e-6) and l_tight <= l_theorem."""
        return bool(self.km_numeric <= self.l_tight + 1e-6
                    and self.l_tight <= self.l_theorem)

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam, "c": self.c, "s": self.s,
            "l_tight": self.l_tight, "l_theorem": self.l_theorem,
            "km_numeric": self.km_numeric,
        }


def bound_summary(lam: float, c: float) -> BoundSummary:
    s = switch_time(lam)
    l_tight, l_theorem = lipschitz_bound(lam, c)
    km = lipschitz_from_profile(combined_profile(lam, c))
    return BoundSummary(lam, c, s, l_tight, l_theorem, km)


def profile_table(lam: float, c: float, ts: np.ndarray) -> dict[str, np.ndarray]:
    """Columns for the CSV export: t, lambda5, lambda6, combined."""
    ts = np.asarray(ts, dtype=float)
    return {"t": ts, "lambda5": _curvature_route(lam, ts),
            "lambda6": _oscillation_route(c, ts), "combined": combined_profile(lam, c)(ts)}
