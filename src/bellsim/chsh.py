"""CHSH pipeline: outcome probabilities, correlations and S-value sweeps.

Ground truth is the operator pipeline: compose the Bell operator with the
Raman analysis rotation, square entry moduli, and average the motional cross
terms with weight (1 - d).  The compact trigonometric forms are kept next to
it as transcription checks and as the fast path for curve sweeps; tests pin
the two routes together entrywise.

Outcome sign convention: an atom found in g counts +1, in e counts -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import BRANCH_ATOM1, BRANCH_ATOM2, raman_matrix
from .linalg import BASIS, STATE_INDEX

PATTERN_KINDS = ("standard", "mirrored")

#: Outcome parity per final state: +1 when both atoms give the same sign.
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class ChshAngles:
    """The four Raman angle pairs (theta1, theta2, theta1', theta2')."""

    theta1: float
    theta2: float
    theta1p: float
    theta2p: float


def pattern_angles(kind: str, x: float) -> ChshAngles:
    """Expand the one-parameter angle patterns used for the S(x) sweeps.

    standard: (0, x, 2x, 3x) makes the (ge, gg) pair violate;
    mirrored: (0, -x, 2x, -3x) hands the violation to the (eg, ee) pair.
    """
    if kind == "standard":
        return ChshAngles(0.0, x, 2.0 * x, 3.0 * x)
    if kind == "mirrored":
        return ChshAngles(0.0, -x, 2.0 * x, -3.0 * x)
    raise ValueError(f"pattern kind must be one of {PATTERN_KINDS}, got {kind!r}")


def _check_d(d: float):
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"decoherence level must lie in [0, 1], got {d}")


def _check_xi(xi: float):
    if xi < 0.0:
        raise ValueError(f"scattering ratio must be >= 0, got {xi}")


def probabilities_closed_form(d: float, theta1: float, theta2: float) -> np.ndarray:
    """Initial-state -> final-state probability matrix, compact trig form.

    Row order and column order both follow (gg, ge, eg, ee).
    """
    _check_d(d)
    q = d * np.sin(2.0 * theta1) * np.sin(2.0 * theta2)
    sin_m = 0.5 * (np.sin(theta1 - theta2) ** 2 + 0.5 * q)
    cos_m = 0.5 * (np.cos(theta1 - theta2) ** 2 - 0.5 * q)
    cos_p = 0.5 * (np.cos(theta1 + theta2) ** 2 + 0.5 * q)
    sin_p = 0.5 * (np.sin(theta1 + theta2) ** 2 - 0.5 * q)
    return np.array(
        [[sin_m, cos_m, cos_m, sin_m],
         [cos_m, sin_m, sin_m, cos_m],
         [cos_p, sin_p, sin_p, cos_p],
         [sin_p, cos_p, cos_p, sin_p]])


def probabilities_first_principles(d: float, theta1: float, theta2: float) -> np.ndarray:
    """Same probability matrix from the composed operator.

    Each entry of Bell @ Raman is x e^{i p1} + y e^{i p2}; the thermal
    average of its squared modulus is x^2 + y^2 + 2 (1 - d) x y.
    """
    _check_d(d)
    r = raman_matrix(theta1, theta2).real
    x = BRANCH_ATOM1 @ r / np.sqrt(2.0)
    y = BRANCH_ATOM2 @ r / np.sqrt(2.0)
    return x**2 + y**2 + 2.0 * (1.0 - d) * x * y


def correlation(p_row) -> float:
    """Two-atom outcome correlation <s1 s2> from one row of outcome probabilities."""
    row = np.asarray(p_row, dtype=float)
    if row.shape != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {row.shape}")
    if abs(row.sum() - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities must sum to 1, got {row.sum()}")
    return float(row @ _PARITY)


def correlation_closed_form(initial: str, d: float, theta1, theta2):
    """Correlation in closed form; accepts angle arrays for sweeps."""
    _check_d(d)
    t1, t2 = np.asarray(theta1), np.asarray(theta2)
    q = d * np.sin(2.0 * t1) * np.sin(2.0 * t2)
    if initial == "gg":
        return -np.cos(2.0 * (t1 - t2)) + q
    if initial == "ge":
        return np.cos(2.0 * (t1 - t2)) - q
    if initial == "eg":
        return np.cos(2.0 * (t1 + t2)) + q
    if initial == "ee":
        return -np.cos(2.0 * (t1 + t2)) - q
    raise ValueError(f"initial state must be one of {BASIS}, got {initial!r}")


def chsh_s(initial: str, angles: ChshAngles, d: float) -> float:
    """CHSH combination for one initial state, from the operator pipeline."""
    if initial not in STATE_INDEX:
        raise ValueError(f"initial state must be one of {BASIS}, got {initial!r}")
    row = STATE_INDEX[initial]

    def corr(t1, t2):
        return correlation(probabilities_first_principles(d, t1, t2)[row])

    return (corr(angles.theta1, angles.theta2)
            - corr(angles.theta1, angles.theta2p)
            + corr(angles.theta1p, angles.theta2)
            + corr(angles.theta1p, angles.theta2p))


def chsh_s_curve(x, initial: str, d: float, kind: str = "standard") -> np.ndarray:
    """Vectorized S(x) over an array of pattern parameters (closed form)."""
    x = np.asarray(x, dtype=float)
    sign = {"standard": 1.0, "mirrored": -1.0}
    if kind not in sign:
        raise ValueError(f"pattern kind must be one of {PATTERN_KINDS}, got {kind!r}")
    t2 = sign[kind] * x
    t2p = sign[kind] * 3.0 * x
    zeros = np.zeros_like(x)
    return (correlation_closed_form(initial, d, zeros, t2)
            - correlation_closed_form(initial, d, zeros, t2p)
            + correlation_closed_form(initial, d, 2.0 * x, t2)
            + correlation_closed_form(initial, d, 2.0 * x, t2p))


def sweep_s(x_values, d: float, kind: str = "standard") -> dict[str, np.ndarray]:
    """Tabulate S(x) for all four initial states; CSV-ready columns."""
    x = np.asarray(x_values, dtype=float)
    return {state: chsh_s_curve(x, state, d, kind) for state in BASIS}


def _golden_max(func, xa: float, xb: float, xc: float, xtol: float) -> float:
    """Golden-section maximum of func on the bracket xa < xb < xc.

    Step for step scipy's _minimize_scalar_golden on -func (same truncated
    ratio, start rule, stopping test and 5000-step cap), so bit-identical to
    it; ValueError unless func(xb) exceeds both func(xa) and func(xc).
    """
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb > fa and fb > fc):
        raise ValueError("bracket does not enclose a maximum")
    g_r = 0.61803399
    g_c = 1.0 - g_r
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + g_c * (xc - xb)
    else:
        x1, x2 = xb - g_c * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 > f1:
            x0, x1 = x1, x2
            x2 = g_r * x1 + g_c * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2 = x2, x1
            x1 = g_r * x2 + g_c * x0
            f2, f1 = f1, func(x1)
    return f1 if f1 > f2 else f2


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb], step for step scipy's brentq.c (rtol 4 eps, 100
    steps, sign tests, interpolate / extrapolate / bisect rule), so bit-identical
    to it; ValueError if f(xa), f(xb) share a sign, RuntimeError on the cap.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # min(b, a) picks b on ties and NaN, like C's MIN(a, b)
            if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"root search failed to converge after 100 iterations, value is {xcur}")


def _grid_max(curve) -> float:
    """Largest |curve(x)| over x in (0, pi/2): scan of 2000 interior grid
    points, then golden-section polish unless the maximum sits on the edge."""
    xs = np.linspace(0.0, np.pi / 2, 2002)[1:-1]
    values = np.abs(curve(xs))
    i = int(np.argmax(values))
    if i == 0 or i == len(xs) - 1:
        return float(values[i])
    best = _golden_max(lambda t: abs(float(curve(t))), xs[i - 1], xs[i], xs[i + 1], xtol=1e-8)
    return float(max(values[i], best))


def s_max(d: float, initial: str = "ge", kind: str = "standard") -> float:
    """Maximum of |S(x)| over the open interval x in (0, pi/2).

    Grid scan followed by golden-section refinement.  Note the sweep has a
    trivial x -> 0 limit where every S approaches 2 exactly (all four angle
    pairs coincide), so once the interior peak decays below 2 this maximum
    saturates just under 2 instead of dropping further.
    """
    return _grid_max(lambda x: chsh_s_curve(x, initial, d, kind))


def s_at_standard_angle(d: float) -> float:
    """Violating-family S at the d = 0 optimum x = pi/8: sqrt(2) (2 - d)."""
    _check_d(d)
    return float(np.sqrt(2.0) * (2.0 - d))


def e_gg_scatter(d: float, xi: float, theta1, theta2,
                 form: str = "closed_form"):
    """Correlation for initial gg including double-excitation scattering.

    closed_form : compact expression -(1-d) sin2t1 sin2t2 - cos2t1 cos2t2/(1+2xi).
    branch      : rebuilt from the outcome decomposition; the detected-only
                  branch (weight 2) and the double-excitation branch (weight
                  4 xi, both atoms flipped before the analysis rotation) are
                  mixed incoherently.  The branch route keeps an order-xi
                  cross term the compact expression drops.
    """
    _check_d(d)
    _check_xi(xi)
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    if form == "closed_form":
        out = (-(1.0 - d) * np.sin(2 * t1) * np.sin(2 * t2)
               - np.cos(2 * t1) * np.cos(2 * t2) / (1.0 + 2.0 * xi))
        return out if out.shape else float(out)
    if form == "branch":
        e_single = correlation_closed_form("gg", d, t1, t2)
        e_double = np.cos(2 * t1) * np.cos(2 * t2)
        out = (2.0 * e_single + 4.0 * xi * e_double) / (2.0 + 4.0 * xi)
        return out if out.shape else float(out)
    raise ValueError(f"form must be 'closed_form' or 'branch', got {form!r}")


def s_gg_scatter_curve(x, d: float, xi: float, form: str = "closed_form") -> np.ndarray:
    """CHSH S(x) for initial gg with scattering, standard angle pattern."""
    x = np.asarray(x, dtype=float)
    zeros = np.zeros_like(x)
    return (e_gg_scatter(d, xi, zeros, x, form)
            - e_gg_scatter(d, xi, zeros, 3.0 * x, form)
            + e_gg_scatter(d, xi, 2.0 * x, x, form)
            + e_gg_scatter(d, xi, 2.0 * x, 3.0 * x, form))


def s_gg_scatter_max(d: float, xi: float, form: str = "closed_form") -> float:
    """Maximum of |S_gg(x)| with scattering over x in (0, pi/2)."""
    return _grid_max(lambda x: s_gg_scatter_curve(x, d, xi, form))


def scatter_threshold(d: float, fixed_x: float | None = None) -> float:
    """Smallest xi at which the gg violation drops to the classical bound 2.

    With fixed_x given, the compact-form S at that angle is inverted in
    closed form; otherwise |S| is maximized over x and the threshold is
    located by Brent's method on [0, 4].
    """
    _check_d(d)
    if fixed_x is not None:
        amp = np.cos(2 * fixed_x) - np.cos(6 * fixed_x)
        local = (1.0 - d) * (np.sin(2 * fixed_x) + np.sin(6 * fixed_x))
        denom = 2.0 - local
        if denom <= 0 or amp <= 0:
            raise ValueError("no threshold exists at this angle")
        ratio = amp / denom
        if ratio < 1.0:
            return 0.0
        return float(0.5 * (ratio - 1.0))
    if s_gg_scatter_max(d, 0.0) <= 2.0:
        return 0.0
    return float(_brentq(lambda xi: s_gg_scatter_max(d, xi) - 2.0, 0.0, 4.0, xtol=1e-10))


__all__ = [
    "ChshAngles",
    "PATTERN_KINDS",
    "chsh_s",
    "chsh_s_curve",
    "correlation",
    "correlation_closed_form",
    "e_gg_scatter",
    "pattern_angles",
    "probabilities_closed_form",
    "probabilities_first_principles",
    "s_at_standard_angle",
    "s_gg_scatter_curve",
    "s_gg_scatter_max",
    "s_max",
    "scatter_threshold",
    "sweep_s",
]
