"""CHSH pipeline: outcome probabilities, correlations and S-value sweeps.

Ground truth is the operator pipeline: compose the Bell operator with the
Raman analysis rotation, square entry moduli, and average the motional cross
terms with weight (1 - d).  The compact trigonometric forms are kept next to
it as transcription checks and as the fast path for curve sweeps; tests pin
the two routes together entrywise.  Both probability matrices take (d, theta1,
theta2) as scalars or arrays that broadcast and return a (..., 4, 4) stack.

Every swept S(x) is a polynomial of degree <= 5 in cos 2x, so its maxima and
the scattering threshold are exact: taken at polynomial roots, with no search.

Outcome sign convention: an atom found in g counts +1, in e counts -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import SQRT2, _check_d, _check_xi, _path_terms, _per_matrix, bell_paths, raman_matrix
from .linalg import BASIS, STATE_INDEX, _float_or_array, stack_matrix

#: Outcome parity per final state: +1 when both atoms give the same sign.
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class ChshAngles:
    """The four Raman angle pairs (theta1, theta2, theta1', theta2')."""

    theta1: float
    theta2: float
    theta1p: float
    theta2p: float


def pattern_angles(x) -> ChshAngles:
    """The one-parameter angle pattern (0, x, 2x, 3x) of the S(x) sweeps, under
    which the (ge, gg) pair violates.  Negating the second atom's angles,
    (0, -x, 2x, -3x), turns E_ge into E_eg and E_gg into E_ee exactly, so the
    (eg, ee) violation under those angles is this pattern's ge and gg curves."""
    return ChshAngles(0.0, x, 2.0 * x, 3.0 * x)


def probabilities_closed_form(d, theta1, theta2) -> np.ndarray:
    """Initial-state -> final-state probability matrix, compact trig form.

    Row order and column order both follow (gg, ge, eg, ee).
    """
    _check_d(d)
    # float_power squares through libm pow as a scalar ** 2 does; an array's
    # ** 2 multiplies and can round the other way
    q = d * np.sin(2.0 * theta1) * np.sin(2.0 * theta2)
    sin_m = 0.5 * (np.float_power(np.sin(theta1 - theta2), 2) + 0.5 * q)
    cos_m = 0.5 * (np.float_power(np.cos(theta1 - theta2), 2) - 0.5 * q)
    cos_p = 0.5 * (np.float_power(np.cos(theta1 + theta2), 2) + 0.5 * q)
    sin_p = 0.5 * (np.float_power(np.sin(theta1 + theta2), 2) - 0.5 * q)
    return stack_matrix(
        [[sin_m, cos_m, cos_m, sin_m],
         [cos_m, sin_m, sin_m, cos_m],
         [cos_p, sin_p, sin_p, cos_p],
         [sin_p, cos_p, cos_p, sin_p]])


def probabilities_first_principles(d, theta1, theta2) -> np.ndarray:
    """Same probability matrix from the composed operator.

    Each entry of Bell @ Raman is x e^{i p1} + y e^{i p2}; the thermal
    average of its squared modulus is x^2 + y^2 + 2 (1 - d) x y.
    """
    _check_d(d)
    constant, cross = _path_terms(*bell_paths(raman_matrix(theta1, theta2).real))
    return constant + _per_matrix(1.0 - d) * cross


def correlation(p_row) -> float:
    """Two-atom outcome correlation <s1 s2> from one row of outcome probabilities."""
    row = np.asarray(p_row, dtype=float)
    if row.shape != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {row.shape}")
    if abs(row.sum() - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities must sum to 1, got {row.sum()}")
    return float(row @ _PARITY)


#: Closed-form correlation of each initial state, E = a cos 2(t1 -+ t2) + b q
#: with q = d sin 2t1 sin 2t2: its sign a, whether the angles add, its sign b.
_CORRELATION_SIGNS = {"gg": (-1.0, False, 1.0), "ge": (1.0, False, -1.0),
                      "eg": (1.0, True, 1.0), "ee": (-1.0, True, -1.0)}


def _correlations(d, t1, t2, states) -> list:
    """Closed-form correlations of `states` at one angle pair, for a checked d:
    one q, and only the cosines those states read."""
    q = d * np.sin(2.0 * t1) * np.sin(2.0 * t2)
    cosines, result = {}, []
    for state in states:
        a, add, b = _CORRELATION_SIGNS[state]
        if add not in cosines:
            cosines[add] = np.cos(2.0 * (t1 + t2) if add else 2.0 * (t1 - t2))
        result.append(a * cosines[add] + b * q)
    return result


def _chsh_combination(corr, angles: ChshAngles):
    """S = E(t1, t2) - E(t1, t2') + E(t1', t2) + E(t1', t2') for a correlation E."""
    return (corr(angles.theta1, angles.theta2)
            - corr(angles.theta1, angles.theta2p)
            + corr(angles.theta1p, angles.theta2)
            + corr(angles.theta1p, angles.theta2p))


def chsh_s(initial: str, angles: ChshAngles, d: float) -> float:
    """CHSH combination for one initial state, from the operator pipeline."""
    if initial not in STATE_INDEX:
        raise ValueError(f"initial state must be one of {BASIS}, got {initial!r}")
    row = STATE_INDEX[initial]
    return _chsh_combination(
        lambda t1, t2: correlation(probabilities_first_principles(d, t1, t2)[row]), angles)


def _s_curves(x, d, states) -> np.ndarray:
    """Closed-form S(x) of each of `states` on a leading axis, for a checked d:
    each state's curve is the same bit for bit whatever the others, and a
    single state computes only the cosine it reads."""
    return _chsh_combination(lambda t1, t2: np.stack(_correlations(d, t1, t2, states)),
                             pattern_angles(np.asarray(x, dtype=float)))


def sweep_s(x_values, d: float) -> dict[str, np.ndarray]:
    """Tabulate the closed-form S(x) of all four initial states; CSV-ready
    columns from one q and two cosines per angle pair."""
    _check_d(d)
    return dict(zip(BASIS, _s_curves(x_values, d, BASIS)))


#: Ends of the maximized range, pi/4002 in from each edge of (0, pi/2), and
#: the same range in c = cos 2x, ascending.
_X_ENDS = np.linspace(0.0, np.pi / 2, 2002)[[1, -2]]
_C_ENDS = np.cos(2 * _X_ENDS[::-1])
#: Chebyshev nodes in c = cos 2x, enough to fix a polynomial of degree 5.
_C_NODES = np.cos(np.pi * (np.arange(6) + 0.5) / 6)


def _power_coef(curve) -> np.ndarray:
    """Power-basis coefficients in c = cos 2x of a curve of degree <= 5 in c, or the
    (m, 6) ones of m curves given as columns, each by its own single-column solve."""
    y = curve(np.arccos(_C_NODES) / 2)
    return np.linalg.solve(np.vander(_C_NODES), y.T[..., None])[..., 0]


def _roots_in_range(coef) -> np.ndarray:
    """Real parts of the roots of each row of power-basis coefficients, shape
    (m, n + 1), clipped into _C_ENDS: the eigenvalues of (m, n, n) companion
    matrices from one call (a complex or clipped root only adds a point inside
    the range, which cannot raise a maximum taken over it)."""
    # an exactly zero leading coefficient becomes round-off of the others: its
    # extra root is huge and clipped, the rest stay put
    tiny = np.maximum(np.finfo(float).eps * np.abs(coef).max(axis=1), np.finfo(float).tiny)
    top = -coef[:, 1:] / np.where(coef[:, 0] != 0, coef[:, 0], tiny)[:, None]
    m, n = top.shape
    companion = np.concatenate((top[:, None], np.broadcast_to(np.eye(n - 1, n), (m, n - 1, n))), 1)
    return np.clip(np.linalg.eigvals(companion).real, *_C_ENDS)


def _grid_max(curve, d):
    """Largest |curve(x, d)| for x between the _X_ENDS, for d or each element of
    an array d, where curve has degree <= 5 in c = cos 2x and broadcasts x of
    shape (k, m) against the m values of d.  The m curves are interpolated
    through _C_NODES and evaluated at the ends and at their derivatives' roots
    in range, all from one _roots_in_range call."""
    flat = np.ravel(d).astype(float)
    der = _power_coef(lambda x: curve(x[:, None], flat))[:, :-1] * np.arange(5, 0, -1)
    c = _roots_in_range(der).T
    x = np.concatenate((np.broadcast_to(_X_ENDS[:, None], (2, flat.size)), np.arccos(c) / 2))
    return _float_or_array(np.max(np.abs(curve(x, flat)), axis=0).reshape(np.shape(d)))


def s_max(d, initial: str = "ge"):
    """Maximum of |S(x)| over the open interval x in (0, pi/2), for a decoherence
    level d or elementwise for an array of them.

    Exact: S is a polynomial of degree 5 in cos 2x, so the maximum over
    [pi/4002, pi/2 - pi/4002] sits at a root of its derivative or at an end.
    Note the sweep has a trivial x -> 0 limit where every S approaches 2
    exactly (all four angle pairs coincide), so once the interior peak decays
    below 2 this maximum saturates just under 2 instead of dropping further.
    """
    _check_d(np.asarray(d))
    if initial not in _CORRELATION_SIGNS:
        raise ValueError(f"initial state must be one of {BASIS}, got {initial!r}")
    return _grid_max(lambda x, d: _s_curves(x, d, (initial,))[0], d)


def s_at_standard_angle(d):
    """Violating-family S at the d = 0 optimum x = pi/8: sqrt(2) (2 - d)."""
    _check_d(d)
    return SQRT2 * (2.0 - d)


def e_gg_scatter(d: float, xi, theta1, theta2, form: str = "closed_form"):
    """Correlation for initial gg including double-excitation scattering.  xi
    may be an array that broadcasts against the angles, such as a column of
    ratios for one grid per ratio, each equal to its scalar-xi call bit for bit.

    closed_form : compact expression -(1-d) sin2t1 sin2t2 - cos2t1 cos2t2/(1+2xi).
    branch      : rebuilt from the outcome decomposition; the detected-only
                  branch (weight 2) and the double-excitation branch (weight
                  4 xi, both atoms flipped before the analysis rotation) are
                  mixed incoherently.  The branch route keeps an order-xi
                  cross term the compact expression drops.
    """
    _check_d(d)
    _check_xi(xi)
    t1, t2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
    if form == "closed_form":
        return _float_or_array(-(1.0 - d) * np.sin(2 * t1) * np.sin(2 * t2)
                               - np.cos(2 * t1) * np.cos(2 * t2) / (1.0 + 2.0 * xi))
    if form == "branch":
        e_single = _correlations(d, t1, t2, ("gg",))[0]
        e_double = np.cos(2 * t1) * np.cos(2 * t2)
        return _float_or_array((2.0 * e_single + 4.0 * xi * e_double) / (2.0 + 4.0 * xi))
    raise ValueError(f"form must be 'closed_form' or 'branch', got {form!r}")


def s_gg_scatter_curve(x, d: float, xi, form: str = "closed_form") -> np.ndarray:
    """CHSH S(x) for initial gg with scattering, angle pattern (0, x, 2x, 3x).  xi may
    be an array that broadcasts against x, such as a column of ratios for one
    curve per row, each equal to its scalar-xi call bit for bit."""
    return _chsh_combination(lambda t1, t2: e_gg_scatter(d, xi, t1, t2, form),
                             pattern_angles(np.asarray(x, dtype=float)))


def s_gg_scatter_max(d, xi: float, form: str = "closed_form"):
    """Maximum of |S_gg(x)| with scattering over x in (0, pi/2); d may be an array."""
    return _grid_max(lambda x, d: s_gg_scatter_curve(x, d, xi, form), d)


def _scatter_split(s_gg):
    """(A, B) of S_gg = A + B / (1 + 2 xi), from one s_gg call over xi = (0, 1/2)."""
    full, half = s_gg(np.array([0.0, 0.5]))  # A + B, A + B / 2
    return 2 * half - full, 2 * (full - half)


def scatter_threshold(d: float, fixed_x: float | None = None) -> float:
    """Smallest xi at which the gg violation drops to the classical bound 2, for
    one decoherence level d (an array of them raises).

    S = A(c) + a B(c) with a = 1/(1 + 2 xi) and |A| <= 2 (1 - d), so at each
    c = cos 2x the violation ends at 1/a = v(c) = |B| / (2 - sign(B) A).  With
    fixed_x given, any finite angle, 1 + 2 xi* is v there.  Otherwise it is the
    largest v, at an end or at a root of v', i.e. of A B' - A' B - 2 s B' for
    s = +-1, both polynomials' roots from one _roots_in_range call.
    """
    if np.ndim(d):
        raise ValueError(f"the threshold is taken at one decoherence level, got {d}")
    _check_d(d)
    if fixed_x is not None:
        with np.errstate(invalid="ignore"):  # an infinite angle has no sine
            a_c, b_c = _scatter_split(lambda xi: s_gg_scatter_curve(float(fixed_x), d, xi))
    else:
        a, b = _scatter_split(
            lambda xi: _power_coef(lambda x: s_gg_scatter_curve(x[:, None], d, xi)))
        db = np.polyder(b)
        cross = np.polysub(np.polymul(a, db), np.polymul(np.polyder(a), b))
        p = np.stack([np.polysub(cross, 2 * s * db) for s in (1.0, -1.0)])
        # the c^9 and c^8 terms cancel (A, B are odd quintics); their round-off
        # would make the companion matrices lose real roots
        kept = np.abs(p) > 1e-12 * np.abs(p).max(axis=1, keepdims=True)
        c = np.concatenate((_C_ENDS, _roots_in_range(p[:, np.argmax(kept.any(axis=0)):]).ravel()))
        a_c, b_c = np.polyval(a, c), np.polyval(b, c)
    v = np.max(np.abs(b_c) / (2 - np.sign(b_c) * a_c))
    if not np.isfinite(v):
        raise ValueError("no threshold exists at this angle")
    return float(max(0.0, 0.5 * (v - 1.0)))
