"""Thermal atom motion and the decoherence it causes in the detected cone.

The interference contrast of the two scattering branches is set by the
motional phase q . dr picked up between the excitation field (along x) and
the registered photon (cone about z, half-angle theta0).  Averaging the
phase factor over the thermal Gaussian position spread and over the dipole
emission pattern inside the cone gives the decoherence parameter

    D(T) = 1 - < exp(-<(q . dr)^2>_T) >_directions,

which this module evaluates both by quadrature and through the exponential
approximation D = 1 - exp(-T / T_cr).

Positions enter only through the dimensionless combination k * dr, so all
displacement variances are expressed in squared-wavenumber units
(<(k dr)^2>): the recoil frequency then fixes the scale and no optical
wavelength input is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import _check_finite_fields, _float_or_array

#: Planck and Boltzmann constants (J s, J/K); both are exact in the 2019 SI.
H = 6.62607015e-34
K_B = 1.380649e-23

THETA0_MIN = 0.05
THETA0_MAX = np.pi / 2


@dataclass(frozen=True)
class TrapParams:
    """Harmonic trap frequencies (Hz), recoil frequency (Hz), temperature (K).

    x and y share nu_perp, z uses nu_par; the excitation field propagates
    along x and the collection cone is centred on z.  An array temperature
    broadcasts through `axis_variance`, `mean_square_phase` and `d_exact`.
    """

    nu_perp: float
    nu_par: float
    nu_recoil: float
    temperature: float | np.ndarray

    def __post_init__(self):
        if np.ndim(self.temperature):  # a list computes as the equal array
            object.__setattr__(self, "temperature", np.asarray(self.temperature, dtype=float))
        if not (self.nu_perp > 0 and self.nu_par > 0 and self.nu_recoil > 0):
            raise ValueError("trap frequencies must be positive")
        if not np.all(np.asarray(self.temperature) >= 0):
            raise ValueError("temperature must be >= 0")
        _check_finite_fields(self)

    def with_temperature(self, temperature: float | np.ndarray) -> "TrapParams":
        return replace(self, temperature=temperature)


@dataclass(frozen=True)
class OpticsParams:
    """Collection-cone half-angle (radians), or an array of them for the
    aperture functions (`aperture_coefficients`, `nu_eff`, `t_crit`), which
    broadcast over it.

    Angles below 0.05 rad are rejected: the angular normalization constant
    diverges as the cone closes and the closed forms lose accuracy there,
    while real collection optics sit near theta0 ~ pi/4.
    """

    theta0: float | np.ndarray

    def __post_init__(self):
        theta0 = np.asarray(self.theta0)
        inside = (THETA0_MIN <= theta0) & (theta0 <= THETA0_MAX)
        if not np.all(inside):
            raise ValueError(
                f"theta0 must lie in [{THETA0_MIN}, pi/2], got {theta0[~inside].flat[0]}")


#: Rubidium-87 microtrap ballpark used by every reproduction command.
DEFAULT_TRAP = TrapParams(nu_perp=200e3, nu_par=50e3, nu_recoil=3.6e3, temperature=0.0)
DEFAULT_OPTICS = OpticsParams(theta0=np.pi / 4)


class QuadratureError(RuntimeError):
    """Raised when adaptive cone quadrature fails to reach its tolerance."""

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def axis_variance(trap: TrapParams):
    """Thermal position variances along (x, y, z), in units of 1/k^2.

    The paper's equipartition law, k^2 <dr^2> = 2 nu_R k_B T / (h nu^2), the
    same law that defines T_cr; exactly zero at T = 0; arrays for an array temperature.
    """
    scale = 2.0 * trap.nu_recoil * K_B * trap.temperature
    transverse = scale / (H * trap.nu_perp**2)
    return transverse, transverse, scale / (H * trap.nu_par**2)


def mean_square_phase(theta, phi, trap: TrapParams):
    """Thermal variance of the motional phase q . dr for one atom.

    q = k_laser - k_photon with the laser along x and the photon at
    (theta, phi) measured from the cone axis z; each axis's variance is
    weighted by that component of q/k squared.  Vanishes identically in the
    forward-scattering direction (theta = pi/2, phi = 0) where the photon
    recoil cancels the laser kick.  An array trap.temperature broadcasts
    against the angles.
    """
    st, ct = np.sin(theta), np.cos(theta)
    var_x, var_y, var_z = axis_variance(trap)
    return (1.0 - st * np.cos(phi)) ** 2 * var_x + (st * np.sin(phi)) ** 2 * var_y + ct**2 * var_z


def angular_norm_const(theta0: float) -> float:
    """Normalization constant of the collected dipole pattern on the cone."""
    c = np.cos(theta0)
    inv = (4.0 * np.pi / 3.0) * (1.0 - 0.25 * (3.0 * c + c**3))
    return 1.0 / inv


def angular_pdf(theta, phi, optics: OpticsParams):
    """Probability density (per steradian) of a registered photon's direction.

    The x-oriented dipole pattern 1 - sin^2(theta) cos^2(phi) restricted to
    the collection cone and normalized over it.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(theta < 0) or np.any(theta > optics.theta0):
        raise ValueError("theta outside the collection cone")
    c0 = angular_norm_const(optics.theta0)
    return _float_or_array(c0 * (1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2))


#: Convergence tolerance of cap_quadrature and its first and last Gauss-Legendre orders.
_QUADRATURE_TOL, _START_ORDER, _MAX_ORDER = 1e-10, 16, 512


def cap_quadrature(func, theta0: float):
    """Integrate func(theta, phi) * sin(theta) over the spherical cap.

    Tensor-product Gauss-Legendre with the order doubled from _START_ORDER
    until two successive estimates differ by less than _QUADRATURE_TOL.  func
    may return a stack of values, shape (..., n_theta, n_phi), for one integral
    per leading index: each keeps the estimate of the first order at which it
    converges, so it reads as if integrated alone, and every one must converge.
    Returns (value, error estimate): a float, or an array of integrals beside
    the largest error.  Raises QuadratureError, naming the worst element of a
    stack, when _MAX_ORDER is reached without convergence.
    """
    previous, order = None, _START_ORDER
    while order <= _MAX_ORDER:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        theta = 0.5 * theta0 * (nodes + 1.0)
        wt = 0.5 * theta0 * weights * np.sin(theta)
        phi = np.pi * (nodes + 1.0)
        wp = np.pi * weights
        th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
        value = np.einsum("i,j,...ij->...", wt, wp, np.asarray(func(th_grid, ph_grid), dtype=float))
        if previous is None:
            result, error, pending = value, np.full(value.shape, np.inf), np.ones(value.shape, bool)
        else:
            gap = np.abs(value - previous)
            done = pending & (gap < _QUADRATURE_TOL)
            result, error = np.where(done, value, result), np.where(done, gap, error)
            pending = pending & ~done
            if not pending.any():
                return _float_or_array(result), float(error.max())
        previous = value
        order *= 2
    gap = np.where(pending, gap, -1.0)
    where = f" (worst element {int(np.argmax(gap))})" if gap.ndim else ""
    raise QuadratureError(
        f"cone quadrature did not converge below {_QUADRATURE_TOL} by order {_MAX_ORDER}{where}",
        estimate=previous if previous.ndim else float(previous), error=float(gap.max()))


def aperture_coefficients(optics: OpticsParams):
    """Aperture factors (A_perp, A_par) weighting the two trap frequencies.

    A_perp = 1 + <sin^2 theta> and A_par = <cos^2 theta> over the collected
    pattern; both evaluated in closed form, as floats, or as arrays for an
    array of theta0.
    """
    # a scalar takes the array path too, so a table row equals the scalar call
    # bit for bit (numpy's array powers may round apart from its scalar ones)
    shape, theta0 = np.shape(optics.theta0), np.reshape(optics.theta0, -1)
    c = np.cos(theta0)
    c0 = angular_norm_const(theta0)
    a_perp = 1.0 + (4.0 * np.pi * c0 / 5.0) * (1.0 - (5.0 * c - c**5) / 4.0)
    a_par = (8.0 * np.pi * c0 / 15.0) * (1.0 - (5.0 * c**3 + 3.0 * c**5) / 8.0)
    return _float_or_array(a_perp.reshape(shape)), _float_or_array(a_par.reshape(shape))


def nu_eff(trap: TrapParams, optics: OpticsParams):
    """Effective trap frequency combining both axes with the aperture factors;
    an array for an array of theta0."""
    return _nu_eff(trap, *aperture_coefficients(optics))


def _nu_eff(trap: TrapParams, a_perp, a_par):
    """nu_eff from the aperture factors."""
    inv_sq = a_perp / trap.nu_perp**2 + a_par / trap.nu_par**2
    return _float_or_array(1.0 / np.sqrt(inv_sq))


def t_crit(trap: TrapParams, optics: OpticsParams):
    """Temperature scale (K) at which motional dephasing saturates.

    k_B T_cr = h nu_eff^2 / (2 nu_R); above it the interference cross terms
    are essentially gone.  An array for an array of theta0.
    """
    return _t_crit(trap, nu_eff(trap, optics))


def _t_crit(trap: TrapParams, nu):
    """T_cr from the effective trap frequency nu."""
    return _float_or_array(H * np.square(nu) / (2.0 * trap.nu_recoil * K_B))


def d_approx(ratio):
    """Exponential estimate 1 - exp(-T/T_cr) of the decoherence parameter from a
    ratio T/T_cr or an array of them; -expm1 keeps its digits far below T_cr."""
    return -np.expm1(-ratio)


def d_exact(trap: TrapParams, optics: OpticsParams):
    """Decoherence parameter by direct quadrature of the dephasing factor.

    Integrates 1 - exp(-<(q.dr)^2>_T), as -expm1 so D keeps its digits far
    below T_cr, against the collected dipole pattern; the exponential estimate
    replaces the average of the exponential with the exponential of the
    average, so this value is never larger (Jensen).

    Returns D at trap.temperature as a float, or, for an array
    trap.temperature, an array of D for the same trap and aperture from one
    angular grid per quadrature order.
    """
    # one temperature axis ahead of the (theta, phi) grid
    per_grid = trap.with_temperature(np.asarray(trap.temperature, dtype=float)[..., None, None])

    def integrand(theta, phi):
        return angular_pdf(theta, phi, optics) * -np.expm1(-mean_square_phase(theta, phi, per_grid))

    decoherence, _ = cap_quadrature(integrand, optics.theta0)
    return decoherence
