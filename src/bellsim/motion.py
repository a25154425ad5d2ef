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

#: Planck and Boltzmann constants (J s, J/K); both are exact in the 2019 SI.
H = 6.62607015e-34
K_B = 1.380649e-23

THETA0_MIN = 0.05
THETA0_MAX = np.pi / 2


@dataclass(frozen=True)
class TrapParams:
    """Harmonic trap frequencies (Hz), recoil frequency (Hz), temperature (K).

    x and y share nu_perp, z uses nu_par; the excitation field propagates
    along x and the collection cone is centred on z.
    """

    nu_perp: float
    nu_par: float
    nu_recoil: float
    temperature: float

    def __post_init__(self):
        if not (self.nu_perp > 0 and self.nu_par > 0 and self.nu_recoil > 0):
            raise ValueError("trap frequencies must be positive")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        for name in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def with_temperature(self, temperature: float) -> "TrapParams":
        return replace(self, temperature=temperature)


@dataclass(frozen=True)
class OpticsParams:
    """Collection-cone half-angle (radians).

    Angles below 0.05 rad are rejected: the angular normalization constant
    diverges as the cone closes and the closed forms lose accuracy there,
    while real collection optics sit near theta0 ~ pi/4.
    """

    theta0: float

    def __post_init__(self):
        if not (THETA0_MIN <= self.theta0 <= THETA0_MAX):
            raise ValueError(
                f"theta0 must lie in [{THETA0_MIN}, pi/2], got {self.theta0}")


#: Rubidium-87 microtrap ballpark used by every reproduction command.
DEFAULT_TRAP = TrapParams(nu_perp=200e3, nu_par=50e3, nu_recoil=3.6e3, temperature=0.0)
DEFAULT_OPTICS = OpticsParams(theta0=np.pi / 4)


class QuadratureError(RuntimeError):
    """Raised when adaptive cone quadrature fails to reach its tolerance."""

    def __init__(self, message, estimate, error):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _axis_frequency(trap: TrapParams, axis: str) -> float:
    try:
        return {"x": trap.nu_perp, "y": trap.nu_perp, "z": trap.nu_par}[axis]
    except KeyError:
        raise ValueError(f"axis must be x, y or z, got {axis!r}") from None


def axis_variance(trap: TrapParams, axis: str) -> float:
    """Thermal position variance along one axis, in units of 1/k^2.

    The paper's equipartition law, k^2 <dr^2> = 2 nu_R k_B T / (h nu^2), the
    same law that defines T_cr; exactly zero at T = 0.
    """
    nu = _axis_frequency(trap, axis)
    return 2.0 * trap.nu_recoil * K_B * trap.temperature / (H * nu**2)


def direction_weights(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis weights of the momentum-kick direction (q/k) squared.

    q = k_laser - k_photon with the laser along x and the photon at
    (theta, phi) measured from the cone axis z.
    """
    st, ct = np.sin(theta), np.cos(theta)
    return ((1.0 - st * np.cos(phi)) ** 2, (st * np.sin(phi)) ** 2, ct**2)


def mean_square_phase(theta, phi, trap: TrapParams):
    """Thermal variance of the motional phase q . dr for one atom.

    Vanishes identically in the forward-scattering direction
    (theta = pi/2, phi = 0) where the photon recoil cancels the laser kick.
    """
    wx, wy, wz = direction_weights(theta, phi)
    return (
        wx * axis_variance(trap, "x")
        + wy * axis_variance(trap, "y")
        + wz * axis_variance(trap, "z")
    )


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
    out = c0 * (1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2)
    return out if out.shape else float(out)


def cap_quadrature(func, theta0: float, tol: float = 1e-9,
                   start_order: int = 16, max_order: int = 512) -> tuple[float, float]:
    """Integrate func(theta, phi) * sin(theta) over the spherical cap.

    Tensor-product Gauss-Legendre with the order doubled until two successive
    estimates differ by less than tol.  Returns (value, error estimate);
    raises QuadratureError when max_order is reached without convergence.
    """
    previous, err = None, float("inf")
    order = start_order
    while order <= max_order:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        theta = 0.5 * theta0 * (nodes + 1.0)
        wt = 0.5 * theta0 * weights * np.sin(theta)
        phi = np.pi * (nodes + 1.0)
        wp = np.pi * weights
        th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
        value = float(np.einsum("i,j,ij->", wt, wp, np.asarray(func(th_grid, ph_grid), dtype=float)))
        if previous is not None:
            err = abs(value - previous)
            if err < tol:
                return value, err
        previous = value
        order *= 2
    raise QuadratureError(
        f"cone quadrature did not converge below {tol} by order {max_order}",
        estimate=previous, error=err)


def aperture_coefficients(optics: OpticsParams) -> tuple[float, float]:
    """Aperture factors (A_perp, A_par) weighting the two trap frequencies.

    A_perp = 1 + <sin^2 theta> and A_par = <cos^2 theta> over the collected
    pattern; both evaluated in closed form.
    """
    c = np.cos(optics.theta0)
    c0 = angular_norm_const(optics.theta0)
    a_perp = 1.0 + (4.0 * np.pi * c0 / 5.0) * (1.0 - (5.0 * c - c**5) / 4.0)
    a_par = (8.0 * np.pi * c0 / 15.0) * (1.0 - (5.0 * c**3 + 3.0 * c**5) / 8.0)
    return float(a_perp), float(a_par)


def nu_eff(trap: TrapParams, optics: OpticsParams) -> float:
    """Effective trap frequency combining both axes with the aperture factors."""
    a_perp, a_par = aperture_coefficients(optics)
    inv_sq = a_perp / trap.nu_perp**2 + a_par / trap.nu_par**2
    return float(1.0 / np.sqrt(inv_sq))


def t_crit(trap: TrapParams, optics: OpticsParams) -> float:
    """Temperature scale (K) at which motional dephasing saturates.

    k_B T_cr = h nu_eff^2 / (2 nu_R); above it the interference cross terms
    are essentially gone.
    """
    return float(H * nu_eff(trap, optics) ** 2 /
                 (2.0 * trap.nu_recoil * K_B))


def d_approx(trap: TrapParams, optics: OpticsParams) -> float:
    """Exponential estimate of the decoherence parameter, 1 - exp(-T/T_cr)."""
    return float(1.0 - np.exp(-trap.temperature / t_crit(trap, optics)))


def d_exact(trap: TrapParams, optics: OpticsParams) -> float:
    """Decoherence parameter by direct quadrature of the dephasing factor.

    Integrates exp(-<(q.dr)^2>_T) against the collected dipole pattern; the
    exponential estimate replaces the average of the exponential with the
    exponential of the average, so this value is never larger (Jensen).
    """
    c0 = angular_norm_const(optics.theta0)

    def integrand(theta, phi):
        pattern = c0 * (1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2)
        return pattern * np.exp(-mean_square_phase(theta, phi, trap))

    coherence, _ = cap_quadrature(integrand, optics.theta0, tol=1e-10)
    return float(1.0 - coherence)


__all__ = [
    "DEFAULT_OPTICS",
    "DEFAULT_TRAP",
    "OpticsParams",
    "QuadratureError",
    "TrapParams",
    "angular_norm_const",
    "angular_pdf",
    "aperture_coefficients",
    "axis_variance",
    "cap_quadrature",
    "d_approx",
    "d_exact",
    "direction_weights",
    "mean_square_phase",
    "nu_eff",
    "t_crit",
]
