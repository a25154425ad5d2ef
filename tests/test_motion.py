import numpy as np
import pytest
from scipy import constants as const

from bellsim import motion
from bellsim.motion import (
    DEFAULT_OPTICS,
    DEFAULT_TRAP,
    OpticsParams,
    QuadratureError,
    TrapParams,
)

TCR_DEFAULT = motion.t_crit(DEFAULT_TRAP, DEFAULT_OPTICS)


def cap_integral(func, theta0, order=160):
    """Independent tensor Gauss-Legendre integral over the cap (test oracle)."""
    tn, tw = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * theta0 * (tn + 1.0)
    wt = 0.5 * theta0 * tw * np.sin(theta)
    pn, pw = np.polynomial.legendre.leggauss(order)
    phi = np.pi * (pn + 1.0)
    wp = np.pi * pw
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    return float(np.einsum("i,j,ij->", wt, wp, func(th, ph)))


def test_trap_params_validation():
    with pytest.raises(ValueError):
        TrapParams(0.0, 50e3, 3.6e3, 1e-6)
    with pytest.raises(ValueError):
        TrapParams(200e3, 50e3, 3.6e3, -1e-9)
    trap = DEFAULT_TRAP.with_temperature(2e-5)
    assert trap.temperature == 2e-5
    assert trap.nu_perp == DEFAULT_TRAP.nu_perp


def test_optics_params_domain():
    with pytest.raises(ValueError):
        OpticsParams(0.01)
    with pytest.raises(ValueError):
        OpticsParams(2.0)
    OpticsParams(0.05)
    OpticsParams(np.pi / 2)


def test_axis_variance_classical_zero_at_t0():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    for axis in "xyz":
        assert motion.axis_variance(trap, axis) == 0.0


def test_axis_variance_transverse_axes_match():
    trap = DEFAULT_TRAP.with_temperature(1e-5)
    assert motion.axis_variance(trap, "x") == motion.axis_variance(trap, "y")


def test_axis_variance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        motion.axis_variance(DEFAULT_TRAP, "w")


def test_axis_variance_equipartition_law():
    trap = DEFAULT_TRAP.with_temperature(1e-5)
    for axis, nu in (("x", trap.nu_perp), ("z", trap.nu_par)):
        expected = 2.0 * trap.nu_recoil * const.k * trap.temperature / (const.h * nu**2)
        assert motion.axis_variance(trap, axis) == pytest.approx(expected, rel=1e-12)
    hotter = DEFAULT_TRAP.with_temperature(2e-5)
    assert motion.axis_variance(hotter, "z") == pytest.approx(
        2.0 * motion.axis_variance(trap, "z"), rel=1e-12)


@pytest.mark.parametrize("theta0", [np.pi / 8, np.pi / 4, np.pi / 2])
def test_pattern_mean_phase_variance_is_t_over_t_crit(theta0):
    # the pattern average of <(q.dr)^2> is the exponent of d_approx, T / T_cr
    optics = OpticsParams(theta0)
    trap = DEFAULT_TRAP.with_temperature(0.3 * motion.t_crit(DEFAULT_TRAP, optics))
    mean = cap_integral(lambda th, ph: motion.angular_pdf(th, ph, optics)
                        * motion.mean_square_phase(th, ph, trap), theta0)
    assert mean == pytest.approx(0.3, rel=1e-9)


def test_angular_pdf_on_axis():
    c0 = motion.angular_norm_const(DEFAULT_OPTICS.theta0)
    assert motion.angular_pdf(0.0, 1.2, DEFAULT_OPTICS) == pytest.approx(c0)


@pytest.mark.parametrize("theta0", [np.pi / 8, np.pi / 4, np.pi / 2])
def test_angular_pdf_normalized(theta0):
    optics = OpticsParams(theta0)
    total = cap_integral(lambda th, ph: motion.angular_pdf(th, ph, optics), theta0)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_angular_norm_const_open_hemisphere():
    assert 1.0 / motion.angular_norm_const(np.pi / 2) == pytest.approx(4 * np.pi / 3)


def test_angular_pdf_rejects_outside_cone():
    with pytest.raises(ValueError):
        motion.angular_pdf(DEFAULT_OPTICS.theta0 + 0.01, 0.0, DEFAULT_OPTICS)


def test_mean_square_phase_zero_at_t0():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    th = np.linspace(0, np.pi / 2, 7)
    ph = np.linspace(0, 2 * np.pi, 7)
    assert np.all(motion.mean_square_phase(th, ph, trap) == 0.0)


def test_mean_square_phase_forward_scattering_null():
    # photon along the excitation field: recoil cancels at any temperature
    trap = DEFAULT_TRAP.with_temperature(1e-4)
    assert motion.mean_square_phase(np.pi / 2, 0.0, trap) == pytest.approx(0.0, abs=1e-30)


def test_mean_square_phase_on_axis_bracket():
    trap = DEFAULT_TRAP.with_temperature(1e-5)
    scale = 2.0 * trap.nu_recoil * const.k * trap.temperature / const.h
    expected = scale * (1.0 / trap.nu_perp**2 + 1.0 / trap.nu_par**2)
    assert motion.mean_square_phase(0.0, 0.0, trap) == pytest.approx(expected)


def test_mean_square_phase_nonnegative():
    # strictly positive at T > 0 everywhere except the phase-matched direction
    trap = DEFAULT_TRAP.with_temperature(3e-5)
    rng = np.random.default_rng(41)
    th = rng.uniform(0, np.pi / 2, 200)
    ph = rng.uniform(0, 2 * np.pi, 200)
    assert np.all(motion.mean_square_phase(th, ph, trap) > 0.0)
    assert motion.mean_square_phase(np.pi / 2, np.pi, trap) > 0.0


def test_aperture_coefficients_quarter_pi_anchor():
    a_perp, a_par = motion.aperture_coefficients(DEFAULT_OPTICS)
    assert a_perp == pytest.approx(1.25, abs=0.02)
    assert a_par == pytest.approx(0.75, abs=0.02)


def test_aperture_coefficients_open_hemisphere():
    a_perp, a_par = motion.aperture_coefficients(OpticsParams(np.pi / 2))
    assert a_perp == pytest.approx(1.6, abs=1e-9)
    assert a_par == pytest.approx(0.4, abs=1e-9)


@pytest.mark.parametrize("theta0", [0.05, 0.3, np.pi / 4, 1.2, np.pi / 2])
def test_aperture_coefficients_match_quadrature(theta0):
    optics = OpticsParams(theta0)

    def averaged(weight):
        return cap_integral(
            lambda th, ph: weight(th) * motion.angular_pdf(th, ph, optics), theta0)

    a_perp, a_par = motion.aperture_coefficients(optics)
    assert a_perp == pytest.approx(1.0 + averaged(lambda th: np.sin(th) ** 2), abs=1e-10)
    assert a_par == pytest.approx(averaged(lambda th: np.cos(th) ** 2), abs=1e-10)


def test_aperture_coefficients_positive_finite_scan():
    for theta0 in np.linspace(0.05, np.pi / 2, 80):
        a_perp, a_par = motion.aperture_coefficients(OpticsParams(theta0))
        assert 0 < a_perp < 2 and np.isfinite(a_perp)
        assert 0 < a_par <= 1 and np.isfinite(a_par)


def test_t_crit_rb87_anchor():
    assert motion.nu_eff(DEFAULT_TRAP, DEFAULT_OPTICS) == pytest.approx(55e3, abs=1e3)
    assert 19e-6 <= TCR_DEFAULT <= 21e-6


def test_t_crit_quadruples_with_doubled_frequencies():
    doubled = TrapParams(2 * DEFAULT_TRAP.nu_perp, 2 * DEFAULT_TRAP.nu_par,
                         DEFAULT_TRAP.nu_recoil, 0.0)
    assert motion.t_crit(doubled, DEFAULT_OPTICS) == pytest.approx(4 * TCR_DEFAULT)


def test_t_crit_scale_invariance():
    for c in (0.5, 2.0, 3.7):
        scaled = TrapParams(c * DEFAULT_TRAP.nu_perp, c * DEFAULT_TRAP.nu_par,
                            c**2 * DEFAULT_TRAP.nu_recoil, 0.0)
        assert motion.t_crit(scaled, DEFAULT_OPTICS) == pytest.approx(TCR_DEFAULT)


def test_t_crit_curve_shape():
    # for the default trap the curve grows with the aperture, pinned at pi/4
    grid = np.linspace(0.05, np.pi / 2, 40)
    values = [motion.t_crit(DEFAULT_TRAP, OpticsParams(t)) for t in grid]
    assert np.all(np.diff(values) > 0)
    assert values[0] < 19e-6 < 21e-6 < values[-1]


def test_d_approx_values():
    assert motion.d_approx(DEFAULT_TRAP.with_temperature(0.0), DEFAULT_OPTICS) == 0.0
    at_tcr = motion.d_approx(DEFAULT_TRAP.with_temperature(TCR_DEFAULT), DEFAULT_OPTICS)
    assert at_tcr == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)
    temps = np.linspace(0, 5 * TCR_DEFAULT, 30)
    values = [motion.d_approx(DEFAULT_TRAP.with_temperature(t), DEFAULT_OPTICS)
              for t in temps]
    assert np.all(np.diff(values) > 0)
    assert values[-1] < 1.0


def test_d_exact_zero_at_t0():
    assert abs(motion.d_exact(DEFAULT_TRAP.with_temperature(0.0), DEFAULT_OPTICS)) <= 1e-12


def test_d_exact_close_to_exponential_below_tcr():
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        trap = DEFAULT_TRAP.with_temperature(frac * TCR_DEFAULT)
        gap = motion.d_exact(trap, DEFAULT_OPTICS) - motion.d_approx(trap, DEFAULT_OPTICS)
        assert abs(gap) <= 0.05


def test_d_exact_never_exceeds_exponential():
    # averaging the exponential beats exponentiating the average (Jensen)
    for frac in (0.2, 0.5, 1.0, 2.0, 5.0):
        trap = DEFAULT_TRAP.with_temperature(frac * TCR_DEFAULT)
        assert (motion.d_exact(trap, DEFAULT_OPTICS)
                <= motion.d_approx(trap, DEFAULT_OPTICS) + 1e-12)


def test_d_exact_monotone_and_bounded():
    values = [motion.d_exact(DEFAULT_TRAP.with_temperature(f * TCR_DEFAULT), DEFAULT_OPTICS)
              for f in (0.0, 0.3, 0.8, 1.5, 3.0)]
    assert np.all(np.diff(values) > 0)
    assert values[-1] < 1.0


def test_cap_quadrature_reports_nonconvergence():
    rough = lambda th, ph: np.abs(np.sin(200.0 * th * np.cos(3 * ph)))
    with pytest.raises(QuadratureError) as err:
        motion.cap_quadrature(rough, np.pi / 2, tol=1e-14, start_order=8, max_order=32)
    assert err.value.estimate is not None
    assert err.value.error > 1e-14


def test_cap_quadrature_single_order_has_no_error_estimate():
    # one order gives no pair of estimates to compare, so it cannot converge
    with pytest.raises(QuadratureError) as err:
        motion.cap_quadrature(lambda th, ph: np.ones_like(th), np.pi / 4,
                              start_order=16, max_order=16)
    assert err.value.estimate == pytest.approx(2 * np.pi * (1 - np.cos(np.pi / 4)))
    assert err.value.error == float("inf")


def test_planck_and_boltzmann_constants_are_the_si_values():
    assert motion.H == const.h
    assert motion.K_B == const.k
