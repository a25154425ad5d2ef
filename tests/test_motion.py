from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


@pytest.mark.parametrize("frequency", ["nu_perp", "nu_par", "nu_recoil"])
def test_trap_params_validation(frequency):
    with pytest.raises(ValueError):
        replace(DEFAULT_TRAP, **{frequency: 0.0})
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
    assert motion.axis_variance(trap) == (0.0, 0.0, 0.0)


def test_axis_variance_transverse_axes_match():
    trap = DEFAULT_TRAP.with_temperature(1e-5)
    var_x, var_y, _ = motion.axis_variance(trap)
    assert var_x == var_y


def test_axis_variance_equipartition_law():
    trap = DEFAULT_TRAP.with_temperature(1e-5)
    variances = motion.axis_variance(trap)
    for var, nu in zip(variances, (trap.nu_perp, trap.nu_perp, trap.nu_par)):
        expected = 2.0 * trap.nu_recoil * const.k * trap.temperature / (const.h * nu**2)
        assert var == pytest.approx(expected, rel=1e-12)
    hotter = DEFAULT_TRAP.with_temperature(2e-5)
    assert motion.axis_variance(hotter)[2] == pytest.approx(2.0 * variances[2], rel=1e-12)
    # an array of temperatures gives each axis's variances elementwise, bit for
    # bit the scalar calls: d_exact evaluates all its temperatures on one grid
    temperatures = np.array([0.0, 1e-12, 1e-7, 1e-5, 2e-5, 3.7e-4])
    per_axis = motion.axis_variance(trap.with_temperature(temperatures))
    assert [v.shape for v in per_axis] == [temperatures.shape] * 3
    for i, t in enumerate(temperatures):
        scalar = motion.axis_variance(trap.with_temperature(float(t)))
        assert [v[i] for v in per_axis] == list(scalar)


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
    # an array of temperatures broadcasts against the angles, each slice bit
    # for bit the scalar call
    temps = np.array([1e-9, 3e-5, 4e-4])
    grid = motion.mean_square_phase(th, ph, trap.with_temperature(temps[:, None]))
    assert grid.shape == (3, 200) and np.all(grid > 0.0)
    for row, t in zip(grid, temps):
        assert np.array_equal(row, motion.mean_square_phase(th, ph, trap.with_temperature(t)))


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


@pytest.mark.parametrize("trap", [DEFAULT_TRAP, TrapParams(120e3, 30e3, 2.5e3, 0.0)])
def test_aperture_functions_broadcast_over_theta0(trap):
    # each entry of an array call equals the scalar call bit for bit, and a
    # scalar theta0 still gives a float
    grid = np.linspace(0.05, np.pi / 2, 202).reshape(2, 101)

    def values(optics):
        return (*motion.aperture_coefficients(optics), motion.nu_eff(trap, optics),
                motion.t_crit(trap, optics))

    table = values(OpticsParams(grid))
    scalars = [values(OpticsParams(float(t))) for t in grid.ravel()]
    assert all(type(v) is float for row in scalars for v in row)
    for column, expected in zip(table, zip(*scalars)):
        assert column.shape == grid.shape
        assert column.ravel().tolist() == list(expected)


def test_optics_refuses_an_array_with_one_angle_out_of_range():
    with pytest.raises(ValueError, match="got 0.01"):
        OpticsParams(np.array([0.3, 0.01, np.pi / 4]))
    with pytest.raises(ValueError):
        OpticsParams(np.array([0.3, np.nan]))


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
    assert motion.d_approx(0.0) == 0.0
    assert motion.d_approx(TCR_DEFAULT / TCR_DEFAULT) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)
    temps = np.linspace(0, 5 * TCR_DEFAULT, 30)
    values = [motion.d_approx(t / TCR_DEFAULT) for t in temps]
    assert np.all(np.diff(values) > 0)
    assert values[-1] < 1.0


def test_d_approx_array_equals_scalar_calls_bit_for_bit():
    ratios = np.concatenate(([0.0, 1e-300, 1e-12, 0.5, 1.0], np.linspace(0.0, 5.0, 41)))
    got = motion.d_approx(ratios)
    assert got.shape == ratios.shape
    assert got.tobytes() == np.array([motion.d_approx(float(r)) for r in ratios]).tobytes()


@pytest.mark.parametrize("ratio", [1e-12, 1e-300])
def test_d_approx_keeps_its_digits_far_below_tcr(ratio):
    # D = r - r^2/2 + O(r^3): d / r - 1 is -r/2, not 0, so compare with the
    # series; 1 - exp(-r) would be 0 at 1e-300 and off by 2e-5 at 1e-12
    assert abs(motion.d_approx(ratio) / (ratio - ratio * ratio / 2) - 1.0) <= 1e-15


def test_d_exact_zero_at_t0():
    assert abs(motion.d_exact(DEFAULT_TRAP.with_temperature(0.0), DEFAULT_OPTICS)) <= 1e-12


@pytest.mark.parametrize("theta0", [motion.THETA0_MIN, 0.3, np.pi / 4, 1.2, motion.THETA0_MAX])
def test_d_exact_exactly_zero_at_t0(theta0):
    assert motion.d_exact(DEFAULT_TRAP.with_temperature(0.0), OpticsParams(theta0)) == 0.0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(log_ratio=st.floats(-12.0, 1.0),
       theta0=st.floats(motion.THETA0_MIN, motion.THETA0_MAX),
       nu_par=st.sampled_from([5e3, 50e3, 500e3]))
def test_d_exact_below_exponential_down_to_tiny_temperatures(log_ratio, theta0, nu_par):
    # Jensen, with both routes keeping their digits far below T_cr
    optics = OpticsParams(theta0)
    trap = replace(DEFAULT_TRAP, nu_par=nu_par)
    trap = trap.with_temperature(10.0**log_ratio * motion.t_crit(trap, optics))
    exact = motion.d_exact(trap, optics)
    approx = motion.d_approx(trap.temperature / motion.t_crit(trap, optics))
    assert 0.0 <= exact <= approx * (1.0 + 1e-12)


def test_d_exact_close_to_exponential_below_tcr():
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        trap = DEFAULT_TRAP.with_temperature(frac * TCR_DEFAULT)
        gap = motion.d_exact(trap, DEFAULT_OPTICS) - motion.d_approx(frac)
        assert abs(gap) <= 0.05


def test_d_exact_never_exceeds_exponential():
    # averaging the exponential beats exponentiating the average (Jensen)
    for frac in (0.2, 0.5, 1.0, 2.0, 5.0):
        trap = DEFAULT_TRAP.with_temperature(frac * TCR_DEFAULT)
        assert (motion.d_exact(trap, DEFAULT_OPTICS)
                <= motion.d_approx(frac) + 1e-12)


def test_d_exact_monotone_and_bounded():
    values = [motion.d_exact(DEFAULT_TRAP.with_temperature(f * TCR_DEFAULT), DEFAULT_OPTICS)
              for f in (0.0, 0.3, 0.8, 1.5, 3.0)]
    assert np.all(np.diff(values) > 0)
    assert values[-1] < 1.0


def test_cap_quadrature_reports_nonconvergence():
    rough = lambda th, ph: np.abs(np.sin(200.0 * th * np.cos(3 * ph)))
    with pytest.raises(QuadratureError, match="below 1e-10 by order 512$") as err:
        motion.cap_quadrature(rough, np.pi / 2)
    assert type(err.value.estimate) is float
    assert err.value.error > 1e-10


def test_planck_and_boltzmann_constants_are_the_si_values():
    assert motion.H == const.h
    assert motion.K_B == const.k


def _ulps(a, b):
    return np.abs(np.asarray(a) - b) / np.spacing(np.abs(b))


@pytest.mark.parametrize("nu_par, theta0, scale", [
    (50e3, np.pi / 4, 1.0), (5e3, 0.3, 3.0), (500e3, 1.5, 1e-6), (50e3, motion.THETA0_MIN, 0.2),
])
def test_d_exact_over_temperatures_matches_the_scalar_calls(nu_par, theta0, scale):
    optics = OpticsParams(theta0)
    trap = replace(DEFAULT_TRAP, nu_par=nu_par)
    temps = scale * motion.t_crit(trap, optics) * np.array([0.1, 0.2, 0.25, 0.5, 0.75, 1.0])
    values = motion.d_exact(trap.with_temperature(temps), optics)
    scalars = [motion.d_exact(trap.with_temperature(t), optics) for t in temps]
    assert values.shape == (6,)
    assert np.all(_ulps(values, scalars) <= 4)
    assert all(type(v) is float for v in scalars)


def test_d_exact_over_temperatures_keeps_zero_and_rejects_bad_ones():
    temps = np.array([0.0, TCR_DEFAULT, 0.0])
    values = motion.d_exact(DEFAULT_TRAP.with_temperature(temps), DEFAULT_OPTICS)
    assert values[0] == values[2] == 0.0
    assert values[1] == motion.d_exact(DEFAULT_TRAP.with_temperature(TCR_DEFAULT), DEFAULT_OPTICS)
    for bad in ([TCR_DEFAULT, -1e-9], [np.nan], [np.inf]):
        with pytest.raises(ValueError):
            motion.d_exact(DEFAULT_TRAP.with_temperature(np.array(bad)), DEFAULT_OPTICS)


def test_a_list_temperature_computes_as_the_equal_array():
    listed = DEFAULT_TRAP.with_temperature([0.0, 1e-5, TCR_DEFAULT])
    array = DEFAULT_TRAP.with_temperature(np.array([0.0, 1e-5, TCR_DEFAULT]))
    for got, want in zip(motion.axis_variance(listed), motion.axis_variance(array)):
        assert np.array_equal(got, want)
    assert np.array_equal(motion.mean_square_phase(0.3, 0.2, listed),
                          motion.mean_square_phase(0.3, 0.2, array))
    assert np.array_equal(motion.d_exact(listed, DEFAULT_OPTICS),
                          motion.d_exact(array, DEFAULT_OPTICS))


def test_cap_quadrature_stack_keeps_each_integral_at_its_own_order():
    # the smooth integrand converges at the first comparison, the sharp one
    # later; each element reads as if integrated alone
    smooth = lambda th, ph: np.cos(th) ** 2
    sharp = lambda th, ph: np.exp(-30.0 * np.sin(th) ** 2 * np.cos(ph) ** 2)
    both = lambda th, ph: np.stack([smooth(th, ph), sharp(th, ph)])
    values, err = motion.cap_quadrature(both, np.pi / 2)
    alone = [motion.cap_quadrature(f, np.pi / 2) for f in (smooth, sharp)]
    assert np.all(_ulps(values, [v for v, _ in alone]) <= 4)
    assert err == max(e for _, e in alone)


def test_cap_quadrature_stack_names_the_worst_element():
    rough = lambda th, ph: np.abs(np.sin(200.0 * th * np.cos(3 * ph)))
    both = lambda th, ph: np.stack([np.ones_like(th), rough(th, ph)])
    with pytest.raises(QuadratureError, match="worst element 1") as err:
        motion.cap_quadrature(both, np.pi / 2)
    assert err.value.estimate.shape == (2,)
    assert err.value.error > 1e-10
