import numpy as np
import pytest

from bellsim import gates, protocol
from bellsim.linalg import elementwise_sqmod


def block_form(fidelity):
    f = fidelity
    return 0.5 * np.array(
        [[1 + f, 1 - f, 0, 0],
         [1 - f, 1 + f, 0, 0],
         [0, 0, 1 - f, 1 + f],
         [0, 0, 1 + f, 1 - f]])


def test_bell_meas_matrix_perfect_case():
    np.testing.assert_allclose(protocol.bell_meas_matrix(0.0, 0.0), np.eye(4), atol=1e-15)


def test_bell_meas_matrix_full_dephasing():
    m = protocol.bell_meas_matrix(1.0, 0.0)
    np.testing.assert_allclose(np.diag(m), 0.5, atol=1e-15)
    np.testing.assert_allclose(np.diag(np.fliplr(m)), 0.5, atol=1e-15)


def test_bell_meas_matrix_symmetric_doubly_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = protocol.bell_meas_matrix(rng.uniform(0, 1), rng.uniform(0, 2))
        np.testing.assert_allclose(m, m.T, atol=1e-15)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(m >= 0)


def test_bell_meas_fidelity_anchors():
    assert protocol.bell_meas_fidelity(0.0, 0.0) == 1.0
    assert protocol.bell_meas_fidelity(1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert protocol.bell_meas_fidelity(0.0, 1.0) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_bell_meas_fidelity_is_matrix_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d, xi = rng.uniform(0, 1), rng.uniform(0, 2)
        m = protocol.bell_meas_matrix(d, xi)
        # one definition: equal bit for bit, not only to round-off
        assert protocol.bell_meas_fidelity(d, xi) == m[0, 0]
        assert np.all(np.diag(m) == m[0, 0])


def test_bell_meas_fidelity_scattering_dip():
    # at frozen motion the curve dips to 1/2 at xi = 1/2, then recovers:
    # double scattering in both stages can return the pair to its input
    xis = np.linspace(0.0, 1.0, 201)
    values = np.array([protocol.bell_meas_fidelity(0.0, x) for x in xis])
    assert values[np.argmin(values)] == pytest.approx(0.5, abs=1e-12)
    assert xis[np.argmin(values)] == pytest.approx(0.5, abs=1e-2)
    assert protocol.bell_meas_fidelity(0.0, 1.0) > values.min()
    assert np.any(np.diff(values) < 0) and np.any(np.diff(values) > 0)


def test_fidelity_orderings_at_xi0():
    for d in np.linspace(0, 1, 11):
        fb = protocol.bell_meas_fidelity(d, 0.0)
        f = protocol.cnot_fidelity(d, 0.0)
        assert fb == pytest.approx(1 - d + d * d / 2, abs=1e-14)
        assert f == pytest.approx(1 - d, abs=1e-14)
        assert fb >= f


def cnot_composite(p1, p2, xi):
    """Both branch matrices of the CNOT sequence at fixed motional phases.

    The first is h1 @ bell(p1, p2) @ h2 (single detected photon), the second
    replaces the Bell operator by the double-excitation branch.
    """
    left, right = gates.h1(), gates.h2()
    return (left @ gates.bell_matrix(p1, p2) @ right,
            left @ gates.b2_matrix(xi) @ right)


def test_cnot_composite_motionless_is_exact():
    for xi in (0.0, 0.05, 0.4):
        c1, _ = cnot_composite(0.0, 0.0, xi)
        np.testing.assert_allclose(c1, gates.cnot_target(), atol=1e-14)


def test_cnot_composite_double_branch_vanishes_at_xi0():
    _, c2 = cnot_composite(0.3, -0.8, 0.0)
    assert np.max(np.abs(c2)) == 0.0


def test_cnot_composite_norm_bookkeeping():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p1, p2 = rng.uniform(-np.pi, np.pi, 2)
        xi = rng.uniform(0, 1)
        c1, c2 = cnot_composite(p1, p2, xi)
        total = (elementwise_sqmod(c1) + elementwise_sqmod(c2)) / (1 + 2 * xi)
        np.testing.assert_allclose(total.sum(axis=1), 1.0, atol=1e-12)


def test_cnot_prob_matrix_perfect_case():
    np.testing.assert_allclose(
        protocol.cnot_prob_matrix(0.0, 0.0),
        elementwise_sqmod(gates.cnot_target()), atol=1e-14)


def test_cnot_prob_matrix_block_structure():
    rng = np.random.default_rng(11)
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, 2:] = True
    mask[2:, :2] = True
    for _ in range(100):
        m = protocol.cnot_prob_matrix(rng.uniform(0, 1), rng.uniform(0, 2))
        assert np.max(np.abs(m[mask])) <= 1e-12
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_cnot_prob_matrix_matches_block_form():
    # consistency of the composed-operator average with the rational fidelity
    rng = np.random.default_rng(13)
    for _ in range(100):
        d, xi = rng.uniform(0, 1), rng.uniform(0, 2)
        np.testing.assert_allclose(
            protocol.cnot_prob_matrix(d, xi),
            block_form(protocol.cnot_fidelity(d, xi)), atol=1e-12)


def test_cnot_prob_matrix_at_tcr():
    d = 1.0 - np.exp(-1.0)
    np.testing.assert_allclose(
        protocol.cnot_prob_matrix(d, 0.0), block_form(np.exp(-1.0)), atol=1e-12)


def test_cnot_fidelity_values_and_monotonicity():
    assert protocol.cnot_fidelity(0.0, 0.0) == 1.0
    assert protocol.cnot_fidelity(1.0 - np.exp(-0.5), 0.05) == pytest.approx(
        np.exp(-0.5) / 1.1, abs=1e-12)
    ds = np.linspace(0, 1, 20)
    assert np.all(np.diff([protocol.cnot_fidelity(d, 0.1) for d in ds]) < 0)
    xis = np.linspace(0, 2, 20)
    assert np.all(np.diff([protocol.cnot_fidelity(0.3, x) for x in xis]) < 0)


def test_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        protocol.bell_meas_matrix(-0.1, 0.0)
    with pytest.raises(ValueError):
        protocol.bell_meas_fidelity(0.5, -1.0)
    with pytest.raises(ValueError):
        protocol.cnot_fidelity(1.5, 0.0)


#: Exponential decoherence levels on the validate T grid, and a xi grid.
LEVELS = 1.0 - np.exp(-np.linspace(0.0, 2.0, 41))
XIS = np.linspace(0.0, 3.0, 31)


@pytest.mark.parametrize("fidelity", [protocol.bell_meas_fidelity, protocol.cnot_fidelity])
def test_fidelities_over_arrays_match_the_scalar_calls_bitwise(fidelity):
    batched = fidelity(LEVELS[:, None], XIS)
    assert batched.shape == (LEVELS.size, XIS.size)
    np.testing.assert_array_equal(
        batched, [[fidelity(float(d), float(xi)) for xi in XIS] for d in LEVELS])
    assert type(fidelity(0.3, 0.05)) is float


def test_two_stage_dephasing_over_an_array_matches_the_scalar_calls_bitwise():
    np.testing.assert_array_equal(protocol.two_stage_dephasing(LEVELS),
                                  [protocol.two_stage_dephasing(float(d)) for d in LEVELS])


@pytest.mark.parametrize("fidelity", [protocol.bell_meas_fidelity, protocol.cnot_fidelity])
@pytest.mark.parametrize("d, xi", [
    (np.array([0.0, 1.5]), 0.1), (np.array([0.2, float("nan")]), 0.1),
    (0.2, np.array([0.0, -1.0])), (0.2, np.array([0.0, float("nan")])),
], ids=["d>1", "d-nan", "xi<0", "xi-nan"])
def test_fidelities_reject_one_bad_element(fidelity, d, xi):
    with pytest.raises(ValueError):
        fidelity(d, xi)


def test_two_stage_dephasing_rejects_one_bad_element():
    with pytest.raises(ValueError):
        protocol.two_stage_dephasing(np.array([0.5, -0.1]))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _bell_meas_reference(d, xi):
    """The scalar Bell-measurement matrix as first written, with Python ** 2."""
    f1 = d - 0.5 * d * d
    diag, leak = 1.0 - f1 + 4.0 * xi**2, 2.0 * xi
    m = np.array([[diag, leak, leak, f1], [leak, diag, f1, leak],
                  [leak, f1, diag, leak], [f1, leak, leak, diag]])
    return m / (1.0 + 2.0 * xi) ** 2


def test_probability_matrices_over_arrays_equal_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(22)
    d, xi = rng.uniform(0, 1, (2, 2000))
    bell = protocol.bell_meas_matrix(d, xi)
    cnot = protocol.cnot_prob_matrix(d, xi)
    assert bell.shape == cnot.shape == (2000, 4, 4)
    for i in range(2000):
        args = (float(d[i]), float(xi[i]))
        scalar = protocol.bell_meas_matrix(*args)
        assert _same_bits(scalar, _bell_meas_reference(*args))
        assert _same_bits(bell[i], scalar)
        assert _same_bits(cnot[i], protocol.cnot_prob_matrix(*args))


def test_cnot_prob_matrix_over_arrays_rejects_a_bad_element():
    with pytest.raises(ValueError):
        protocol.cnot_prob_matrix(np.array([0.2, 0.4]), np.array([0.1, -1.0]))
    with pytest.raises(ValueError):
        protocol.bell_meas_matrix(np.array([0.2, np.nan]), 0.0)
