import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import chsh, gates, protocol
from bellsim.linalg import unitarity_defect

SQRT2 = np.sqrt(2.0)

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)

# hand-derived targets of the two local operations of the CNOT sequence
H1_EXPECTED = 0.5 * np.array(
    [[1j, 1j, -1j, -1j],
     [-1, 1, 1, -1],
     [1j, 1j, 1j, 1j],
     [-1, 1, -1, 1]])

H2_EXPECTED = np.array(
    [[0, 1, 0, -1j],
     [1j, 0, 1, 0],
     [0, -1, 0, -1j],
     [-1j, 0, 1, 0]]) / SQRT2


def test_bell_matrix_motionless_pattern():
    expected = np.array(
        [[0, -1, 1, 0],
         [1, 0, 0, 1],
         [1, 0, 0, -1],
         [0, 1, 1, 0]]) / SQRT2
    b = gates.bell_matrix(0.0, 0.0)
    np.testing.assert_allclose(b, expected, atol=1e-15)
    assert np.max(np.abs(b.imag)) == 0.0
    assert unitarity_defect(b) <= 1e-13


@given(p=ANGLES)
@settings(max_examples=50)
def test_bell_matrix_unitary_at_common_phase(p):
    assert unitarity_defect(gates.bell_matrix(p, p)) <= 1e-13


@given(p1=ANGLES, p2=ANGLES)
@settings(max_examples=100)
def test_bell_matrix_columns_normalized(p1, p2):
    b = gates.bell_matrix(p1, p2)
    np.testing.assert_allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-13)


@given(p1=ANGLES, p2=ANGLES)
@settings(max_examples=100)
def test_bell_matrix_unitary_iff_phases_agree_mod_pi(p1, p2):
    defect = unitarity_defect(gates.bell_matrix(p1, p2))
    np.testing.assert_allclose(defect, abs(np.sin(p1 - p2)), atol=1e-12)


def test_bell_matrix_quarter_wave_defect():
    assert abs(unitarity_defect(gates.bell_matrix(0.0, np.pi / 2)) - 1.0) < 1e-13


def test_bell_matrix_rows_orthonormal_motionless():
    b = gates.bell_matrix(0.0, 0.0)
    np.testing.assert_allclose(b @ b.conj().T, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(b[0], np.array([0, -1, 1, 0]) / SQRT2, atol=1e-15)


def test_bell_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        gates.bell_matrix(np.nan, 0.0)


def test_general_bell_all_phases_zero():
    b = gates.bell_matrix_general(gates.GeneralBellConfig())
    expected = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]) / SQRT2
    np.testing.assert_allclose(b, expected, atol=1e-15)
    assert np.linalg.matrix_rank(b) == 2
    d1, d2 = map(abs, gates.orthogonality_inner_products(b))
    np.testing.assert_allclose([d1, d2], [1.0, 1.0], atol=1e-14)


def test_general_bell_programmable_phases_recover_canonical():
    # phases tuned so the raw operator equals the canonical one outright
    klr2 = 0.7
    cfg = gates.GeneralBellConfig(
        laser_phase_g2=np.pi - klr2, laser_phase_e2=-klr2,
        geometry_phase=2 * klr2)
    np.testing.assert_allclose(
        gates.bell_matrix_general(cfg), gates.bell_matrix(0, 0), atol=1e-14)


def test_general_bell_interferometer_condition():
    cfg = gates.GeneralBellConfig(geometry_phase=np.pi)
    b = gates.bell_matrix_general(cfg)
    d1, d2 = map(abs, gates.orthogonality_inner_products(b))
    assert max(d1, d2) <= 1e-13
    # the atom-2 quarter-wave phases are removed by the diagonal sandwich
    sandwich = np.diag([1, -1j, 1, -1j]) @ b @ np.diag([1, 1j, 1, 1j])
    np.testing.assert_allclose(sandwich, gates.bell_matrix(0, 0), atol=1e-14)


def test_general_bell_split_condition_total_phase():
    # only the combined geometry + path mismatch must reach pi
    cfg = gates.GeneralBellConfig(geometry_phase=0.4, path_phase_1=0.0,
                                  path_phase_2=(np.pi - 0.4) / 2)
    d1, d2 = map(abs, gates.orthogonality_inner_products(gates.bell_matrix_general(cfg)))
    assert max(d1, d2) <= 1e-13


def test_general_bell_orthogonality_recovered_in_motion_average():
    # with the phase condition met, per-draw overlaps average to zero
    rng = np.random.default_rng(23)
    sigma = 1.3
    total1 = 0.0 + 0.0j
    total2 = 0.0 + 0.0j
    n = 4000
    for _ in range(n):
        m1, m2 = rng.normal(0.0, sigma, 2)
        cfg = gates.GeneralBellConfig(
            geometry_phase=np.pi,
            motion_g1=m1, motion_e1=m1, motion_g2=m2, motion_e2=m2)
        ip1, ip2 = gates.orthogonality_inner_products(gates.bell_matrix_general(cfg))
        total1 += ip1
        total2 += ip2
    assert abs(total1 / n) < 5.0 / np.sqrt(n)
    assert abs(total2 / n) < 5.0 / np.sqrt(n)


def _bell_matrix_general_literal(cfg):
    """The fully phased Bell operator as first written, one 4x4 literal."""
    phi_g2 = cfg.laser_phase_g2 + cfg.geometry_phase / 2.0
    phi_e2 = cfg.laser_phase_e2 + cfg.geometry_phase / 2.0
    g1 = np.exp(1j * (cfg.motion_g1 + cfg.laser_phase_g1 + cfg.path_phase_1))
    g2 = np.exp(1j * (cfg.motion_g2 + phi_g2 + cfg.path_phase_2))
    e1 = np.exp(1j * (cfg.motion_e1 + cfg.laser_phase_e1 + cfg.path_phase_1))
    e2 = np.exp(1j * (cfg.motion_e2 + phi_e2 + cfg.path_phase_2))
    return np.array(
        [[0, g2, g1, 0],
         [e2, 0, 0, g1],
         [e1, 0, 0, g2],
         [0, e1, e2, 0]], dtype=complex) / SQRT2


def test_general_bell_from_the_branch_patterns_equals_the_literal_layout():
    # per-row phases times BRANCH_ATOM1 and |BRANCH_ATOM2|: equal values (only
    # the signs of some zeros differ), and so equal row overlaps
    rng = np.random.default_rng(30)
    names = list(gates.GeneralBellConfig.__dataclass_fields__)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(100):
            phases = rng.uniform(-np.pi, np.pi, len(names)) * scale
            cfg = gates.GeneralBellConfig(**dict(zip(names, phases)))
            b, ref = gates.bell_matrix_general(cfg), _bell_matrix_general_literal(cfg)
            assert b.shape == ref.shape and b.dtype == ref.dtype
            assert np.array_equal(b, ref)
            assert (gates.orthogonality_inner_products(b)
                    == gates.orthogonality_inner_products(ref))


def test_orthogonality_defect_path_phase_shift_invariant():
    rng = np.random.default_rng(29)
    for _ in range(20):
        base = dict(
            laser_phase_g1=rng.uniform(-np.pi, np.pi),
            laser_phase_e1=rng.uniform(-np.pi, np.pi),
            laser_phase_g2=rng.uniform(-np.pi, np.pi),
            laser_phase_e2=rng.uniform(-np.pi, np.pi),
            geometry_phase=rng.uniform(-np.pi, np.pi))
        shift = rng.uniform(-np.pi, np.pi)
        ref = gates.orthogonality_inner_products(gates.bell_matrix_general(
            gates.GeneralBellConfig(**base, path_phase_1=0.1, path_phase_2=0.9)))
        moved = gates.orthogonality_inner_products(gates.bell_matrix_general(
            gates.GeneralBellConfig(**base, path_phase_1=0.1 + shift,
                                    path_phase_2=0.9 + shift)))
        np.testing.assert_allclose(np.abs(ref), np.abs(moved), atol=1e-13)


def test_raman_identity():
    np.testing.assert_allclose(gates.raman_matrix(0, 0), np.eye(4), atol=1e-15)


def test_raman_quarter_pattern():
    expected = 0.5 * np.array(
        [[1, 1, -1, -1],
         [-1, 1, 1, -1],
         [1, 1, 1, 1],
         [-1, 1, -1, 1]])
    np.testing.assert_allclose(
        gates.raman_matrix(np.pi / 4, -np.pi / 4), expected, atol=1e-15)


def test_raman_is_tensor_product():
    rng = np.random.default_rng(31)
    for _ in range(100):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        expected = np.kron(gates.raman_single(t1), gates.raman_single(t2))
        assert np.max(np.abs(gates.raman_matrix(t1, t2) - expected)) < 1e-13


@given(t1=ANGLES, t2=ANGLES)
@settings(max_examples=50)
def test_raman_inverse_relation(t1, t2):
    product = gates.raman_matrix(t1, t2) @ gates.raman_matrix(-t1, -t2)
    assert np.max(np.abs(product - np.eye(4))) < 1e-13


def test_phase_matrix_values():
    np.testing.assert_array_equal(gates.phase_matrix(0, 0, 0, 0), np.eye(4))
    np.testing.assert_allclose(
        gates.phase_matrix(0, 0, np.pi / 2, 0),
        np.diag([1j, 1, 1j, 1]), atol=1e-15)
    np.testing.assert_allclose(
        gates.phase_matrix(0, -np.pi / 2, -np.pi / 2, 0),
        np.diag([-1j, 1, -1, -1j]), atol=1e-15)


def test_local_matrix_identity_case():
    np.testing.assert_allclose(
        gates.local_matrix(0, 0, 0, 0, 0, 0), np.eye(4), atol=1e-15)


def test_local_matrix_builds_h1():
    built = gates.local_matrix(np.pi / 4, -np.pi / 4, 0, 0, np.pi / 2, 0)
    np.testing.assert_allclose(built, H1_EXPECTED, atol=1e-15)


@given(t1=ANGLES, t2=ANGLES, x1=ANGLES, x2=ANGLES, x3=ANGLES, x4=ANGLES)
@settings(max_examples=50)
def test_local_matrix_unitary(t1, t2, x1, x2, x3, x4):
    assert unitarity_defect(gates.local_matrix(t1, t2, x1, x2, x3, x4)) <= 1e-13


def test_h1_h2_frozen_values():
    np.testing.assert_allclose(gates.h1(), H1_EXPECTED, atol=1e-15)
    np.testing.assert_allclose(gates.h2(), H2_EXPECTED, atol=1e-15)
    assert unitarity_defect(gates.h1()) <= 1e-13
    assert unitarity_defect(gates.h2()) <= 1e-13


def test_h2_singular_variant(singular_h2):
    bad = singular_h2
    assert np.linalg.matrix_rank(bad) == 3
    np.testing.assert_allclose(bad[0], bad[2], atol=1e-15)
    # differs from the sound operation only in the (0, 1) sign
    delta = bad - gates.h2()
    assert abs(delta[0, 1] + 2 / SQRT2) < 1e-15
    delta[0, 1] = 0.0
    assert np.max(np.abs(delta)) == 0.0


def test_cnot_target_action():
    c = gates.cnot_target()
    np.testing.assert_array_equal(c[0], [1, 0, 0, 0])   # gg -> gg
    np.testing.assert_array_equal(c[2], [0, 0, 0, 1])   # eg -> ee
    np.testing.assert_array_equal(c @ c, np.eye(4))


def test_bell_measurement_layout_follows_the_branches():
    k = gates.BRANCH_ATOM1 @ gates.BRANCH_ATOM2.T
    kind = np.where(np.eye(4, dtype=bool), 0, np.where(k, 1, 2))
    np.testing.assert_array_equal(gates.BELL_MEAS_KIND, kind)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(ANGLES, ANGLES, ANGLES, ANGLES)
def test_bell_paths_split_the_bell_operator(p1, p2, theta1, theta2):
    r = gates.raman_matrix(theta1, theta2).real
    x, y = gates.bell_paths(r)
    np.testing.assert_allclose(gates.bell_matrix(p1, p2) @ r,
                               np.exp(1j * p1) * x + np.exp(1j * p2) * y, rtol=0, atol=1e-15)


def test_b2_matrix():
    # the flip BRANCH_ATOM1 @ |BRANCH_ATOM2| is the anti-identity literal to the bit
    anti = np.fliplr(np.eye(4)).astype(complex)
    assert _same_bits(gates.b2_matrix(0.0), 0.0 * anti)
    assert _same_bits(gates.b2_matrix(0.5), anti)
    assert _same_bits(gates.b2_matrix(0.05), np.sqrt(0.1) * anti)
    xi = np.array([0.0, 1e-300, 0.05, 0.5, 2.0, 1e300])
    assert _same_bits(gates.b2_matrix(xi), np.sqrt(2.0 * xi)[:, None, None] * anti)
    with pytest.raises(ValueError):
        gates.b2_matrix(-0.1)


def test_cnot_identity_holds():
    assert gates.verify_cnot_identity() <= 1e-12


def test_cnot_identity_fails_with_singular_variant(singular_h2):
    assert gates.verify_cnot_identity(second_local=singular_h2) >= 0.5


def _cnot_defect_with_common_phase(p) -> float:
    """Max-norm defect of the CNOT identity with the Bell operator at phases (p, p)."""
    return float(np.max(np.abs(gates.h1() @ gates.bell_matrix(p, p) @ gates.h2()
                               - gates.cnot_target())))


def test_cnot_identity_breaks_with_common_motion_phase():
    for p in (0.3, 1.0, np.pi):
        np.testing.assert_allclose(_cnot_defect_with_common_phase(p), abs(np.exp(1j * p) - 1.0),
                                   atol=1e-12)
    assert _cnot_defect_with_common_phase(2 * np.pi) <= 1e-12


def test_cnot_cornerstone_entrywise():
    product = gates.h1() @ gates.bell_matrix(0, 0) @ gates.h2()
    np.testing.assert_allclose(product, gates.cnot_target(), atol=1e-12)


def _same_bits(a, b):
    """Equal shape, dtype and bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def test_raman_matrix_is_np_kron_of_the_single_rotations_bit_for_bit():
    t = np.random.default_rng(11).uniform(-2 * np.pi, 2 * np.pi, (200, 2))
    stack = gates.raman_matrix(t[:, 0], t[:, 1])
    for row, (t1, t2) in zip(stack, t):
        kron = np.kron(gates.raman_single(t1), gates.raman_single(t2)).astype(complex)
        assert _same_bits(gates.raman_matrix(t1, t2), kron)
        assert _same_bits(row, kron)


def test_array_builders_equal_their_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(12)
    t = rng.uniform(-np.pi, np.pi, (100, 6))
    xi = rng.uniform(0, 2, 100)
    local = gates.local_matrix(*t.T)
    phase = gates.phase_matrix(*t[:, 2:].T)
    bell = gates.bell_matrix(t[:, 0], t[:, 1])
    double = gates.b2_matrix(xi)
    assert local.shape == phase.shape == bell.shape == double.shape == (100, 4, 4)
    for i, row in enumerate(t):
        assert _same_bits(local[i], gates.local_matrix(*row))
        assert _same_bits(phase[i], gates.phase_matrix(*row[2:]))
        assert _same_bits(bell[i], gates.bell_matrix(row[0], row[1]))
        assert _same_bits(double[i], gates.b2_matrix(xi[i]))


def test_unitarity_defect_of_a_stack_is_the_largest_scalar_defect():
    p = np.random.default_rng(13).uniform(-np.pi, np.pi, (30, 2))
    stack = gates.bell_matrix(p[:, 0], p[:, 1])
    assert unitarity_defect(stack) == max(unitarity_defect(m) for m in stack)
    assert type(unitarity_defect(stack)) is float


def test_matrix_builders_reject_bad_elements_of_an_array():
    with pytest.raises(ValueError):
        gates.bell_matrix(np.array([0.0, np.nan]), 0.0)
    with pytest.raises(ValueError):
        gates.b2_matrix(np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        unitarity_defect(np.zeros((3, 4)))
    # the row overlaps are defined for one matrix; a stack is not taken for one
    with pytest.raises(ValueError):
        gates.orthogonality_inner_products(gates.bell_matrix(np.zeros(4), 0.0))


def test_empty_arrays_of_levels_and_ratios_give_empty_results():
    # _check_d and _check_xi test every element with no reduction that needs one
    empty = np.array([])
    for result in (chsh.s_max(empty), protocol.bell_meas_fidelity(empty, 0.0),
                   protocol.cnot_fidelity(empty, 0.0), protocol.bell_meas_fidelity(0.3, empty),
                   chsh.e_gg_scatter(0.3, empty, 0.1, 0.2)):
        assert isinstance(result, np.ndarray) and result.shape == (0,)
