import numpy as np
import pytest

from bellsim import gates
from bellsim.linalg import BASIS, elementwise_sqmod, matrix4, stack_matrix, unitarity_defect

I4 = np.eye(4, dtype=complex)


def random_unitary(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_basis_order():
    assert BASIS == ("gg", "ge", "eg", "ee")


def test_matrix4_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrix4(np.zeros((3, 3)))


def test_matrix4_takes_a_stack_and_checks_every_matrix():
    stack = np.zeros((2, 3, 4, 4), dtype=complex)
    assert matrix4(stack).shape == (2, 3, 4, 4)
    for shape in [(4,), (2, 4, 3), (16,)]:
        with pytest.raises(ValueError):
            matrix4(np.zeros(shape))
    stack[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError):
        matrix4(stack)


def test_stack_matrix_broadcasts_scalar_and_array_entries():
    x = np.array([1.0, 2.0, 3.0])
    m = stack_matrix([[x, 0.5], [-x, 7.0]])
    assert m.shape == (3, 2, 2) and m.flags.c_contiguous
    np.testing.assert_array_equal(m[:, 0, 0], x)
    np.testing.assert_array_equal(m[:, 0, 1], 0.5)
    np.testing.assert_array_equal(m[:, 1, 0], -x)
    np.testing.assert_array_equal(stack_matrix([[1.0, 2.0], [3.0, 4.0]]), [[1, 2], [3, 4]])


def test_matrix4_rejects_nonfinite():
    bad = np.zeros((4, 4), dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        matrix4(bad)
    bad[1, 2] = 1j * np.inf
    with pytest.raises(ValueError):
        matrix4(bad)


def test_matmul_unitary_inverse():
    for m in (gates.h1(), gates.h2(), gates.raman_matrix(0.3, -1.1)):
        assert np.max(np.abs(m @ np.linalg.inv(m) - I4)) < 1e-12


def test_matmul_reproduces_cnot_bracket():
    # frozen by explicit 4x4 hand multiplication of the three factors
    product = gates.h1() @ gates.bell_matrix(0, 0) @ gates.h2()
    assert np.max(np.abs(product - gates.cnot_target())) < 1e-12


def test_unitarity_defect_identity():
    assert unitarity_defect(I4) == 0.0


def test_unitarity_defect_raman_rotations():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        assert unitarity_defect(gates.raman_matrix(t1, t2)) <= 1e-13


def test_unitarity_defect_dephased_bell():
    # the column cross term 2i sin(p2 - p1) has modulus 2, scaled by 1/2
    assert abs(unitarity_defect(gates.bell_matrix(0.0, np.pi / 2)) - 1.0) < 1e-13


def test_unitarity_defect_subadditive_near_unitary():
    # entrywise max-norm picks up a conjugation constant of at most the
    # dimension, so the slack scales with the defects themselves
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_unitary(rng) + 1e-4 * rng.standard_normal((4, 4))
        b = random_unitary(rng) + 1e-4 * rng.standard_normal((4, 4))
        total = unitarity_defect(a) + unitarity_defect(b)
        assert unitarity_defect(a @ b) <= total + 3 * total + 1e-12


def test_elementwise_sqmod_identity():
    np.testing.assert_array_equal(elementwise_sqmod(I4), np.eye(4))


def test_elementwise_sqmod_uniform_modulus():
    phases = np.exp(1j * np.arange(16).reshape(4, 4))
    np.testing.assert_allclose(elementwise_sqmod(phases / np.sqrt(2)), 0.5)


def test_elementwise_sqmod_motionless_bell():
    probs = elementwise_sqmod(gates.bell_matrix(0, 0))
    expected = 0.5 * np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    np.testing.assert_allclose(probs, expected, atol=1e-15)


def test_elementwise_sqmod_doubly_stochastic_for_unitary():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = elementwise_sqmod(random_unitary(rng))
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
