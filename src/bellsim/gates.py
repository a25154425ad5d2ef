"""Operator constructors for the photon-detection two-qubit protocol.

The central object is the conditional Bell operator: detecting one scattered
photon from the atom pair maps each factorized basis state onto an entangled
state whose two branches carry the motional phases p_i = q . dr_i of the atom
that scattered.  Raman rotations and diagonal phase shifts supply the local
(single-atom) operations; specific combinations of the two turn the Bell
operation into a controlled-NOT.  The Bell, Raman, phase, local and
double-excitation builders take scalars or arrays that broadcast and return
one 4x4 matrix per element, as a (..., 4, 4) stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unitarity_defect is not used here: bench/tests/test_bench.py traces it as an
# example of a `from ... import` rebinding; callers use linalg.unitarity_defect
from .linalg import _check_finite_fields, matrix4, stack_matrix, unitarity_defect  # noqa: F401

SQRT2 = np.sqrt(2.0)

# Real coefficient patterns of the two interference branches of the Bell
# operator: branch 1 carries exp(i p1) (atom-1 scattering), branch 2 exp(i p2).
BRANCH_ATOM1 = np.array(
    [[0, 0, 1, 0],
     [0, 0, 0, 1],
     [1, 0, 0, 0],
     [0, 1, 0, 0]], dtype=float)

BRANCH_ATOM2 = np.array(
    [[0, -1, 0, 0],
     [1, 0, 0, 0],
     [0, 0, 0, -1],
     [0, 0, 1, 0]], dtype=float)

#: Kind of each Bell-measurement entry: 0 the diagonal (success), 1 the signed
#: anti-diagonal BRANCH_ATOM1 @ BRANCH_ATOM2.T (motional error), 2 the 8 double
#: leaks; written out, as that product at import adds about 0.4 MB to every command's peak RSS
BELL_MEAS_KIND = np.array([[0, 2, 2, 1], [2, 0, 1, 2], [2, 1, 0, 2], [1, 2, 2, 0]])


def _check_d(d):
    """Reject a decoherence level, or any element of an array of them, outside [0, 1] or NaN."""
    if not np.all((d >= 0.0) & (d <= 1.0)):
        raise ValueError(f"decoherence level must lie in [0, 1], got {d}")


def _check_xi(xi):
    """Reject a double-excitation ratio, or any element of an array of them, below 0 or NaN."""
    if not np.all(xi >= 0.0):
        raise ValueError(f"scattering ratio must be >= 0, got {xi}")


def _per_matrix(value) -> np.ndarray:
    """A scalar or an array of them, shaped to scale a (..., 4, 4) stack."""
    return np.asarray(value)[..., None, None]


def bell_paths(r) -> tuple[np.ndarray, np.ndarray]:
    """The two scattering paths (X, Y) of the Bell operator followed by the
    matrix r: Bell(p1, p2) @ r = X e^{i p1} + Y e^{i p2}."""
    return BRANCH_ATOM1 @ r / SQRT2, BRANCH_ATOM2 @ r / SQRT2


def _path_terms(x, y) -> tuple[np.ndarray, np.ndarray]:
    """(|X|^2 + |Y|^2, 2 Re(X conj(Y))) for two paths: |X e^{i p1} + Y e^{i p2}|^2
    is first + second cos(p1 - p2) where X conj(Y) is real, and its thermal
    average first + (1 - d) second."""
    return np.abs(x) ** 2 + np.abs(y) ** 2, 2.0 * (x * y.conj()).real


def bell_matrix(p1=0.0, p2=0.0) -> np.ndarray:
    """Conditional Bell operator for motional phases (p1, p2).

    Row i is the expansion of the state prepared from basis state i once a
    photon has been registered.  With p1 = p2 = 0 the matrix is real
    orthogonal; unequal phases break unitarity because the two scattering
    branches no longer interfere perfectly.
    """
    if not (np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))):
        raise ValueError("motional phases must be finite")
    return (np.exp(1j * p1)[..., None, None] * BRANCH_ATOM1
            + np.exp(1j * p2)[..., None, None] * BRANCH_ATOM2) / SQRT2


@dataclass(frozen=True)
class GeneralBellConfig:
    """Full phase bookkeeping for the Bell operator before any simplification.

    laser_phase_*   : programmable phase of the excitation field driving the
                      g/e channel of atom 1 or 2 (radians).
    path_phase_*    : optical path phase k*l_i from atom i to the detector.
    motion_*        : motional phase q_channel . dr_i for each channel/atom.
    geometry_phase  : (k_e + k_g) . (r2 - r1), the phase picked up from the
                      equilibrium separation of the traps (atom 1 at origin).

    The geometry phase is split evenly between the two excitation channels of
    atom 2.  For co-propagating excitation fields the split is exact; for any
    other geometry the orthogonality inner products are unchanged because a
    common phase shift of both atom-2 channels factors out of them.
    """

    laser_phase_g1: float = 0.0
    laser_phase_e1: float = 0.0
    laser_phase_g2: float = 0.0
    laser_phase_e2: float = 0.0
    path_phase_1: float = 0.0
    path_phase_2: float = 0.0
    motion_g1: float = 0.0
    motion_g2: float = 0.0
    motion_e1: float = 0.0
    motion_e2: float = 0.0
    geometry_phase: float = 0.0

    def __post_init__(self):
        _check_finite_fields(self)


def bell_matrix_general(cfg: GeneralBellConfig) -> np.ndarray:
    """Bell operator with every phase explicit; no orthogonality assumed.  Each
    branch pattern takes its atom's g- or e-channel phase per row: BRANCH_ATOM1
    the g phase in rows gg and ge, |BRANCH_ATOM2| the g phase in rows gg and eg."""
    g1 = np.exp(1j * (cfg.motion_g1 + cfg.laser_phase_g1 + cfg.path_phase_1))
    e1 = np.exp(1j * (cfg.motion_e1 + cfg.laser_phase_e1 + cfg.path_phase_1))
    half = cfg.geometry_phase / 2.0
    g2 = np.exp(1j * (cfg.motion_g2 + (cfg.laser_phase_g2 + half) + cfg.path_phase_2))
    e2 = np.exp(1j * (cfg.motion_e2 + (cfg.laser_phase_e2 + half) + cfg.path_phase_2))
    return (np.array([g1, g1, e1, e1])[:, None] * BRANCH_ATOM1
            + np.array([g2, e2, g2, e2])[:, None] * np.abs(BRANCH_ATOM2)) / SQRT2


def orthogonality_inner_products(b) -> tuple[complex, complex]:
    """Inner products <row4|row1> and <row3|row2> of a Bell-type matrix.

    These are the overlaps between the states prepared from (gg, ee) and from
    (ge, eg); both must vanish for the four prepared states to be a basis.
    """
    m = matrix4(b)
    if m.ndim != 2:
        raise ValueError(f"expected one 4x4 matrix, got shape {m.shape}")
    return (
        complex(np.vdot(m[3], m[0])),
        complex(np.vdot(m[2], m[1])),
    )


def raman_single(theta) -> np.ndarray:
    """Single-atom Raman rotation in the (g, e) basis, row = initial state."""
    c, s = np.cos(theta), np.sin(theta)
    return stack_matrix([[c, -s], [s, c]])


def raman_matrix(theta1, theta2) -> np.ndarray:
    """Two-atom Raman rotation; the tensor product of two single-atom rotations.

    Entry (2i + k, 2j + l) is a[i, j] * b[k, l], the one product np.kron forms.
    """
    a, b = raman_single(theta1), raman_single(theta2)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4)).astype(complex)


def phase_matrix(xi_g1, xi_e1, xi_g2, xi_e2) -> np.ndarray:
    """Diagonal phase shift exp(i(xi_{a1} + xi_{b2})) per basis state (a b)."""
    total = np.stack(np.broadcast_arrays(
        xi_g1 + xi_g2, xi_g1 + xi_e2, xi_e1 + xi_g2, xi_e1 + xi_e2), axis=-1)
    out = np.zeros(total.shape + (4,), dtype=complex)
    out[..., range(4), range(4)] = np.exp(1j * total)
    return out


def local_matrix(theta1, theta2, xi_g1, xi_e1, xi_g2, xi_e2) -> np.ndarray:
    """Local two-atom operation: phase shift first, Raman rotation second."""
    return phase_matrix(xi_g1, xi_e1, xi_g2, xi_e2) @ raman_matrix(theta1, theta2)


def h1() -> np.ndarray:
    """First local operation of the CNOT sequence.

    Phase shift |g>_2 -> i|g>_2 followed by Raman angles (pi/4, -pi/4).
    """
    return local_matrix(np.pi / 4, -np.pi / 4, 0.0, 0.0, np.pi / 2, 0.0)


def h2() -> np.ndarray:
    """Second local operation of the CNOT sequence.

    Raman angles (-pi/4, -pi/2) followed by the phase shifts
    |e>_1 -> -i|e>_1 and |g>_2 -> -i|g>_2.
    """
    return raman_matrix(-np.pi / 4, -np.pi / 2) @ phase_matrix(0.0, -np.pi / 2, -np.pi / 2, 0.0)


def cnot_target() -> np.ndarray:
    """Controlled-NOT truth table: atom 1 controls, atom 2 flips."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex)


def b2_matrix(xi) -> np.ndarray:
    """Double-excitation branch operator for scattering weight xi = (b/a)^2.

    Both atoms get excited, one photon is registered and the second is
    missed, flipping both qubits (BRANCH_ATOM1 @ |BRANCH_ATOM2|: both atoms
    scatter); sqrt(2 xi) is the branch amplitude in the <|f|^2> = 2 limit of
    the missed-photon interference factor, where motion has scrambled its
    phase (oracle.mc_f_squared estimates <|f|^2> itself).
    """
    _check_xi(xi)
    # einsum, not @: a float @ goes through BLAS, whose first call adds about 0.2 MB to peak RSS
    flip_both = np.einsum("ij,jk", BRANCH_ATOM1, np.abs(BRANCH_ATOM2)).astype(complex)
    return np.sqrt(2.0 * xi)[..., None, None] * flip_both


def verify_cnot_identity(second_local=None) -> float:
    """Max-norm defect of h1 @ Bell @ second_local against the CNOT target, for
    the motionless Bell operator and by default the derived h2; a flawed
    second_local shows how the identity degrades."""
    second = h2() if second_local is None else matrix4(second_local)
    return float(np.max(np.abs(h1() @ bell_matrix(0.0, 0.0) @ second - cnot_target())))
