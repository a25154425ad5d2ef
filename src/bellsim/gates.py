"""Operator constructors for the photon-detection two-qubit protocol.

The central object is the conditional Bell operator: detecting one scattered
photon from the atom pair maps each factorized basis state onto an entangled
state whose two branches carry the motional phases p_i = q . dr_i of the atom
that scattered.  Raman rotations and diagonal phase shifts supply the local
(single-atom) operations; specific combinations of the two turn the Bell
operation into a controlled-NOT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unitarity_defect is not used here: bench/tests/test_bench.py traces it as an
# example of a `from ... import` rebinding; callers use linalg.unitarity_defect
from .linalg import matrix4, unitarity_defect  # noqa: F401

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


def bell_matrix(p1: float = 0.0, p2: float = 0.0) -> np.ndarray:
    """Conditional Bell operator for motional phases (p1, p2).

    Row i is the expansion of the state prepared from basis state i once a
    photon has been registered.  With p1 = p2 = 0 the matrix is real
    orthogonal; unequal phases break unitarity because the two scattering
    branches no longer interfere perfectly.
    """
    if not (np.isfinite(p1) and np.isfinite(p2)):
        raise ValueError("motional phases must be finite")
    return (np.exp(1j * p1) * BRANCH_ATOM1 + np.exp(1j * p2) * BRANCH_ATOM2) / SQRT2


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
        for name in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def bell_matrix_general(cfg: GeneralBellConfig) -> np.ndarray:
    """Bell operator with every phase explicit; no orthogonality assumed."""
    phi_g1 = cfg.laser_phase_g1
    phi_e1 = cfg.laser_phase_e1
    phi_g2 = cfg.laser_phase_g2 + cfg.geometry_phase / 2.0
    phi_e2 = cfg.laser_phase_e2 + cfg.geometry_phase / 2.0

    g1 = np.exp(1j * (cfg.motion_g1 + phi_g1 + cfg.path_phase_1))
    g2 = np.exp(1j * (cfg.motion_g2 + phi_g2 + cfg.path_phase_2))
    e1 = np.exp(1j * (cfg.motion_e1 + phi_e1 + cfg.path_phase_1))
    e2 = np.exp(1j * (cfg.motion_e2 + phi_e2 + cfg.path_phase_2))

    return np.array(
        [[0, g2, g1, 0],
         [e2, 0, 0, g1],
         [e1, 0, 0, g2],
         [0, e1, e2, 0]], dtype=complex) / SQRT2


def orthogonality_inner_products(b) -> tuple[complex, complex]:
    """Inner products <row4|row1> and <row3|row2> of a Bell-type matrix.

    These are the overlaps between the states prepared from (gg, ee) and from
    (ge, eg); both must vanish for the four prepared states to be a basis.
    """
    m = matrix4(b)
    return (
        complex(np.vdot(m[3], m[0])),
        complex(np.vdot(m[2], m[1])),
    )


def orthogonality_defect(b) -> tuple[float, float]:
    """Moduli of the two overlaps that must vanish for orthogonal Bell states."""
    ip1, ip2 = orthogonality_inner_products(b)
    return (abs(ip1), abs(ip2))


def raman_single(theta: float) -> np.ndarray:
    """Single-atom Raman rotation in the (g, e) basis, row = initial state."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=float)


def raman_matrix(theta1: float, theta2: float) -> np.ndarray:
    """Two-atom Raman rotation; the tensor product of two single-atom rotations."""
    return np.kron(raman_single(theta1), raman_single(theta2)).astype(complex)


def phase_matrix(xi_g1: float, xi_e1: float, xi_g2: float, xi_e2: float) -> np.ndarray:
    """Diagonal phase shift exp(i(xi_{a1} + xi_{b2})) per basis state (a b)."""
    total = np.array([xi_g1 + xi_g2, xi_g1 + xi_e2, xi_e1 + xi_g2, xi_e1 + xi_e2])
    return np.diag(np.exp(1j * total))


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


def h2_singular() -> np.ndarray:
    """Known-bad variant of h2 with the sign of entry (1, 2) flipped.

    Rows 1 and 3 then coincide, the matrix is singular, and the
    controlled-NOT factorization cannot close.  Kept so the validation suite
    can demonstrate that the identity check catches a corrupted operation.
    """
    m = h2()
    m[0, 1] = -1.0 / SQRT2
    return m


def cnot_target() -> np.ndarray:
    """Controlled-NOT truth table: atom 1 controls, atom 2 flips."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]], dtype=complex)


def b2_matrix(xi: float) -> np.ndarray:
    """Double-excitation branch operator for scattering weight xi = (b/a)^2.

    Both atoms get excited, one photon is registered and the second is
    missed, flipping both qubits; sqrt(2 xi) is the branch amplitude after
    averaging the missed-photon interference factor.
    """
    if xi < 0:
        raise ValueError("double-excitation ratio xi must be >= 0")
    flip_both = np.array(
        [[0, 0, 0, 1],
         [0, 0, 1, 0],
         [0, 1, 0, 0],
         [1, 0, 0, 0]], dtype=complex)
    return np.sqrt(2.0 * xi) * flip_both


def verify_cnot_identity(second_local=None, bell=None) -> float:
    """Max-norm defect of h1 @ bell @ second_local against the CNOT target.

    Defaults to the motionless Bell operator and the derived h2; either factor
    can be overridden to demonstrate how the identity degrades.
    """
    b = bell_matrix(0.0, 0.0) if bell is None else matrix4(bell)
    second = h2() if second_local is None else matrix4(second_local)
    return float(np.max(np.abs(h1() @ b @ second - cnot_target())))


__all__ = [
    "BRANCH_ATOM1",
    "BRANCH_ATOM2",
    "GeneralBellConfig",
    "b2_matrix",
    "bell_matrix",
    "bell_matrix_general",
    "cnot_target",
    "h1",
    "h2",
    "h2_singular",
    "local_matrix",
    "orthogonality_defect",
    "orthogonality_inner_products",
    "phase_matrix",
    "raman_matrix",
    "raman_single",
    "verify_cnot_identity",
]
