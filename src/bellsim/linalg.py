"""Dense complex linear algebra for the fixed two-atom basis (gg, ge, eg, ee).

Every operator in this package is a 4x4 complex matrix tabulated with the
row index giving the incoming basis state and the column index the outgoing
one, so "apply U, then V" is the product U @ V.  Probabilities are obtained
by squaring entry moduli, never by acting on amplitude vectors, which keeps
the row = initial / column = final convention unambiguous.
"""

from __future__ import annotations

import numpy as np

#: Fixed basis order shared by all modules.  Atom 1 is the major index.
BASIS = ("gg", "ge", "eg", "ee")

STATE_INDEX = {state: i for i, state in enumerate(BASIS)}


def matrix4(entries) -> np.ndarray:
    """Return a validated 4x4 complex matrix (finite entries, fixed basis)."""
    m = np.asarray(entries, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m.copy()


def unitarity_defect(a) -> float:
    """Max-norm of A @ A^dagger - I; zero exactly when A is unitary."""
    m = matrix4(a)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(4))))


def elementwise_sqmod(a) -> np.ndarray:
    """Squared modulus of each entry; maps a unitary to a doubly stochastic matrix."""
    m = matrix4(a)
    return (m.real**2 + m.imag**2).astype(float)

