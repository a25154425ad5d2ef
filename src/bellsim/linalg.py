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


def _float_or_array(value):
    """A 0-d result as a float; an array result as it is."""
    return value if np.ndim(value) else float(value)


def _check_finite_fields(params):
    """Reject a dataclass instance with a non-finite field, naming the first."""
    for name in params.__dataclass_fields__:
        if not np.all(np.isfinite(getattr(params, name))):
            raise ValueError(f"{name} must be finite")


def matrix4(entries) -> np.ndarray:
    """Return a validated 4x4 complex matrix, or a (..., 4, 4) stack of them
    (finite entries, fixed basis)."""
    m = np.asarray(entries, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m.copy()


def stack_matrix(rows) -> np.ndarray:
    """(..., n, n) array from an n x n nested list of entries that broadcast."""
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows)))


def unitarity_defect(a) -> float:
    """Max-norm of A @ A^dagger - I, the largest over a stack; zero exactly when A is unitary."""
    m = matrix4(a)
    return float(np.max(np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(4))))


def elementwise_sqmod(a) -> np.ndarray:
    """Squared modulus of each entry; maps a unitary to a doubly stochastic matrix."""
    m = matrix4(a)
    return (m.real**2 + m.imag**2).astype(float)

