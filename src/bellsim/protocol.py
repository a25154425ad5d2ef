"""Composite figures of merit: Bell-state measurement and CNOT truth tables.

Both protocols chain two photon-detection stages (or one stage wrapped in
local operations).  Atom motion during different stages is uncorrelated, so
each stage contributes its own interference-damping factor; the two-stage
sequence therefore dephases through f1 = d - d^2/2 rather than d itself.
The fidelities and f1 take scalars or arrays that broadcast; the two
probability matrices take arrays of (d, xi) and return a (..., 4, 4) stack.
"""

from __future__ import annotations

import numpy as np

from . import gates
from .gates import _check_d, _check_xi, _path_terms, _per_matrix
from .linalg import _float_or_array, elementwise_sqmod


def two_stage_dephasing(d):
    """Cross-term damping of a prepare-then-measure sequence: d - d^2/2."""
    _check_d(d)
    return d - 0.5 * d * d


def _bell_meas_terms(d, xi):
    """The success numerator 1 - f1 + 4 xi^2, the motional error f1 and the
    norm (1 + 2 xi)^2 of the Bell-measurement table."""
    f1 = two_stage_dephasing(d)
    _check_xi(xi)
    # float_power squares through libm pow, as a scalar ** 2 does
    return 1.0 - f1 + 4.0 * np.float_power(xi, 2), f1, np.float_power(1.0 + 2.0 * xi, 2)


def bell_meas_matrix(d, xi) -> np.ndarray:
    """Probability matrix of preparing a Bell state and measuring it back.

    Symmetric and doubly stochastic: the diagonal is the success probability,
    the anti-diagonal carries the motional error f1, and the remaining
    entries the single-sided double-excitation leaks 2 xi.
    """
    success, f1, norm = _bell_meas_terms(d, xi)
    m = np.stack(np.broadcast_arrays(success, f1, 2.0 * xi), -1)[..., gates.BELL_MEAS_KIND]
    return m / _per_matrix(norm)


def bell_meas_fidelity(d, xi):
    """Probability of recovering the prepared state: the diagonal of the
    measurement matrix, (1 - f1 + 4 xi^2) / (1 + 2 xi)^2, bit for bit.

    Non-monotone in xi at fixed motion: for d = 0 it dips to 1/2 at
    xi = 1/2 and climbs back because double-double scattering events
    return the pair to its initial state.
    """
    success, _, norm = _bell_meas_terms(d, xi)
    return _float_or_array(success / norm)


def cnot_prob_matrix(d, xi) -> np.ndarray:
    """Motion-averaged CNOT truth table from the composed operators.

    The detected branch decomposes into the two scattering paths
    X e^{i p1} + Y e^{i p2}; its averaged squared moduli get the usual
    (1 - d) cross-term weight.  The double-excitation branch adds
    incoherently and the total is normalized by 1 + 2 xi.
    """
    _check_d(d)
    left, right = gates.h1(), gates.h2()
    constant, cross = _path_terms(*(left @ path for path in gates.bell_paths(right)))
    double = elementwise_sqmod(left @ gates.b2_matrix(xi) @ right)
    return (constant + _per_matrix(1.0 - d) * cross + double) / _per_matrix(1.0 + 2.0 * xi)


def cnot_fidelity(d, xi):
    """Truth-table fidelity of the conditional CNOT, (1 - d) / (1 + 2 xi)."""
    _check_d(d)
    _check_xi(xi)
    return _float_or_array((1.0 - d) / (1.0 + 2.0 * xi))
