"""Conditional two-qubit logic through single-photon detection.

Detecting one spontaneously scattered photon from a pair of trapped atoms
projects the pair onto an entangled state; with the right local rotations the
same click implements Bell-state preparation, a Bell measurement, or a CNOT
gate.  This package builds the operator algebra, evaluates the CHSH tests and
fidelities including thermal atom motion and double-excitation scattering,
and validates every closed form against quadrature and Monte-Carlo oracles.
"""

__version__ = "0.1.0"
