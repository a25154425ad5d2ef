"""Conditional two-qubit logic through single-photon detection.

Detecting one spontaneously scattered photon from a pair of trapped atoms
projects the pair onto an entangled state; with the right local rotations the
same click implements Bell-state preparation, a Bell measurement, or a CNOT
gate.  This package builds the operator algebra, evaluates the CHSH tests and
fidelities including thermal atom motion and double-excitation scattering,
and validates every closed form against quadrature and Monte-Carlo oracles.
"""

from .linalg import (
    BASIS,
    STATE_INDEX,
    elementwise_sqmod,
    matrix4,
    unitarity_defect,
)
from .gates import (
    GeneralBellConfig,
    b2_matrix,
    bell_matrix,
    bell_matrix_general,
    cnot_target,
    h1,
    h2,
    h2_singular,
    local_matrix,
    orthogonality_defect,
    orthogonality_inner_products,
    phase_matrix,
    raman_matrix,
    verify_cnot_identity,
)
from .motion import (
    DEFAULT_OPTICS,
    DEFAULT_TRAP,
    OpticsParams,
    QuadratureError,
    TrapParams,
    angular_pdf,
    aperture_coefficients,
    axis_variance,
    d_approx,
    d_exact,
    mean_square_phase,
    nu_eff,
    t_crit,
)
from .chsh import (
    ChshAngles,
    chsh_s,
    chsh_s_curve,
    correlation,
    e_gg_scatter,
    pattern_angles,
    probabilities_closed_form,
    probabilities_first_principles,
    s_max,
    scatter_threshold,
    sweep_s,
)
from .protocol import (
    bell_meas_fidelity,
    bell_meas_matrix,
    cnot_composite,
    cnot_fidelity,
    cnot_prob_matrix,
)
from .oracle import (
    McConfig,
    McEstimate,
    mc_bell_measurement,
    mc_decoherence,
    mc_f_squared,
    mc_probabilities,
)

__version__ = "0.1.0"
