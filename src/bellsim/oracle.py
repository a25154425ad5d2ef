"""Monte-Carlo cross-checks that avoid every closed-form average.

Each estimator draws photon directions from the dipole pattern and atom
displacements from the thermal Gaussians, evaluates the per-sample operator
pipeline and only then averages.  Agreement with the quadrature and
closed-form routes (within a few standard errors) validates both sides.

Directions are (n, 3) unit vectors k drawn without arccos (the proposals
and the draws are those of the earlier (theta, phi) sampler, which
tests/test_oracle.py keeps as the reference); the kick is q = e_x - k, and a
stage enters every estimator only through delta = q . (dr1 - dr2).

The per-sample Bell operator is (e^{ip1} BRANCH_ATOM1 + e^{ip2} BRANCH_ATOM2)
/ sqrt(2) with fixed real branches, so every per-sample probability reduces
exactly (sample by sample, not in the thermal average) to a cosine of the
drawn phases:
  mc_probabilities     X^2 + Y^2 + 2 X Y cos(p1 - p2), with the real
                       X = BRANCH_ATOM1 R / sqrt(2), Y = BRANCH_ATOM2 R / sqrt(2)
  mc_bell_measurement  BRANCH_ATOMa BRANCH_ATOMb^T is +-I or +-K (K the signed
                       anti-diagonal), so with dp = p1 - p2, dq = q1 - q2 and
                       norm = (1 + 2 xi)^2 the diagonal is
                       (1/2 (1 + cos(dp - dq)) + 4 xi^2) / norm, the
                       anti-diagonal 1/2 (1 - cos(dp + dq)) / norm and the
                       other eight entries 2 xi / norm; a chunk sums these
                       three values and their squares
  mc_f_squared         |f|^2 = 2 + 2 cos((q - q_miss) . (dr1 - dr2))
tests/test_oracle.py pins these to the dense per-sample matrix products.

mc_decoherence and mc_probabilities read the first stage of each chunk and
mc_bell_measurement the first two, drawn in that order from the same
substream, so with one cfg and trap they all see the same stage phases.
mc_thermal returns all three (one Bell table per xi) from one draw of each
stage.  mc_f_squared draws a different stream (photon, missed photon,
displacements) and is separate.

Reproducibility contract: sampling is split into chunks of cfg.chunk_size;
chunk i uses the substream SeedSequence(cfg.seed, spawn_key=(i,)) and the
partial sums are reduced in chunk order.  Results are therefore bit-identical
for a fixed (seed, chunk_size, n_samples) no matter how many workers run the
chunks, and each estimate of mc_thermal is bit-identical to the separate
estimator's.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gates import BRANCH_ATOM1, BRANCH_ATOM2, raman_matrix
from .motion import OpticsParams, TrapParams, axis_variance

SQRT2 = np.sqrt(2.0)

# Kinds of Bell-measurement entry: 0 on the support of I, 1 on that of
# K = BRANCH_ATOM1 BRANCH_ATOM2^T (the clean/clean bracket), 2 for the 8
# single-sided double leaks
_ENTRY_KIND = np.where(np.eye(4, dtype=bool), 0, np.where(BRANCH_ATOM1 @ BRANCH_ATOM2.T, 1, 2))


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 100_000
    seed: int = 0
    chunk_size: int = 10_000

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class DecoherenceEstimate:
    """Decoherence estimate plus the sine-average symmetry diagnostic."""

    estimate: McEstimate
    imaginary_part: McEstimate


@dataclass(frozen=True)
class MatrixEstimate:
    mean: np.ndarray
    std_error: np.ndarray
    n: int
    row_sum_max_dev: float | None = None


def _chunk_counts(cfg: McConfig) -> list[int]:
    full, rem = divmod(cfg.n_samples, cfg.chunk_size)
    return [cfg.chunk_size] * full + ([rem] if rem else [])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _map_chunks(fn, cfg: McConfig, workers: int) -> list:
    tasks = list(enumerate(_chunk_counts(cfg)))
    if workers <= 1:
        return [fn(_chunk_rng(cfg.seed, i), count) for i, count in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: fn(_chunk_rng(cfg.seed, t[0]), t[1]), tasks))


def _reduce_chunks(fn, cfg: McConfig, workers: int, ops=None) -> list:
    """Fold the fields fn returns per chunk, in chunk order, each from 0.

    Fields are added unless ops gives another binary function per field.
    The order is fixed, so the result is bit-identical for any worker count.
    """
    parts = _map_chunks(fn, cfg, workers)
    ops = ops or (operator.add,) * len(parts[0])
    totals = [0.0] * len(ops)
    for part in parts:
        totals = [op(t, p) for op, t, p in zip(ops, totals, part)]
    return totals


def _moments(total, total_sq, n: int):
    """Mean and standard error of n samples from their sum and sum of squares."""
    mean = total / n
    if n == 1:
        return mean, np.full_like(mean, np.nan)
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _estimate(total: float, total_sq: float, n: int) -> McEstimate:
    mean, se = _moments(total, total_sq, n)
    return McEstimate(float(mean), float(se), n)


def sample_displacement(trap: TrapParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, 3) thermal displacements in inverse-wavenumber units."""
    dr = rng.standard_normal((size, 3))
    dr *= np.sqrt([axis_variance(trap, ax) for ax in ("x", "y", "z")])
    return dr


def _sample_dipole_pattern(rng: np.random.Generator, size: int, cos_lo: float,
                           theta_min: float | None = None) -> np.ndarray:
    """Rejection sampling of the x-dipole pattern 1 - sin^2(theta) cos^2(phi).

    Proposals u = cos(theta) are uniform on [cos_lo, 1), the cap
    cos(theta) >= cos_lo; with theta_min set, directions with
    theta <= theta_min (u >= cos(theta_min)) are rejected too.  Returns
    (size, 3) unit vectors (sin(theta) cos(phi), sin(theta) sin(phi), u);
    sin(phi) and sin(theta) are evaluated for accepted proposals only.

    The pattern is >= u^2, so w < u^2 (outside the excluded cone) is a sure
    accept; on a cap (cos_lo >= 0) cos(phi) and the exact test run only up
    to the sure accept that completes the batch (on the whole batch if it
    holds too few).  With cos_lo < 0 about E[u^2] = 1/3 of the proposals
    are sure accepts, too few to complete a batch of 2 (size - have) except
    in the small last rounds, so the test is skipped.  Every batch is still
    drawn in full, so the draws and accepts are unchanged.
    """
    k = np.empty((size, 3))
    u_max = None if theta_min is None else np.cos(theta_min)
    have = 0
    while have < size:
        need = size - have
        batch = max(2 * need, 64)
        u = rng.uniform(cos_lo, 1.0, batch)
        phi = rng.uniform(0.0, 2.0 * np.pi, batch)
        w = rng.uniform(0.0, 1.0, batch)
        if cos_lo >= 0.0:
            # sure accepts; the margin of 16 units of 2^-53 exceeds the
            # round-off of this bound and of the exact test below
            sure = w < u * u - 2.0**-49
            if u_max is not None:
                sure &= u < u_max
            if np.count_nonzero(sure) >= need:
                end = np.flatnonzero(sure)[need - 1] + 1
                u, phi, w = u[:end], phi[:end], w[:end]
        cos_phi = np.cos(phi)
        sin2 = (1.0 - u) * (1.0 + u)
        keep = w < 1.0 - sin2 * cos_phi * cos_phi
        if u_max is not None:
            keep &= u < u_max
        idx = np.flatnonzero(keep)[:need]
        rows = k[have:have + idx.size]
        sin_theta = np.sqrt(sin2[idx])
        rows[:, 0] = sin_theta * cos_phi[idx]
        rows[:, 1] = sin_theta * np.sin(phi[idx])
        rows[:, 2] = u[idx]
        have += idx.size
    return k


def sample_photon_direction(optics: OpticsParams, rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """(size, 3) unit vectors of registered photons inside the cone."""
    return _sample_dipole_pattern(rng, size, np.cos(optics.theta0))


def sample_dipole_direction(rng: np.random.Generator, size: int,
                            exclude_theta0: float | None = None) -> np.ndarray:
    """(size, 3) unit vectors from the full-sphere x-dipole pattern (missed photons).

    With exclude_theta0 set, directions inside that cone are rejected too,
    restricting the missed photon to the complement of the collection cone.
    """
    return _sample_dipole_pattern(rng, size, -1.0, exclude_theta0)


def momentum_kick(direction: np.ndarray) -> np.ndarray:
    """(n, 3) components of q/k = e_x - k for excitation along x, photon along k."""
    q = -direction
    q[:, 0] += 1.0
    return q


def _phase_difference(trap, optics, rng, count):
    """One stage of draws (photon direction, then both atom displacements)
    and its relative motional phase q . (dr1 - dr2)."""
    q = momentum_kick(sample_photon_direction(optics, rng, count))
    dr = sample_displacement(trap, rng, count)
    dr -= sample_displacement(trap, rng, count)
    return np.einsum("ij,ij->i", q, dr)


@dataclass(frozen=True)
class _Part:
    """One estimate reduced from the stage phases of each chunk.

    sums(count, *phases) reads the first `stages` stage phases of a chunk and
    returns its partial sums; ops folds each sum across chunks and
    finish(totals) turns the folded sums into the estimate.
    """

    stages: int
    sums: Callable
    ops: tuple
    finish: Callable


def _decoherence_part(cfg: McConfig) -> _Part:
    def sums(count, dp):
        d, s = 2.0 * np.sin(0.5 * dp) ** 2, np.sin(dp)
        return (d.sum(), (d * d).sum(), s.sum(), (s * s).sum())

    def finish(totals):
        d1, d2, s1, s2 = totals
        return DecoherenceEstimate(estimate=_estimate(d1, d2, cfg.n_samples),
                                   imaginary_part=_estimate(s1, s2, cfg.n_samples))

    return _Part(1, sums, (operator.add,) * 4, finish)


def _probabilities_part(theta1: float, theta2: float, cfg: McConfig) -> _Part:
    r = raman_matrix(theta1, theta2).real
    x = BRANCH_ATOM1 @ r / SQRT2
    y = BRANCH_ATOM2 @ r / SQRT2
    constant, cross = x * x + y * y, 2.0 * x * y
    row_constant, row_cross = constant.sum(axis=1), cross.sum(axis=1)

    def sums(count, dp):
        # per sample constant + cross * c with c = cos(delta): the sums over
        # the chunk need only the sums of c and c^2
        c = np.cos(dp)
        c1, c2 = c.sum(), (c * c).sum()
        # each row sum is monotone in c, rounding included: the extremes bound it
        rows = row_constant + np.array([c.min(), c.max()])[:, None] * row_cross
        dev = float(np.max(np.abs(rows - 1.0)))
        return (count * constant + c1 * cross,
                count * constant**2 + 2.0 * c1 * constant * cross + c2 * cross**2, dev)

    def finish(totals):
        total, total_sq, worst = totals
        return MatrixEstimate(*_moments(total, total_sq, cfg.n_samples), cfg.n_samples, worst)

    return _Part(1, sums, (operator.add, operator.add, max), finish)


def _bell_measurement_part(xi: float, cfg: McConfig) -> _Part:
    if xi < 0:
        raise ValueError("scattering ratio must be >= 0")
    norm = (1.0 + 2.0 * xi) ** 2
    # the 8 leak entries are 2 xi / norm in every sample; their sums are added
    # one sample at a time, the order whose round-off bench/reference.json pins
    leak = 2.0 * xi / norm
    leak_sums = {count: [np.cumsum(np.full(count, v))[-1] for v in (leak, leak * leak)]
                 for count in set(_chunk_counts(cfg))}

    def sums(count, dp, dq):
        diag = (0.5 * (1.0 + np.cos(dp - dq)) + 4.0 * xi * xi) / norm
        anti = 0.5 * (1.0 - np.cos(dp + dq)) / norm
        s1, s2 = leak_sums[count]
        table = np.array([[diag.sum(), anti.sum(), s1],
                          [(diag * diag).sum(), (anti * anti).sum(), s2]])
        return tuple(table[:, _ENTRY_KIND])

    def finish(totals):
        return MatrixEstimate(*_moments(*totals, cfg.n_samples), cfg.n_samples)

    return _Part(2, sums, (operator.add, operator.add), finish)


def _sample_parts(trap: TrapParams, optics: OpticsParams, cfg: McConfig,
                  parts: list[_Part], workers: int) -> list:
    """Estimates of every part from one pass over the chunks.

    Each chunk draws as many stages as the deepest part reads, in stage
    order, and hands the same phase arrays to every part, so a part's
    estimate is bit-identical to the one it gives on its own.
    """
    depth = max(part.stages for part in parts)

    def chunk(rng, count):
        phases = [_phase_difference(trap, optics, rng, count) for _ in range(depth)]
        return [s for part in parts for s in part.sums(count, *phases[:part.stages])]

    totals = iter(_reduce_chunks(chunk, cfg, workers, [op for part in parts for op in part.ops]))
    return [part.finish([next(totals) for _ in part.ops]) for part in parts]


def mc_decoherence(trap: TrapParams, optics: OpticsParams, cfg: McConfig,
                   workers: int = 1) -> DecoherenceEstimate:
    """Estimate D = 1 - <cos(q.(dr1 - dr2))> by direct sampling.

    Each sample contributes 2 sin^2(delta / 2), equal to 1 - cos(delta) but
    without its cancellation, so D and its standard error keep their digits
    far below T_cr.  The sine average is returned as a diagnostic; it
    vanishes by symmetry, so the cosine alone carries the dephasing.
    """
    return _sample_parts(trap, optics, cfg, [_decoherence_part(cfg)], workers)[0]


def mc_probabilities(trap: TrapParams, optics: OpticsParams,
                     theta1: float, theta2: float, cfg: McConfig,
                     workers: int = 1) -> MatrixEstimate:
    """Outcome probability matrix estimated sample by sample.

    Each sample's Bell operator is composed with the analysis rotation and
    its entry moduli squared (the cosine identity above).  Rows sum to 1 per
    sample (the composition preserves row norms); the largest per-sample
    deviation is reported in row_sum_max_dev.
    """
    part = _probabilities_part(theta1, theta2, cfg)
    return _sample_parts(trap, optics, cfg, [part], workers)[0]


def mc_f_squared(trap: TrapParams, optics: OpticsParams, cfg: McConfig,
                 missed_outside_cone: bool = False, workers: int = 1) -> McEstimate:
    """Mean squared modulus of the double-emission interference factor.

    f = e^{i(q.dr1 + q_miss.dr2)} + e^{i(q.dr2 + q_miss.dr1)} adds the two
    assignments of (registered, missed) photons to the two atoms.  |f|^2 is
    4 for frozen atoms and decays to 2 once motion scrambles the relative
    phase.  The missed photon is drawn from the full-sphere dipole pattern
    by default (it is unobserved); missed_outside_cone restricts it to the
    complement of the collection cone instead.
    """
    exclude = optics.theta0 if missed_outside_cone else None

    def chunk(rng, count):
        k = sample_photon_direction(optics, rng, count)
        dk = sample_dipole_direction(rng, count, exclude)
        dk -= k  # q - q_miss = k_miss - k
        dr = sample_displacement(trap, rng, count)
        dr -= sample_displacement(trap, rng, count)
        v = 2.0 + 2.0 * np.cos(np.einsum("ij,ij->i", dk, dr))
        return (v.sum(), (v * v).sum())

    return _estimate(*_reduce_chunks(chunk, cfg, workers), cfg.n_samples)


def mc_bell_measurement(trap: TrapParams, optics: OpticsParams, xi: float,
                        cfg: McConfig, workers: int = 1) -> MatrixEstimate:
    """Prepare-then-measure probability matrix with independent stage draws.

    The measurement stage projects onto the Bell states decorated with its
    own motional phases, so its bracket is the conjugate transpose of the
    second-stage Bell operator (identical to the inverse once the atoms are
    frozen).  The four field states - clean/clean, double/clean,
    clean/double, double/double - are orthogonal, so their branch
    probabilities add; the double-excitation brackets carry the mean branch
    weight sqrt(2 xi) and the whole table is normalized by (1 + 2 xi)^2.
    Per sample, clean/clean is 1/2 ((e^{i(p1-q1)} + e^{i(p2-q2)}) I +
    (e^{i(p1-q2)} - e^{i(p2-q1)}) K) with K = BRANCH_ATOM1 BRANCH_ATOM2^T.

    Row sums equal 1 on average (exactly 1 at T = 0); per sample they
    fluctuate with the overlap of the two stages' decorated bases.
    """
    return _sample_parts(trap, optics, cfg, [_bell_measurement_part(xi, cfg)], workers)[0]


@dataclass(frozen=True)
class ThermalEstimate:
    """The estimates of mc_thermal, each equal to its single-estimator call."""

    decoherence: DecoherenceEstimate
    probabilities: MatrixEstimate
    bell_measurement: tuple[MatrixEstimate, ...]


def mc_thermal(trap: TrapParams, optics: OpticsParams, theta1: float, theta2: float,
               xis: Iterable[float], cfg: McConfig, workers: int = 1) -> ThermalEstimate:
    """mc_decoherence, mc_probabilities at (theta1, theta2) and one
    mc_bell_measurement per xi in xis, from one draw of each stage.

    The results are bit-identical to the separate calls with the same cfg,
    which would draw the same stages again for every estimate.
    """
    parts = [_decoherence_part(cfg), _probabilities_part(theta1, theta2, cfg)]
    parts += [_bell_measurement_part(xi, cfg) for xi in xis]
    decoherence, probabilities, *bell = _sample_parts(trap, optics, cfg, parts, workers)
    return ThermalEstimate(decoherence, probabilities, tuple(bell))


__all__ = [
    "DecoherenceEstimate",
    "MatrixEstimate",
    "McConfig",
    "McEstimate",
    "ThermalEstimate",
    "mc_bell_measurement",
    "mc_decoherence",
    "mc_f_squared",
    "mc_probabilities",
    "mc_thermal",
    "momentum_kick",
    "sample_dipole_direction",
    "sample_displacement",
    "sample_photon_direction",
]
