"""Monte-Carlo cross-checks that avoid every closed-form average.

Each estimator draws photon directions from the dipole pattern and atom
displacements from the thermal Gaussians, evaluates the per-sample operator
pipeline and only then averages.  Agreement with the quadrature and
closed-form routes (within a few standard errors) validates both sides.

Directions are (n, 3) unit vectors k drawn without arccos (the proposals
and the draws are those of the earlier (theta, phi) sampler, which
tests/test_oracle.py keeps as the reference); the kick is q = e_x - k, and a
stage enters every estimator only through delta = q . (dr1 - dr2).

The per-sample Bell operator is (e^{ip1} B1 + e^{ip2} B2) / sqrt(2) with the
fixed real branches B1, B2 of gates.bell_matrix, so every per-sample
probability reduces exactly (sample by sample, not in the thermal average)
to a cosine of the drawn phases:
  mc_probabilities     X^2 + Y^2 + 2 X Y cos(p1 - p2), both terms gates._path_terms(X, Y)
                       of the real paths (X, Y) = gates.bell_paths(R) = (B1 R, B2 R) / sqrt(2)
  mc_bell_measurement  Ba Bb^T is +-I or +-K (K the signed anti-diagonal;
                       gates.BELL_MEAS_KIND marks which), so with dp = p1 - p2,
                       dq = q1 - q2 and norm = (1 + 2 xi)^2 the diagonal is
                       (1/2 (1 + cos(dp - dq)) + 4 xi^2) / norm, the
                       anti-diagonal 1/2 (1 - cos(dp + dq)) / norm and the
                       other eight entries 2 xi / norm; a chunk sums these
                       three values and their squares, for every xi from one
                       pair of stage cosines
  mc_f_squared         |f|^2 = 2 + 2 cos((q - q_miss) . (dr1 - dr2))
tests/test_oracle.py pins these to the dense per-sample matrix products.

mc_decoherence and mc_probabilities read the first stage of each chunk and
mc_bell_measurement the first two, drawn in that order from the same
substream, so with one cfg and trap they all see the same stage phases.
mc_thermal returns all three (one Bell table per xi) from one draw of each
stage.  mc_f_squared draws a different stream (photon, missed photon from
the full sphere, displacements) and is separate.

The draws do not depend on the temperature: under the equipartition law each
axis's thermal spread is proportional to sqrt(T), so the stage phase at T is
sqrt(T / T0) times the phase drawn at T0.  mc_thermal returns the D of
mc_decoherence (an McEstimate, without the sine diagnostic) at extra
temperatures from the phases drawn at trap.temperature, scaled by that
factor; these agree with the separate call at T to round-off, not bit for
bit (the scale rounds differently from the per-axis spreads).

Reproducibility contract: sampling is split into chunks of cfg.chunk_size;
chunk i uses the substream SeedSequence(cfg.seed, spawn_key=(i,)) and the
partial sums are folded in chunk order as the chunks arrive.  Results are
therefore bit-identical for a fixed (seed, chunk_size, n_samples) no matter
how many workers run the chunks, and each estimate of mc_thermal at
trap.temperature is bit-identical to the separate estimator's.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import chain, count, islice, repeat

import numpy as np

from .gates import BELL_MEAS_KIND, _check_xi, _path_terms, bell_paths, raman_matrix
from .motion import OpticsParams, TrapParams, axis_variance


def _index(name: str, value) -> int:
    """value as an int (numpy integers too); bools and other types raise ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 100_000
    seed: int = 0
    chunk_size: int = 10_000

    def __post_init__(self):
        for name, lo in (("n_samples", 1), ("seed", 0), ("chunk_size", 1)):
            value = _index(name, getattr(self, name))
            if value < lo:
                raise ValueError(f"{name} must be >= {lo}")
            object.__setattr__(self, name, value)


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


def _reduce_chunks(fn, cfg: McConfig, workers: int, ops=None) -> list:
    """Fold the fields fn(rng, count) returns per chunk, in chunk order, each from 0.

    Chunk i holds cfg.chunk_size samples (the last one the remainder) and
    draws from the substream SeedSequence(cfg.seed, spawn_key=(i,)).  Fields
    are added unless ops gives another binary function per field.  Each
    chunk is folded as it arrives, so no list of partial sums is kept, and
    the order is fixed, so the result is bit-identical for any worker count.
    No more threads are started than there are chunks, and at most two
    chunks per thread are submitted ahead of the fold: enough to keep every
    thread busy, few enough that memory does not grow with the chunk count.
    Every chunk runs under the caller's numpy error state, which worker
    threads do not inherit, so an overflow that raises in the caller raises
    at any worker count.
    """
    full, rem = divmod(cfg.n_samples, cfg.chunk_size)
    counts = chain(repeat(cfg.chunk_size, full), [rem] if rem else [])
    workers = min(workers, full + bool(rem))
    ops = ops or repeat(operator.add)
    err = np.geterr()

    def chunk(index, size):
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
        with np.errstate(**err):
            return fn(np.random.default_rng(seq), size)

    def fold(totals, part):
        return [op(t, p) for op, t, p in zip(ops, totals, part)]

    def in_order(pool):
        jobs = map(pool.submit, repeat(chunk), count(), counts)
        window = deque(islice(jobs, 2 * workers))
        while window:
            part = window.popleft().result()
            window.extend(islice(jobs, 1))
            yield part

    if workers <= 1:
        return reduce(fold, map(chunk, count(), counts), repeat(0.0))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reduce(fold, in_order(pool), repeat(0.0))


def _moments(total, total_sq, n: int):
    """Mean and standard error of n samples from their sum and sum of squares."""
    mean = total / n
    if n == 1:
        return mean, np.full_like(mean, np.nan)
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _estimates(total, total_sq, n: int) -> list[McEstimate]:
    """One McEstimate per element of the sums (a scalar sum gives one)."""
    mean, se = _moments(total, total_sq, n)
    return [McEstimate(float(m), float(e), n) for m, e in zip(np.ravel(mean), np.ravel(se))]


def _check_one_temperature(trap: TrapParams) -> None:
    """Reject an array trap.temperature: every estimator draws at one temperature."""
    if np.ndim(trap.temperature):
        raise ValueError(f"the oracle draws at one temperature, got {trap.temperature}")


def sample_displacement(trap: TrapParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, 3) thermal displacements in inverse-wavenumber units, at the one
    temperature every estimator draws at: an array temperature raises."""
    _check_one_temperature(trap)
    dr = rng.standard_normal((size, 3))
    dr *= np.sqrt(axis_variance(trap))
    return dr


def _sample_dipole_pattern(rng: np.random.Generator, size: int, cos_lo: float) -> np.ndarray:
    """Rejection sampling of the x-dipole pattern 1 - sin^2(theta) cos^2(phi).

    Proposals u = cos(theta) are uniform on [cos_lo, 1), the cap
    cos(theta) >= cos_lo.  Returns (size, 3) unit vectors (sin(theta) cos(phi),
    sin(theta) sin(phi), u); sin(phi) and sin(theta) are evaluated for
    accepted proposals only.

    Each batch is drawn in full and its first accepts, as many as are
    missing, are kept.  The scaling, cos(phi) and the test run on
    consecutive blocks of it, each (missing accepts) / (mean acceptance
    (4 + cos_lo + cos_lo^2) / 6) long, until none is missing: the draws and
    accepts are those of a test of the whole batch, with few proposals tested
    past the last accept.
    """
    rate = (4.0 + cos_lo + cos_lo * cos_lo) / 6.0
    k = np.empty((size, 3))
    have = 0
    while have < size:
        batch = max(2 * (size - have), 64)
        raw_u, raw_phi, w = rng.random(batch), rng.random(batch), rng.random(batch)
        start = 0
        while have < size and start < batch:
            need = size - have
            block = slice(start, min(start + int(need / rate) + 1, batch))
            # views scaled in place: rng.uniform(lo, hi, n) is lo + (hi - lo) * rng.random(n)
            u, phi = raw_u[block], raw_phi[block]
            u *= 1.0 - cos_lo
            u += cos_lo
            phi *= 2.0 * np.pi
            cos_phi = np.cos(phi)
            sin2 = (1.0 - u) * (1.0 + u)
            idx = np.flatnonzero(w[block] < 1.0 - sin2 * cos_phi * cos_phi)[:need]
            rows = k[have:have + idx.size]
            sin_theta = np.sqrt(sin2[idx])
            rows[:, 0] = sin_theta * cos_phi[idx]
            rows[:, 1] = sin_theta * np.sin(phi[idx])
            rows[:, 2] = u[idx]
            have += idx.size
            start = block.stop
    return k


def sample_photon_direction(optics: OpticsParams, rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """(size, 3) unit vectors of registered photons inside the cone."""
    return _sample_dipole_pattern(rng, size, np.cos(optics.theta0))


def sample_dipole_direction(rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, 3) unit vectors from the full-sphere x-dipole pattern (missed photons)."""
    return _sample_dipole_pattern(rng, size, -1.0)


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


def _decoherence_part(cfg: McConfig, scales=()) -> _Part:
    """D and the sine diagnostic of the drawn phases, then D alone of the
    phases times each of scales: one McEstimate each.  Per sample D is
    2 sin^2(delta / 2), equal to 1 - cos(delta) without its cancellation."""
    scale = np.array(scales, dtype=float)[:, None]

    def sums(count, dp):
        scaled = 2.0 * np.sin(0.5 * (scale * dp)) ** 2
        rows = [2.0 * np.sin(0.5 * dp) ** 2, np.sin(dp), *scaled]
        return np.array([v.sum() for v in rows]), np.array([(v * v).sum() for v in rows])

    return _Part(1, sums, (operator.add,) * 2, lambda totals: _estimates(*totals, cfg.n_samples))


def _probabilities_part(theta1: float, theta2: float, cfg: McConfig) -> _Part:
    constant, cross = _path_terms(*bell_paths(raman_matrix(theta1, theta2).real))
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


def _bell_measurement_part(xis, cfg: McConfig) -> _Part:
    """One MatrixEstimate per xi in xis, from one pair of stage cosines per chunk."""
    xi = np.array(xis, dtype=float)
    _check_xi(xi)
    xi = xi[:, None]  # one row of samples per ratio
    norm = np.float_power(1.0 + 2.0 * xi, 2)  # libm pow, as a scalar's ** 2
    # the 8 leak entries are 2 xi / norm in every sample; their sums are added
    # one sample at a time, the order whose round-off bench/reference.json pins
    leak = (2.0 * xi / norm)[:, 0]
    leak_sums = {count: np.cumsum(np.broadcast_to([leak, leak * leak], (count, 2, leak.size)),
                                  axis=0)[-1]
                 for count in {min(cfg.chunk_size, cfg.n_samples),
                               cfg.n_samples % cfg.chunk_size} - {0}}

    def sums(count, dp, dq):
        diag = (0.5 * (1.0 + np.cos(dp - dq)) + 4.0 * xi * xi) / norm
        anti = 0.5 * (1.0 - np.cos(dp + dq)) / norm
        s1, s2 = leak_sums[count]
        table = np.array([[diag.sum(axis=1), anti.sum(axis=1), s1],
                          [(diag * diag).sum(axis=1), (anti * anti).sum(axis=1), s2]])
        return tuple(table.swapaxes(1, 2)[..., BELL_MEAS_KIND])

    def finish(totals):
        mean, se = _moments(*totals, cfg.n_samples)
        return tuple(MatrixEstimate(m, e, cfg.n_samples) for m, e in zip(mean, se))

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

    ops = [op for part in parts for op in part.ops]
    totals = iter(_reduce_chunks(chunk, cfg, workers, ops))
    return [part.finish([next(totals) for _ in part.ops]) for part in parts]


def mc_decoherence(trap: TrapParams, optics: OpticsParams, cfg: McConfig,
                   workers: int = 1) -> DecoherenceEstimate:
    """Estimate D = 1 - <cos(q.(dr1 - dr2))> by direct sampling.

    Each sample contributes 2 sin^2(delta / 2), equal to 1 - cos(delta) but
    without its cancellation, so D and its standard error keep their digits
    far below T_cr.  The sine average is returned as a diagnostic; it
    vanishes by symmetry, so the cosine alone carries the dephasing.
    """
    return DecoherenceEstimate(*_sample_parts(trap, optics, cfg, [_decoherence_part(cfg)],
                                              workers)[0])


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
                 workers: int = 1) -> McEstimate:
    """Mean squared modulus of the double-emission interference factor.

    f = e^{i(q.dr1 + q_miss.dr2)} + e^{i(q.dr2 + q_miss.dr1)} adds the two
    assignments of (registered, missed) photons to the two atoms.  |f|^2 is
    4 for frozen atoms and decays to 2 once motion scrambles the relative
    phase.  Nobody observes the missed photon, so the average runs over
    every direction it can take: it is drawn from the full-sphere dipole
    pattern.  b2_matrix's branch weight sqrt(2 xi) is the <|f|^2> = 2 limit,
    not this average, which reads 4.0, 3.180, 2.896 and 2.566 at T/T_cr = 0,
    0.5, 1 and 3 (400 000 samples, seed 1, standard error <= 2.2e-3).
    """
    def chunk(rng, count):
        k = sample_photon_direction(optics, rng, count)
        dk = sample_dipole_direction(rng, count)
        dk -= k  # q - q_miss = k_miss - k
        dr = sample_displacement(trap, rng, count)
        dr -= sample_displacement(trap, rng, count)
        v = 2.0 + 2.0 * np.cos(np.einsum("ij,ij->i", dk, dr))
        return (v.sum(), (v * v).sum())

    return _estimates(*_reduce_chunks(chunk, cfg, workers), cfg.n_samples)[0]


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
    (e^{i(p1-q2)} - e^{i(p2-q1)}) K) with K = B1 B2^T.

    Row sums equal 1 on average (exactly 1 at T = 0); per sample they
    fluctuate with the overlap of the two stages' decorated bases.
    """
    return _sample_parts(trap, optics, cfg, [_bell_measurement_part((xi,), cfg)], workers)[0][0]


@dataclass(frozen=True)
class ThermalEstimate:
    """The estimates of mc_thermal.

    The first three equal their single-estimator calls bit for bit;
    decoherence_at holds D alone, the `estimate` of mc_decoherence (to
    round-off), per extra temperature.
    """

    decoherence: DecoherenceEstimate
    probabilities: MatrixEstimate
    bell_measurement: tuple[MatrixEstimate, ...]
    decoherence_at: tuple[McEstimate, ...]


def _phase_scale(trap: TrapParams, temperature: float) -> float:
    """sqrt(T / trap.temperature): every thermal spread is proportional to sqrt(T)."""
    _check_one_temperature(trap)
    _check_one_temperature(trap.with_temperature(temperature))  # and TrapParams' own checks
    if temperature == 0.0:
        return 0.0
    if trap.temperature == 0.0:
        raise ValueError("a positive extra temperature needs trap.temperature > 0")
    return float(np.sqrt(temperature / trap.temperature))


def mc_thermal(trap: TrapParams, optics: OpticsParams, theta1: float, theta2: float,
               xis: Iterable[float], cfg: McConfig, workers: int = 1,
               temperatures: Iterable[float] = ()) -> ThermalEstimate:
    """mc_decoherence, mc_probabilities at (theta1, theta2) and one
    mc_bell_measurement per xi in xis, from one draw of each stage, plus
    the D of mc_decoherence at each of temperatures from the same draw.

    The first three are bit-identical to the separate calls with the same
    cfg, which would draw the same stages again for every estimate.  Under
    the equipartition law the stage phase q . (dr1 - dr2) at T is
    sqrt(T / trap.temperature) times the phase drawn at trap.temperature,
    so an extra temperature scales the drawn phases and agrees with the
    separate call at T to round-off, not bit for bit.  A positive extra
    temperature needs trap.temperature > 0.
    """
    xis = tuple(xis)
    bell = [_bell_measurement_part(xis, cfg)] if xis else []  # no second stage for no xi
    scales = [_phase_scale(trap, t) for t in temperatures]
    parts = [_decoherence_part(cfg, scales), _probabilities_part(theta1, theta2, cfg), *bell]
    (d, sine, *extra), probabilities, *bells = _sample_parts(trap, optics, cfg, parts, workers)
    return ThermalEstimate(DecoherenceEstimate(d, sine), probabilities, bells[0] if bells else (),
                           tuple(extra))
