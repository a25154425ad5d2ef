import operator
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import chsh, cli, gates, motion, oracle, protocol
from bellsim.motion import DEFAULT_OPTICS, DEFAULT_TRAP

TCR = motion.t_crit(DEFAULT_TRAP, DEFAULT_OPTICS)
TRAP_HALF = DEFAULT_TRAP.with_temperature(0.5 * TCR)
CFG = oracle.McConfig(n_samples=40_000, seed=101, chunk_size=8_000)
THETA0 = DEFAULT_OPTICS.theta0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        oracle.McConfig(n_samples=0)
    with pytest.raises(ValueError):
        oracle.McConfig(chunk_size=0)


@pytest.mark.parametrize("args", [
    (1e4, 0, 1000), (100, 1.5, 10), (100, 2.0, 10), (100, 0, 10.0), (True, 0, 1),
    (100, False, 10), (100, 0, np.True_), ("100", 0, 10), (100, None, 10), (100, -1, 10),
], ids=["float-n", "float-seed", "integral-float-seed", "float-chunk", "bool-n",
        "bool-seed", "numpy-bool-chunk", "str-n", "none-seed", "negative-seed"])
def test_mc_config_rejects_unusable_values(args):
    with pytest.raises(ValueError):
        oracle.McConfig(*args)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda xi: protocol.bell_meas_fidelity(0.3, xi),
    lambda xi: protocol.cnot_fidelity(0.3, xi),
    lambda xi: protocol.bell_meas_matrix(0.3, xi),
    lambda xi: protocol.cnot_prob_matrix(0.3, xi),
    lambda xi: gates.b2_matrix(xi),
    lambda xi: chsh.e_gg_scatter(0.3, xi, 0.1, 0.2),
    lambda xi: chsh.s_gg_scatter_max(0.3, xi),
    lambda xi: oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, CFG),
    lambda xi: oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.1, 0.2, (xi,), CFG),
], ids=["bell_meas_fidelity", "cnot_fidelity", "bell_meas_matrix", "cnot_prob_matrix",
        "b2_matrix", "e_gg_scatter", "s_gg_scatter_max", "mc_bell_measurement", "mc_thermal"])
def test_nan_scattering_ratio_is_rejected(call):
    # every entry point that takes xi rejects NaN and a negative value with
    # the one message of gates._check_xi
    for xi in (NAN, -0.1):
        with pytest.raises(ValueError, match="^scattering ratio must be >= 0, got "):
            call(xi)


def test_nan_angle_has_no_scatter_threshold():
    for x in (NAN, np.inf, -np.inf):
        with pytest.raises(ValueError, match="no threshold exists at this angle"):
            chsh.scatter_threshold(0.3, fixed_x=x)


def test_mc_config_accepts_numpy_integers():
    cfg = oracle.McConfig(np.int64(300), np.uint32(7), np.int16(100))
    assert [type(v) for v in (cfg.n_samples, cfg.seed, cfg.chunk_size)] == [int] * 3
    assert cfg == oracle.McConfig(300, 7, 100)
    est = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, cfg)
    assert est == oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, oracle.McConfig(300, 7, 100))
    assert type(est.estimate.n) is int


def test_sample_displacement_frozen_at_t0():
    rng = np.random.default_rng(0)
    trap = DEFAULT_TRAP.with_temperature(0.0)
    dr = oracle.sample_displacement(trap, rng, 1000)
    assert np.max(np.abs(dr)) == 0.0


def test_sample_displacement_variances():
    rng = np.random.default_rng(1)
    dr = oracle.sample_displacement(TRAP_HALF, rng, 100_000)
    for i, target in enumerate(motion.axis_variance(TRAP_HALF)):
        sample_var = dr[:, i].var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (len(dr) - 1))
        assert abs(sample_var - target) <= 3 * se
    assert dr[:, 0].var() == pytest.approx(dr[:, 1].var(), rel=0.05)


@pytest.mark.parametrize("chunk", [3, 10_000])
@pytest.mark.parametrize("temperature", [[1e-5], [1e-6, 1e-5, 2e-5]], ids=["one", "three"])
@pytest.mark.parametrize("estimator", [
    lambda trap, cfg: oracle.mc_decoherence(trap, DEFAULT_OPTICS, cfg),
    lambda trap, cfg: oracle.mc_thermal(trap, DEFAULT_OPTICS, 0.1, 0.2, (0.05,), cfg),
    lambda trap, cfg: oracle.mc_f_squared(trap, DEFAULT_OPTICS, cfg),
    # an extra temperature scales the phases drawn at trap.temperature, and is one too
    lambda trap, cfg: oracle.mc_thermal(trap, DEFAULT_OPTICS, 0.1, 0.2, (), cfg,
                                        temperatures=(1e-5,)),
    lambda trap, cfg: oracle.mc_thermal(trap.with_temperature(1e-5), DEFAULT_OPTICS, 0.1, 0.2, (),
                                        cfg, temperatures=(trap.temperature,)),
], ids=["mc_decoherence", "mc_thermal", "mc_f_squared", "mc_thermal_at_an_extra_temperature",
        "mc_thermal_at_an_array_extra_temperature"])
def test_estimators_refuse_an_array_temperature(estimator, temperature, chunk):
    # the draws take one spread per axis: an array temperature would broadcast
    # over the sample rows (or fail to) instead of giving one estimate per value
    trap = DEFAULT_TRAP.with_temperature(temperature)
    with pytest.raises(ValueError, match="one temperature"):
        estimator(trap, oracle.McConfig(chunk, 0, chunk))


def _angle_sampler(rng, size, cos_lo):
    # reference: the same draws returned as angles, with arccos and sin(theta)
    thetas = np.empty(size)
    phis = np.empty(size)
    have = 0
    while have < size:
        batch = max(2 * (size - have), 64)
        theta = np.arccos(rng.uniform(cos_lo, 1.0, batch))
        phi = rng.uniform(0.0, 2.0 * np.pi, batch)
        keep = rng.uniform(0.0, 1.0, batch) < 1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2
        take = min(int(keep.sum()), size - have)
        thetas[have:have + take] = theta[keep][:take]
        phis[have:have + take] = phi[keep][:take]
        have += take
    return thetas, phis


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", [1, 7, 64, 3_000])
@pytest.mark.parametrize("case, theta0", [
    pytest.param("cone", THETA0, id="cone"),
    pytest.param("sphere", None, id="sphere"),
    pytest.param("cone", motion.THETA0_MIN, id="cone-at-theta0-min"),
    pytest.param("cone", np.pi / 2, id="cone-at-half-pi"),
])
def test_unit_vector_sampler_matches_angle_sampler(case, theta0, size, seed):
    # covers narrow cones, the hemisphere, the sphere and the 64-proposal floor
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if case == "cone":
        k = oracle.sample_photon_direction(motion.OpticsParams(theta0=theta0), rng, size)
        theta, phi = _angle_sampler(ref_rng, size, np.cos(theta0))
    else:
        k = oracle.sample_dipole_direction(rng, size)
        theta, phi = _angle_sampler(ref_rng, size, -1.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws consumed
    expected = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta)], axis=-1)
    np.testing.assert_allclose(k, expected, rtol=0, atol=1e-12)


def _sure_accept_sampler_literal(rng, size, cos_lo):
    # reference: the sampler that tested each batch up to the sure accept
    # (w < u^2) completing it, kept literally
    k = np.empty((size, 3))
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
            if np.count_nonzero(sure) >= need:
                end = np.flatnonzero(sure)[need - 1] + 1
                u, phi, w = u[:end], phi[:end], w[:end]
        cos_phi = np.cos(phi)
        sin2 = (1.0 - u) * (1.0 + u)
        keep = w < 1.0 - sin2 * cos_phi * cos_phi
        idx = np.flatnonzero(keep)[:need]
        rows = k[have:have + idx.size]
        sin_theta = np.sqrt(sin2[idx])
        rows[:, 0] = sin_theta * cos_phi[idx]
        rows[:, 1] = sin_theta * np.sin(phi[idx])
        rows[:, 2] = u[idx]
        have += idx.size
    return k


# None draws from the sphere
CONE_OR_SPHERE = st.one_of(st.none(), st.floats(motion.THETA0_MIN, np.pi / 2))


@given(CONE_OR_SPHERE, st.integers(1, 20_000), st.integers(0, 2**32 - 1))
@example(None, 1, 0)
@example(motion.THETA0_MIN, 20_000, 0)
@example(np.pi / 2, 64, 1)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_block_sampler_equals_the_sure_accept_sampler(theta0, size, seed):
    # same directions bit for bit and the same draws consumed, so every
    # estimate is unchanged; cos of a block equals cos of the same entries
    # of a longer slice under every numpy dispatch group
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if theta0 is None:
        k, expected = (oracle.sample_dipole_direction(rng, size),
                       _sure_accept_sampler_literal(ref_rng, size, -1.0))
    else:
        optics = motion.OpticsParams(theta0=theta0)
        k, expected = (oracle.sample_photon_direction(optics, rng, size),
                       _sure_accept_sampler_literal(ref_rng, size, np.cos(theta0)))
    assert np.array_equal(k, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _proposals_to_last_accept(seed, size, cos_lo):
    """Proposals a sampler must test: whole batches that hold too few
    accepts, then the last batch up to the accept that completes the draw."""
    rng, tested, need = np.random.default_rng(seed), 0, size
    while True:
        batch = max(2 * need, 64)
        sin2 = (1.0 - (u := rng.uniform(cos_lo, 1.0, batch))) * (1.0 + u)
        cos_phi = np.cos(rng.uniform(0.0, 2.0 * np.pi, batch))
        accepts = np.flatnonzero(rng.uniform(0.0, 1.0, batch) < 1.0 - sin2 * cos_phi * cos_phi)
        if accepts.size >= need:
            return tested + accepts[need - 1] + 1
        tested, need = tested + batch, need - accepts.size


class _CountingNumpy:
    """numpy, with the number of values passed to cos counted."""

    def __init__(self):
        self.cos_values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.cos_values += np.size(x)
        return np.cos(x)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("size", [1, 5, 100, 3_000, 10_000, 20_000])
@pytest.mark.parametrize("cos_lo", [np.cos(motion.THETA0_MIN), np.cos(THETA0), 0.0, -1.0],
                         ids=["cone-at-theta0-min", "cone", "hemisphere", "sphere"])
def test_sampler_tests_few_proposals_past_the_last_accept(monkeypatch, seed, size, cos_lo):
    # cos(phi) and the acceptance test run on the proposals up to the accept
    # that completes the draw, plus at most one block's margin of a few
    # standard deviations of the accept count
    numpy = _CountingNumpy()
    monkeypatch.setattr(oracle, "np", numpy)
    oracle._sample_dipole_pattern(np.random.default_rng(seed), size, cos_lo)
    rate = (4.0 + cos_lo + cos_lo * cos_lo) / 6.0  # mean acceptance
    needed = _proposals_to_last_accept(seed, size, cos_lo)
    assert needed <= numpy.cos_values <= needed + 1 + 4.0 * np.sqrt(size) / rate


# Bell-measurement entries a single-sided double excitation fills: the same
# 2 xi / (1 + 2 xi)^2 in every sample
LEAK = (np.eye(4) == 0) & (gates.BRANCH_ATOM1 @ gates.BRANCH_ATOM2.T == 0)


def _table_chunk(xi):
    # reference: each sample's (count, 4, 4) Bell-measurement table, summed
    # over the sample axis
    norm = (1.0 + 2.0 * xi) ** 2
    diagonal, anti_diagonal = np.eye(4, dtype=bool), ~LEAK & (np.eye(4) == 0)

    def chunk(rng, count):
        dp = oracle._phase_difference(TRAP_HALF, DEFAULT_OPTICS, rng, count)
        dq = oracle._phase_difference(TRAP_HALF, DEFAULT_OPTICS, rng, count)
        probs = np.full((count, 4, 4), 2.0 * xi / norm)
        probs[:, diagonal] = ((0.5 * (1.0 + np.cos(dp - dq)) + 4.0 * xi * xi) / norm)[:, None]
        probs[:, anti_diagonal] = (0.5 * (1.0 - np.cos(dp + dq)) / norm)[:, None]
        return probs.sum(axis=0), np.square(probs).sum(axis=0)

    return chunk


def _row_check_chunk(theta1, theta2):
    # reference: the largest deviation from 1 of each sample's (count, 4) row sums
    r = gates.raman_matrix(theta1, theta2).real
    x, y = gates.BRANCH_ATOM1 @ r / gates.SQRT2, gates.BRANCH_ATOM2 @ r / gates.SQRT2
    row_constant, row_cross = (x * x + y * y).sum(axis=1), (2.0 * x * y).sum(axis=1)

    def chunk(rng, count):
        c = np.cos(oracle._phase_difference(TRAP_HALF, DEFAULT_OPTICS, rng, count))
        return (float(np.max(np.abs(row_constant + c[:, None] * row_cross - 1.0))),)

    return chunk


# (n, chunk_size): one full chunk; full chunks and a remainder; a tiny run;
# one chunk shorter than chunk_size; full chunks only; chunks of one sample;
# a one-sample remainder after longer chunks
REDUCTION_CASES = [(300, 300), (10_500, 4_000), (7, 7), (5, 8), (600, 200), (5, 1), (9, 4)]


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
def test_reduce_chunks_folds_each_chunk_once_in_chunk_order(n, chunk_size, workers):
    # chunk i holds chunk_size samples (the last one the remainder) and draws
    # from substream i; an order-keeping fold sees the chunks as 0, 1, 2, ...
    cfg = oracle.McConfig(n, 53, chunk_size)

    def fn(rng, size):
        return size, [(size, rng.random())]

    def append(total, part):
        return [*total, *part] if total else part

    total, chunks = oracle._reduce_chunks(fn, cfg, workers, (operator.add, append))
    sizes = [chunk_size] * (n // chunk_size) + ([n % chunk_size] if n % chunk_size else [])
    draws = [np.random.default_rng(np.random.SeedSequence(53, spawn_key=(i,))).random()
             for i in range(len(sizes))]
    assert total == n
    assert chunks == list(zip(sizes, draws))


@pytest.mark.parametrize("workers", [1, 2])
def test_reduce_chunks_runs_every_chunk_under_the_callers_error_state(workers):
    # worker threads start from numpy's default state, where an overflow only
    # warns; the "raise" that cli.main sets must reach them
    cfg = oracle.McConfig(4, 3, 1)

    def fn(rng, size):
        return (float(np.exp(np.full(size, 1000.0)).sum()),)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        oracle._reduce_chunks(fn, cfg, workers)


@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
@pytest.mark.parametrize("xi", [0.0, 0.05, 1.0])
def test_bell_measurement_reduces_like_the_per_sample_table(xi, n, chunk_size):
    cfg = oracle.McConfig(n, 29, chunk_size)
    mean, se = oracle._moments(*oracle._reduce_chunks(_table_chunk(xi), cfg, 1), n)
    est = oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, cfg)
    # the leak entries keep the round-off of a sample-by-sample sum bit for
    # bit: their SE is not 0 but round-off, and bench/reference.json pins it
    assert np.array_equal(est.mean[LEAK], mean[LEAK])
    assert np.array_equal(est.std_error[LEAK], se[LEAK])
    np.testing.assert_allclose(est.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(est.std_error, se, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
@pytest.mark.parametrize("angles", [(0.3, 1.1), (np.pi / 7, np.pi / 5), (-2.0, 0.4)])
def test_row_sum_deviation_matches_every_sample_row(angles, n, chunk_size):
    cfg = oracle.McConfig(n, 37, chunk_size)
    (worst,) = oracle._reduce_chunks(_row_check_chunk(*angles), cfg, 1, (max,))
    est = oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, *angles, cfg)
    assert est.row_sum_max_dev == worst


def test_momentum_kick_is_ex_minus_direction():
    k = oracle.sample_dipole_direction(np.random.default_rng(5), 100)
    np.testing.assert_array_equal(oracle.momentum_kick(k), np.array([1.0, 0.0, 0.0]) - k)


def test_sample_photon_direction_stays_in_cone():
    rng = np.random.default_rng(2)
    k = oracle.sample_photon_direction(DEFAULT_OPTICS, rng, 20_000)
    assert np.all(k[:, 2] >= np.cos(DEFAULT_OPTICS.theta0))  # theta <= theta0
    assert np.all(k[:, 2] <= 1.0)  # theta >= 0
    np.testing.assert_allclose(np.linalg.norm(k, axis=1), 1.0, rtol=0, atol=1e-12)


def test_sample_photon_direction_matches_quadrature():
    rng = np.random.default_rng(3)
    n = 100_000
    k = oracle.sample_photon_direction(DEFAULT_OPTICS, rng, n)
    c0 = motion.angular_norm_const(DEFAULT_OPTICS.theta0)
    weight = 1.0 / (1.0 - k[:, 0] ** 2)  # 1 / (1 - sin^2 theta cos^2 phi)
    # each function of (theta, phi) with its value on the unit vectors
    for func, values in ((lambda th, ph: np.sin(th) ** 2, 1.0 - k[:, 2] ** 2),
                         (lambda th, ph: np.cos(th), k[:, 2]),
                         (lambda th, ph: np.sin(th) * np.cos(ph), k[:, 0])):
        # plain mean estimates the pattern-weighted average
        target, _ = motion.cap_quadrature(
            lambda th, ph: func(th, ph) * motion.angular_pdf(th, ph, DEFAULT_OPTICS),
            DEFAULT_OPTICS.theta0)
        se = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean() - target) <= 3 * se + 1e-9
        # inverse-pattern weighting recovers the bare cap integral
        weighted = values * weight
        bare, _ = motion.cap_quadrature(func, DEFAULT_OPTICS.theta0)
        se = weighted.std(ddof=1) / np.sqrt(n)
        assert abs(weighted.mean() - c0 * bare) <= 3 * c0 * se + 1e-9


def test_sample_dipole_direction_reaches_the_full_sphere():
    rng = np.random.default_rng(4)
    k = oracle.sample_dipole_direction(rng, 5000)
    assert k[:, 2].min() < 0.0  # full sphere reached: theta > pi/2


def test_mc_decoherence_exact_zero_at_t0():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    est = oracle.mc_decoherence(trap, DEFAULT_OPTICS, oracle.McConfig(5000, 5, 1000))
    assert est.estimate.mean == 0.0
    assert est.estimate.std_error == 0.0


@pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0])
def test_mc_decoherence_matches_quadrature(ratio):
    trap = DEFAULT_TRAP.with_temperature(ratio * TCR)
    est = oracle.mc_decoherence(trap, DEFAULT_OPTICS, CFG)
    closed = motion.d_exact(trap, DEFAULT_OPTICS)
    assert abs(est.estimate.mean - closed) <= 3 * est.estimate.std_error
    assert abs(est.imaginary_part.mean) <= 3 * est.imaginary_part.std_error


@pytest.mark.parametrize("ratio", [1e-10, 1e-12])
def test_mc_decoherence_resolves_tiny_dephasing(ratio):
    # D ~ ratio: forming it as 1 - <cos> cancelled every digit of the spread
    trap = DEFAULT_TRAP.with_temperature(ratio * TCR)
    est = oracle.mc_decoherence(trap, DEFAULT_OPTICS, oracle.McConfig(200_000, 41, 50_000))
    closed = motion.d_exact(trap, DEFAULT_OPTICS)
    assert 0.0 < est.estimate.std_error < 0.01 * closed
    assert abs(est.estimate.mean - closed) <= 3 * est.estimate.std_error


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.floats(-12.0, 1.0))
@example(-12.0)
def test_mc_decoherence_matches_quadrature_over_temperatures(log_ratio):
    # T/T_cr in [1e-12, 10]; 4 SE rather than 3 since 25 examples are drawn
    trap = DEFAULT_TRAP.with_temperature(10.0**log_ratio * TCR)
    est = oracle.mc_decoherence(trap, DEFAULT_OPTICS, oracle.McConfig(20_000, 61, 10_000))
    se = est.estimate.std_error
    assert np.isfinite(se) and se > 0.0
    assert abs(est.estimate.mean - motion.d_exact(trap, DEFAULT_OPTICS)) <= 4 * se


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.floats(-12.0, 1.0))
@example(-12.0)
def test_mc_probabilities_matches_closed_form_over_temperatures(log_ratio):
    # T/T_cr in [1e-12, 10] at 4 SE; far below T_cr the spread cancels in
    # _moments and the SE may read 0, so only SE >= 0 is required
    trap = DEFAULT_TRAP.with_temperature(10.0**log_ratio * TCR)
    est = oracle.mc_probabilities(trap, DEFAULT_OPTICS, np.pi / 7, np.pi / 5,
                                  oracle.McConfig(20_000, 67, 10_000))
    closed = chsh.probabilities_first_principles(motion.d_exact(trap, DEFAULT_OPTICS),
                                                 np.pi / 7, np.pi / 5)
    assert np.all(np.isfinite(est.std_error)) and np.all(est.std_error >= 0.0)
    assert np.all(np.abs(est.mean - closed) <= 4 * est.std_error + 1e-9)
    assert est.row_sum_max_dev <= 1e-12


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.floats(-12.0, 1.0), st.sampled_from([0.0, 0.05]))
@example(-12.0, 0.05)
def test_mc_bell_measurement_matches_closed_form_over_temperatures(log_ratio, xi):
    # as above, with both stages drawn at the same temperature
    trap = DEFAULT_TRAP.with_temperature(10.0**log_ratio * TCR)
    est = oracle.mc_bell_measurement(trap, DEFAULT_OPTICS, xi,
                                     oracle.McConfig(20_000, 71, 10_000))
    closed = protocol.bell_meas_matrix(motion.d_exact(trap, DEFAULT_OPTICS), xi)
    assert np.all(np.isfinite(est.std_error)) and np.all(est.std_error >= 0.0)
    assert np.all(np.abs(est.mean - closed) <= 4 * est.std_error + 1e-9)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.floats(-12.0, 1.0))
@example(-12.0)
def test_mc_f_squared_bounded_over_temperatures(log_ratio):
    # |f|^2 = 2 + 2 cos(.) averages to 2 + 2 exp(-var / 2) in [2, 4]; far
    # below T_cr it stays at 4 to round-off
    trap = DEFAULT_TRAP.with_temperature(10.0**log_ratio * TCR)
    est = oracle.mc_f_squared(trap, DEFAULT_OPTICS, oracle.McConfig(20_000, 73, 10_000))
    assert np.isfinite(est.std_error) and est.std_error >= 0.0
    assert 2.0 - 4 * est.std_error - 1e-9 <= est.mean <= 4.0 + 1e-9
    if log_ratio == -12.0:
        assert abs(est.mean - 4.0) <= 1e-9


def test_mc_decoherence_chunk_size_consistency():
    a = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS,
                              oracle.McConfig(40_000, 23, 5_000))
    b = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS,
                              oracle.McConfig(40_000, 23, 10_000))
    combined = np.hypot(a.estimate.std_error, b.estimate.std_error)
    assert abs(a.estimate.mean - b.estimate.mean) <= 3 * combined


def test_mc_bit_reproducible_across_workers():
    runs = [oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, CFG, workers=w)
            for w in (1, 2, 5)]
    assert runs[0].estimate.mean == runs[1].estimate.mean == runs[2].estimate.mean
    assert runs[0].estimate.std_error == runs[2].estimate.std_error


@pytest.mark.parametrize("estimator", [
    lambda w: oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, CFG, workers=w),
    lambda w: oracle.mc_f_squared(TRAP_HALF, DEFAULT_OPTICS, CFG, workers=w),
    lambda w: oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, 0.05, CFG, workers=w),
], ids=["probabilities", "f_squared", "bell_measurement"])
def test_every_estimator_bit_reproducible_across_workers(estimator):
    runs = [estimator(w) for w in (1, 2, 5)]
    for run in runs[1:]:
        assert np.array_equal(run.mean, runs[0].mean)
        assert np.array_equal(run.std_error, runs[0].std_error)


def _flat(est):
    if isinstance(est, oracle.DecoherenceEstimate):
        return [est.estimate.mean, est.estimate.std_error,
                est.imaginary_part.mean, est.imaginary_part.std_error]
    if isinstance(est, oracle.McEstimate):
        return [est.mean, est.std_error, est.n]
    return [est.mean, est.std_error, est.row_sum_max_dev]


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
def test_mc_thermal_equals_the_separate_estimators(n, chunk_size, workers):
    # one draw of each stage per chunk gives every estimate bit for bit, at
    # any worker count; the Bell tables share the stage cosines, so xi = 0
    # and repeated ratios are covered too
    cfg, xis, angles = oracle.McConfig(n, 43, chunk_size), (0.0, 0.05, 0.0, 1.0, 0.05), (0.3, 1.1)
    shared = oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, *angles, xis, cfg, workers=workers)
    separate = [oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, cfg),
                oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, *angles, cfg)]
    separate += [oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, cfg) for xi in xis]
    got = [shared.decoherence, shared.probabilities, *shared.bell_measurement]
    assert len(got) == len(separate)
    for a, b in zip(got, separate):
        for x, y in zip(_flat(a), _flat(b)):
            assert x is y if x is None else np.array_equal(x, y)


def _fold_peak_kb(workers, chunks):
    """Peak traced memory (KB) of mc_probabilities over `chunks` one-sample
    chunks, after a first call has loaded and cached what any run needs."""
    trap = DEFAULT_TRAP.with_temperature(1e-6)
    oracle.mc_probabilities(trap, DEFAULT_OPTICS, 0.3, 1.1, oracle.McConfig(200, 1, 1), workers)
    tracemalloc.start()
    try:
        oracle.mc_probabilities(trap, DEFAULT_OPTICS, 0.3, 1.1, oracle.McConfig(chunks, 1, 1),
                                workers)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_single_worker_fold_keeps_peak_memory_flat_in_the_chunk_count():
    # a kept list of partial sums costs about 0.6 KB per 4x4 chunk, some
    # 550 KB more at 1 000 chunks than at 100; folding as the chunks arrive
    # keeps the two peaks alike
    assert _fold_peak_kb(1, 1_000) - _fold_peak_kb(1, 100) < 128


def test_two_worker_fold_keeps_peak_memory_flat_in_the_chunk_count():
    # submitting every chunk up front holds a future and its partial sums per
    # chunk until the fold reaches it, some 1.8 MB more at 1 000 chunks than
    # at 100; the window of a few chunks per worker keeps the two peaks alike
    assert _fold_peak_kb(2, 1_000) - _fold_peak_kb(2, 100) < 128


def test_mc_thermal_rejects_negative_xi():
    with pytest.raises(ValueError):
        oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, (0.05, -0.2), CFG)


def _assert_round_off_equal(got, want):
    # an extra temperature's D (an McEstimate) and its SE equal the separate
    # call's to round-off
    assert isinstance(got, oracle.McEstimate) and got.n == want.estimate.n
    for a, b in ((got.mean, want.estimate.mean), (got.std_error, want.estimate.std_error)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
def test_mc_thermal_extra_temperatures_match_separate_calls(n, chunk_size, workers):
    # the phases drawn at T/T_cr = 0.5, scaled by sqrt(T / T_0), are the
    # phases drawn at T to round-off; bit for bit across worker counts
    cfg, ratios = oracle.McConfig(n, 47, chunk_size), (0.2, 1.0, 3.0)
    temps = [r * TCR for r in ratios]
    shared = oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, (0.05,), cfg,
                               workers=workers, temperatures=temps)
    assert len(shared.decoherence_at) == len(temps)
    for temp, got in zip(temps, shared.decoherence_at):
        want = oracle.mc_decoherence(DEFAULT_TRAP.with_temperature(temp), DEFAULT_OPTICS, cfg)
        _assert_round_off_equal(got, want)
    one = oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, (0.05,), cfg,
                            temperatures=temps)
    for a, b in zip(shared.decoherence_at, one.decoherence_at):
        assert all(np.array_equal(x, y) for x, y in zip(_flat(a), _flat(b)))


def test_mc_thermal_extra_temperature_equal_to_base_is_bit_identical():
    shared = oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, (), CFG,
                               temperatures=(TRAP_HALF.temperature,))
    separate = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, CFG)
    assert _flat(shared.decoherence) == _flat(separate)
    assert _flat(shared.decoherence_at[0]) == _flat(separate.estimate)


@pytest.mark.parametrize("base", [0.0, 0.5])
def test_mc_thermal_extra_temperature_zero_is_exactly_coherent(base):
    trap = DEFAULT_TRAP.with_temperature(base * TCR)
    shared = oracle.mc_thermal(trap, DEFAULT_OPTICS, 0.3, 1.1, (), CFG, temperatures=(0.0,))
    est = shared.decoherence_at[0]
    assert est.mean == 0.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("base, temperature", [
    (0.5, -1e-9), (0.5, float("nan")), (0.5, float("inf")), (0.5, -float("inf")), (0.0, 1e-9),
], ids=["negative", "nan", "inf", "minus-inf", "positive-over-zero-base"])
def test_mc_thermal_rejects_bad_extra_temperature(base, temperature):
    trap = DEFAULT_TRAP.with_temperature(base * TCR)
    with pytest.raises(ValueError):
        oracle.mc_thermal(trap, DEFAULT_OPTICS, 0.3, 1.1, (), CFG, temperatures=(temperature,))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.floats(-12.0, 1.0), st.floats(-12.0, 1.0))
@example(-12.0, 1.0)
@example(1.0, -12.0)
def test_mc_thermal_extra_temperature_over_temperatures(log_base, log_extra):
    # base and extra T/T_cr each in [1e-12, 10]: the scale spans 10^-6.5..10^6.5
    cfg = oracle.McConfig(2_000, 53, 500)
    trap = DEFAULT_TRAP.with_temperature(10.0**log_base * TCR)
    extra = DEFAULT_TRAP.with_temperature(10.0**log_extra * TCR)
    shared = oracle.mc_thermal(trap, DEFAULT_OPTICS, 0.3, 1.1, (), cfg,
                               temperatures=(extra.temperature,))
    _assert_round_off_equal(shared.decoherence_at[0],
                            oracle.mc_decoherence(extra, DEFAULT_OPTICS, cfg))


def _validate_draws(monkeypatch, samples):
    """(photon directions, displacements) drawn by `validate --samples samples`."""
    drawn, lock = {"photon": 0, "displacement": 0}, threading.Lock()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            with lock:
                drawn[name] += len(out)
            return out
        return wrapper

    monkeypatch.setattr(oracle, "sample_photon_direction",
                        counting("photon", oracle.sample_photon_direction))
    monkeypatch.setattr(oracle, "sample_displacement",
                        counting("displacement", oracle.sample_displacement))
    cli.main(["validate", "--samples", str(samples)])
    return drawn["photon"], drawn["displacement"]


@pytest.mark.parametrize("samples", [2_000, 20_000])
def test_validate_draws_each_shared_stage_once(monkeypatch, samples):
    # every T/T_cr = 0.2, 0.5 and 1 check reads the two stages of one shared
    # draw (0.2 and 1 rescale its phases); the reproducibility check draws
    # 2 000 samples of one stage on each side of the serial/threaded split,
    # whatever --samples says
    photon, displacement = _validate_draws(monkeypatch, samples)
    assert photon == 2 * samples + 2 * 2_000
    assert displacement == 2 * photon


# validate's --samples: less than one chunk, exactly 2 chunks, a partial third
# chunk, and the default 10 chunks
VALIDATE_SAMPLES = [2_000, 20_000, 20_001, 100_000]


@pytest.mark.parametrize("samples", VALIDATE_SAMPLES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_validate_reproducibility_sides_equal_the_serial_draw(monkeypatch, capsys, samples,
                                                               workers):
    # mc_bit_reproducible_across_workers draws both of its sides, serially and
    # on at least two threads, and each is the serial 2 000-sample draw in
    # 400-sample chunks bit for bit, whatever --samples and --workers say
    sides, workers_used = [], []
    decoherence = oracle.mc_decoherence

    def recording_decoherence(*args, workers=1):
        out = decoherence(*args, workers=workers)
        sides.append(out)
        workers_used.append(workers)
        return out

    monkeypatch.setattr(oracle, "mc_decoherence", recording_decoherence)
    cli.main(["validate", "--seed", "7", "--samples", str(samples), "--workers", str(workers)])
    assert "[  ok] mc_bit_reproducible_across_workers" in capsys.readouterr().out
    serial = decoherence(TRAP_HALF, DEFAULT_OPTICS, oracle.McConfig(2_000, 7, 400), workers=1)
    assert workers_used == [1, max(2, workers)]
    for side in sides:
        assert _flat(side) == _flat(serial)


@pytest.mark.parametrize("samples", VALIDATE_SAMPLES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_validate_reproducibility_check_crosses_the_threaded_split(monkeypatch, capsys,
                                                                   samples, workers):
    # one side of mc_bit_reproducible_across_workers runs on threads: its
    # 2 000 samples are drawn in 5 chunks, as a pool never starts more
    # threads than there are chunks
    pools = []

    class RecordingPool(oracle.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    cli.main(["validate", "--samples", str(samples), "--workers", str(workers)])
    assert "[  ok] mc_bit_reproducible_across_workers" in capsys.readouterr().out
    assert pools and min(pools) >= 2


def test_mc_statistical_acceptance_over_seeds():
    # fixed 100-seed panel: at least 99 estimates within 3 standard errors
    closed = motion.d_exact(TRAP_HALF, DEFAULT_OPTICS)
    misses = 0
    for seed in range(100):
        est = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS,
                                    oracle.McConfig(20_000, seed, 10_000))
        if abs(est.estimate.mean - closed) > 3 * est.estimate.std_error:
            misses += 1
    assert misses <= 1


def test_mc_probabilities_frozen_atoms():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    est = oracle.mc_probabilities(trap, DEFAULT_OPTICS, 0.4, -0.9,
                                  oracle.McConfig(2000, 7, 500))
    closed = chsh.probabilities_first_principles(0.0, 0.4, -0.9)
    np.testing.assert_allclose(est.mean, closed, atol=1e-12)
    assert est.row_sum_max_dev <= 1e-12


def test_mc_probabilities_matches_closed_form():
    est = oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, np.pi / 7, np.pi / 5, CFG)
    d_quad = motion.d_exact(TRAP_HALF, DEFAULT_OPTICS)
    closed = chsh.probabilities_first_principles(d_quad, np.pi / 7, np.pi / 5)
    assert np.all(np.abs(est.mean - closed) <= 3 * est.std_error + 1e-9)
    assert est.row_sum_max_dev <= 1e-12
    np.testing.assert_allclose(est.mean.sum(axis=1), 1.0, atol=1e-12)


def test_mc_probabilities_uses_mc_decoherence_level():
    est = oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, CFG)
    d_est = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, CFG)
    closed = chsh.probabilities_first_principles(d_est.estimate.mean, 0.3, 1.1)
    tol = 3 * (est.std_error + d_est.estimate.std_error) + 1e-9
    assert np.all(np.abs(est.mean - closed) <= tol)


def test_mc_f_squared_frozen_atoms():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    est = oracle.mc_f_squared(trap, DEFAULT_OPTICS, oracle.McConfig(2000, 9, 500))
    assert est.mean == pytest.approx(4.0, abs=1e-12)


def test_mc_f_squared_decays_toward_two():
    # interference of the two photon assignments fades with temperature but
    # only algebraically: near-collinear missed photons never dephase
    means = []
    for ratio in (0.2, 1.0, 3.0, 10.0):
        trap = DEFAULT_TRAP.with_temperature(ratio * TCR)
        means.append(oracle.mc_f_squared(trap, DEFAULT_OPTICS, CFG).mean)
    assert np.all(np.diff(means) < 0)
    assert means[0] > 3.4
    assert 2.0 < means[-1] < 2.5


def test_mc_f_squared_error_scaling():
    small = oracle.mc_f_squared(TRAP_HALF, DEFAULT_OPTICS,
                                oracle.McConfig(20_000, 31, 10_000))
    large = oracle.mc_f_squared(TRAP_HALF, DEFAULT_OPTICS,
                                oracle.McConfig(80_000, 31, 10_000))
    assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


def test_mc_bell_measurement_perfect_case():
    trap = DEFAULT_TRAP.with_temperature(0.0)
    est = oracle.mc_bell_measurement(trap, DEFAULT_OPTICS, 0.0,
                                     oracle.McConfig(2000, 11, 500))
    np.testing.assert_allclose(est.mean, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("xi", [0.0, 0.05])
def test_mc_bell_measurement_matches_closed_form(xi):
    est = oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, CFG)
    d_quad = motion.d_exact(TRAP_HALF, DEFAULT_OPTICS)
    closed = protocol.bell_meas_matrix(d_quad, xi)
    assert np.all(np.abs(est.mean - closed) <= 3 * est.std_error + 1e-9)
    # stage overlap fluctuates per sample; stochasticity holds in the mean
    np.testing.assert_allclose(est.mean.sum(axis=1), 1.0, atol=0.01)


def test_mc_bell_measurement_rejects_negative_xi():
    with pytest.raises(ValueError):
        oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, -0.2, CFG)


def _chunk0_rng(seed):
    # substream of chunk 0 in the oracle's reproducibility contract
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))


def _dense_phases(rng, n):
    q = oracle.momentum_kick(oracle.sample_photon_direction(DEFAULT_OPTICS, rng, n))
    dr1 = oracle.sample_displacement(TRAP_HALF, rng, n)
    dr2 = oracle.sample_displacement(TRAP_HALF, rng, n)
    return np.einsum("ij,ij->i", q, dr1), np.einsum("ij,ij->i", q, dr2)


def test_collapsed_estimators_match_dense_per_sample_products():
    # same draws pushed through the per-sample 4x4 complex products
    n, seed, xi, angles = 300, 17, 0.05, (0.3, 1.1)
    cfg = oracle.McConfig(n, seed, n)

    rng = _chunk0_rng(seed)
    r = gates.raman_matrix(*angles)
    dense = [np.abs(gates.bell_matrix(a, b) @ r) ** 2 for a, b in zip(*_dense_phases(rng, n))]
    est = oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, *angles, cfg)
    np.testing.assert_allclose(est.mean, np.mean(dense, axis=0), rtol=0, atol=1e-12)
    # the chunk's sum of squares is formed from the sums of cos and cos^2
    np.testing.assert_allclose(est.std_error, np.std(dense, axis=0, ddof=1) / np.sqrt(n),
                               rtol=0, atol=1e-12)

    rng = _chunk0_rng(seed)
    p1, p2 = _dense_phases(rng, n)
    q1, q2 = _dense_phases(rng, n)
    double = gates.b2_matrix(xi)
    dense = []
    for a, b, c, d in zip(p1, p2, q1, q2):
        prep, meas = gates.bell_matrix(a, b), gates.bell_matrix(c, d).conj().T
        branches = (prep @ meas, double @ meas, prep @ double, double @ double)
        dense.append(sum(np.abs(m) ** 2 for m in branches) / (1 + 2 * xi) ** 2)
    est = oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, cfg)
    np.testing.assert_allclose(est.mean, np.mean(dense, axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(est.std_error, np.std(dense, axis=0, ddof=1) / np.sqrt(n),
                               rtol=0, atol=1e-12)

    rng = _chunk0_rng(seed)
    q = oracle.momentum_kick(oracle.sample_photon_direction(DEFAULT_OPTICS, rng, n))
    q_miss = oracle.momentum_kick(oracle.sample_dipole_direction(rng, n))
    dr1 = oracle.sample_displacement(TRAP_HALF, rng, n)
    dr2 = oracle.sample_displacement(TRAP_HALF, rng, n)
    f = (np.exp(1j * (np.einsum("ij,ij->i", q, dr1) + np.einsum("ij,ij->i", q_miss, dr2)))
         + np.exp(1j * (np.einsum("ij,ij->i", q, dr2) + np.einsum("ij,ij->i", q_miss, dr1))))
    est = oracle.mc_f_squared(TRAP_HALF, DEFAULT_OPTICS, cfg)
    assert est.mean == pytest.approx(np.mean(np.abs(f) ** 2), rel=0, abs=1e-12)


def test_partial_final_chunk_counted_once():
    cfg = oracle.McConfig(n_samples=10_500, seed=3, chunk_size=4_000)
    est = oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, cfg)
    assert est.estimate.n == 10_500


class _RecordingPool:
    """Stand-in for ThreadPoolExecutor: records max_workers and the most chunks
    submitted but not yet taken by the fold; runs each chunk in this thread."""
    sizes: list = []
    peaks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.peaks.append(0)
        self.pending = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool, value = self, fn(*args)
        self.pending += 1
        self.peaks[-1] = max(self.peaks[-1], self.pending)

        class Done:
            def result(self):
                pool.pending -= 1
                return value

        return Done()


@pytest.mark.parametrize("n, chunk_size, workers, pool", [
    (5, 2, 64, 3), (5, 2, 2, 2), (6, 2, 200, 3), (8, 8, 16, None), (1, 1_000, 256, None),
    (1_000, 10, 3, 3),
], ids=["more-workers-than-chunks", "fewer-workers-than-chunks", "full-chunks-only",
        "one-full-chunk", "one-short-chunk", "many-chunks"])
def test_reduce_chunks_starts_no_more_threads_than_chunks(monkeypatch, n, chunk_size, workers,
                                                         pool):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "peaks", [])
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", _RecordingPool)
    cfg = oracle.McConfig(n, 7, chunk_size)

    def fn(rng, size):
        return size, rng.random()

    assert oracle._reduce_chunks(fn, cfg, workers) == oracle._reduce_chunks(fn, cfg, 1)
    assert _RecordingPool.sizes == ([] if pool is None else [pool])
    # at most two chunks per thread are submitted ahead of the fold
    chunks = -(-n // chunk_size)
    assert _RecordingPool.peaks == ([] if pool is None else [min(2 * pool, chunks)])
