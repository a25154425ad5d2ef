import threading

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


def test_sample_displacement_frozen_at_t0():
    rng = np.random.default_rng(0)
    trap = DEFAULT_TRAP.with_temperature(0.0)
    dr = oracle.sample_displacement(trap, rng, 1000)
    assert np.max(np.abs(dr)) == 0.0


def test_sample_displacement_variances():
    rng = np.random.default_rng(1)
    dr = oracle.sample_displacement(TRAP_HALF, rng, 100_000)
    for i, axis in enumerate("xyz"):
        target = motion.axis_variance(TRAP_HALF, axis)
        sample_var = dr[:, i].var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (len(dr) - 1))
        assert abs(sample_var - target) <= 3 * se
    assert dr[:, 0].var() == pytest.approx(dr[:, 1].var(), rel=0.05)


def _angle_sampler(rng, size, cos_lo, theta_min=None):
    # reference: the same draws returned as angles, with arccos and sin(theta)
    thetas = np.empty(size)
    phis = np.empty(size)
    have = 0
    while have < size:
        batch = max(2 * (size - have), 64)
        theta = np.arccos(rng.uniform(cos_lo, 1.0, batch))
        phi = rng.uniform(0.0, 2.0 * np.pi, batch)
        keep = rng.uniform(0.0, 1.0, batch) < 1.0 - np.sin(theta) ** 2 * np.cos(phi) ** 2
        if theta_min is not None:
            keep &= theta > theta_min
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
    pytest.param("sphere-excluding-cone", THETA0, id="sphere-excluding-cone"),
    pytest.param("cone", motion.THETA0_MIN, id="cone-at-theta0-min"),
    pytest.param("cone", np.pi / 2, id="cone-at-half-pi"),
    pytest.param("sphere-excluding-cone", motion.THETA0_MIN,
                 id="sphere-excluding-cone-at-theta0-min"),
    pytest.param("sphere-excluding-cone", np.pi / 2, id="sphere-excluding-cone-at-half-pi"),
])
def test_unit_vector_sampler_matches_angle_sampler(case, theta0, size, seed):
    # covers batches cut at a sure accept (narrow cones), batches tested whole
    # (too few sure accepts, as over a hemisphere) and the 64-proposal floor
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if case == "cone":
        k = oracle.sample_photon_direction(motion.OpticsParams(theta0=theta0), rng, size)
        theta, phi = _angle_sampler(ref_rng, size, np.cos(theta0))
    else:
        exclude = theta0
        k = oracle.sample_dipole_direction(rng, size, exclude)
        theta, phi = _angle_sampler(ref_rng, size, -1.0, exclude)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws consumed
    expected = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta)], axis=-1)
    np.testing.assert_allclose(k, expected, rtol=0, atol=1e-12)


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
    x, y = gates.BRANCH_ATOM1 @ r / oracle.SQRT2, gates.BRANCH_ATOM2 @ r / oracle.SQRT2
    row_constant, row_cross = (x * x + y * y).sum(axis=1), (2.0 * x * y).sum(axis=1)

    def chunk(rng, count):
        c = np.cos(oracle._phase_difference(TRAP_HALF, DEFAULT_OPTICS, rng, count))
        return (float(np.max(np.abs(row_constant + c[:, None] * row_cross - 1.0))),)

    return chunk


REDUCTION_CASES = [(300, 300), (10_500, 4_000), (7, 7)]


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


def test_sample_dipole_direction_complement_flag():
    rng = np.random.default_rng(4)
    k = oracle.sample_dipole_direction(rng, 5000)
    assert k[:, 2].min() < 0.0  # full sphere reached: theta > pi/2
    k = oracle.sample_dipole_direction(rng, 5000, exclude_theta0=DEFAULT_OPTICS.theta0)
    assert np.all(k[:, 2] < np.cos(DEFAULT_OPTICS.theta0))  # theta > theta0


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
@given(st.floats(-12.0, 1.0), st.booleans())
@example(-12.0, False)
@example(-12.0, True)
def test_mc_f_squared_bounded_over_temperatures(log_ratio, missed_outside_cone):
    # |f|^2 = 2 + 2 cos(.) averages to 2 + 2 exp(-var / 2) in [2, 4] for any
    # missed-photon pattern; far below T_cr it stays at 4 to round-off
    trap = DEFAULT_TRAP.with_temperature(10.0**log_ratio * TCR)
    est = oracle.mc_f_squared(trap, DEFAULT_OPTICS, oracle.McConfig(20_000, 73, 10_000),
                              missed_outside_cone=missed_outside_cone)
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
    lambda w: oracle.mc_f_squared(TRAP_HALF, DEFAULT_OPTICS, CFG,
                                  missed_outside_cone=True, workers=w),
    lambda w: oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, 0.05, CFG, workers=w),
], ids=["probabilities", "f_squared", "f_squared-outside-cone", "bell_measurement"])
def test_every_estimator_bit_reproducible_across_workers(estimator):
    runs = [estimator(w) for w in (1, 2, 5)]
    for run in runs[1:]:
        assert np.array_equal(run.mean, runs[0].mean)
        assert np.array_equal(run.std_error, runs[0].std_error)


def _flat(est):
    if isinstance(est, oracle.DecoherenceEstimate):
        return [est.estimate.mean, est.estimate.std_error,
                est.imaginary_part.mean, est.imaginary_part.std_error]
    return [est.mean, est.std_error, est.row_sum_max_dev]


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("n, chunk_size", REDUCTION_CASES)
def test_mc_thermal_equals_the_separate_estimators(n, chunk_size, workers):
    # one draw of each stage per chunk gives every estimate bit for bit, at
    # any worker count
    cfg, xis, angles = oracle.McConfig(n, 43, chunk_size), (0.0, 0.05, 1.0), (0.3, 1.1)
    shared = oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, *angles, xis, cfg, workers=workers)
    separate = [oracle.mc_decoherence(TRAP_HALF, DEFAULT_OPTICS, cfg),
                oracle.mc_probabilities(TRAP_HALF, DEFAULT_OPTICS, *angles, cfg)]
    separate += [oracle.mc_bell_measurement(TRAP_HALF, DEFAULT_OPTICS, xi, cfg) for xi in xis]
    got = [shared.decoherence, shared.probabilities, *shared.bell_measurement]
    assert len(got) == len(separate)
    for a, b in zip(got, separate):
        for x, y in zip(_flat(a), _flat(b)):
            assert x is y if x is None else np.array_equal(x, y)


def test_mc_thermal_rejects_negative_xi():
    with pytest.raises(ValueError):
        oracle.mc_thermal(TRAP_HALF, DEFAULT_OPTICS, 0.3, 1.1, (0.05, -0.2), CFG)


def test_validate_draws_each_shared_stage_once(monkeypatch):
    # the 0.2 and 1.0 decoherence checks draw one stage each, the T/T_cr = 0.5
    # checks two between them, and the reproducibility runs (20 000 samples
    # whatever --samples says) one each; one of those runs uses 3 threads
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
    cli.main(["validate", "--samples", "2000"])
    assert drawn["photon"] == 2_000 + 2_000 + 2 * 2_000 + 2 * 20_000
    assert drawn["displacement"] == 2 * drawn["photon"]


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


def test_mc_f_squared_complement_flag_dephases_faster():
    trap = DEFAULT_TRAP.with_temperature(3.0 * TCR)
    full = oracle.mc_f_squared(trap, DEFAULT_OPTICS, CFG)
    restricted = oracle.mc_f_squared(trap, DEFAULT_OPTICS, CFG, missed_outside_cone=True)
    assert restricted.mean < full.mean


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
