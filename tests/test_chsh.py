import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import chsh, gates
from bellsim.linalg import BASIS, elementwise_sqmod

SQRT2 = np.sqrt(2.0)
D_HALF = 1.0 - np.exp(-0.5)

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)
LEVELS = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)


def test_pattern_angles():
    a = chsh.pattern_angles(0.2)
    np.testing.assert_allclose(
        (a.theta1, a.theta2, a.theta1p, a.theta2p), (0.0, 0.2, 0.4, 0.6))


def test_probabilities_closed_form_singlet_case():
    p = chsh.probabilities_closed_form(0.0, 0.0, 0.0)
    np.testing.assert_allclose(p[0], [0.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_probabilities_closed_form_classical_limit():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        p = chsh.probabilities_closed_form(1.0, t1, t2)
        expected = 0.5 * (np.sin(t1) ** 2 * np.cos(t2) ** 2
                          + np.sin(t2) ** 2 * np.cos(t1) ** 2)
        assert p[0, 0] == pytest.approx(expected, abs=1e-14)


def test_probabilities_rows_stochastic():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = rng.uniform(0, 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        p = chsh.probabilities_closed_form(d, t1, t2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= -1e-15) and np.all(p <= 1 + 1e-15)


def test_probabilities_rejects_bad_level():
    with pytest.raises(ValueError):
        chsh.probabilities_closed_form(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        chsh.probabilities_first_principles(-0.1, 0.0, 0.0)


@given(d=LEVELS, t1=ANGLES, t2=ANGLES)
@settings(max_examples=100)
def test_transcription_equivalence(d, t1, t2):
    closed = chsh.probabilities_closed_form(d, t1, t2)
    operator = chsh.probabilities_first_principles(d, t1, t2)
    np.testing.assert_allclose(closed, operator, atol=1e-12)


def test_first_principles_reduces_to_sqmod_at_d0():
    t1, t2 = 0.7, -0.4
    composed = gates.bell_matrix(0, 0) @ gates.raman_matrix(t1, t2)
    np.testing.assert_allclose(
        chsh.probabilities_first_principles(0.0, t1, t2),
        elementwise_sqmod(composed), atol=1e-14)


def test_first_principles_incoherent_at_d1():
    t1, t2 = 0.9, 0.3
    r = gates.raman_matrix(t1, t2).real
    x = gates.BRANCH_ATOM1 @ r / SQRT2
    y = gates.BRANCH_ATOM2 @ r / SQRT2
    np.testing.assert_allclose(
        chsh.probabilities_first_principles(1.0, t1, t2), x**2 + y**2, atol=1e-14)


def test_correlation_values():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        p = chsh.probabilities_first_principles(0.0, t1, t2)
        assert chsh.correlation(p[1]) == pytest.approx(np.cos(2 * (t1 - t2)), abs=1e-12)
        assert chsh.correlation(p[2]) == pytest.approx(np.cos(2 * (t1 + t2)), abs=1e-12)
    assert chsh.correlation([0.25, 0.25, 0.25, 0.25]) == 0.0


def test_correlation_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        chsh.correlation([0.3, 0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        chsh.correlation([0.5, 0.5])


def test_chsh_standard_angle_values():
    angles = chsh.pattern_angles(np.pi / 8)
    assert chsh.chsh_s("ge", angles, 0.0) == pytest.approx(2 * SQRT2, abs=1e-12)
    assert chsh.chsh_s("ge", angles, D_HALF) == pytest.approx(
        SQRT2 * (1 + np.exp(-0.5)), abs=1e-12)
    assert chsh.chsh_s("eg", angles, 0.0) == pytest.approx(0.0, abs=1e-12)


@given(d=LEVELS, x=st.floats(min_value=1e-3, max_value=np.pi / 2 - 1e-3))
@settings(max_examples=60)
def test_family_sign_identities(d, x):
    angles = chsh.pattern_angles(x)
    assert chsh.chsh_s("gg", angles, d) == pytest.approx(
        -chsh.chsh_s("ge", angles, d), abs=1e-12)
    assert chsh.chsh_s("ee", angles, d) == pytest.approx(
        -chsh.chsh_s("eg", angles, d), abs=1e-12)


@given(d=LEVELS, t1=ANGLES, t2=ANGLES, t1p=ANGLES, t2p=ANGLES)
@settings(max_examples=100)
def test_tsirelson_bound(d, t1, t2, t1p, t2p):
    angles = chsh.ChshAngles(t1, t2, t1p, t2p)
    for state in BASIS:
        assert abs(chsh.chsh_s(state, angles, d)) <= 2 * SQRT2 + 1e-12


def test_s_invariant_under_pi_shift_of_atom1_angles():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = rng.uniform(0, 1)
        t = rng.uniform(-np.pi, np.pi, 4)
        base = chsh.ChshAngles(*t)
        shifted = chsh.ChshAngles(t[0] + np.pi, t[1], t[2] + np.pi, t[3])
        for state in BASIS:
            assert chsh.chsh_s(state, base, d) == pytest.approx(
                chsh.chsh_s(state, shifted, d), abs=1e-12)


def test_curve_matches_pointwise_pipeline():
    xs = np.linspace(0.05, 1.5, 9)
    for state in BASIS:
        curve = chsh.sweep_s(xs, D_HALF)[state]
        pointwise = [chsh.chsh_s(state, chsh.pattern_angles(x), D_HALF)
                     for x in xs]
        np.testing.assert_allclose(curve, pointwise, atol=1e-12)


def test_sweep_families_at_half_tcr():
    xs = np.linspace(0.0, np.pi / 2, 201)   # pi/8 is grid point 50
    curves = chsh.sweep_s(xs, D_HALF)
    assert curves["ge"].max() > 2.0
    assert np.abs(curves["gg"]).max() > 2.0
    assert np.abs(curves["eg"]).max() <= 2.0 + 1e-9
    assert np.abs(curves["ee"]).max() <= 2.0 + 1e-9
    assert curves["ge"][50] == pytest.approx(SQRT2 * (1 + np.exp(-0.5)), abs=1e-12)
    # dephasing pushes the peak from pi/8 toward pi/4
    assert np.pi / 8 < xs[int(np.argmax(curves["ge"]))] < np.pi / 4


#: The state whose correlation becomes each state's when the second atom's angles flip sign.
SWAPPED = {"gg": "ee", "ge": "eg", "eg": "ge", "ee": "gg"}


def test_sweep_mirrored_swaps_families():
    # the mirrored angles (0, -x, 2x, -3x) on the operator route give the
    # swapped state's standard curve, so the (eg, ee) violation is read there
    xs = np.linspace(-1.0, 2.0, 31)
    for d in (0.0, 0.2, D_HALF, 1.0):
        for state in BASIS:
            mirrored = [chsh.chsh_s(state, chsh.ChshAngles(0.0, -x, 2.0 * x, -3.0 * x), d)
                        for x in xs]
            np.testing.assert_allclose(mirrored, chsh.sweep_s(xs, d)[SWAPPED[state]],
                                       rtol=0, atol=1e-12)


def test_sweep_classical_limit_never_violates():
    xs = np.linspace(0.0, np.pi / 2, 301)
    curves = chsh.sweep_s(xs, 1.0)
    for state in BASIS:
        assert np.abs(curves[state]).max() <= 2.0 + 1e-9


def test_sweep_equals_the_per_state_curves_bit_for_bit():
    # s_max reads one state's curve from the core that sweep_s reads for all four
    xs = np.linspace(-1.0, 2.0, 301)
    for d in (0.0, D_HALF, 1.0):
        curves = chsh.sweep_s(xs, d)
        for state in BASIS:
            assert curves[state].tobytes() == chsh._s_curves(xs, d, (state,))[0].tobytes()


def test_curve_checks_d_and_the_initial_state():
    with pytest.raises(ValueError, match="decoherence level"):
        chsh.sweep_s(0.3, 1.5)
    with pytest.raises(ValueError, match="decoherence level"):
        chsh.s_max(np.array([0.2, 1.5]), "eg")
    with pytest.raises(ValueError, match="initial state"):
        chsh.s_max(0.5, "gx")


def test_s_max_no_motion():
    assert chsh.s_max(0.0) == pytest.approx(2 * SQRT2, abs=1e-6)


def test_s_max_monotone_in_decoherence():
    values = [chsh.s_max(d) for d in np.linspace(0.0, 1.0, 21)]
    assert np.all(np.diff(values) <= 1e-9)


def test_s_max_saturates_at_trivial_limit():
    # beyond full dephasing of the interior peak the x -> 0 limit pins
    # the maximum just under the classical bound
    assert chsh.s_max(1.0) == pytest.approx(2.0, abs=1e-3)
    assert chsh.s_max(1.0) <= 2.0


def test_s_at_standard_angle_curve():
    assert chsh.s_at_standard_angle(0.0) == pytest.approx(2 * SQRT2, abs=1e-15)
    assert chsh.s_at_standard_angle(D_HALF) == pytest.approx(
        SQRT2 * (1 + np.exp(-0.5)), abs=1e-15)
    # crossing of the classical bound sits just below T = T_cr
    crossing = -np.log(SQRT2 - 1.0)
    assert chsh.s_at_standard_angle(1.0 - np.exp(-crossing)) == pytest.approx(2.0, abs=1e-12)
    assert 0.8 <= crossing <= 1.1


def test_e_gg_scatter_forms_agree_at_xi0():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = rng.uniform(0, 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        expected = -np.cos(2 * (t1 - t2)) + d * np.sin(2 * t1) * np.sin(2 * t2)
        assert chsh.e_gg_scatter(d, 0.0, t1, t2, "closed_form") == pytest.approx(
            expected, abs=1e-13)
        assert chsh.e_gg_scatter(d, 0.0, t1, t2, "branch") == pytest.approx(
            expected, abs=1e-13)


def test_e_gg_scatter_rejects_bad_args():
    with pytest.raises(ValueError):
        chsh.e_gg_scatter(0.5, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        chsh.e_gg_scatter(0.5, 0.1, 0.0, 0.0, form="series")


def test_s_gg_scatter_standard_angle_value():
    for xi in (0.0, 0.05, 0.3):
        s = chsh.s_gg_scatter_curve(np.pi / 8, D_HALF, xi)
        expected = -SQRT2 * ((1 - D_HALF) + 1.0 / (1 + 2 * xi))
        assert float(s) == pytest.approx(expected, abs=1e-12)


def test_scatter_form_gap_small_and_vanishing():
    # correlation-level gap obeys 2 xi / (1 + 2 xi); the CHSH sum of four
    # correlations can pick up four times that
    t1, t2 = np.meshgrid(np.linspace(-np.pi, np.pi, 81),
                         np.linspace(-np.pi, np.pi, 81))
    gap05 = np.max(np.abs(chsh.e_gg_scatter(D_HALF, 0.05, t1, t2, "closed_form")
                          - chsh.e_gg_scatter(D_HALF, 0.05, t1, t2, "branch")))
    assert gap05 <= 0.1
    xs = np.linspace(1e-3, np.pi / 2, 300)
    gaps = []
    for xi in (0.05, 0.02, 0.01, 0.001):
        gaps.append(np.max(np.abs(
            chsh.s_gg_scatter_curve(xs, D_HALF, xi, "closed_form")
            - chsh.s_gg_scatter_curve(xs, D_HALF, xi, "branch"))))
        assert gaps[-1] <= 4 * 2 * xi / (1 + 2 * xi) + 1e-12
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 2e-2


def test_scatter_form_gap_matches_derived_bound():
    # per correlation the routes differ by 2 xi / (1 + 2 xi) times a bounded factor
    rng = np.random.default_rng(19)
    for _ in range(50):
        d = rng.uniform(0, 1)
        xi = rng.uniform(0, 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        gap = abs(chsh.e_gg_scatter(d, xi, t1, t2, "closed_form")
                  - chsh.e_gg_scatter(d, xi, t1, t2, "branch"))
        assert gap <= 2 * xi / (1 + 2 * xi) + 1e-12


def test_scatter_threshold_fixed_angle():
    expected = 0.5 * (1.0 / (SQRT2 - (1 - D_HALF)) - 1.0)
    thr = chsh.scatter_threshold(D_HALF, fixed_x=np.pi / 8)
    assert thr == pytest.approx(expected, abs=1e-12)
    assert thr == pytest.approx(0.119, abs=0.005)
    with pytest.raises(TypeError):  # one angle, not a grid of them
        chsh.scatter_threshold(D_HALF, fixed_x=np.array([np.pi / 8, np.pi / 10]))


def test_scatter_threshold_fixed_angle_no_motion():
    thr = chsh.scatter_threshold(0.0, fixed_x=np.pi / 8)
    assert thr == pytest.approx(0.5 * (1.0 / (SQRT2 - 1.0) - 1.0), abs=1e-12)
    assert thr == pytest.approx(0.707, abs=1e-3)


def test_scatter_threshold_optimized_window():
    thr = chsh.scatter_threshold(D_HALF)
    assert 0.10 <= thr <= 0.20
    # threshold marks the boundary between violation and no violation
    assert chsh.s_gg_scatter_max(D_HALF, thr - 0.01) > 2.0
    assert chsh.s_gg_scatter_max(D_HALF, thr + 0.01) < 2.0


def _per_call_s_gg(x, d, xi, form="closed_form"):
    """S_gg(x) from four e_gg_scatter calls, each checking d and xi, as
    s_gg_scatter_curve once composed it."""
    a = chsh.pattern_angles(np.asarray(x, dtype=float))

    def e(t1, t2):
        return chsh.e_gg_scatter(d, xi, t1, t2, form)
    return e(a.theta1, a.theta2) - e(a.theta1, a.theta2p) + e(a.theta1p, a.theta2) + e(
        a.theta1p, a.theta2p)


def test_fixed_angle_threshold_is_bitwise_unchanged(monkeypatch):
    # the threshold from one curve call over xi = 0 and 1/2 equals the one from
    # the per-call curves, on a sample of (d, x) points
    rng = np.random.default_rng(25)
    points = [(0.0, np.pi / 8), (D_HALF, np.pi / 8), (1.0, 0.3), (0.7, 0.0)]
    points += list(zip(rng.uniform(0, 1, 60), rng.uniform(-np.pi, np.pi, 60)))
    thresholds = [chsh.scatter_threshold(d, fixed_x=x) for d, x in points]
    monkeypatch.setattr(chsh, "s_gg_scatter_curve", _per_call_s_gg)
    assert thresholds == [chsh.scatter_threshold(d, fixed_x=x) for d, x in points]
    assert all(type(thr) is float for thr in thresholds)


@pytest.mark.parametrize("d", [0.0, D_HALF, 0.8, 1.0])
def test_scatter_split_in_one_call_equals_the_two_scalar_xi_calls(d):
    # A and B from one curve call over xi = (0, 1/2), at a fixed angle and as
    # power coefficients, equal those from a call at each xi bit for bit
    def two_calls(s_gg):
        full, half = s_gg(0.0), s_gg(0.5)
        return 2 * half - full, 2 * (full - half)

    for x in (np.pi / 8, 0.3, -1.2):
        one = chsh._scatter_split(lambda xi: chsh.s_gg_scatter_curve(x, d, xi))
        two = two_calls(lambda xi: chsh.s_gg_scatter_curve(x, d, xi))
        assert np.array(one).tobytes() == np.array(two).tobytes()
    one = chsh._scatter_split(
        lambda xi: chsh._power_coef(lambda x: chsh.s_gg_scatter_curve(x[:, None], d, xi)))
    two = two_calls(lambda xi: chsh._power_coef(lambda x: chsh.s_gg_scatter_curve(x, d, xi)))
    assert np.array(one).tobytes() == np.array(two).tobytes()


@pytest.mark.parametrize("form", ["closed_form", "branch"])
def test_scatter_curve_over_a_xi_column_equals_the_per_call_curves(form):
    xs = np.linspace(-0.5, 2.0, 251)
    xis = np.array([0.0, 1e-9, 0.05, 0.15, 1.0, 7.5])
    for d in (0.0, D_HALF, 1.0):
        table = chsh.s_gg_scatter_curve(xs, d, xis[:, None], form)
        assert table.shape == (xis.size, xs.size)
        for row, xi in zip(table, xis):
            assert row.tobytes() == chsh.s_gg_scatter_curve(xs, d, xi, form).tobytes()
            assert row.tobytes() == _per_call_s_gg(xs, d, xi, form).tobytes()
    # d before xi, with the messages of e_gg_scatter
    with pytest.raises(ValueError, match="decoherence level"):
        chsh.s_gg_scatter_curve(xs, 1.5, -1.0)
    with pytest.raises(ValueError, match="scattering ratio"):
        chsh.s_gg_scatter_curve(xs, 0.5, np.array([0.1, -1.0]))


SCATTER_RATIOS = st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 1.0]) | st.floats(0.0, 10.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(LEVELS, st.lists(SCATTER_RATIOS, min_size=1, max_size=6))
@example(D_HALF, [0.05, 0.01, 1e-3, 1e-4, 1e-6])
@example(0.3, [0.0, 0.05, 0.0, 1.0, 0.05])
def test_e_gg_scatter_over_a_xi_column_equals_the_scalar_calls(d, xis):
    # one grid per ratio, also from a row and a column of angles that
    # broadcast to the grid, as validate's scatter_form_gap takes them
    x, y = np.linspace(-np.pi, np.pi, 17), np.linspace(-np.pi, np.pi, 13)
    t1, t2 = np.meshgrid(x, y)
    column = np.array(xis)[:, None, None]
    for form in ("closed_form", "branch"):
        for table in (chsh.e_gg_scatter(d, column, t1, t2, form),
                      chsh.e_gg_scatter(d, column, x, y[:, None], form)):
            assert table.shape == (len(xis), *t1.shape)
            for grid, xi in zip(table, xis):
                assert grid.tobytes() == chsh.e_gg_scatter(d, xi, t1, t2, form).tobytes()


@pytest.mark.parametrize("state, negated", [("ee", "eg"), ("gg", "ge")])
def test_s_max_of_a_negated_correlation_is_the_same_bit_for_bit(state, negated):
    # E_ee = -E_eg and E_gg = -E_ge exactly, so validate takes the (eg, ee)
    # family's maximum from one state
    levels = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(chsh.s_max(levels, state), chsh.s_max(levels, negated))
    for d in (0.0, D_HALF, 1.0):
        assert chsh.s_max(d, state) == chsh.s_max(d, negated)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(LEVELS, st.floats(min_value=-np.pi, max_value=np.pi))
@example(D_HALF, np.pi / 10)
def test_scatter_threshold_fixed_angle_is_where_s_gg_touches_2(d, x):
    thr = chsh.scatter_threshold(d, fixed_x=x)
    assert type(thr) is float and thr >= 0.0
    if thr > 0.0:
        assert abs(abs(chsh.s_gg_scatter_curve(x, d, thr)) - 2.0) <= 1e-12
    else:
        assert abs(chsh.s_gg_scatter_curve(x, d, 0.0)) <= 2.0 + 1e-12


@pytest.mark.parametrize("d", [0.0, 0.15, D_HALF, 0.65])
def test_scatter_threshold_optimized_bounds_the_fixed_angles(d):
    fixed = [chsh.scatter_threshold(d, fixed_x=x) for x in np.linspace(*chsh._X_ENDS, 4001)]
    assert 0.0 <= chsh.scatter_threshold(d) - max(fixed) <= 1e-6


def test_scatter_curve_no_violation_at_unit_xi():
    xs = np.linspace(0.0, np.pi / 2, 400)
    assert np.max(np.abs(chsh.s_gg_scatter_curve(xs, D_HALF, 1.0))) < 2.0


#: (curve, its maximizer) for every curve family that chsh._grid_max maximizes.
MAXIMIZED = (
    [(lambda x, d=d, s=s: chsh.sweep_s(x, d)[s], lambda d=d, s=s: chsh.s_max(d, s))
     for d in np.linspace(0.0, 1.0, 11) for s in BASIS]
    + [(lambda x, d=d, xi=xi, f=f: chsh.s_gg_scatter_curve(x, d, xi, f),
        lambda d=d, xi=xi, f=f: chsh.s_gg_scatter_max(d, xi, f))
       for d in (0.0, D_HALF, 0.8) for xi in (0.0, 0.05, 0.15, 1.0, 3.0)
       for f in ("closed_form", "branch")])


def test_maximized_curves_are_quintics_in_cos_2x():
    # the exactness the maxima rest on: each curve is a degree-5 polynomial in cos 2x
    x = np.random.default_rng(5).uniform(0.0, np.pi / 2, 64)
    for curve, _ in MAXIMIZED:
        y = curve(x)
        fit = np.polyval(np.polyfit(np.cos(2 * x), y, 5), np.cos(2 * x))
        assert np.max(np.abs(fit - y)) <= 1e-13


def test_maxima_bound_a_dense_grid_from_above():
    ends = np.linspace(0.0, np.pi / 2, 2002)[[1, -2]]
    xs = np.linspace(*ends, 20001)
    for curve, maximize in MAXIMIZED:
        maximum, dense = maximize(), np.max(np.abs(curve(xs)))
        assert dense <= maximum + 1e-14
        assert maximum <= dense + 1e-7


@pytest.mark.parametrize("call", [
    lambda: chsh.s_max(2.0),
    lambda: chsh.s_max(-0.1),
    lambda: chsh.s_max(0.3, initial="gx"),
    lambda: chsh.s_gg_scatter_max(0.3, -1.0),
], ids=["d>1", "d<0", "state", "xi<0"])
def test_maxima_reject_bad_args(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("d", [0.0, D_HALF, 0.8, 1.0])
@pytest.mark.parametrize("xi", [0.05, 0.5, 1.0, 3.0])
def test_e_gg_scatter_branch_exact_values(d, xi):
    # aligned analysis: detected branch -1 (weight 2), double branch +1 (weight 4 xi),
    # so 0 at xi = 1/2 and 1/3 at xi = 1
    assert abs(chsh.e_gg_scatter(d, xi, 0.0, 0.0, "branch")
               - (-2.0 + 4.0 * xi) / (2.0 + 4.0 * xi)) <= 1e-15
    # pi/4 analysis: the double branch drops out, the detected one reads d - 1
    quarter = np.pi / 4
    assert abs(chsh.e_gg_scatter(d, xi, quarter, quarter, "branch")
               - (d - 1.0) / (1.0 + 2.0 * xi)) <= 1e-15


#: A dense grid of decoherence levels and the threshold at each.
THRESHOLD_DS = np.linspace(0.0, 1.0, 1001)


@pytest.fixture(scope="module")
def thresholds():
    return np.array([chsh.scatter_threshold(d) for d in THRESHOLD_DS])


def test_scatter_threshold_is_where_the_maximum_touches_2(thresholds):
    for d, thr in zip(THRESHOLD_DS, thresholds):
        assert (thr == 0.0) == (chsh.s_gg_scatter_max(d, 0.0) <= 2.0)
        if thr > 0.0:
            assert abs(chsh.s_gg_scatter_max(d, thr) - 2.0) <= 1e-14
    assert np.count_nonzero(thresholds) > 500


def test_scatter_threshold_matches_scipy_brentq(thresholds):
    from scipy import optimize

    for d, thr in zip(THRESHOLD_DS[::5], thresholds[::5]):
        if thr > 0.0:
            ref = optimize.brentq(lambda xi: chsh.s_gg_scatter_max(d, xi) - 2.0,
                                  0.0, 4.0, xtol=1e-12)
            assert abs(thr - ref) <= 1e-10


def test_scatter_threshold_non_increasing_in_d(thresholds):
    assert np.all(np.diff(thresholds) <= 0.0)


#: Decoherence levels of the array-versus-scalar comparisons, both ends included.
LEVEL_GRID = np.linspace(0.0, 1.0, 401)


def _roots_max(curve) -> float:
    """One curve's maximum from np.roots of its derivative, the per-curve reference."""
    c = np.clip(np.roots(np.polyder(chsh._power_coef(curve))).real, *chsh._C_ENDS)
    return float(np.max(np.abs(curve(np.concatenate((chsh._X_ENDS, np.arccos(c) / 2))))))


@pytest.mark.parametrize("state", BASIS)
def test_s_max_over_an_array_matches_the_scalar_calls(state):
    batched = chsh.s_max(LEVEL_GRID, state)
    assert batched.shape == LEVEL_GRID.shape
    # each curve gets its own single-column solve and the companion matrix np.roots
    # would build, so the batch equals both references to the bit
    np.testing.assert_array_equal(batched, [chsh.s_max(d, state) for d in LEVEL_GRID])
    np.testing.assert_array_equal(batched, [
        _roots_max(lambda x, d=d: chsh.sweep_s(x, d)[state]) for d in LEVEL_GRID])
    assert type(chsh.s_max(0.3, state)) is float


@pytest.mark.parametrize("form", ["closed_form", "branch"])
@pytest.mark.parametrize("xi", [0.0, 0.05, 1.0])
def test_s_gg_scatter_max_over_an_array_matches_the_scalar_calls(xi, form):
    batched = chsh.s_gg_scatter_max(LEVEL_GRID, xi, form)
    np.testing.assert_array_equal(batched,
                                  [chsh.s_gg_scatter_max(d, xi, form) for d in LEVEL_GRID])
    np.testing.assert_array_equal(batched, [
        _roots_max(lambda x, d=d: chsh.s_gg_scatter_curve(x, d, xi, form)) for d in LEVEL_GRID])
    scalars = (chsh.s_gg_scatter_max(0.3, xi, form), chsh.e_gg_scatter(0.3, xi, 0.2, 0.5, form),
               chsh.scatter_threshold(0.3), chsh.scatter_threshold(0.3, fixed_x=np.pi / 8))
    assert all(type(v) is float for v in scalars)


def test_maxima_keep_the_shape_of_d():
    grid = LEVEL_GRID[:6].reshape(2, 3)
    np.testing.assert_array_equal(chsh.s_max(grid), chsh.s_max(grid.ravel()).reshape(2, 3))
    assert chsh.s_max([0.0]).shape == (1,)


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
@pytest.mark.parametrize("maximize", [chsh.s_max, lambda d: chsh.s_gg_scatter_max(d, 0.05)],
                         ids=["s_max", "s_gg_scatter_max"])
def test_maxima_reject_one_bad_element(maximize, bad):
    with pytest.raises(ValueError):
        maximize(np.array([0.0, 0.5, bad, 1.0]))


def test_maxima_reject_a_bad_scattering_ratio():
    with pytest.raises(ValueError):
        chsh.s_gg_scatter_max(LEVEL_GRID, float("nan"))


def _roots_threshold(d) -> float:
    """The optimized threshold from np.roots of each sign's polynomial, each
    trimmed on its own: the per-polynomial reference."""
    a, b = chsh._scatter_split(
        lambda xi: chsh._power_coef(lambda x: chsh.s_gg_scatter_curve(x[:, None], d, xi)))
    db = np.polyder(b)
    cross = np.polysub(np.polymul(a, db), np.polymul(np.polyder(a), b))
    c = [chsh._C_ENDS]
    for s in (1.0, -1.0):
        p = np.polysub(cross, 2 * s * db)
        p = p[np.argmax(np.abs(p) > 1e-12 * np.abs(p).max()):]
        c.append(np.clip(np.roots(p).real, *chsh._C_ENDS))
    c = np.concatenate(c)
    a_c, b_c = np.polyval(a, c), np.polyval(b, c)
    return float(max(0.0, 0.5 * (np.max(np.abs(b_c) / (2 - np.sign(b_c) * a_c)) - 1.0)))


def test_optimized_threshold_matches_the_per_polynomial_roots_bit_for_bit():
    # both signs' polynomials, trimmed together, in one companion-matrix call
    levels = np.concatenate((LEVEL_GRID, [1e-300, 1e-12], np.geomspace(1e-16, 1e-2, 60)))
    thresholds = [chsh.scatter_threshold(d) for d in levels]
    assert thresholds == [_roots_threshold(d) for d in levels]
    assert np.count_nonzero(thresholds) > 200


@pytest.mark.parametrize("fixed_x", [None, np.pi / 8])
@pytest.mark.parametrize("d", [np.array([0.1, 0.5]), np.array([0.5]), [0.5]])
def test_scatter_threshold_refuses_an_array_level(d, fixed_x):
    # an array d would pair its levels with the split's two ratios element by element
    with pytest.raises(ValueError, match="one decoherence level"):
        chsh.scatter_threshold(d, fixed_x=fixed_x)


def test_grid_max_takes_a_derivative_with_an_exactly_zero_leading_coefficient(monkeypatch):
    # np.roots strips such a coefficient; the companion matrix must not divide by it
    interpolate = chsh._power_coef
    monkeypatch.setattr(chsh, "_power_coef",
                        lambda curve: interpolate(curve) * np.array([0.0, 1, 1, 1, 1, 1]))

    def cubic(x, d):  # d T3(cos 2x): |T3| peaks at 1 where cos 2x = +-1/2, inside the range
        return d * np.cos(6 * x)

    def flat(x, d):
        return 0.0 * x * d

    with np.errstate(all="raise"):
        np.testing.assert_allclose(chsh._grid_max(cubic, np.array([0.5, 1.0])), [0.5, 1.0],
                                   rtol=1e-14)
        assert chsh._grid_max(cubic, 0.25) == pytest.approx(0.25, rel=1e-14)
        assert chsh._grid_max(flat, 0.5) == 0.0


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _closed_form_reference(d, theta1, theta2):
    """The scalar closed form as first written: np.array of scalar ** 2 terms."""
    q = d * np.sin(2.0 * theta1) * np.sin(2.0 * theta2)
    sin_m = 0.5 * (np.sin(theta1 - theta2) ** 2 + 0.5 * q)
    cos_m = 0.5 * (np.cos(theta1 - theta2) ** 2 - 0.5 * q)
    cos_p = 0.5 * (np.cos(theta1 + theta2) ** 2 + 0.5 * q)
    sin_p = 0.5 * (np.sin(theta1 + theta2) ** 2 - 0.5 * q)
    return np.array([[sin_m, cos_m, cos_m, sin_m], [cos_m, sin_m, sin_m, cos_m],
                     [cos_p, sin_p, sin_p, cos_p], [sin_p, cos_p, cos_p, sin_p]])


def test_probability_matrices_over_arrays_equal_scalar_calls_bit_for_bit():
    # 2000 draws: an array's x ** 2 and a scalar's pow(x, 2) differ in about
    # one draw in a thousand, so a multiply in the array path would show here
    rng = np.random.default_rng(21)
    d = rng.uniform(0, 1, 2000)
    t1, t2 = rng.uniform(-np.pi, np.pi, (2, 2000))
    closed = chsh.probabilities_closed_form(d, t1, t2)
    first = chsh.probabilities_first_principles(d, t1, t2)
    assert closed.shape == first.shape == (2000, 4, 4)
    for i in range(2000):
        args = (float(d[i]), float(t1[i]), float(t2[i]))
        scalar = chsh.probabilities_closed_form(*args)
        assert _same_bits(scalar, _closed_form_reference(*args))
        assert _same_bits(closed[i], scalar)
        assert _same_bits(first[i], chsh.probabilities_first_principles(*args))


def test_probability_matrices_broadcast_a_scalar_level_against_angle_arrays():
    t = np.linspace(-1.0, 1.0, 7)
    stack = chsh.probabilities_first_principles(0.3, t, 0.2)
    assert stack.shape == (7, 4, 4)
    for row, t1 in zip(stack, t):
        assert _same_bits(row, chsh.probabilities_first_principles(0.3, t1, 0.2))
    with pytest.raises(ValueError):
        chsh.probabilities_closed_form(np.array([0.5, 1.5]), t[:2], t[:2])
