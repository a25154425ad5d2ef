"""Work that the `bellsim` subcommands do at the layer boundaries, pinned as counts.

Counts are exact on any machine, unlike timings.  Each test runs a command
in-process at its defaults, or the four estimators of the benchmark's
mc_oracle workload, with the named module attributes wrapped by counters.  A
change that lowers a count on purpose re-pins it here; none may rise silently.
"""

import argparse
import contextlib
import functools
import io
import threading
import types

import numpy as np
import pytest

from bellsim import chsh, cli, gates, linalg, motion, oracle, protocol


class Counter:
    """Wraps module attributes and counts calls per "module.name", and the rows
    of the results of those wrapped with rows=True.  Calls from the oracle's
    worker threads count too."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}
        self.rows = {}
        self.lock = threading.Lock()

    def wrap(self, module, name, before=None, rows=False):
        """Count calls of module.name; a class is wrapped as a module would be."""
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        self.calls[key] = 0
        if rows:
            self.rows[key] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if before is not None:
                args = before(*args)
            result = original(*args, **kwargs)
            with self.lock:
                self.calls[key] += 1
                if rows:
                    self.rows[key] += len(result)
            return result

        self.monkeypatch.setattr(module, name, counted)


@pytest.fixture(scope="module")
def validate_counts():
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = Counter(monkeypatch)
        evaluations = {"calls": 0, "points": 0}

        def count_integrand(func, *rest):
            def counted(theta, phi):
                evaluations["calls"] += 1
                evaluations["points"] += theta.size
                return func(theta, phi)
            return (counted, *rest)

        counter.wrap(motion, "cap_quadrature", before=count_integrand)
        for module, name in [(motion, "d_exact"), (protocol, "cnot_prob_matrix"),
                             (protocol, "bell_meas_matrix"), (gates, "local_matrix"),
                             (gates, "bell_matrix"), (linalg, "unitarity_defect"),
                             (chsh, "probabilities_closed_form"), (chsh, "s_max"),
                             (chsh, "scatter_threshold"), (chsh, "s_gg_scatter_curve"),
                             (chsh, "e_gg_scatter"),
                             (oracle, "mc_thermal"), (oracle, "mc_decoherence")]:
            counter.wrap(module, name)
        for name in ("sample_photon_direction", "sample_displacement"):
            counter.wrap(oracle, name, rows=True)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate"]) == 0
    return counter.calls, evaluations, counter.rows


@pytest.mark.parametrize("name, count", [
    # the six temperatures of d_exact_vs_exponential in one call
    ("motion.d_exact", 1),
    ("motion.cap_quadrature", 1),
    # one array call per deterministic check
    ("protocol.cnot_prob_matrix", 1),
    ("protocol.bell_meas_matrix", 1),
    ("chsh.probabilities_closed_form", 2),
    ("linalg.unitarity_defect", 2),
    # the local-operations check, and gates.h1 in the two CNOT identity
    # checks and in cnot_prob_matrix
    ("gates.local_matrix", 4),
    # the equal-phase check and the motionless operator of the two CNOT
    # identity checks
    ("gates.bell_matrix", 3),
    # the other family at T/T_cr = 0.5 (one state: E_ee = -E_eg) and the
    # smax_curve_shape grid
    ("chsh.s_max", 2),
    # at pi/8 and optimized
    ("chsh.scatter_threshold", 2),
    # one call over xi = 0 and 1/2 to split each threshold, and the two forms
    # of scatter_form_gap
    ("chsh.s_gg_scatter_curve", 4),
    # one call per form over the xi column of scatter_form_gap, and four per
    # s_gg_scatter_curve call (one per angle pair)
    ("chsh.e_gg_scatter", 2 + 4 * 4),
    # one draw for every T/T_cr = 0.5 check; the reproducibility check draws
    # its two sides itself, serially and on threads
    ("oracle.mc_thermal", 1),
    ("oracle.mc_decoherence", 2),
    # 10 chunks of two stages in mc_thermal and 5 chunks of one stage in each
    # reproducibility side: one direction and two displacement draws per stage
    ("oracle.sample_photon_direction", 30),
    ("oracle.sample_displacement", 60),
])
def test_validate_calls(validate_counts, name, count):
    assert validate_counts[0][name] == count


@pytest.mark.parametrize("name, rows", [
    # 2 x 100 000 stage samples in mc_thermal and 2 000 in each reproducibility side
    ("oracle.sample_photon_direction", 204_000),
    ("oracle.sample_displacement", 408_000),
])
def test_validate_samples(validate_counts, name, rows):
    assert validate_counts[2][name] == rows


@pytest.fixture(scope="module", params=[1, 2], ids=["workers-1", "workers-2"])
def mc_oracle_counts(request):
    # the four estimators as the benchmark's mc_oracle workload calls them
    optics = motion.DEFAULT_OPTICS
    trap = motion.DEFAULT_TRAP.with_temperature(0.5 * motion.t_crit(motion.DEFAULT_TRAP, optics))
    cfg, workers = oracle.McConfig(100_000, 1, 10_000), request.param
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = Counter(monkeypatch)
        for name in ("sample_photon_direction", "sample_dipole_direction", "sample_displacement"):
            counter.wrap(oracle, name, rows=True)
        oracle.mc_decoherence(trap, optics, cfg, workers=workers)
        oracle.mc_probabilities(trap, optics, np.pi / 7, np.pi / 5, cfg, workers=workers)
        oracle.mc_f_squared(trap, optics, cfg, workers=workers)
        oracle.mc_bell_measurement(trap, optics, 0.05, cfg, workers=workers)
    return counter.calls, counter.rows


@pytest.mark.parametrize("name, calls, rows", [
    # 10 chunks: one stage in mc_decoherence, mc_probabilities and
    # mc_f_squared, two in mc_bell_measurement
    ("oracle.sample_photon_direction", 50, 500_000),
    # the missed photon of mc_f_squared
    ("oracle.sample_dipole_direction", 10, 100_000),
    # both atoms in every stage
    ("oracle.sample_displacement", 100, 1_000_000),
])
def test_mc_oracle_draws(mc_oracle_counts, name, calls, rows):
    assert (mc_oracle_counts[0][name], mc_oracle_counts[1][name]) == (calls, rows)


def test_validate_quadrature_evaluates_one_grid_per_order(validate_counts):
    # orders 16 and 32, each grid evaluated once for all six temperatures
    assert validate_counts[1] == {"calls": 2, "points": 16**2 + 32**2}


def test_bell_max_takes_one_s_max_pass_per_family(tmp_path):
    # bell-max makes one s_max call per family, and each pass evaluates its one
    # state at every level twice (at the interpolation nodes, then at the
    # candidate maxima): 4 state-by-level curve columns per level; bell-sweep
    # evaluates the four states at its one level
    columns = {}

    def count_columns(x, d, states):
        columns[command] = columns.get(command, 0) + len(states) * np.size(d)
        return x, d, states

    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = Counter(monkeypatch)
        counter.wrap(chsh, "s_max")
        counter.wrap(chsh, "_s_curves", before=count_columns)
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("tcrit", "bell-sweep", "bell-max", "scatter", "fidelity"):
                assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert counter.calls["chsh.s_max"] == 2
    assert columns == {"bell-sweep": 4, "bell-max": 4 * 41}


CURVES = ("tcrit", "bell-sweep", "bell-max", "scatter", "fidelity")


def test_curve_subcommands_build_the_parser_once_per_process(tmp_path):
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = Counter(monkeypatch)
        counter.wrap(argparse.ArgumentParser, "__init__")
        cli._make_parser.cache_clear()  # as in a new process
        built = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in CURVES * 2:
                assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
                built.append(counter.calls["ArgumentParser.__init__"])
    # the first call builds the parser and its six subparsers; no later one builds any
    assert built == [7] * 10


def test_tcrit_takes_one_array_call_per_aperture_function(tmp_path):
    names = ("aperture_coefficients", "nu_eff", "t_crit")
    with pytest.MonkeyPatch.context() as monkeypatch:
        everywhere = Counter(monkeypatch)
        for name in names:
            everywhere.wrap(motion, name)
        # the calls cli makes: a copy of the motion namespace that only cli sees
        seen_by_cli = types.SimpleNamespace(**vars(motion))
        monkeypatch.setattr(cli, "motion", seen_by_cli)
        from_cli = Counter(monkeypatch)
        for name in names:
            from_cli.wrap(seen_by_cli, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tcrit", "--out", str(tmp_path / "tcrit.csv")]) == 0
    # one aperture call over the 202-angle grid (the per-row loop made 202);
    # nu_eff and T_cr come from its values
    expected = {"motion.aperture_coefficients": 1, "motion.nu_eff": 0, "motion.t_crit": 0}
    assert from_cli.calls == expected
    # nothing evaluates the aperture again (was 3, 2 and 1, and before that 606, 404, 202)
    assert everywhere.calls == expected
