"""Work that `bellsim validate` does at the layer boundaries, pinned as counts.

Counts are exact on any machine, unlike timings.  Each test runs the command
in-process with the named module attributes wrapped by counters.  A change
that lowers a count on purpose re-pins it here; none may rise silently.
"""

import contextlib
import functools
import io

import pytest

from bellsim import chsh, cli, gates, linalg, motion, protocol


class Counter:
    """Wraps module attributes and counts calls per "module.name"."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}

    def wrap(self, module, name, before=None):
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        self.calls[key] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            if before is not None:
                args = before(*args)
            return original(*args, **kwargs)

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
                             (chsh, "probabilities_closed_form")]:
            counter.wrap(module, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", "--samples", "2000", "--chunk-size", "1000"]) == 0
    return counter.calls, evaluations


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
])
def test_validate_calls(validate_counts, name, count):
    assert validate_counts[0][name] == count


def test_validate_quadrature_evaluates_one_grid_per_order(validate_counts):
    # orders 16 and 32, each grid evaluated once for all six temperatures
    assert validate_counts[1] == {"calls": 2, "points": 16**2 + 32**2}
