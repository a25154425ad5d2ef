"""Acceptance suite: every check of `bellsim validate`, one test per named check.

The checks themselves live once, in `cli.validation_checks`; this module runs
them at a pinned Monte-Carlo config and pins their names and order.  Run with
`pytest tests/test_acceptance.py -v` to see one line per check.
"""

from pathlib import Path

import pytest

from bellsim import cli, gates, oracle

GOLDEN_VALIDATE = Path(__file__).with_name("validate_seed424242_n20000.txt")

VALIDATE_CHECKS = [
    "cnot_identity",
    "flawed_second_local_detected",
    "local_operations_unitary",
    "bell_matrix_unitary_at_equal_phases",
    "closed_vs_first_principles_probabilities",
    "probability_rows_stochastic",
    "orthogonality_phase_condition",
    "aperture_and_tcrit_anchor",
    "chsh_standard_angle_values",
    "smax_curve_shape",
    "scatter_threshold",
    "fidelity_anchors_and_monotonicity",
    "scatter_form_gap",
    "d_exact_vs_exponential",
    "mc_decoherence_T_over_Tcr_0.2",
    "mc_decoherence_T_over_Tcr_0.5",
    "mc_decoherence_T_over_Tcr_1",
    "mc_probabilities_vs_closed_form",
    "mc_bell_measurement_diag_xi_0",
    "mc_bell_measurement_diag_xi_0.05",
    "mc_bit_reproducible_across_workers",
]


@pytest.fixture(scope="module")
def results():
    args = cli._make_parser().parse_args(
        ["validate", "--samples", "100000", "--seed", "424242"])
    cfg = cli.build_config(args)
    # the CLI always draws in 10 000-sample chunks
    assert cfg.mc == oracle.McConfig(100_000, 424242, 10_000)
    return {name: (ok, detail) for name, ok, detail in cli.validation_checks(cfg)}


def test_checks_are_the_pinned_list(results):
    assert list(results) == VALIDATE_CHECKS


@pytest.mark.parametrize("name", VALIDATE_CHECKS)
def test_check(results, name):
    ok, detail = results[name]
    assert ok, detail


def test_validate_passes_by_default(tmp_path, capsys):
    code = cli.main(["validate", "--samples", "40000", "--seed", "424242"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert [ln[7:].split()[0] for ln in lines] == VALIDATE_CHECKS
    assert all(ln.startswith("[  ok] ") for ln in lines)
    assert "std_error" in out  # Monte-Carlo checks report their triples


@pytest.mark.parametrize("workers", [[], ["--workers", "1"]], ids=["default", "workers-1"])
def test_validate_stdout_matches_golden_file(capsys, workers):
    # every printed digit, round-off-level defects included, at the default
    # worker count (the CPUs available) and on the serial path; a change meant
    # to alter the printed lines re-records the file with
    # `bellsim validate --seed 424242 --samples 20000 > tests/validate_seed424242_n20000.txt`
    code = cli.main(["validate", "--seed", "424242", "--samples", "20000", *workers])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_VALIDATE.read_text()


def test_validate_checks_the_paper_anchor_at_the_papers_working_point(capsys):
    # a non-default aperture breaks nothing: the quoted A_perp, A_par, nu_eff
    # and T_cr belong to the paper's trap and aperture, so the line is the golden one
    code = cli.main(["validate", "--theta0", "0.05", "--samples", "20000"])
    out = capsys.readouterr().out
    assert code == 0, out

    def anchor(text):
        return next(ln for ln in text.splitlines() if "aperture_and_tcrit_anchor" in ln)

    assert anchor(out) == anchor(GOLDEN_VALIDATE.read_text())


def test_validate_flags_singular_variant(capsys, monkeypatch, singular_h2):
    monkeypatch.setattr(gates, "h2", lambda: singular_h2)
    code = cli.main(["validate", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 1
    assert any("FAIL" in ln and "cnot_identity" in ln for ln in out.splitlines())


@pytest.mark.parametrize("chunk", [5_000, 20_000])
def test_validation_checks_pass_at_a_library_chunk_size(chunk):
    # a library McConfig may draw in other chunks than the CLI's 10 000; the
    # reproducibility check draws its own run, so it holds at any chunk size
    cfg = cli.build_config(cli._make_parser().parse_args(
        ["validate", "--seed", "7", "--workers", "2"]))
    cfg.mc = oracle.McConfig(100_000, 7, chunk)
    results = list(cli.validation_checks(cfg))
    assert [name for name, _, _ in results] == VALIDATE_CHECKS
    assert [(name, detail) for name, ok, detail in results if not ok] == []
