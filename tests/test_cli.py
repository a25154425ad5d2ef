import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsim import cli, gates

SQRT2 = np.sqrt(2.0)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def run(args):
    return cli.main(args)


def test_tcrit_csv(tmp_path):
    out = tmp_path / "tcrit.csv"
    assert run(["tcrit", "--out", str(out), "--grid-n", "60"]) == 0
    header, data = read_csv(out)
    assert header == ["theta0_rad", "A_perp", "A_par", "nu_eff_Hz", "T_cr_K"]
    theta = data[:, 0]
    assert theta[0] == pytest.approx(0.05)
    assert theta[-1] == pytest.approx(np.pi / 2)
    assert np.all(np.diff(theta) > 0)
    quarter = data[np.isclose(theta, np.pi / 4)]
    assert quarter.shape[0] == 1
    assert 19e-6 <= quarter[0, 4] <= 21e-6
    hemi = data[-1]
    assert hemi[1] == pytest.approx(1.6, abs=1e-9)
    assert hemi[2] == pytest.approx(0.4, abs=1e-9)


def test_bell_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bell-sweep", "--out", str(out), "--t-over-tcr", "0.5"]) == 0
    header, data = read_csv(out)
    assert header == ["x_rad", "S_gg", "S_ge", "S_eg", "S_ee"]
    s_ge = data[:, 2]
    # the reference angle pi/8 sits on the default grid and reproduces the
    # quoted violation; the true peak is slightly higher and further right
    at_ref = s_ge[np.isclose(data[:, 0], np.pi / 8)]
    assert at_ref[0] == pytest.approx(SQRT2 * (1 + np.exp(-0.5)), abs=1e-9)
    assert s_ge.max() >= at_ref[0]
    from bellsim import chsh
    assert abs(s_ge.max() - chsh.s_max(1 - np.exp(-0.5))) <= 1e-3
    assert np.pi / 8 <= data[np.argmax(s_ge), 0] <= np.pi / 4
    assert np.max(np.abs(data[:, 3])) <= 2.0 + 1e-9


def test_bell_sweep_no_motion_reaches_tsirelson(tmp_path):
    out = tmp_path / "sweep0.csv"
    assert run(["bell-sweep", "--out", str(out), "--t-over-tcr", "0"]) == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1:])) == pytest.approx(2 * SQRT2, abs=1e-6)


def test_bell_max_csv(tmp_path):
    out = tmp_path / "bmax.csv"
    assert run(["bell-max", "--out", str(out), "--t-n", "21"]) == 0
    header, data = read_csv(out)
    assert header == ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"]
    assert data[0, 1] == pytest.approx(2 * SQRT2, abs=1e-6)
    assert np.all(np.diff(data[:, 1]) <= 1e-9)
    assert np.all(data[:, 2] <= 2.0 + 1e-9)


def test_scatter_csv(tmp_path):
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--out", str(out), "--xi-list", "0,0.05,0.15,1"]) == 0
    header, data = read_csv(out)
    assert header[0] == "x_rad"
    assert "S_gg_closed_xi_0.05" in header and "S_gg_branch_xi_0.05" in header
    xi1 = data[:, header.index("S_gg_closed_xi_1")]
    assert np.max(np.abs(xi1)) < 2.0
    closed = data[:, header.index("S_gg_closed_xi_0.05")]
    branch = data[:, header.index("S_gg_branch_xi_0.05")]
    # four correlations per S value, each within 2 xi / (1 + 2 xi)
    assert np.max(np.abs(closed - branch)) <= 4 * 2 * 0.05 / 1.1
    xi0 = data[:, header.index("S_gg_closed_xi_0")]
    assert np.max(np.abs(xi0)) > 2.0


def test_fidelity_csvs(tmp_path):
    out = tmp_path / "fid.csv"
    assert run(["fidelity", "--out", str(out)]) == 0
    header_t, data_t = read_csv(tmp_path / "fid_vs_t.csv")
    assert header_t[0] == "T_over_Tcr"
    f_col = header_t.index("F_xi_0")
    fb_col = header_t.index("F_B_xi_0")
    at_tcr = data_t[np.isclose(data_t[:, 0], 1.0)]
    assert at_tcr[0, f_col] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert np.all(np.diff(data_t[:, f_col]) <= 0)
    assert np.all(np.diff(data_t[:, fb_col]) <= 0)

    header_x, data_x = read_csv(tmp_path / "fid_vs_xi.csv")
    assert header_x[0] == "xi"
    fb1 = data_x[:, header_x.index("F_B_t_1")]
    # full-dephasing start is 1 - f1(1 - 1/e); xi = 0 row pins it
    d1 = 1 - np.exp(-1.0)
    assert fb1[0] == pytest.approx(1 - (d1 - d1**2 / 2), abs=1e-9)
    fb0 = data_x[:, header_x.index("F_B_t_0")]
    assert fb0.min() == pytest.approx(0.5, abs=1e-4)
    assert data_x[np.argmin(fb0), 0] == pytest.approx(0.5, abs=0.02)
    assert fb0[-1] == pytest.approx(5.0 / 9.0, abs=1e-9)


def test_csv_values_carry_12_significant_digits(tmp_path):
    out = tmp_path / "tcrit.csv"
    run(["tcrit", "--out", str(out), "--grid-n", "4"])
    with open(out) as fh:
        fh.readline()
        first = fh.readline().split(",")
    # full precision survives the round-trip at 12 significant digits
    assert float(first[3]) == pytest.approx(float(f"{float(first[3]):.12g}"), abs=0)
    assert len(first[3].replace(".", "").replace("-", "").lstrip("0")) >= 10


def test_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["bell-sweep", "--out", str(a)])
    run(["bell-sweep", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = {
        "trap": {"nu_perp_hz": 100e3, "nu_par_hz": 25e3, "nu_recoil_hz": 3.6e3,
                 "t_over_tcr": 0.25},
        "optics": {"theta0_rad": 0.6},
        "pattern": {"kind": "standard", "x_min": 0.0, "x_max": 1.0, "n": 11},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert run(["bell-sweep", "--config", str(path), "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data.shape[0] == 11
    assert data[-1, 0] == pytest.approx(1.0)
    # flag overrides the file
    assert run(["bell-sweep", "--config", str(path), "--out", str(out),
                "--grid-n", "5"]) == 0
    _, data = read_csv(out)
    assert data.shape[0] == 5
    # a temperature flag displaces the file's ratio entirely
    hot = dict(cfg)
    hot["trap"] = dict(cfg["trap"], t_over_tcr=4.0)
    path.write_text(json.dumps(hot))
    assert run(["bell-sweep", "--config", str(path), "--out", str(out),
                "--temperature-k", "0", "--grid-n", "201",
                "--x-max", "1.5707963267948966"]) == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1:])) == pytest.approx(2 * SQRT2, abs=1e-6)


def test_invalid_config_exits_2(tmp_path):
    assert run(["tcrit", "--theta0", "0.001", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["bell-sweep", "--t-over-tcr", "0.5", "--temperature-k", "1e-5",
                "--out", str(tmp_path / "y.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["tcrit", "--config", str(bad), "--out", str(tmp_path / "z.csv")]) == 2


@pytest.mark.parametrize("argv, doc", [
    (["tcrit"], {"xi": "0.1"}),
    (["tcrit"], {"trap": [1]}),
    (["bell-sweep", "--t-over-tcr", "nan"], None),
    (["bell-max", "--t-n", "-1"], None),
    (["bell-max", "--t-n", "0"], None),
    (["fidelity", "--xi-list", "nan"], None),
    (["bell-sweep", "--workers", "0"], None),
], ids=["xi-string", "trap-list", "t-over-tcr-nan", "t-n-negative", "t-n-zero", "xi-list-nan",
        "workers-zero"])
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, argv, doc):
    argv = argv + ["--out", str(tmp_path / "out.csv")]
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["fidelity", "--xi-list", "1e300"],
    ["bell-sweep", "--nu-perp", "1e200"],
    ["tcrit", "--nu-perp", "1e200"],
    ["scatter", "--nu-perp", "1e-300"],
], ids=["fidelity-xi-overflow", "bell-sweep-nu-overflow", "tcrit-nu-overflow",
        "scatter-nu-underflow"])
def test_out_of_range_inputs_exit_2_with_one_error_line(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cell", [float("nan"), np.inf, -np.float64(np.inf)])
def test_write_csv_refuses_non_finite_cells(tmp_path, cell):
    with pytest.raises(cli.ConfigError):
        cli.write_csv(tmp_path / "out.csv", ["a", "b"], [(1.0, 2.0), (0.5, cell)])
    assert not list(tmp_path.iterdir())


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import bellsim.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_submodule():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import bellsim, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('bellsim.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "[]"


def test_temperature_kelvin_accepted(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bell-sweep", "--temperature-k", "1e-5", "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1:])) > 2.0  # 10 uK is below T_cr, still violating


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


def test_validate_passes_by_default(tmp_path, capsys):
    code = run(["validate", "--samples", "40000", "--seed", "424242"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert [ln[7:].split()[0] for ln in lines] == VALIDATE_CHECKS
    assert all(ln.startswith("[  ok] ") for ln in lines)
    assert "std_error" in out  # Monte-Carlo checks report their triples


def test_validate_flags_singular_variant(capsys, monkeypatch):
    singular = gates.h2_singular()
    monkeypatch.setattr(gates, "h2", lambda: singular)
    code = run(["validate", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 1
    assert any("FAIL" in ln and "cnot_identity" in ln for ln in out.splitlines())
