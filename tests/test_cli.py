import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import chsh, cli, motion

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


REFERENCE_JSON = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("argv, out, written", [
    (["tcrit"], "tcrit.csv", ("tcrit.csv",)),
    (["bell-sweep"], "bell_sweep.csv", ("bell_sweep.csv",)),
    (["bell-max"], "bell_max.csv", ("bell_max.csv",)),
    (["scatter"], "scatter.csv", ("scatter.csv",)),
    (["fidelity"], "fidelity.csv", ("fidelity_vs_t.csv", "fidelity_vs_xi.csv")),
], ids=["tcrit", "bell-sweep", "bell-max", "scatter", "fidelity"])
def test_default_csvs_match_reference_digests(tmp_path, argv, out, written):
    # the six default curve files, byte for byte, as the benchmark reference pins them
    digests = json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))["csv_sha256"]
    assert run([*argv, "--out", str(tmp_path / out)]) == 0
    for name in written:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name], name


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_csv_files_follow_the_umask(tmp_path, umask, mode):
    digests = json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))["csv_sha256"]
    old = os.umask(umask)
    try:
        assert run(["tcrit", "--out", str(tmp_path / "tcrit.csv")]) == 0
    finally:
        os.umask(old)
    path = tmp_path / "tcrit.csv"
    assert path.stat().st_mode & 0o777 == mode
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digests["tcrit.csv"]


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
    assert run(["bell-sweep", "--theta0", "0.001", "--out", str(tmp_path / "x.csv")]) == 2
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
    (["validate", "--workers", "0"], None),
    (["validate", "--samples", "1"], None),
    (["fidelity", "--xi-n", "0"], None),
], ids=["xi-string", "trap-list", "t-over-tcr-nan", "t-n-negative", "t-n-zero", "xi-list-nan",
        "workers-zero", "validate-one-sample", "fidelity-second-table-bad"])
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, argv, doc):
    if argv[0] != "validate":  # validate writes no file and takes no --out
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, doc, key", [
    (["tcrit"], {"trap": {"nu_perp": 1e5}}, "'trap.nu_perp'"),
    (["bell-sweep"], {"optics": {"theta0": 0.5}}, "'optics.theta0'"),
    (["bell-max"], {"pattern": {"points": 11}}, "'pattern.points'"),
    (["validate"], {"mc": {"samples": 10}}, "'mc.samples'"),
    (["tcrit"], {"xi": 0.05}, "'xi'"),
], ids=["trap", "optics", "pattern", "mc", "top-level"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, argv, doc, key):
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


# The flags each subcommand registers (--help aside): exactly the settings it reads.
TRAP_FLAGS = {"--nu-perp", "--nu-par", "--nu-recoil"}
SWEEP_FLAGS = {"--config", "--out", *TRAP_FLAGS, "--theta0", "--temperature-k", "--t-over-tcr",
               "--x-min", "--x-max", "--grid-n"}
SUBCOMMAND_FLAGS = {
    "tcrit": {"--config", "--out", *TRAP_FLAGS, "--grid-n"},
    "bell-sweep": SWEEP_FLAGS | {"--pattern"},
    "bell-max": {"--config", "--out", "--pattern", "--t-max", "--t-n"},
    "scatter": SWEEP_FLAGS | {"--xi-list"},
    "fidelity": {"--out", "--xi-list", "--t-list", "--t-max", "--t-n", "--xi-max", "--xi-n"},
    "validate": {"--config", *TRAP_FLAGS, "--theta0", "--seed", "--samples", "--chunk-size",
                 "--workers"},
}


def test_each_subcommand_registers_exactly_the_flags_it_reads():
    parser = cli._make_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for action in sub._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 51


@pytest.mark.parametrize("argv", [
    ["scatter", "--pattern", "mirrored"],
    ["validate", "--t-over-tcr", "1"],
    ["tcrit", "--seed", "3"],
    ["fidelity", "--xi", "0.1"],
    ["scatter", "--xi", "0.1"],
    ["validate", "--out", "v.csv"],
], ids=["scatter-pattern", "validate-t-over-tcr", "tcrit-seed", "fidelity-xi",
        "scatter-xi-prefix", "validate-out"])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fidelity", "--xi-list", "1e300"],
    ["bell-sweep", "--nu-perp", "1e200"],
    ["tcrit", "--nu-perp", "1e200"],
    ["scatter", "--nu-perp", "1e-300"],
    ["scatter", "--xi-list", "1e308"],
    ["validate", "--nu-perp", "1e200"],
], ids=["fidelity-xi-overflow", "bell-sweep-nu-overflow", "tcrit-nu-overflow",
        "scatter-nu-underflow", "scatter-xi-overflow", "validate-nu-overflow"])
def test_out_of_range_inputs_exit_2_with_one_error_line(tmp_path, capsys, argv):
    if argv[0] != "validate":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""
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


def _modules_loaded_after(code: str, names) -> list[str]:
    """Run `code` in a fresh interpreter; return which of `names` it left in sys.modules."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"{code}\nimport sys; print(','.join(m for m in {list(names)!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return [m for m in proc.stdout.splitlines()[-1].split(",") if m]


def test_cli_import_loads_neither_the_oracle_nor_its_dependencies():
    names = ("bellsim.oracle", "concurrent.futures", "json", "numpy.ma")
    assert _modules_loaded_after("import bellsim.cli", names) == []


def test_curve_subcommands_load_neither_the_oracle_nor_numpy_ma(tmp_path):
    calls = [["tcrit"], ["bell-sweep"], ["bell-max"], ["scatter"], ["fidelity"]]
    code = ("import contextlib, io, bellsim.cli\n"
            f"for argv in {calls!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert bellsim.cli.main([*argv, '--out', {str(tmp_path)!r} + '/'"
            " + argv[0] + '.csv']) == 0")
    assert _modules_loaded_after(code, ("bellsim.oracle", "numpy.ma")) == []
    assert len(list(tmp_path.iterdir())) == 6


def test_validate_loads_the_oracle():
    code = ("import contextlib, io, bellsim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert bellsim.cli.main(['validate', '--samples', '2000']) == 0")
    assert _modules_loaded_after(code, ("bellsim.oracle",)) == ["bellsim.oracle"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 50, 101, 200, 201, 1000, 2001, 4999])
def test_tcrit_grid_is_the_linspace_with_the_reference_aperture(tmp_path, monkeypatch, n):
    written = []
    monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: written.extend(rows))
    assert run(["tcrit", "--grid-n", str(n), "--out", str(tmp_path / "t.csv")]) == 0
    grid = np.array([row[0] for row in written])
    expected = np.union1d(np.linspace(motion.THETA0_MIN, np.pi / 2, n), [np.pi / 4])
    assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()


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


# Property test of the exit-code contract over drawn flags and config files:
# each value is usually in its working range and now and then any float at all.
IN_RANGE = {
    "t-over-tcr": st.floats(0, 3), "temperature-k": st.floats(0, 1e-4),
    "nu-perp": st.floats(1e3, 1e6), "nu-par": st.floats(1e3, 1e6),
    "nu-recoil": st.floats(1e2, 1e4), "theta0": st.floats(0.05, np.pi / 2),
    "xi": st.floats(0, 2), "x-min": st.floats(-1, 1), "x-max": st.floats(1, 3),
    "t-max": st.floats(0, 3), "xi-max": st.floats(0, 2),
}
# the drawn flags of each command, all among the flags it takes
SWEEP_DRAWN = ["nu-perp", "nu-par", "nu-recoil", "theta0", "x-min", "x-max"]
COMMAND_FLAGS = {
    "tcrit": ["nu-perp", "nu-par", "nu-recoil"], "bell-sweep": SWEEP_DRAWN,
    "bell-max": ["t-max"], "scatter": SWEEP_DRAWN, "fidelity": ["t-max", "xi-max"],
}
DOC_KEYS = {
    "trap": {"nu_perp_hz": "nu-perp", "nu_par_hz": "nu-par", "nu_recoil_hz": "nu-recoil",
             "temperature_k": "temperature-k", "t_over_tcr": "t-over-tcr"},
    "optics": {"theta0_rad": "theta0"},
    "pattern": {"x_min": "x-min", "x_max": "x-max"},
}


def _value(draw, flag):
    return draw(st.floats() if draw(st.integers(0, 7)) == 7 else IN_RANGE[flag])


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["tcrit", "bell-sweep", "bell-max", "scatter", "fidelity"]))
    argv = [command]
    flags = list(COMMAND_FLAGS[command])
    if command in ("tcrit", "bell-sweep", "scatter"):
        argv.append(f"--grid-n={draw(st.integers(2, 12))}")
    if command in ("bell-sweep", "scatter"):
        flags.append(draw(st.sampled_from(["t-over-tcr", "temperature-k"])))
    for flag in flags:
        if draw(st.booleans()):
            argv.append(f"--{flag}={_value(draw, flag)!r}")
    if command in ("bell-max", "fidelity"):
        argv.append(f"--t-n={draw(st.integers(1, 4))}")
    if command == "fidelity":
        argv.append(f"--xi-n={draw(st.integers(1, 6))}")
        argv.append(f"--t-list=0.5,{_value(draw, 't-over-tcr')!r}")
    if command in ("scatter", "fidelity"):
        argv.append(f"--xi-list=0,{_value(draw, 'xi')!r}")
    if command in ("bell-sweep", "bell-max") and draw(st.booleans()):
        argv.append(f"--pattern={draw(st.sampled_from(chsh.PATTERN_KINDS))}")
    doc = {}
    for section, keys in DOC_KEYS.items():
        if command != "fidelity" and draw(st.booleans()):  # fidelity reads no config
            key = draw(st.sampled_from(sorted(keys)))
            doc[section] = {key: _value(draw, keys[key])}
    return argv, doc


@given(call=cli_calls())
@settings(derandomize=True, max_examples=120, deadline=None)
def test_exit_code_contract_over_drawn_inputs(tmp_path_factory, call):
    argv, doc = call
    work = tmp_path_factory.mktemp("cli")
    if doc:
        (work / "cfg.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(work / "cfg.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv + ["--out", str(work / "out.csv")])
    assert code in (0, 2)
    csvs = list(work.glob("*.csv"))
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not csvs
    else:
        assert csvs
        for path in csvs:
            _, data = read_csv(path)
            assert np.all(np.isfinite(data))
