import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import chsh, cli, motion, protocol

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


def test_list_values_distinct_to_12_digits_label_distinct_columns(tmp_path):
    # labels carry the 12 significant digits of the cells, so nearby values
    # no longer share a column name
    assert run(["scatter", "--xi-list", "0.1234567,0.1234568", "--grid-n", "3",
                "--out", str(tmp_path / "s.csv")]) == 0
    assert read_csv(tmp_path / "s.csv")[0] == [
        "x_rad", "S_gg_closed_xi_0.1234567", "S_gg_branch_xi_0.1234567",
        "S_gg_closed_xi_0.1234568", "S_gg_branch_xi_0.1234568"]
    assert run(["fidelity", "--xi-list", "0.1234567,0.1234568", "--t-list", "1.0000001,1.0000002",
                "--t-n", "2", "--xi-n", "2", "--out", str(tmp_path / "f.csv")]) == 0
    assert read_csv(tmp_path / "f_vs_t.csv")[0] == [
        "T_over_Tcr", "F_B_xi_0.1234567", "F_xi_0.1234567", "F_B_xi_0.1234568", "F_xi_0.1234568"]
    assert read_csv(tmp_path / "f_vs_xi.csv")[0] == [
        "xi", "F_B_t_1.0000001", "F_t_1.0000001", "F_B_t_1.0000002", "F_t_1.0000002"]


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


def _scalar_csv(header, rows) -> bytes:
    """A CSV composed cell by cell from scalar calls, as the curve commands once wrote it."""
    lines = [",".join(header)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("argv, t_max, t_n", [
    (["--t-max", "10", "--t-n", "301"], 10.0, 301),
    (["--t-n", "1"], 2.0, 1),
], ids=["t-max-10-301", "one-point"])
def test_bell_max_non_default_grid_matches_scalar_calls(tmp_path, argv, t_max, t_n):
    rows = []
    for ratio in np.linspace(0.0, t_max, t_n):
        d = 1.0 - np.exp(-ratio)
        rows.append([ratio] + [chsh.s_max(d, state) for state in ("ge", "eg")])
    out = tmp_path / "bmax.csv"
    assert run(["bell-max", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == _scalar_csv(
        ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"], rows)


def test_fidelity_non_default_grids_match_scalar_calls(tmp_path):
    def cells(ratio, xi):
        d = 1.0 - np.exp(-ratio)
        return [protocol.bell_meas_fidelity(d, xi), protocol.cnot_fidelity(d, xi)]

    assert run(["fidelity", "--xi-list", "0,0.3", "--t-list", "0.7", "--t-n", "5",
                "--xi-n", "3", "--out", str(tmp_path / "fid.csv")]) == 0
    rows_t = [[r, *cells(r, 0.0), *cells(r, 0.3)] for r in np.linspace(0.0, 2.0, 5)]
    assert (tmp_path / "fid_vs_t.csv").read_bytes() == _scalar_csv(
        ["T_over_Tcr", "F_B_xi_0", "F_xi_0", "F_B_xi_0.3", "F_xi_0.3"], rows_t)
    rows_xi = [[xi, *cells(0.7, xi)] for xi in np.linspace(0.0, 1.0, 3)]
    assert (tmp_path / "fid_vs_xi.csv").read_bytes() == _scalar_csv(
        ["xi", "F_B_t_0.7", "F_t_0.7"], rows_xi)


def test_tcrit_non_default_grid_matches_scalar_calls(tmp_path):
    trap = motion.TrapParams(120e3, 30e3, 2.5e3, 0.0)
    rows = []
    for theta0 in np.union1d(np.linspace(motion.THETA0_MIN, np.pi / 2, 500), [np.pi / 4]):
        optics = motion.OpticsParams(theta0)
        rows.append([theta0, *motion.aperture_coefficients(optics),
                     motion.nu_eff(trap, optics), motion.t_crit(trap, optics)])
    out = tmp_path / "tcrit.csv"
    assert run(["tcrit", "--grid-n", "500", "--nu-perp", "120e3", "--nu-par", "30e3",
                "--nu-recoil", "2.5e3", "--out", str(out)]) == 0
    assert out.read_bytes() == _scalar_csv(
        ["theta0_rad", "A_perp", "A_par", "nu_eff_Hz", "T_cr_K"], rows)


def _per_column_csv(header, columns) -> bytes:
    """A table computed one column per call and written one row per `%`, as
    the curve commands once did it."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    rows = np.column_stack(columns).tolist()
    return (",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)).encode()


def _per_column_tables(command, a) -> dict[str, bytes]:
    """The bytes of each table of a curve command, from a per-column loop over
    the public functions; `a` holds the command's settings."""
    if command == "bell-sweep":
        xs = np.linspace(0.0, np.pi / 2, a["grid_n"])
        d = motion.d_approx(a["t_over_tcr"])
        return {"out.csv": _per_column_csv(
            ["x_rad", "S_gg", "S_ge", "S_eg", "S_ee"],
            [xs] + [chsh.sweep_s(xs, d)[state] for state in chsh.BASIS])}
    if command == "bell-max":
        ratios = np.linspace(0.0, 2.0, a["t_n"])
        d = motion.d_approx(ratios)
        return {"out.csv": _per_column_csv(
            ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"],
            [ratios] + [chsh.s_max(d, state) for state in ("ge", "eg")])}
    if command == "scatter":
        xs = np.linspace(0.0, np.pi / 2, a["grid_n"])
        d = motion.d_approx(a["t_over_tcr"])
        header, columns = ["x_rad"], [xs]
        for xi in a["xi_list"]:
            for name, form in (("closed", "closed_form"), ("branch", "branch")):
                header.append(f"S_gg_{name}_xi_{xi:.12g}")
                columns.append(chsh.s_gg_scatter_curve(xs, d, xi, form))
        return {"out.csv": _per_column_csv(header, columns)}
    ratios = np.linspace(0.0, 2.0, a["t_n"])
    xis = np.linspace(0.0, 1.0, a["xi_n"])
    header_t, columns_t = ["T_over_Tcr"], [ratios]
    for xi in a["xi_list"]:
        d = motion.d_approx(ratios)
        header_t += [f"F_B_xi_{xi:.12g}", f"F_xi_{xi:.12g}"]
        columns_t += [protocol.bell_meas_fidelity(d, xi), protocol.cnot_fidelity(d, xi)]
    header_xi, columns_xi = ["xi"], [xis]
    for ratio in a["t_list"]:
        d = motion.d_approx(ratio)
        header_xi += [f"F_B_t_{ratio:.12g}", f"F_t_{ratio:.12g}"]
        columns_xi += [protocol.bell_meas_fidelity(d, xis), protocol.cnot_fidelity(d, xis)]
    return {"out_vs_t.csv": _per_column_csv(header_t, columns_t),
            "out_vs_xi.csv": _per_column_csv(header_xi, columns_xi)}


VALUE_LISTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=1, max_size=100)
SIZES = st.integers(2, 500)


@st.composite
def curve_settings(draw):
    command = draw(st.sampled_from(["bell-sweep", "bell-max", "scatter", "fidelity"]))
    a = {}
    if command in ("bell-sweep", "scatter"):
        a["grid_n"], a["t_over_tcr"] = draw(SIZES), draw(st.floats(0.0, 3.0))
    if command in ("bell-max", "fidelity"):
        a["t_n"] = draw(SIZES)
    if command == "fidelity":
        a["xi_n"], a["t_list"] = draw(SIZES), draw(VALUE_LISTS)
    if command in ("scatter", "fidelity"):
        a["xi_list"] = draw(VALUE_LISTS)
    return command, a


@given(call=curve_settings())
@settings(derandomize=True, max_examples=80, deadline=None)
def test_curve_tables_equal_the_per_column_loop_byte_for_byte(tmp_path_factory, call):
    command, a = call
    work = tmp_path_factory.mktemp("tables")
    argv = [command, "--out", str(work / "out.csv")]
    for key, value in a.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag, ",".join(map(repr, value)) if isinstance(value, list) else str(value)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    expected = _per_column_tables(command, a)
    assert sorted(p.name for p in work.iterdir()) == sorted(expected)
    for name, data in expected.items():
        assert (work / name).read_bytes() == data, name


def test_write_csv_memory_is_bounded(tmp_path):
    # a table is formatted in blocks of rows, so what writing it holds beside
    # the table does not grow with the rows: all of them as Python floats and
    # text at once would take about 4 times the table's bytes.  Traced
    # allocation makes formatting about 15 times slower, so the table is
    # 10^4 x 50 cells (3.8 MB; a 10^5-row one, 38 MB, peaks 5.5 MB above it)
    rows = 10_000
    tracemalloc.start()
    try:
        table = np.arange(rows * 50, dtype=float).reshape(rows, 50) / 7.0
        tracemalloc.reset_peak()
        cli.write_csv(tmp_path / "big.csv", [f"c{i}" for i in range(50)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 4 * 2**20
    with open(tmp_path / "big.csv", newline="") as fh:
        assert sum(1 for _ in fh) == rows + 1


def test_interleave_fills_one_table_in_place():
    # the columns go straight into the output table: no stacked copy of the
    # blocks, which would take as many bytes as the table again
    rows, m = 10_000, 20
    rng = np.random.default_rng(26)
    first = rng.random(rows)
    blocks = [rng.random((m, rows)).T, rng.random((rows, m))]
    tracemalloc.start()
    try:
        table = cli._interleave(first, *blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 2**16
    expected = np.column_stack((first, np.stack(blocks, axis=-1).reshape(rows, -1)))
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("prefix", ["./", ""], ids=["dot-slash", "plain"])
@pytest.mark.parametrize("command", ["tcrit", "bell-sweep", "bell-max", "scatter", "fidelity"])
def test_each_table_is_reported_once_after_it_is_in_place(tmp_path, monkeypatch, prefix,
                                                           command):
    # one `wrote` line per file, right after its rename, with --out as given;
    # fidelity names the two tables it derives from --out
    events = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        replace(src, dst), events.append(f"[renamed {Path(dst).name}]")))

    class Log(io.StringIO):
        def write(self, text):
            events.append(text)
            return len(text)

    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(Log()):
        assert run([command, "--out", prefix + "t.csv"]) == 0
    names = ["t_vs_t.csv", "t_vs_xi.csv"] if command == "fidelity" else [prefix + "t.csv"]
    assert "".join(events) == "".join(
        f"[renamed {Path(name).name}]wrote {name}\n" for name in names)


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


def test_write_csv_leaves_the_umask_alone(tmp_path, monkeypatch):
    # another thread's files never see a changed umask: write_csv does not touch it
    def no_umask(mask):
        raise AssertionError("write_csv changed the process umask")

    monkeypatch.setattr(os, "umask", no_umask)
    cli.write_csv(tmp_path / "t.csv", ["a"], [(1.0,)])
    assert (tmp_path / "t.csv").read_text() == "a\n1\n"


def test_write_csv_retries_a_taken_temp_name(tmp_path, monkeypatch):
    taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
    taken.write_text("someone else's")
    draws = iter([bytes(6), bytes(6), b"\x01" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    cli.write_csv(tmp_path / "t.csv", ["a"], [(1.0,)])
    assert (tmp_path / "t.csv").read_text() == "a\n1\n"
    assert taken.read_text() == "someone else's"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", taken.name]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = {
        "trap": {"nu_perp_hz": 100e3, "nu_par_hz": 25e3, "nu_recoil_hz": 3.6e3,
                 "t_over_tcr": 0.25},
        "optics": {"theta0_rad": 0.6},
        "pattern": {"x_min": 0.0, "x_max": 1.0, "n": 11},
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
    # the temperature flag overrides the file's ratio
    hot = dict(cfg)
    hot["trap"] = dict(cfg["trap"], t_over_tcr=4.0)
    path.write_text(json.dumps(hot))
    assert run(["bell-sweep", "--config", str(path), "--out", str(out),
                "--t-over-tcr", "0", "--grid-n", "201",
                "--x-max", "1.5707963267948966"]) == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1:])) == pytest.approx(2 * SQRT2, abs=1e-6)


def test_invalid_config_exits_2(tmp_path):
    assert run(["tcrit", "--nu-perp", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["validate", "--theta0", "0.001"]) == 2
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


@pytest.mark.parametrize("argv, out, made", [
    (["tcrit"], "taken.csv", "taken.csv"),
    (["tcrit"], "plain/x.csv", None),
    (["fidelity"], "fid.csv", "fid_vs_t.csv"),
    (["fidelity"], "fid.csv", "fid_vs_xi.csv"),
], ids=["tcrit-out-is-a-directory", "tcrit-out-under-a-file", "fidelity-first-table-is-a-directory",
        "fidelity-second-table-is-a-directory"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, argv, out, made):
    # made is an existing directory in the way of a table; plain is a file
    (tmp_path / "plain").write_text("")
    if made is not None:
        (tmp_path / made).mkdir()
    assert run([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {tmp_path / (made or out)}: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(filter(None, ["plain", made]))


def test_fidelity_rerun_blocked_by_a_directory_keeps_the_earlier_tables(tmp_path, capsys):
    out = str(tmp_path / "fid.csv")
    assert run(["fidelity", "--out", out]) == 0
    earlier = (tmp_path / "fid_vs_t.csv").read_bytes()
    (tmp_path / "fid_vs_xi.csv").unlink()
    (tmp_path / "fid_vs_xi.csv").mkdir()
    capsys.readouterr()
    # a different grid, so a rewritten first table would differ from the earlier one
    assert run(["fidelity", "--out", out, "--t-n", "5"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {tmp_path / 'fid_vs_xi.csv'}: Is a directory"]
    assert (tmp_path / "fid_vs_t.csv").read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["fid_vs_t.csv", "fid_vs_xi.csv"]


@pytest.mark.parametrize("argv, doc, key", [
    (["tcrit"], {"trap": {"nu_perp": 1e5}}, "'trap.nu_perp'"),
    (["bell-sweep"], {"optics": {"theta0": 0.5}}, "'optics.theta0'"),
    (["scatter"], {"pattern": {"points": 11}}, "'pattern.points'"),
    (["validate"], {"mc": {"samples": 10}}, "'mc.samples'"),
    (["tcrit"], {"xi": 0.05}, "'xi'"),
    (["bell-sweep"], {"trap": {"temperature_k": 1e-5}}, "'trap.temperature_k'"),
    (["bell-sweep"], {"pattern": {"kind": "mirrored"}}, "unknown config key 'pattern.kind'"),
    (["validate"], {"mc": {"chunk_size": 10_000}}, "unknown config key 'mc.chunk_size'"),
], ids=["trap", "optics", "pattern", "mc", "top-level", "trap-temperature-k", "pattern-kind",
        "mc-chunk-size"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, argv, doc, key):
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


# The flags each subcommand registers (--help aside): exactly the settings it reads.
TRAP_FLAGS = {"--nu-perp", "--nu-par", "--nu-recoil"}
SWEEP_FLAGS = {"--config", "--out", "--t-over-tcr", "--x-min", "--x-max", "--grid-n"}
SUBCOMMAND_FLAGS = {
    "tcrit": {"--config", "--out", *TRAP_FLAGS, "--grid-n"},
    "bell-sweep": SWEEP_FLAGS,
    "bell-max": {"--out", "--t-max", "--t-n"},
    "scatter": SWEEP_FLAGS | {"--xi-list"},
    "fidelity": {"--out", "--xi-list", "--t-list", "--t-max", "--t-n", "--xi-max", "--xi-n"},
    "validate": {"--config", *TRAP_FLAGS, "--theta0", "--seed", "--samples", "--workers"},
}


def _registered_flags():
    parser = cli._make_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"} for name, sub in subparsers.choices.items()}


def test_each_subcommand_registers_exactly_the_flags_it_reads():
    flags = _registered_flags()
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 37
    assert len({setting.key for setting in cli._SETTINGS.values() if setting.key}) == 10


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_flag_table_lists_the_registered_flags():
    rows = re.findall(r"^\| `([a-z-]+)` +\| `([^`]*)` \|$", README, re.MULTILINE)
    assert {name: set(flags.split()) for name, flags in rows} == _registered_flags()
    assert len(rows) == len(SUBCOMMAND_FLAGS)


def test_readme_config_example_is_accepted(tmp_path):
    (example,) = re.findall(r"^```json\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    path = tmp_path / "cfg.json"
    path.write_text(example)
    assert run(["bell-sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert run(["validate", "--config", str(path), "--samples", "2000"]) == 0


@pytest.mark.parametrize("argv", [
    ["scatter", "--pattern", "mirrored"],
    ["validate", "--t-over-tcr", "1"],
    ["tcrit", "--seed", "3"],
    ["fidelity", "--xi", "0.1"],
    ["scatter", "--xi", "0.1"],
    ["validate", "--out", "v.csv"],
    ["bell-sweep", "--temperature-k", "1e-5"],
    ["scatter", "--nu-perp", "1e5"],
    ["bell-sweep", "--theta0", "0.5"],
    ["bell-sweep", "--pattern", "mirrored"],
    ["bell-max", "--pattern", "standard"],
    ["validate", "--chunk-size", "10000"],
    ["bell-max", "--config", "cfg.json"],
], ids=["scatter-pattern", "validate-t-over-tcr", "tcrit-seed", "fidelity-xi",
        "scatter-xi-prefix", "validate-out", "bell-sweep-temperature-k", "scatter-nu-perp",
        "bell-sweep-theta0", "bell-sweep-pattern", "bell-max-pattern", "validate-chunk-size",
        "bell-max-config"])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# a Python float overflow (the trap's nu_perp**2) is OverflowError(34, message):
# the line gives the message alone
FLOAT_OVERFLOW = "error: an input is out of range (Numerical result out of range)"


@pytest.mark.parametrize("argv, line", [
    (["fidelity", "--xi-list", "1e300"], None),
    (["tcrit", "--nu-perp", "1e200"], FLOAT_OVERFLOW),
    (["tcrit", "--nu-perp", "1e-300"], None),
    (["scatter", "--xi-list", "1e308"], None),
    (["validate", "--nu-perp", "1e200"], None),
    (["validate", "--nu-perp", "1e300"], FLOAT_OVERFLOW),
], ids=["fidelity-xi-overflow", "tcrit-nu-overflow", "tcrit-nu-underflow",
        "scatter-xi-overflow", "validate-nu-overflow", "validate-nu-float-overflow"])
def test_out_of_range_inputs_exit_2_with_one_error_line(tmp_path, capsys, argv, line):
    if argv[0] != "validate":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert line is None or err == [line]
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


# Property test of the exit-code contract over drawn flags and config files:
# each value is usually in its working range and now and then any float at all.
IN_RANGE = {
    "t-over-tcr": st.floats(0, 3),
    "nu-perp": st.floats(1e3, 1e6), "nu-par": st.floats(1e3, 1e6),
    "nu-recoil": st.floats(1e2, 1e4), "theta0": st.floats(0.05, np.pi / 2),
    "xi": st.floats(0, 2), "x-min": st.floats(-1, 1), "x-max": st.floats(1, 3),
    "t-max": st.floats(0, 3), "xi-max": st.floats(0, 2),
}
# the drawn flags of each command, all among the flags it takes
SWEEP_DRAWN = ["t-over-tcr", "x-min", "x-max"]
COMMAND_FLAGS = {
    "tcrit": ["nu-perp", "nu-par", "nu-recoil"], "bell-sweep": SWEEP_DRAWN,
    "bell-max": ["t-max"], "scatter": SWEEP_DRAWN, "fidelity": ["t-max", "xi-max"],
}
DOC_KEYS = {
    "trap": {"nu_perp_hz": "nu-perp", "nu_par_hz": "nu-par", "nu_recoil_hz": "nu-recoil",
             "t_over_tcr": "t-over-tcr"},
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
    doc = {}
    for section, keys in DOC_KEYS.items():
        # bell-max and fidelity read no config
        if command not in ("bell-max", "fidelity") and draw(st.booleans()):
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


def test_out_under_a_file_names_the_file_that_is_not_a_directory(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    for out in ("plain/x.csv", "plain/sub/x.csv"):
        assert run(["tcrit", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {tmp_path / out}: "
                       f"{tmp_path / 'plain'} is not a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]


@pytest.mark.parametrize("command", ["tcrit", "bell-sweep", "bell-max", "scatter", "fidelity"])
@pytest.mark.parametrize("out", ["", ".", "/", "sub/", "x/.."],
                         ids=["empty", "dot", "root", "trailing-slash", "dot-dot"])
def test_out_that_names_no_file_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                            command, out):
    monkeypatch.chdir(tmp_path)
    write_csv = cli.write_csv

    def write_inside(path, *args):
        # should the check break, still write nothing outside this test's directory
        assert Path(path).resolve().is_relative_to(tmp_path.resolve())
        return write_csv(path, *args)

    monkeypatch.setattr(cli, "write_csv", write_inside)
    assert run([command, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out must name a file, got {out!r}"]
    assert not list(tmp_path.iterdir())


def test_workers_have_a_fixed_ceiling(capsys):
    # resolved only, never run: the ceiling itself is accepted, one more is not
    parser = cli._make_parser()
    ceiling = cli.MAX_WORKERS
    cfg = cli.build_config(parser.parse_args(["validate", "--workers", str(ceiling)]))
    assert cfg.workers == ceiling
    with pytest.raises(cli.ConfigError, match=f"<= {ceiling}"):
        cli.build_config(parser.parse_args(["validate", "--workers", str(ceiling + 1)]))
    assert run(["validate", "--workers", str(ceiling + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, dest", [
    ("tcrit", "--grid-n", "grid_n"),
    ("bell-sweep", "--grid-n", "grid_n"),
    ("scatter", "--grid-n", "grid_n"),
    ("bell-max", "--t-n", "t_n"),
    ("fidelity", "--t-n", "t_n"),
    ("fidelity", "--xi-n", "xi_n"),
])
def test_grid_sizes_have_a_fixed_ceiling(tmp_path, capsys, command, flag, dest):
    # resolved only, never run at the ceiling: it is accepted, one more is not
    parser = cli._make_parser()
    out = ["--out", str(tmp_path / "out.csv")]
    ceiling = cli.MAX_GRID_N
    cfg = cli.build_config(parser.parse_args([command, flag, str(ceiling), *out]))
    assert getattr(cfg, dest) == ceiling
    with pytest.raises(cli.ConfigError, match=f"<= {ceiling}"):
        cli.build_config(parser.parse_args([command, flag, str(ceiling + 1), *out]))
    if flag == "--grid-n":  # the config key pattern.n has the same ceiling
        (tmp_path / "cfg.json").write_text(json.dumps({"pattern": {"n": ceiling + 1}}))
        with pytest.raises(cli.ConfigError, match="pattern.n"):
            cli.build_config(parser.parse_args([command, "--config", str(tmp_path / "cfg.json"),
                                                *out]))
    assert run([command, flag, str(ceiling + 1), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, flag, dest", [
    ("scatter", "--xi-list", "xi_list"),
    ("fidelity", "--xi-list", "xi_list"),
    ("fidelity", "--t-list", "t_list"),
])
def test_value_lists_have_a_fixed_ceiling(tmp_path, capsys, command, flag, dest):
    # resolved only, never run at the ceiling: it is accepted, one more is not
    parser = cli._make_parser()
    out = ["--out", str(tmp_path / "out.csv")]
    full = ",".join(["0.5"] * cli.MAX_LIST_VALUES)
    cfg = cli.build_config(parser.parse_args([command, flag, full, *out]))
    assert getattr(cfg, dest) == [0.5] * cli.MAX_LIST_VALUES
    with pytest.raises(cli.ConfigError, match=f"at most {cli.MAX_LIST_VALUES} values"):
        cli.build_config(parser.parse_args([command, flag, full + ",0.5", *out]))
    assert run([command, flag, full + ",0.5", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_workers_default_to_the_cpus_this_process_may_use():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cfg = cli.build_config(cli._make_parser().parse_args(["validate"]))
    assert cfg.workers == min(cpus or 1, cli.MAX_WORKERS)


def test_available_cpus_are_capped_at_max_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert cli._available_cpus() == cli.MAX_WORKERS
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._available_cpus() == 1


@pytest.mark.parametrize("error, reason", [
    (MemoryError("Unable to allocate 72.8 TiB for an array"),
     "Unable to allocate 72.8 TiB for an array"),
    (MemoryError(), "MemoryError"),
], ids=["numpy-message", "bare"])
def test_memory_error_exits_2_with_one_error_line(monkeypatch, capsys, error, reason):
    # a stand-in estimator raises; nothing large is allocated
    from bellsim import oracle

    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(oracle, "mc_thermal", out_of_memory)
    assert run(["validate", "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: memory ran out ({reason})"]
    assert "[  ok] d_exact_vs_exponential" in captured.out


def test_oracle_import_failure_exits_2_with_one_error_line(monkeypatch, capsys):
    # validate imports the oracle on first use; an ImportError there, as when
    # memory runs out, is an error line and exit 2, in build_config and in
    # validation_checks alike
    import bellsim

    cfg = cli.build_config(cli._make_parser().parse_args(["validate"]))
    monkeypatch.delattr(bellsim, "oracle")
    monkeypatch.setitem(sys.modules, "bellsim.oracle", None)
    assert run(["validate", "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: the Monte-Carlo oracle could not be imported (")
    with pytest.raises(cli.ConfigError, match="could not be imported"):
        next(cli.validation_checks(cfg))


def _in_process(argv, cwd, monkeypatch, capsys):
    """(exit code, stdout, stderr, files written) of cli.main(argv) run in cwd."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, {p.name: p.read_bytes() for p in cwd.iterdir()}


def _fresh_process(argv, cwd):
    """The same as _in_process, in a new interpreter."""
    cwd.mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "bellsim.cli", *argv], cwd=cwd,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    return (proc.returncode, proc.stdout, proc.stderr,
            {p.name: p.read_bytes() for p in cwd.iterdir()})


@pytest.mark.parametrize("first, code, second", [
    (["bell-sweep", "--x-max", "1"], 0, ["bell-sweep"]),
    (["bell-max", "--t-max", "5", "--t-n", "many"], 2, ["bell-max"]),
    (["scatter", "--config", "{cfg}"], 0, ["scatter"]),
], ids=["non-default-then-default", "usage-error-then-valid", "config-then-none"])
def test_a_reused_parser_leaks_no_state(tmp_path, monkeypatch, capsys, first, code, second):
    # main keeps one parser per process: a second call reads as a process's first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trap": {"t_over_tcr": 0.9}, "pattern": {"n": 11}}))
    first = [str(cfg) if arg == "{cfg}" else arg for arg in first]
    assert _in_process(first, tmp_path / "first", monkeypatch, capsys)[0] == code
    reused = _in_process(second, tmp_path / "reused", monkeypatch, capsys)
    assert reused == _fresh_process(second, tmp_path / "fresh")
    assert reused[0] == 0 and reused[3]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, command, unbuffered):
    # the reader closes the pipe before the child writes: buffered, the write
    # fails at main's flush; unbuffered, at the print itself
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    extra = ["--samples", "2000"] if command == "validate" else []
    with subprocess.Popen([sys.executable, "-m", "bellsim.cli", command, *extra], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err.splitlines() == ["error: standard output was closed"]
