"""Command-line front end: reference curves as CSV plus a validation suite.

Subcommands
-----------
tcrit       critical temperature versus aperture angle
bell-sweep  CHSH S(x) for all four initial states at fixed T/T_cr
bell-max    maxima of |S| versus T/T_cr for both state families
scatter     S_gg(x) at several double-excitation ratios, both formula routes
fidelity    Bell-measurement and CNOT fidelities versus T/T_cr and versus xi
validate    run the full invariant suite; exit 0 only if every check passes

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
Each subcommand accepts only the flags it reads (`_COMMANDS`); `build_config`
resolves every setting once, defaults <- JSON config file <- command-line flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import chsh, gates, linalg, motion, protocol

DEFAULT_SEED = 20240
#: Fixed ceilings, so the exit code of a call does not depend on the machine:
#: one thread per worker, and a table has a row per grid point and two
#: columns per listed value.
MAX_WORKERS = 256
MAX_GRID_N = 100_000
MAX_LIST_VALUES = 100
#: Cells write_csv formats per `%`: one block's Python floats and text stay
#: a few MB whatever the table's size.
CSV_BLOCK_CELLS = 2**14


def _available_cpus() -> int:
    """The CPUs this process may run on, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


class ConfigError(Exception):
    pass


def _import_oracle():
    """bellsim.oracle, imported only by validate, which samples.  An import
    that fails, as it can when memory runs out, is an error line and exit 2."""
    try:
        from . import oracle
    except ImportError as exc:
        raise ConfigError(f"the Monte-Carlo oracle could not be imported ({exc})") from exc
    return oracle


class _Setting(NamedTuple):
    """A setting's kind (float, int, str, or list: comma-separated floats >= 0),
    flag help, default, (section, key) in the config file if any, and lower and
    upper bounds."""
    kind: type
    help: str
    default: object = None
    key: tuple[str, str] | None = None
    lo: float | None = None
    hi: int | None = None


_SETTINGS = {
    "--config": _Setting(str, "JSON config file"),
    "--out": _Setting(str, "output CSV path"),
    "--nu-perp": _Setting(float, "transverse trap frequency (Hz)",
                          motion.DEFAULT_TRAP.nu_perp, ("trap", "nu_perp_hz")),
    "--nu-par": _Setting(float, "longitudinal trap frequency (Hz)",
                         motion.DEFAULT_TRAP.nu_par, ("trap", "nu_par_hz")),
    "--nu-recoil": _Setting(float, "recoil frequency (Hz)",
                            motion.DEFAULT_TRAP.nu_recoil, ("trap", "nu_recoil_hz")),
    "--theta0": _Setting(float, "collection-cone half-angle (rad)",
                         motion.DEFAULT_OPTICS.theta0, ("optics", "theta0_rad")),
    "--t-over-tcr": _Setting(float, "temperature as a fraction of T_cr", 0.5,
                             ("trap", "t_over_tcr"), lo=0.0),
    "--x-min": _Setting(float, "sweep start (rad)", 0.0, ("pattern", "x_min")),
    "--x-max": _Setting(float, "sweep end (rad)", np.pi / 2, ("pattern", "x_max")),
    "--grid-n": _Setting(int, "sweep grid size", 201, ("pattern", "n"), lo=2, hi=MAX_GRID_N),
    "--seed": _Setting(int, "Monte-Carlo seed", DEFAULT_SEED, ("mc", "seed"), lo=0),
    # one sample has no standard error
    "--samples": _Setting(int, "Monte-Carlo sample count", 100_000, ("mc", "n_samples"), lo=2),
    # no default here: build_config reads the CPUs this process may use
    "--workers": _Setting(int, "parallel chunk workers (default: the CPUs this process may use)",
                          lo=1, hi=MAX_WORKERS),
    "--xi-list": _Setting(list, "comma-separated xi values", "0,0.05,0.15,1"),
    "--t-list": _Setting(list, "T/T_cr values for the xi table", "0,0.2,0.5,1"),
    "--t-max": _Setting(float, "largest T/T_cr", 2.0, lo=0.0),
    "--t-n": _Setting(int, "temperature grid size", 81, lo=1, hi=MAX_GRID_N),
    "--xi-max": _Setting(float, "largest xi in the xi table", 1.0, lo=0.0),
    "--xi-n": _Setting(int, "xi grid size", 101, lo=1, hi=MAX_GRID_N),
}

_TRAP = ("--nu-perp", "--nu-par", "--nu-recoil")
_X_GRID = ("--x-min", "--x-max", "--grid-n")

#: Subcommand -> (help, the flags it reads, defaults that differ from
#: `_SETTINGS`).  Its handler is `cmd_<name>`.
_COMMANDS = {
    "tcrit": ("critical temperature vs aperture angle",
              ("--config", "--out", *_TRAP, "--grid-n"), {"--out": "tcrit.csv"}),
    "bell-sweep": ("CHSH S(x) for the four initial states",
                   ("--config", "--out", "--t-over-tcr", *_X_GRID),
                   {"--out": "bell_sweep.csv"}),
    "bell-max": ("maxima of |S| vs T/T_cr",
                 ("--out", "--t-max", "--t-n"), {"--out": "bell_max.csv", "--t-n": 41}),
    "scatter": ("S_gg(x) at several double-excitation ratios",
                ("--config", "--out", "--t-over-tcr", *_X_GRID, "--xi-list"),
                {"--out": "scatter.csv"}),
    "fidelity": ("Bell-measurement and CNOT fidelity tables",
                 ("--out", "--xi-list", "--t-list", "--t-max", "--t-n", "--xi-max", "--xi-n"),
                 {"--out": "fidelity.csv"}),
    "validate": ("run the invariant suite",
                 ("--config", *_TRAP, "--theta0", "--seed", "--samples", "--workers"), {}),
}


def _load_config(path: str) -> dict:
    """Read a JSON config; refuse a key no setting reads and a section that is no object."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {setting.key for setting in _SETTINGS.values() if setting.key}
    sections = {section for section, _ in known}
    for section, body in doc.items():
        if section not in sections:
            raise ConfigError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config {section} must be a JSON object, got {body!r}")
        for key in body:
            if (section, key) not in known:
                raise ConfigError(f"unknown config key {f'{section}.{key}'!r}")
    return doc


def _number(value, name: str, lo: float | None = None, integer: bool = False,
            hi: int | None = None):
    """Typed parse of every numeric setting: a finite number, >= lo and <= hi
    when given, integral when asked; anything else raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    number = float(value) if abs(value) <= sys.float_info.max else math.inf
    if (not np.isfinite(number) or (lo is not None and number < lo)
            or (hi is not None and value > hi) or (integer and not number.is_integer())):
        kind = "an integer" if integer else "a finite number"
        bound = f" >= {lo:g}" if lo is not None else ""
        bound += f" and <= {hi}" if hi is not None else ""
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else number


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated float list") from exc
    if not values:
        raise ConfigError(f"{name} must not be empty")
    if len(values) > MAX_LIST_VALUES:
        raise ConfigError(f"{name} must hold at most {MAX_LIST_VALUES} values, got {len(values)}")
    return [_number(v, name, lo=0.0) for v in values]


def build_config(args: argparse.Namespace) -> SimpleNamespace:
    """Resolve every setting the subcommand reads: defaults <- config file <- flags.

    Each setting becomes the attribute named as its flag without dashes, except
    that the trap frequencies make `trap`, theta0 makes `optics`, and the
    Monte-Carlo ones make `mc`.
    """
    _, flags, defaults = _COMMANDS[args.command]
    given = vars(args)
    doc = _load_config(given["config"]) if given.get("config") else {}

    values = {}
    for flag in flags:
        setting = _SETTINGS[flag]
        dest = flag[2:].replace("-", "_")
        section, key = setting.key or (None, None)
        name = f"{section}.{key}" if section else flag
        value = given[dest]
        if value is None and section is not None:
            value = doc.get(section, {}).get(key)
        if value is None:
            value = defaults.get(flag, setting.default)
        if setting.kind is list:
            value = _parse_float_list(value, name)
        elif setting.kind is not str and value is not None:
            value = _number(value, name, setting.lo, setting.kind is int, setting.hi)
        values[dest] = value
    if "workers" in values and values["workers"] is None:
        values["workers"] = _available_cpus()

    try:
        if "nu_perp" in values:
            values["trap"] = motion.TrapParams(
                values.pop("nu_perp"), values.pop("nu_par"), values.pop("nu_recoil"), 0.0)
        if "theta0" in values:
            values["optics"] = motion.OpticsParams(values.pop("theta0"))
        if "seed" in values:
            # the oracle's default chunk size: a run is fixed by (seed, samples)
            values["mc"] = _import_oracle().McConfig(values.pop("samples"), values.pop("seed"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "x_min" in values and not values["x_min"] < values["x_max"]:
        raise ConfigError("pattern grid needs x_min < x_max")
    if "out" in values and os.path.basename(values["out"]) in ("", ".", ".."):
        raise ConfigError(f"--out must name a file, got {values['out']!r}")
    return SimpleNamespace(**values)


def _create_temp(directory: Path) -> tuple[int, str]:
    """Open a new file under a random unused name in `directory`, as mkstemp
    does, but with the mode open() would give it: 0o666 less the umask."""
    for _ in range(10_000):
        name = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue
    raise FileExistsError(f"no unused temporary file name in {directory}")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a table of floats (an array or a list of rows), each cell to 12
    significant digits, atomically: compose in a temp file, then rename into
    place, and print `wrote <path>` with the path as given.

    A non-finite cell raises ConfigError before any file is made, and so
    does a path that cannot be written, after the temp file is removed.
    """
    table = np.asarray(rows, dtype=float)
    # NaN propagates through min and max, so the mask is built only to name a bad cell
    if table.size and not (np.isfinite(table.min()) and np.isfinite(table.max())):
        bad = table[~np.isfinite(table)][0]
        raise ConfigError(f"non-finite result {bad}: an input is out of range")
    line = ",".join(["%.12g"] * len(header)) + "\n"
    block_rows = max(1, CSV_BLOCK_CELLS // len(header))
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = _create_temp(target.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for start in range(0, len(table), block_rows):
                    block = table[start:start + block_rows]
                    fh.write(line * len(block) % tuple(block.ravel().tolist()))
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        # mkdir reports a file in the way of the parent as "File exists"
        blocking = [parent for parent in target.parents if parent.exists() and not parent.is_dir()]
        reason = f"{blocking[0]} is not a directory" if blocking else exc.strerror or exc
        raise ConfigError(f"cannot write {target}: {reason}") from exc
    print(f"wrote {path}")


def _interleave(first, *blocks) -> np.ndarray:
    """Table of the column `first`, then column j of every (rows, m) block in
    turn for j = 0 .. m - 1, filled in place."""
    table = np.empty((len(first), 1 + len(blocks) * np.shape(blocks[0])[1]))
    table[:, 0] = first
    for i, block in enumerate(blocks):
        table[:, 1 + i::len(blocks)] = block
    return table


def cmd_tcrit(cfg: SimpleNamespace) -> int:
    # keep the reference aperture pi/4 on the grid so its row is quotable
    # (np.union1d would give the same grid but loads numpy.ma)
    grid = np.linspace(motion.THETA0_MIN, np.pi / 2, cfg.grid_n)
    at = np.searchsorted(grid, np.pi / 4)
    if grid[at] != np.pi / 4:
        grid = np.insert(grid, at, np.pi / 4)
    optics = motion.OpticsParams(grid)
    a_perp, a_par = motion.aperture_coefficients(optics)
    nu = motion._nu_eff(cfg.trap, a_perp, a_par)
    rows = np.column_stack((grid, a_perp, a_par, nu, motion._t_crit(cfg.trap, nu)))
    write_csv(cfg.out, ["theta0_rad", "A_perp", "A_par", "nu_eff_Hz", "T_cr_K"], rows)
    return 0


def cmd_bell_sweep(cfg: SimpleNamespace) -> int:
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.grid_n)
    curves = chsh.sweep_s(xs, motion.d_approx(cfg.t_over_tcr))
    write_csv(cfg.out, ["x_rad", "S_gg", "S_ge", "S_eg", "S_ee"],
              np.column_stack((xs, *curves.values())))
    return 0


def cmd_bell_max(cfg: SimpleNamespace) -> int:
    ratios = np.linspace(0.0, cfg.t_max, cfg.t_n)
    d = motion.d_approx(ratios)
    rows = np.column_stack((ratios, chsh.s_max(d, "ge"), chsh.s_max(d, "eg")))
    write_csv(cfg.out, ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"], rows)
    return 0


def cmd_scatter(cfg: SimpleNamespace) -> int:
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.grid_n)
    d = motion.d_approx(cfg.t_over_tcr)
    xis = np.array(cfg.xi_list)[:, None]  # one curve per row
    header = ["x_rad"] + [f"S_gg_{form}_xi_{xi:.12g}" for xi in cfg.xi_list
                          for form in ("closed", "branch")]
    write_csv(cfg.out, header, _interleave(xs, chsh.s_gg_scatter_curve(xs, d, xis, "closed_form").T,
                                           chsh.s_gg_scatter_curve(xs, d, xis, "branch").T))
    return 0


def cmd_fidelity(cfg: SimpleNamespace) -> int:
    ratios = np.linspace(0.0, cfg.t_max, cfg.t_n)
    xis = np.linspace(0.0, cfg.xi_max, cfg.xi_n)

    out = Path(cfg.out)
    stem, suffix = out.with_suffix(""), out.suffix or ".csv"
    path_t = Path(f"{stem}_vs_t{suffix}")
    path_xi = Path(f"{stem}_vs_xi{suffix}")
    for path in (path_t, path_xi):  # a directory in the way of either: write neither
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: Is a directory")

    def cells(d, xi):
        return protocol.bell_meas_fidelity(d, xi), protocol.cnot_fidelity(d, xi)

    header_t = ["T_over_Tcr"] + [f"{f}_xi_{xi:.12g}" for xi in cfg.xi_list for f in ("F_B", "F")]
    rows_t = _interleave(ratios, *cells(motion.d_approx(ratios)[:, None], np.array(cfg.xi_list)))
    header_xi = ["xi"] + [f"{f}_t_{ratio:.12g}" for ratio in cfg.t_list for f in ("F_B", "F")]
    rows_xi = _interleave(xis, *cells(motion.d_approx(np.array(cfg.t_list)), xis[:, None]))

    write_csv(path_t, header_t, rows_t)
    write_csv(path_xi, header_xi, rows_xi)
    return 0


def validation_checks(cfg: SimpleNamespace):
    """Yield (name, ok, detail) for every invariant of `bellsim validate`, in order."""
    oracle = _import_oracle()
    # before the first check: a trap out of range ends the run before any line
    tcr = motion.t_crit(cfg.trap, cfg.optics)
    rng = np.random.default_rng(cfg.mc.seed)

    defect = gates.verify_cnot_identity()
    yield "cnot_identity", defect <= 1e-12, f"defect={defect:.3e}"

    singular = gates.h2()  # one sign flipped: rows 0 and 2 coincide
    singular[0, 1] = -1.0 / gates.SQRT2
    bad = gates.verify_cnot_identity(second_local=singular)
    yield ("flawed_second_local_detected", bad >= 0.5 and np.linalg.matrix_rank(singular) < 4,
           f"defect with singular variant={bad:.3f}")

    # each check draws its samples as one block, row by row the same stream as
    # one scalar draw per quantity, and checks them in one array call
    t1, t2, *xis = rng.uniform(-np.pi, np.pi, (50, 6)).T
    worst = linalg.unitarity_defect(gates.local_matrix(t1, t2, *xis))
    yield "local_operations_unitary", worst <= 1e-13, f"max defect={worst:.3e}"

    p = rng.uniform(-np.pi, np.pi, 20)
    worst = linalg.unitarity_defect(gates.bell_matrix(p, p))
    yield "bell_matrix_unitary_at_equal_phases", worst <= 1e-13, f"max defect={worst:.3e}"

    d, t1, t2 = rng.uniform([0, -np.pi, -np.pi], [1, np.pi, np.pi], (100, 3)).T
    gap = float(np.max(np.abs(chsh.probabilities_closed_form(d, t1, t2)
                              - chsh.probabilities_first_principles(d, t1, t2))))
    yield "closed_vs_first_principles_probabilities", gap <= 1e-12, f"max entry gap={gap:.3e}"

    d, xi, t1, t2 = rng.uniform([0, 0, -np.pi, -np.pi], [1, 1, np.pi, np.pi], (100, 4)).T
    worst = max(float(np.max(np.abs(m.sum(axis=-1) - 1.0)))
                for m in (chsh.probabilities_closed_form(d, t1, t2),
                          protocol.bell_meas_matrix(d, xi),
                          protocol.cnot_prob_matrix(d, xi)))
    yield "probability_rows_stochastic", worst <= 1e-12, f"max row defect={worst:.3e}"

    config = gates.GeneralBellConfig(geometry_phase=np.pi)
    d1, d2 = map(abs, gates.orthogonality_inner_products(gates.bell_matrix_general(config)))
    yield ("orthogonality_phase_condition", max(d1, d2) <= 1e-12,
           f"defects=({d1:.3e}, {d2:.3e})")

    # the paper quotes these numbers for its own trap and aperture, whatever the flags say
    a_perp, a_par = motion.aperture_coefficients(motion.DEFAULT_OPTICS)
    nu = motion.nu_eff(motion.DEFAULT_TRAP, motion.DEFAULT_OPTICS)
    t_cr = motion.t_crit(motion.DEFAULT_TRAP, motion.DEFAULT_OPTICS)
    ok = (abs(a_perp - 1.25) <= 0.02 and abs(a_par - 0.75) <= 0.02
          and abs(nu - 55e3) <= 1e3 and 19e-6 <= t_cr <= 21e-6)
    yield ("aperture_and_tcrit_anchor", ok,
           f"A_perp={a_perp:.4f} A_par={a_par:.4f} nu_eff={nu:.0f} Hz T_cr={t_cr*1e6:.2f} uK")

    d_half = motion.d_approx(0.5)
    angles = chsh.pattern_angles(np.pi / 8)
    s0 = chsh.chsh_s("ge", angles, 0.0)
    s5 = chsh.chsh_s("ge", angles, d_half)
    # the other (eg, ee) family stays classical at T/T_cr = 0.5; E_ee = -E_eg
    # exactly, so both states have this maximum bit for bit
    other = chsh.s_max(d_half, "eg")
    ok = (abs(s0 - 2 * gates.SQRT2) <= 1e-9
          and abs(s5 - chsh.s_at_standard_angle(d_half)) <= 1e-6 and other <= 2.0 + 1e-9)
    yield "chsh_standard_angle_values", ok, f"S(d=0)={s0:.9f} S(T/Tcr=0.5)={s5:.6f}"

    ratios = np.linspace(0.0, 2.0, 41)
    levels = motion.d_approx(ratios)
    smax_curve = chsh.s_max(levels)
    std_curve = chsh.s_at_standard_angle(levels)
    monotone = bool(np.all(np.diff(smax_curve) <= 1e-9))
    start = abs(smax_curve[0] - 2 * gates.SQRT2) <= 1e-6
    std_cross = float(np.interp(2.0, std_curve[::-1], ratios[::-1]))
    # sqrt(2) (1 + e^{-T/T_cr}) = 2 at T/T_cr = -ln(sqrt(2) - 1)
    ok = (monotone and start and 0.8 <= std_cross <= 1.1
          and abs(std_cross + np.log(gates.SQRT2 - 1.0)) <= 1e-3)
    yield ("smax_curve_shape", ok,
           f"standard-angle crossing T/Tcr={std_cross:.4f}; optimized max stays "
           f">= {smax_curve[-1]:.6f} (trivial x->0 limit), see notes")

    thr_fixed = chsh.scatter_threshold(d_half, fixed_x=np.pi / 8)
    thr_opt = chsh.scatter_threshold(d_half)
    yield ("scatter_threshold", abs(thr_fixed - 0.119) <= 0.005 and 0.10 <= thr_opt <= 0.20,
           f"xi*(pi/8)={thr_fixed:.4f} xi*(optimized)={thr_opt:.4f}")

    f_anchor = protocol.cnot_fidelity(motion.d_approx(1.0), 0.0)
    fb_d1 = protocol.bell_meas_fidelity(1.0, 0.0)
    fb_xi1 = protocol.bell_meas_fidelity(0.0, 1.0)
    curves = [fidelity(levels, xi) for xi in (0.0, 0.05, 0.15, 1.0)
              for fidelity in (protocol.bell_meas_fidelity, protocol.cnot_fidelity)]
    ok = (abs(f_anchor - np.exp(-1.0)) <= 1e-12 and abs(fb_d1 - 0.5) <= 1e-12
          and abs(fb_xi1 - 5.0 / 9.0) <= 1e-12
          and all(np.all(np.diff(curve) <= 1e-12) for curve in curves))
    yield ("fidelity_anchors_and_monotonicity", ok,
           f"F(Tcr,0)={f_anchor:.6f} F_B(d=1,0)={fb_d1:.3f} F_B(0,1)={fb_xi1:.6f}")

    # an 81 x 81 angle grid per xi, each equal to its scalar-xi call bit for bit; a
    # row and a column of angles broadcast to it, so one-angle trig takes 81 values
    tg1 = np.linspace(-np.pi, np.pi, 81)
    tg2 = tg1[:, None]
    xis = np.array([0.05, 0.01, 1e-3, 1e-4, 1e-6])[:, None, None]
    *gaps, gap0 = np.max(np.abs(chsh.e_gg_scatter(d_half, xis, tg1, tg2, "closed_form")
                                - chsh.e_gg_scatter(d_half, xis, tg1, tg2, "branch")),
                         axis=(1, 2)).tolist()
    gap05 = gaps[0]
    xs = np.linspace(1e-3, np.pi / 2, 400)
    s_gap = float(np.max(np.abs(
        chsh.s_gg_scatter_curve(xs, d_half, 0.05, "closed_form")
        - chsh.s_gg_scatter_curve(xs, d_half, 0.05, "branch"))))
    ok = (gap05 <= 0.1 and gap0 <= 1e-4 and s_gap <= 4 * gap05 + 1e-12
          and bool(np.all(np.diff(gaps) < 0)) and gaps[-1] <= 1e-3)
    yield ("scatter_form_gap", ok,
           f"correlation gap(xi=0.05)={gap05:.4f} gap(xi=1e-6)={gap0:.2e} "
           f"S-column gap={s_gap:.4f}")

    fracs = (0.1, 0.2, 0.25, 0.5, 0.75, 1.0)
    d_exact = dict(zip(fracs, motion.d_exact(cfg.trap.with_temperature(np.multiply(fracs, tcr)),
                                             cfg.optics)))
    worst = max(abs(d_exact[frac] - motion.d_approx(frac)) for frac in (0.1, 0.25, 0.5, 0.75, 1.0))
    yield "d_exact_vs_exponential", worst <= 0.05, f"max |gap|={worst:.4f}"

    # the T/T_cr = 0.5 checks read the same stages of every chunk: draw them
    # once; the 0.2 and 1 decoherence checks rescale those phases by sqrt(T)
    trap_half = cfg.trap.with_temperature(0.5 * tcr)
    half = oracle.mc_thermal(trap_half, cfg.optics, np.pi / 7, np.pi / 5, (0.0, 0.05),
                             cfg.mc, workers=cfg.workers, temperatures=(0.2 * tcr, 1.0 * tcr))
    low, high = half.decoherence_at
    for ratio, est in ((0.2, low), (0.5, half.decoherence.estimate), (1.0, high)):
        closed = d_exact[ratio]
        yield (f"mc_decoherence_T_over_Tcr_{ratio:g}",
               abs(est.mean - closed) <= 3 * est.std_error + 1e-9,
               f"estimate={est.mean:.5f} closed={closed:.5f} std_error={est.std_error:.2e}")

    d_quad = d_exact[0.5]
    est = half.probabilities
    closed = chsh.probabilities_first_principles(d_quad, np.pi / 7, np.pi / 5)
    ok = bool(np.all(np.abs(est.mean - closed) <= 3 * est.std_error + 1e-9))
    yield ("mc_probabilities_vs_closed_form", ok and est.row_sum_max_dev <= 1e-12,
           f"max |gap|={float(np.max(np.abs(est.mean - closed))):.2e} "
           f"row dev={est.row_sum_max_dev:.2e}")

    for xi, est in zip((0.0, 0.05), half.bell_measurement):
        closed = protocol.bell_meas_fidelity(d_quad, xi)
        diag = float(np.mean(np.diag(est.mean)))
        # diagonal entries coincide per sample: single-entry standard error
        se = float(np.max(np.diag(est.std_error)))
        yield (f"mc_bell_measurement_diag_xi_{xi:g}", abs(diag - closed) <= 3 * se + 1e-9,
               f"estimate={diag:.5f} closed={closed:.5f} std_error={se:.2e}")

    # a small run of its own, serial and threaded, whatever --samples and --workers say:
    # five chunks, as a pool starts no more threads than chunks and submits two per
    # thread ahead, so at two threads the fold's refill submits the fifth
    small = oracle.McConfig(2_000, cfg.mc.seed, 400)
    one = oracle.mc_decoherence(trap_half, cfg.optics, small, workers=1)
    many = oracle.mc_decoherence(trap_half, cfg.optics, small, workers=max(2, cfg.workers))
    yield ("mc_bit_reproducible_across_workers",
           one.estimate.mean == many.estimate.mean
           and one.estimate.std_error == many.estimate.std_error,
           f"estimate={one.estimate.mean:.10f}")


def cmd_validate(cfg: SimpleNamespace) -> int:
    count = failures = 0
    for name, ok, detail in validation_checks(cfg):
        count += 1
        failures += not ok
        print(f"[{'ok' if ok else 'FAIL':>4}] {name}  ({detail})")
    print(f"{count} checks, {failures} failure(s)")
    return 0 if failures == 0 else 1


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """Built once per process, so `main` may be called repeatedly: the parser
    holds no per-call state (build_config resolves defaults, main the handler)."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Conditional two-qubit logic simulator: figures as CSV plus validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        # no abbreviations: a prefix of another flag is a flag the command does not take
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            setting = _SETTINGS[flag]
            p.add_argument(flag, type=str if setting.kind is list else setting.kind, help=setting.help)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _make_parser().parse_args(argv)
            # looked up at call time, so a rebound cmd_* (a tracing wrapper) is the one run
            handler = globals()["cmd_" + args.command.replace("-", "_")]
            # an overflow or an undefined value inside numpy is an out-of-range input too
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return handler(build_config(args))
        finally:
            sys.stdout.flush()  # a closed buffered stdout fails here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = "standard output was closed"
    except MemoryError as exc:
        reason = f"memory ran out ({str(exc) or 'MemoryError'})"
    except (ConfigError, OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        # a float overflow's args are (errno, message): give the message alone
        detail = exc.args[-1] if exc.args else type(exc).__name__
        reason = exc if isinstance(exc, ConfigError) else f"an input is out of range ({detail})"
    print(f"error: {reason}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
