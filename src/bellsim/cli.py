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
import math
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import chsh, gates, linalg, motion, protocol

DEFAULT_SEED = 20240


class ConfigError(Exception):
    pass


class _Setting(NamedTuple):
    """A setting's kind (float, int, str, or list: comma-separated floats >= 0),
    flag help, default, (section, key) in the config file if any, lower bound
    and allowed values."""
    kind: type
    help: str
    default: object = None
    key: tuple[str, str] | None = None
    lo: float | None = None
    choices: tuple[str, ...] | None = None


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
    # no default: T/T_cr = 0.5 applies when neither temperature setting is given
    "--temperature-k": _Setting(float, "atom temperature (K)",
                                key=("trap", "temperature_k"), lo=0.0),
    "--t-over-tcr": _Setting(float, "temperature as a fraction of T_cr",
                             key=("trap", "t_over_tcr"), lo=0.0),
    "--pattern": _Setting(str, "angle pattern", "standard", ("pattern", "kind"),
                          choices=chsh.PATTERN_KINDS),
    "--x-min": _Setting(float, "sweep start (rad)", 0.0, ("pattern", "x_min")),
    "--x-max": _Setting(float, "sweep end (rad)", np.pi / 2, ("pattern", "x_max")),
    "--grid-n": _Setting(int, "sweep grid size", 201, ("pattern", "n"), lo=2),
    "--seed": _Setting(int, "Monte-Carlo seed", DEFAULT_SEED, ("mc", "seed"), lo=0),
    # one sample has no standard error
    "--samples": _Setting(int, "Monte-Carlo sample count", 100_000, ("mc", "n_samples"), lo=2),
    "--chunk-size": _Setting(int, "Monte-Carlo chunk size", 10_000, ("mc", "chunk_size"), lo=1),
    "--workers": _Setting(int, "parallel chunk workers", 1, lo=1),
    "--xi-list": _Setting(list, "comma-separated xi values", "0,0.05,0.15,1"),
    "--t-list": _Setting(list, "T/T_cr values for the xi table", "0,0.2,0.5,1"),
    "--t-max": _Setting(float, "largest T/T_cr", 2.0, lo=0.0),
    "--t-n": _Setting(int, "temperature grid size", 81, lo=1),
    "--xi-max": _Setting(float, "largest xi in the xi table", 1.0, lo=0.0),
    "--xi-n": _Setting(int, "xi grid size", 101, lo=1),
}

_TRAP = ("--nu-perp", "--nu-par", "--nu-recoil")
# the trap and optics settings convert a temperature in kelvin through T_cr
_TEMPERATURE = (*_TRAP, "--theta0", "--temperature-k", "--t-over-tcr")
_X_GRID = ("--x-min", "--x-max", "--grid-n")

#: Subcommand -> (help, the flags it reads, defaults that differ from
#: `_SETTINGS`).  Its handler is `cmd_<name>`.
_COMMANDS = {
    "tcrit": ("critical temperature vs aperture angle",
              ("--config", "--out", *_TRAP, "--grid-n"), {"--out": "tcrit.csv"}),
    "bell-sweep": ("CHSH S(x) for the four initial states",
                   ("--config", "--out", *_TEMPERATURE, "--pattern", *_X_GRID),
                   {"--out": "bell_sweep.csv"}),
    "bell-max": ("maxima of |S| vs T/T_cr",
                 ("--config", "--out", "--pattern", "--t-max", "--t-n"),
                 {"--out": "bell_max.csv", "--t-n": 41}),
    "scatter": ("S_gg(x) at several double-excitation ratios",
                ("--config", "--out", *_TEMPERATURE, *_X_GRID, "--xi-list"),
                {"--out": "scatter.csv"}),
    "fidelity": ("Bell-measurement and CNOT fidelity tables",
                 ("--out", "--xi-list", "--t-list", "--t-max", "--t-n", "--xi-max", "--xi-n"),
                 {"--out": "fidelity.csv"}),
    "validate": ("run the invariant suite",
                 ("--config", *_TRAP, "--theta0", "--seed", "--samples", "--chunk-size",
                  "--workers"), {}),
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


def _number(value, name: str, lo: float | None = None, integer: bool = False):
    """Typed parse of every numeric setting: a finite number, >= lo when given,
    integral when asked; anything else raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    number = float(value) if abs(value) <= sys.float_info.max else math.inf
    if (not np.isfinite(number) or (lo is not None and number < lo)
            or (integer and not number.is_integer())):
        kind = "an integer" if integer else "a finite number"
        bound = f" >= {lo:g}" if lo is not None else ""
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else number


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated float list") from exc
    if not values:
        raise ConfigError(f"{name} must not be empty")
    return [_number(v, name, lo=0.0) for v in values]


def build_config(args: argparse.Namespace) -> SimpleNamespace:
    """Resolve every setting the subcommand reads: defaults <- config file <- flags.

    Each setting becomes the attribute named as its flag without dashes, except
    that the trap frequencies and the resolved temperature make `trap`, theta0
    makes `optics`, the temperature settings leave the ratio `t_over_tcr`, and
    the Monte-Carlo ones make `mc`.
    """
    _, flags, defaults = _COMMANDS[args.command]
    given = vars(args)
    doc = _load_config(given["config"]) if given.get("config") else {}
    if given.get("temperature_k") is not None or given.get("t_over_tcr") is not None:
        # either temperature flag displaces both file keys
        doc["trap"] = {key: value for key, value in doc.get("trap", {}).items()
                       if key not in ("temperature_k", "t_over_tcr")}

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
        if setting.choices and value not in setting.choices:
            raise ConfigError(f"{name} must be one of {setting.choices}, got {value!r}")
        if setting.kind is list:
            value = _parse_float_list(value, name)
        elif setting.kind is not str and value is not None:
            value = _number(value, name, setting.lo, integer=setting.kind is int)
        values[dest] = value

    try:
        if "nu_perp" in values:
            values["trap"] = motion.TrapParams(
                values.pop("nu_perp"), values.pop("nu_par"), values.pop("nu_recoil"), 0.0)
        if "theta0" in values:
            values["optics"] = motion.OpticsParams(values.pop("theta0"))
        if "temperature_k" in values:
            temperature, ratio = values.pop("temperature_k"), values["t_over_tcr"]
            if temperature is not None and ratio is not None:
                raise ConfigError("temperature_k and t_over_tcr are mutually exclusive")
            t_cr = motion.t_crit(values["trap"], values["optics"])
            if temperature is not None:
                ratio = temperature / t_cr
            values["t_over_tcr"] = ratio = _number(
                0.5 if ratio is None else ratio, "t_over_tcr", lo=0.0)
            values["trap"] = values["trap"].with_temperature(ratio * t_cr)
        if "seed" in values:
            from . import oracle  # only validate samples
            values["mc"] = oracle.McConfig(
                values.pop("samples"), values.pop("seed"), values.pop("chunk_size"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "x_min" in values and not values["x_min"] < values["x_max"]:
        raise ConfigError("pattern grid needs x_min < x_max")
    return SimpleNamespace(**values)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ConfigError(f"non-finite result {value}: an input is out of range")
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write rows atomically: compose in a temp file, then rename into place.

    A non-finite float cell raises ConfigError before the rename, so no file is left.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        # mkstemp makes the file owner-only; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def cmd_tcrit(cfg: SimpleNamespace) -> int:
    # keep the reference aperture pi/4 on the grid so its row is quotable
    # (np.union1d would give the same grid but loads numpy.ma)
    grid = np.linspace(motion.THETA0_MIN, np.pi / 2, cfg.grid_n)
    at = np.searchsorted(grid, np.pi / 4)
    if grid[at] != np.pi / 4:
        grid = np.insert(grid, at, np.pi / 4)
    rows = []
    for theta0 in grid:
        optics = motion.OpticsParams(theta0)
        a_perp, a_par = motion.aperture_coefficients(optics)
        rows.append((theta0, a_perp, a_par,
                     motion.nu_eff(cfg.trap, optics), motion.t_crit(cfg.trap, optics)))
    write_csv(cfg.out, ["theta0_rad", "A_perp", "A_par", "nu_eff_Hz", "T_cr_K"], rows)
    print(f"wrote {cfg.out}")
    return 0


def cmd_bell_sweep(cfg: SimpleNamespace) -> int:
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.grid_n)
    curves = chsh.sweep_s(xs, 1.0 - np.exp(-cfg.t_over_tcr), cfg.pattern)
    rows = zip(xs, curves["gg"], curves["ge"], curves["eg"], curves["ee"])
    write_csv(cfg.out, ["x_rad", "S_gg", "S_ge", "S_eg", "S_ee"], rows)
    print(f"wrote {cfg.out}")
    return 0


def cmd_bell_max(cfg: SimpleNamespace) -> int:
    ratios = np.linspace(0.0, cfg.t_max, cfg.t_n)
    violating = "ge" if cfg.pattern == "standard" else "eg"
    other = "eg" if cfg.pattern == "standard" else "ge"
    rows = []
    for ratio in ratios:
        d = 1.0 - np.exp(-ratio)
        rows.append((ratio,
                     chsh.s_max(d, violating, cfg.pattern),
                     chsh.s_max(d, other, cfg.pattern)))
    write_csv(cfg.out, ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"], rows)
    print(f"wrote {cfg.out}")
    return 0


def cmd_scatter(cfg: SimpleNamespace) -> int:
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.grid_n)
    d = 1.0 - np.exp(-cfg.t_over_tcr)
    header = ["x_rad"]
    columns = [xs]
    for xi in cfg.xi_list:
        header.append(f"S_gg_closed_xi_{xi:g}")
        columns.append(chsh.s_gg_scatter_curve(xs, d, xi, "closed_form"))
        header.append(f"S_gg_branch_xi_{xi:g}")
        columns.append(chsh.s_gg_scatter_curve(xs, d, xi, "branch"))
    write_csv(cfg.out, header, zip(*columns))
    print(f"wrote {cfg.out}")
    return 0


def cmd_fidelity(cfg: SimpleNamespace) -> int:
    ratios = np.linspace(0.0, cfg.t_max, cfg.t_n)
    xis = np.linspace(0.0, cfg.xi_max, cfg.xi_n)

    out = Path(cfg.out)
    stem, suffix = out.with_suffix(""), out.suffix or ".csv"
    path_t = Path(f"{stem}_vs_t{suffix}")
    path_xi = Path(f"{stem}_vs_xi{suffix}")

    def cells(ratio, xi):
        d = 1.0 - np.exp(-ratio)
        return [protocol.bell_meas_fidelity(d, xi), protocol.cnot_fidelity(d, xi)]

    header_t = ["T_over_Tcr"] + [f"{f}_xi_{xi:g}" for xi in cfg.xi_list for f in ("F_B", "F")]
    rows_t = [[ratio] + [c for xi in cfg.xi_list for c in cells(ratio, xi)] for ratio in ratios]
    header_xi = ["xi"] + [f"{f}_t_{ratio:g}" for ratio in cfg.t_list for f in ("F_B", "F")]
    rows_xi = [[xi] + [c for ratio in cfg.t_list for c in cells(ratio, xi)] for xi in xis]

    write_csv(path_t, header_t, rows_t)
    try:
        write_csv(path_xi, header_xi, rows_xi)
    except BaseException:
        path_t.unlink()  # both tables or neither
        raise
    print(f"wrote {path_t}")
    print(f"wrote {path_xi}")
    return 0


def validation_checks(cfg: SimpleNamespace):
    """Yield (name, ok, detail) for every invariant of `bellsim validate`, in order."""
    from . import oracle
    # before the first check: a trap out of range ends the run before any line
    tcr = motion.t_crit(cfg.trap, cfg.optics)
    rng = np.random.default_rng(cfg.mc.seed)
    sqrt2 = np.sqrt(2.0)

    defect = gates.verify_cnot_identity()
    yield "cnot_identity", defect <= 1e-12, f"defect={defect:.3e}"

    singular = gates.h2_singular()
    bad = gates.verify_cnot_identity(second_local=singular)
    yield ("flawed_second_local_detected", bad >= 0.5 and np.linalg.matrix_rank(singular) < 4,
           f"defect with singular variant={bad:.3f}")

    worst = 0.0
    for _ in range(50):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        xis = rng.uniform(-np.pi, np.pi, 4)
        worst = max(worst, linalg.unitarity_defect(gates.local_matrix(t1, t2, *xis)))
    yield "local_operations_unitary", worst <= 1e-13, f"max defect={worst:.3e}"

    worst = max(linalg.unitarity_defect(gates.bell_matrix(p, p))
                for p in rng.uniform(-np.pi, np.pi, 20))
    yield "bell_matrix_unitary_at_equal_phases", worst <= 1e-13, f"max defect={worst:.3e}"

    gap = 0.0
    for _ in range(100):
        d = rng.uniform(0, 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        gap = max(gap, float(np.max(np.abs(
            chsh.probabilities_closed_form(d, t1, t2)
            - chsh.probabilities_first_principles(d, t1, t2)))))
    yield "closed_vs_first_principles_probabilities", gap <= 1e-12, f"max entry gap={gap:.3e}"

    worst = 0.0
    for _ in range(100):
        d = rng.uniform(0, 1)
        xi = rng.uniform(0, 1)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        for m in (chsh.probabilities_closed_form(d, t1, t2),
                  protocol.bell_meas_matrix(d, xi),
                  protocol.cnot_prob_matrix(d, xi)):
            worst = max(worst, float(np.max(np.abs(m.sum(axis=1) - 1.0))))
    yield "probability_rows_stochastic", worst <= 1e-12, f"max row defect={worst:.3e}"

    config = gates.GeneralBellConfig(geometry_phase=np.pi)
    d1, d2 = gates.orthogonality_defect(gates.bell_matrix_general(config))
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

    d_half = 1.0 - np.exp(-0.5)
    angles = chsh.pattern_angles("standard", np.pi / 8)
    s0 = chsh.chsh_s("ge", angles, 0.0)
    s5 = chsh.chsh_s("ge", angles, d_half)
    # the other (eg, ee) family stays classical at T/T_cr = 0.5
    other = max(chsh.s_max(d_half, state) for state in ("eg", "ee"))
    ok = (abs(s0 - 2 * sqrt2) <= 1e-9
          and abs(s5 - sqrt2 * (1 + np.exp(-0.5))) <= 1e-6 and other <= 2.0 + 1e-9)
    yield "chsh_standard_angle_values", ok, f"S(d=0)={s0:.9f} S(T/Tcr=0.5)={s5:.6f}"

    ratios = np.linspace(0.0, 2.0, 41)
    smax_curve = np.array([chsh.s_max(1.0 - np.exp(-r)) for r in ratios])
    std_curve = np.array([chsh.s_at_standard_angle(1.0 - np.exp(-r)) for r in ratios])
    monotone = bool(np.all(np.diff(smax_curve) <= 1e-9))
    start = abs(smax_curve[0] - 2 * sqrt2) <= 1e-6
    std_cross = float(np.interp(2.0, std_curve[::-1], ratios[::-1]))
    # sqrt(2) (1 + e^{-T/T_cr}) = 2 at T/T_cr = -ln(sqrt(2) - 1)
    ok = (monotone and start and 0.8 <= std_cross <= 1.1
          and abs(std_cross + np.log(sqrt2 - 1.0)) <= 1e-3)
    yield ("smax_curve_shape", ok,
           f"standard-angle crossing T/Tcr={std_cross:.4f}; optimized max stays "
           f">= {smax_curve[-1]:.6f} (trivial x->0 limit), see notes")

    thr_fixed = chsh.scatter_threshold(d_half, fixed_x=np.pi / 8)
    thr_opt = chsh.scatter_threshold(d_half)
    yield ("scatter_threshold", abs(thr_fixed - 0.119) <= 0.005 and 0.10 <= thr_opt <= 0.20,
           f"xi*(pi/8)={thr_fixed:.4f} xi*(optimized)={thr_opt:.4f}")

    f_anchor = protocol.cnot_fidelity(1.0 - np.exp(-1.0), 0.0)
    fb_d1 = protocol.bell_meas_fidelity(1.0, 0.0)
    fb_xi1 = protocol.bell_meas_fidelity(0.0, 1.0)
    curves = [[fidelity(1.0 - np.exp(-r), xi) for r in ratios]
              for xi in (0.0, 0.05, 0.15, 1.0)
              for fidelity in (protocol.bell_meas_fidelity, protocol.cnot_fidelity)]
    ok = (abs(f_anchor - np.exp(-1.0)) <= 1e-12 and abs(fb_d1 - 0.5) <= 1e-12
          and abs(fb_xi1 - 5.0 / 9.0) <= 1e-12
          and all(np.all(np.diff(curve) <= 1e-12) for curve in curves))
    yield ("fidelity_anchors_and_monotonicity", ok,
           f"F(Tcr,0)={f_anchor:.6f} F_B(d=1,0)={fb_d1:.3f} F_B(0,1)={fb_xi1:.6f}")

    tg1, tg2 = np.meshgrid(np.linspace(-np.pi, np.pi, 81),
                           np.linspace(-np.pi, np.pi, 81))

    def route_gap(xi):
        return float(np.max(np.abs(chsh.e_gg_scatter(d_half, xi, tg1, tg2, "closed_form")
                                   - chsh.e_gg_scatter(d_half, xi, tg1, tg2, "branch"))))

    gaps = [route_gap(xi) for xi in (0.05, 0.01, 1e-3, 1e-4)]
    gap05, gap0 = gaps[0], route_gap(1e-6)
    xs = np.linspace(1e-3, np.pi / 2, 400)
    s_gap = float(np.max(np.abs(
        chsh.s_gg_scatter_curve(xs, d_half, 0.05, "closed_form")
        - chsh.s_gg_scatter_curve(xs, d_half, 0.05, "branch"))))
    ok = (gap05 <= 0.1 and gap0 <= 1e-4 and s_gap <= 4 * gap05 + 1e-12
          and bool(np.all(np.diff(gaps) < 0)) and gaps[-1] <= 1e-3)
    yield ("scatter_form_gap", ok,
           f"correlation gap(xi=0.05)={gap05:.4f} gap(xi=1e-6)={gap0:.2e} "
           f"S-column gap={s_gap:.4f}")

    d_exact = {frac: motion.d_exact(cfg.trap.with_temperature(frac * tcr), cfg.optics)
               for frac in (0.1, 0.2, 0.25, 0.5, 0.75, 1.0)}
    worst = 0.0
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        trap = cfg.trap.with_temperature(frac * tcr)
        worst = max(worst, abs(d_exact[frac] - motion.d_approx(trap, cfg.optics)))
    yield "d_exact_vs_exponential", worst <= 0.05, f"max |gap|={worst:.4f}"

    # the T/T_cr = 0.5 checks read the same stages of every chunk: draw them
    # once; the 0.2 and 1 decoherence checks rescale those phases by sqrt(T)
    trap_half = cfg.trap.with_temperature(0.5 * tcr)
    half = oracle.mc_thermal(trap_half, cfg.optics, np.pi / 7, np.pi / 5, (0.0, 0.05),
                             cfg.mc, workers=cfg.workers, temperatures=(0.2 * tcr, 1.0 * tcr))
    low, high = half.decoherence_at
    for ratio, est in ((0.2, low), (0.5, half.decoherence), (1.0, high)):
        closed = d_exact[ratio]
        diff = abs(est.estimate.mean - closed)
        yield (f"mc_decoherence_T_over_Tcr_{ratio:g}",
               diff <= 3 * est.estimate.std_error + 1e-9,
               f"estimate={est.estimate.mean:.5f} closed={closed:.5f} "
               f"std_error={est.estimate.std_error:.2e}")

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

    small = oracle.McConfig(20_000, cfg.mc.seed, cfg.mc.chunk_size)
    one = oracle.mc_decoherence(trap_half, cfg.optics, small, workers=1)
    many = oracle.mc_decoherence(trap_half, cfg.optics, small, workers=3)
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


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Conditional two-qubit logic simulator: figures as CSV plus validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        # no abbreviations: a prefix of another flag is a flag the command does not take
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            setting = _SETTINGS[flag]
            p.add_argument(flag, type=str if setting.kind is list else setting.kind,
                           choices=setting.choices, help=setting.help)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* (a tracing wrapper) is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # an overflow or an undefined value inside numpy is an out-of-range input too
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return handler(build_config(args))
    except (ConfigError, OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        reason = exc if isinstance(exc, ConfigError) else f"an input is out of range ({exc})"
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
