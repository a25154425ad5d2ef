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
Parameters merge defaults <- JSON config file <- command-line flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chsh, gates, linalg, motion, oracle, protocol

DEFAULT_SEED = 20240
DEFAULT_SAMPLES = 100_000
DEFAULT_CHUNK = 10_000


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    trap: motion.TrapParams = motion.DEFAULT_TRAP
    optics: motion.OpticsParams = motion.DEFAULT_OPTICS
    t_over_tcr: float = 0.5
    xi: float = 0.0
    pattern_kind: str = "standard"
    x_min: float = 0.0
    x_max: float = np.pi / 2
    n_points: int = 201
    mc: oracle.McConfig = field(
        default_factory=lambda: oracle.McConfig(DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_CHUNK))
    workers: int = 1
    out: Path | None = None

    @property
    def d(self) -> float:
        """Decoherence level implied by the configured temperature ratio."""
        return float(1.0 - np.exp(-self.t_over_tcr))


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config {key} must be a JSON object, got {value!r}")
    return value


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


def build_config(args: argparse.Namespace) -> RunConfig:
    doc = _load_json(args.config) if args.config else {}
    trap_doc = _section(doc, "trap")
    optics_doc = _section(doc, "optics")
    pattern_doc = _section(doc, "pattern")
    mc_doc = _section(doc, "mc")

    def pick(flag_value, doc_value, default):
        if flag_value is not None:
            return flag_value
        if doc_value is not None:
            return doc_value
        return default

    def number(flag_value, section, key, default, lo=None, integer=False):
        return _number(pick(flag_value, section.get(key), default), key, lo, integer)

    nu_perp = number(args.nu_perp, trap_doc, "nu_perp_hz", motion.DEFAULT_TRAP.nu_perp)
    nu_par = number(args.nu_par, trap_doc, "nu_par_hz", motion.DEFAULT_TRAP.nu_par)
    nu_recoil = number(args.nu_recoil, trap_doc, "nu_recoil_hz", motion.DEFAULT_TRAP.nu_recoil)
    theta0 = number(args.theta0, optics_doc, "theta0_rad", motion.DEFAULT_OPTICS.theta0)

    temp_flag = args.temperature_k
    ratio_flag = args.t_over_tcr
    temp_doc = trap_doc.get("temperature_k")
    ratio_doc = trap_doc.get("t_over_tcr")
    if temp_flag is not None and ratio_flag is not None:
        raise ConfigError("--temperature-k and --t-over-tcr are mutually exclusive")
    if temp_doc is not None and ratio_doc is not None:
        raise ConfigError("config trap.temperature_k and trap.t_over_tcr are mutually exclusive")

    # either flag overrides both file keys; the file keys fill in otherwise
    from_flags = temp_flag is not None or ratio_flag is not None
    temperature, ratio = (temp_flag, ratio_flag) if from_flags else (temp_doc, ratio_doc)
    try:
        trap = motion.TrapParams(nu_perp, nu_par, nu_recoil, 0.0)
        optics = motion.OpticsParams(theta0)
        if temperature is not None:
            ratio = _number(temperature, "temperature_k", lo=0.0) / motion.t_crit(trap, optics)
        ratio = _number(0.5 if ratio is None else ratio, "t_over_tcr", lo=0.0)
        trap = trap.with_temperature(ratio * motion.t_crit(trap, optics))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    kind = pick(args.pattern, pattern_doc.get("kind"), "standard")
    if kind not in chsh.PATTERN_KINDS:
        raise ConfigError(f"pattern kind must be one of {chsh.PATTERN_KINDS}")
    x_min = number(args.x_min, pattern_doc, "x_min", 0.0)
    x_max = number(args.x_max, pattern_doc, "x_max", np.pi / 2)
    n_points = number(args.grid_n, pattern_doc, "n", 201, lo=2, integer=True)
    if not x_min < x_max:
        raise ConfigError("pattern grid needs x_min < x_max")

    xi = number(args.xi, doc, "xi", 0.0, lo=0.0)

    mc = oracle.McConfig(
        n_samples=number(args.samples, mc_doc, "n_samples", DEFAULT_SAMPLES, lo=1, integer=True),
        seed=number(args.seed, mc_doc, "seed", DEFAULT_SEED, lo=0, integer=True),
        chunk_size=number(args.chunk_size, mc_doc, "chunk_size", DEFAULT_CHUNK, lo=1, integer=True))

    out = Path(args.out) if args.out else None
    workers = _number(args.workers, "workers", lo=1, integer=True)
    return RunConfig(trap, optics, ratio, xi, kind, x_min, x_max, n_points, mc, workers, out)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ConfigError(f"non-finite result {value}: an input is out of range")
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
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
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name} must be a comma-separated float list") from exc
    if not values:
        raise ConfigError(f"{name} must not be empty")
    return [_number(v, name, lo=0.0) for v in values]


def _grid(stop, count, flag: str) -> np.ndarray:
    """count evenly spaced points over [0, stop], checked as --<flag>-max and --<flag>-n."""
    return np.linspace(0.0, _number(stop, f"--{flag}-max", lo=0.0),
                       _number(count, f"--{flag}-n", lo=1, integer=True))


def cmd_tcrit(cfg: RunConfig, args) -> int:
    # keep the reference aperture pi/4 on the grid so its row is quotable
    grid = np.union1d(np.linspace(motion.THETA0_MIN, np.pi / 2, cfg.n_points),
                      [np.pi / 4])
    rows = []
    for theta0 in grid:
        optics = motion.OpticsParams(theta0)
        a_perp, a_par = motion.aperture_coefficients(optics)
        rows.append((theta0, a_perp, a_par,
                     motion.nu_eff(cfg.trap, optics), motion.t_crit(cfg.trap, optics)))
    out = cfg.out or Path("tcrit.csv")
    write_csv(out, ["theta0_rad", "A_perp", "A_par", "nu_eff_Hz", "T_cr_K"], rows)
    print(f"wrote {out}")
    return 0


def cmd_bell_sweep(cfg: RunConfig, args) -> int:
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.n_points)
    curves = chsh.sweep_s(xs, cfg.d, cfg.pattern_kind)
    rows = zip(xs, curves["gg"], curves["ge"], curves["eg"], curves["ee"])
    out = cfg.out or Path("bell_sweep.csv")
    write_csv(out, ["x_rad", "S_gg", "S_ge", "S_eg", "S_ee"], rows)
    print(f"wrote {out}")
    return 0


def cmd_bell_max(cfg: RunConfig, args) -> int:
    ratios = _grid(args.t_max, args.t_n, "t")
    violating = "ge" if cfg.pattern_kind == "standard" else "eg"
    other = "eg" if cfg.pattern_kind == "standard" else "ge"
    rows = []
    for ratio in ratios:
        d = 1.0 - np.exp(-ratio)
        rows.append((ratio,
                     chsh.s_max(d, violating, cfg.pattern_kind),
                     chsh.s_max(d, other, cfg.pattern_kind)))
    out = cfg.out or Path("bell_max.csv")
    write_csv(out, ["T_over_Tcr", "max_abs_S_violating_family", "max_abs_S_other_family"], rows)
    print(f"wrote {out}")
    return 0


def cmd_scatter(cfg: RunConfig, args) -> int:
    xi_list = _parse_float_list(args.xi_list, "--xi-list")
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.n_points)
    header = ["x_rad"]
    columns = [xs]
    for xi in xi_list:
        header.append(f"S_gg_closed_xi_{xi:g}")
        columns.append(chsh.s_gg_scatter_curve(xs, cfg.d, xi, "closed_form"))
        header.append(f"S_gg_branch_xi_{xi:g}")
        columns.append(chsh.s_gg_scatter_curve(xs, cfg.d, xi, "branch"))
    out = cfg.out or Path("scatter.csv")
    write_csv(out, header, zip(*columns))
    print(f"wrote {out}")
    return 0


def cmd_fidelity(cfg: RunConfig, args) -> int:
    xi_list = _parse_float_list(args.xi_list, "--xi-list")
    t_list = _parse_float_list(args.t_list, "--t-list")
    ratios = _grid(args.t_max, args.t_n, "t")
    xis = _grid(args.xi_max, args.xi_n, "xi")

    out = cfg.out or Path("fidelity.csv")
    stem, suffix = out.with_suffix(""), out.suffix or ".csv"
    path_t = Path(f"{stem}_vs_t{suffix}")
    path_xi = Path(f"{stem}_vs_xi{suffix}")

    def cells(ratio, xi):
        d = 1.0 - np.exp(-ratio)
        return [protocol.bell_meas_fidelity(d, xi), protocol.cnot_fidelity(d, xi)]

    header_t = ["T_over_Tcr"] + [f"{f}_xi_{xi:g}" for xi in xi_list for f in ("F_B", "F")]
    rows_t = [[ratio] + [c for xi in xi_list for c in cells(ratio, xi)] for ratio in ratios]
    header_xi = ["xi"] + [f"{f}_t_{ratio:g}" for ratio in t_list for f in ("F_B", "F")]
    rows_xi = [[xi] + [c for ratio in t_list for c in cells(ratio, xi)] for xi in xis]

    write_csv(path_t, header_t, rows_t)
    try:
        write_csv(path_xi, header_xi, rows_xi)
    except BaseException:
        path_t.unlink()  # both tables or neither
        raise
    print(f"wrote {path_t}")
    print(f"wrote {path_xi}")
    return 0


def validation_checks(cfg: RunConfig):
    """Yield (name, ok, detail) for every invariant of `bellsim validate`, in order."""
    if cfg.mc.n_samples < 2:
        raise ConfigError("validate needs n_samples >= 2: one sample has no standard error")
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

    a_perp, a_par = motion.aperture_coefficients(cfg.optics)
    nu = motion.nu_eff(cfg.trap, cfg.optics)
    tcr = motion.t_crit(cfg.trap, cfg.optics)
    ok = (abs(a_perp - 1.25) <= 0.02 and abs(a_par - 0.75) <= 0.02
          and abs(nu - 55e3) <= 1e3 and 19e-6 <= tcr <= 21e-6)
    yield ("aperture_and_tcrit_anchor", ok,
           f"A_perp={a_perp:.4f} A_par={a_par:.4f} nu_eff={nu:.0f} Hz T_cr={tcr*1e6:.2f} uK")

    d_half = 1.0 - np.exp(-0.5)
    angles = chsh.pattern_angles("standard", np.pi / 8)
    s0 = chsh.chsh_s("ge", angles, 0.0)
    s5 = chsh.chsh_s("ge", angles, d_half)
    # the other (eg, ee) family stays classical at T/T_cr = 0.5
    xs = np.linspace(0.0, np.pi / 2, 2001)
    other = max(float(np.max(np.abs(chsh.chsh_s_curve(xs, state, d_half))))
                for state in ("eg", "ee"))
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

    worst = 0.0
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        trap = cfg.trap.with_temperature(frac * tcr)
        worst = max(worst, abs(motion.d_exact(trap, cfg.optics)
                               - motion.d_approx(trap, cfg.optics)))
    yield "d_exact_vs_exponential", worst <= 0.05, f"max |gap|={worst:.4f}"

    # the T/T_cr = 0.5 checks read the same stages of every chunk: draw them
    # once; the 0.2 and 1 decoherence checks rescale those phases by sqrt(T)
    trap_half = cfg.trap.with_temperature(0.5 * tcr)
    half = oracle.mc_thermal(trap_half, cfg.optics, np.pi / 7, np.pi / 5, (0.0, 0.05),
                             cfg.mc, workers=cfg.workers, temperatures=(0.2 * tcr, 1.0 * tcr))
    low, high = half.decoherence_at
    for ratio, est in ((0.2, low), (0.5, half.decoherence), (1.0, high)):
        trap = cfg.trap.with_temperature(ratio * tcr)
        closed = motion.d_exact(trap, cfg.optics)
        diff = abs(est.estimate.mean - closed)
        yield (f"mc_decoherence_T_over_Tcr_{ratio:g}",
               diff <= 3 * est.estimate.std_error + 1e-9,
               f"estimate={est.estimate.mean:.5f} closed={closed:.5f} "
               f"std_error={est.estimate.std_error:.2e}")

    d_quad = motion.d_exact(trap_half, cfg.optics)
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


def cmd_validate(cfg: RunConfig, args) -> int:
    count = failures = 0
    for name, ok, detail in validation_checks(cfg):
        count += 1
        failures += not ok
        print(f"[{'ok' if ok else 'FAIL':>4}] {name}  ({detail})")
    print(f"{count} checks, {failures} failure(s)")
    return 0 if failures == 0 else 1


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="Monte-Carlo seed")
    parser.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    parser.add_argument("--chunk-size", type=int, help="Monte-Carlo chunk size")
    parser.add_argument("--workers", type=int, default=1, help="parallel chunk workers")
    parser.add_argument("--nu-perp", type=float, help="transverse trap frequency (Hz)")
    parser.add_argument("--nu-par", type=float, help="longitudinal trap frequency (Hz)")
    parser.add_argument("--nu-recoil", type=float, help="recoil frequency (Hz)")
    parser.add_argument("--temperature-k", type=float, help="atom temperature (K)")
    parser.add_argument("--t-over-tcr", type=float, help="temperature as a fraction of T_cr")
    parser.add_argument("--theta0", type=float, help="collection-cone half-angle (rad)")
    parser.add_argument("--xi", type=float, help="double-excitation ratio")
    parser.add_argument("--pattern", choices=chsh.PATTERN_KINDS, help="angle pattern")
    parser.add_argument("--x-min", type=float, help="sweep start (rad)")
    parser.add_argument("--x-max", type=float, help="sweep end (rad)")
    parser.add_argument("--grid-n", type=int, help="sweep grid size")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Conditional two-qubit logic simulator: figures as CSV plus validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tcrit", help="critical temperature vs aperture angle")
    _add_common(p)
    p.set_defaults(func=cmd_tcrit)

    p = sub.add_parser("bell-sweep", help="CHSH S(x) for the four initial states")
    _add_common(p)
    p.set_defaults(func=cmd_bell_sweep)

    p = sub.add_parser("bell-max", help="maxima of |S| vs T/T_cr")
    _add_common(p)
    p.add_argument("--t-max", type=float, default=2.0, help="largest T/T_cr")
    p.add_argument("--t-n", type=int, default=41, help="temperature grid size")
    p.set_defaults(func=cmd_bell_max)

    p = sub.add_parser("scatter", help="S_gg(x) at several double-excitation ratios")
    _add_common(p)
    p.add_argument("--xi-list", default="0,0.05,0.15,1", help="comma-separated xi values")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("fidelity", help="Bell-measurement and CNOT fidelity tables")
    _add_common(p)
    p.add_argument("--xi-list", default="0,0.05,0.15,1", help="xi values for the T table")
    p.add_argument("--t-list", default="0,0.2,0.5,1", help="T/T_cr values for the xi table")
    p.add_argument("--t-max", type=float, default=2.0, help="largest T/T_cr in the T table")
    p.add_argument("--t-n", type=int, default=81, help="T grid size")
    p.add_argument("--xi-max", type=float, default=1.0, help="largest xi in the xi table")
    p.add_argument("--xi-n", type=int, default=101, help="xi grid size")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("validate", help="run the invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        # an overflow or an undefined value inside numpy is an out-of-range input too
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            cfg = build_config(args)
            return args.func(cfg, args)
    except (ConfigError, OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        reason = exc if isinstance(exc, ConfigError) else f"an input is out of range ({exc})"
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
