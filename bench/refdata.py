"""Reference outputs, and the output checks of the CLI calls.

Standard library only: run.py imports this module before it has checked that
./src holds bellsim.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
#: Run outputs (results, spans, temporary CSVs), inside the checkout.
OUT_DIR = BENCH_DIR.parent / ".bench_out"

#: Checks `bellsim validate` runs; each must print an `[  ok]` line.
VALIDATE_CHECKS = 21

#: The curves workload: CLI arguments (before --out), the --out file name and
#: the CSV files the call writes, all at the subcommands' default grids.
CURVES = (
    (["tcrit"], "tcrit.csv", ("tcrit.csv",)),
    (["bell-sweep"], "bell_sweep.csv", ("bell_sweep.csv",)),
    (["bell-max"], "bell_max.csv", ("bell_max.csv",)),
    (["scatter"], "scatter.csv", ("scatter.csv",)),
    (["fidelity"], "fidelity.csv", ("fidelity_vs_t.csv", "fidelity_vs_xi.csv")),
)


def nproc() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mc_seed(seed: int, reference: dict) -> int:
    """The program seed a benchmark seed selects from the recorded seed table."""
    table = reference["seeds"]
    return table[seed % len(table)]


def curves_calls(out_dir: Path) -> list[tuple[list[str], list[Path]]]:
    """(CLI argv, CSV paths written) for each call of the curves workload."""
    return [([*argv, "--out", str(out_dir / out)], [out_dir / name for name in written])
            for argv, out, written in CURVES]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_curves_call(code: int, paths: list[Path], reference: dict) -> list[str]:
    """Failure reasons of one curves call: exit code, and every CSV byte-identical."""
    failures = [] if code == 0 else [f"exit code {code}"]
    for path in paths:
        if not path.is_file():
            failures.append(f"{path.name} not written")
        elif sha256(path) != reference["csv_sha256"][path.name]:
            failures.append(f"{path.name} differs from the reference")
    return failures


def check_validate(code: int, stdout: str) -> list[str]:
    """Failure reasons of one validate call: exit code 0 and VALIDATE_CHECKS ok lines."""
    failures = [] if code == 0 else [f"exit code {code}"]
    ok = sum(line.startswith("[  ok]") for line in stdout.splitlines())
    if ok != VALIDATE_CHECKS:
        failures.append(f"{ok} ok lines, expected {VALIDATE_CHECKS}")
    return failures
