"""The benchmark's workloads: one iteration each, with its output checks.

Every call goes through bellsim's public functions:
  mc_oracle  the four Monte-Carlo estimators at T/T_cr = 0.5, default trap and
             optics, N_SAMPLES samples in chunks of CHUNK, first at workers=1
             and then at WORKERS workers
  validate   cli.main(["validate", "--seed", S]) with all other defaults
  curves     the tcrit, bell-sweep, bell-max, scatter and fidelity
             subcommands at their default grids, writing into a temp directory
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

import refdata
import spans
from bellsim import chsh, cli, motion, oracle, protocol

N_SAMPLES = 100_000
CHUNK = 10_000
T_OVER_TCR = 0.5
ANGLES = (np.pi / 7, np.pi / 5)
XI = 0.05

#: Bell-measurement entries that are the same for every sample (the
#: single-sided double-excitation leaks), so their true standard error is 0.
_CONSTANT_ENTRIES = {
    "mc_bell_measurement": ~(np.eye(4, dtype=bool) | np.fliplr(np.eye(4, dtype=bool))).ravel(),
}

#: Workers of the parallel mc_oracle pass, capped at the processors available.
WORKERS = min(2, refdata.nproc())

#: Traced iterations are capped so that the span file stays small.
MAX_TRACED_ITERATIONS = 10


@dataclass
class Iteration:
    """One workload iteration: its timed seconds, operations, and one line per
    failed operation."""

    seconds: float
    ops: int
    failures: list[str]
    #: seconds of the part a traced run repeats (the workers=1 part)
    serial_seconds: float
    #: seconds of each call, keyed by call name
    times: dict[str, float]


def estimates(result) -> tuple[np.ndarray, np.ndarray]:
    """(means, standard errors) of an estimator result as flat float arrays."""
    if isinstance(result, oracle.McEstimate):
        parts = (result,)
    elif hasattr(result, "imaginary_part"):
        parts = (result.estimate, result.imaginary_part)
    else:
        return (np.ravel(result.mean).astype(float), np.ravel(result.std_error).astype(float))
    return np.array([p.mean for p in parts]), np.array([p.std_error for p in parts])


class McOracle:
    name = "mc_oracle"

    def __init__(self, seed: int, workers: int, n_samples: int = N_SAMPLES,
                 reference: dict | None = None):
        optics = motion.DEFAULT_OPTICS
        trap = motion.DEFAULT_TRAP.with_temperature(
            T_OVER_TCR * motion.t_crit(motion.DEFAULT_TRAP, optics))
        cfg = oracle.McConfig(n_samples, seed, CHUNK)
        self.n_samples = n_samples
        self.workers = workers
        self.reference = reference
        self.calls = {
            "mc_decoherence": lambda w: oracle.mc_decoherence(trap, optics, cfg, workers=w),
            "mc_probabilities": lambda w: oracle.mc_probabilities(
                trap, optics, *ANGLES, cfg, workers=w),
            "mc_f_squared": lambda w: oracle.mc_f_squared(trap, optics, cfg, workers=w),
            "mc_bell_measurement": lambda w: oracle.mc_bell_measurement(
                trap, optics, XI, cfg, workers=w),
        }
        d = motion.d_exact(trap, optics)
        self.closed = {
            "mc_decoherence": np.array([d]),
            "mc_probabilities": chsh.probabilities_first_principles(d, *ANGLES).ravel(),
            "mc_bell_measurement": protocol.bell_meas_matrix(d, XI).ravel(),
        }

    def check(self, name: str, means, ses, serial=None) -> list[str]:
        """Failure reasons of one estimate; `serial` is the workers=1 estimate
        it must match bitwise."""
        failures = []
        varying = ~_CONSTANT_ENTRIES.get(name, np.zeros(ses.size, dtype=bool))
        if not (np.all(np.isfinite(ses)) and np.all(ses >= 0) and np.all(ses[varying] > 0)):
            failures.append("standard error not finite and positive")
        if name in self.closed:
            closed = self.closed[name]
            gap = np.abs(means[:closed.size] - closed)
            if np.any(gap > 3 * ses[:closed.size] + 1e-9):
                failures.append(f"more than 3 SE from the closed form (max gap {gap.max():.3e})")
        if self.reference is not None:
            ref = self.reference[name]
            if not (np.allclose(means, ref["mean"], rtol=1e-9, atol=1e-12)
                    and np.allclose(ses, ref["std_error"], rtol=1e-6, atol=1e-12)):
                failures.append("differs from the estimate recorded in reference.json")
        if serial is not None and not (np.array_equal(means, serial[0])
                                       and np.array_equal(ses, serial[1])):
            failures.append(f"workers={self.workers} result differs from workers=1")
        return failures

    def iteration(self, parallel: bool = True) -> Iteration:
        """The four estimators at workers=1 (key suffix .w1), then, if
        `parallel`, at self.workers (suffix .wN)."""
        times, failures, serial = {}, [], {}
        for label, workers in (("w1", 1), ("wN", self.workers))[:2 if parallel else 1]:
            for name, call in self.calls.items():
                start = time.perf_counter()
                result = call(workers)
                times[f"{name}.{label}"] = time.perf_counter() - start
                means, ses = estimates(result)
                reasons = self.check(name, means, ses, serial.get(name))
                if reasons:
                    failures.append(f"{name} workers={workers}: " + "; ".join(reasons))
                serial.setdefault(name, (means, ses))
        serial_seconds = sum(t for key, t in times.items() if key.endswith(".w1"))
        return Iteration(sum(times.values()), len(times), failures, serial_seconds, times)


class Validate:
    name = "validate"

    def __init__(self, seed: int):
        self.argv = ["validate", "--seed", str(seed)]

    def iteration(self, parallel: bool = True) -> Iteration:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        seconds = time.perf_counter() - start
        reasons = refdata.check_validate(code, out.getvalue())
        failures = ["validate: " + "; ".join(reasons)] if reasons else []
        return Iteration(seconds, 1, failures, seconds, {"validate": seconds})


class Curves:
    name = "curves"

    def __init__(self, out_dir, reference: dict):
        self.calls = refdata.curves_calls(out_dir)
        self.reference = reference

    def iteration(self, parallel: bool = True) -> Iteration:
        times, failures = {}, []
        for argv, paths in self.calls:
            for path in paths:
                path.unlink(missing_ok=True)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times[argv[0]] = time.perf_counter() - start
            reasons = refdata.check_curves_call(code, paths, self.reference)
            if reasons:
                failures.append(f"{argv[0]}: " + "; ".join(reasons))
        seconds = sum(times.values())
        return Iteration(seconds, len(self.calls), failures, seconds, times)


def make_workload(name: str, seed: int, reference: dict, out_dir):
    """The named workload with its inputs drawn from the benchmark seed."""
    program_seed = refdata.mc_seed(seed, reference)
    if name == "mc_oracle":
        return McOracle(program_seed, WORKERS,
                        reference=reference["estimates"][str(program_seed)])
    if name == "validate":
        return Validate(program_seed)
    if name == "curves":
        return Curves(out_dir, reference)
    raise ValueError(f"unknown workload {name!r}")


def repeat(workload, seconds: float) -> list[Iteration]:
    """Iterations until `seconds` have passed (at least one)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(workload.iteration())
    return runs


def oracle_throughput(runs: list[Iteration], workload: McOracle) -> dict[str, float]:
    """Samples/s of each estimator at workers=1, and of all four at N workers,
    from the fastest call of each in `runs`."""
    out = {}
    for name in workload.calls:
        seconds = min(r.times[f"{name}.w1"] for r in runs)
        out[f"oracle.{name}.sps_w1"] = workload.n_samples / seconds
    parallel = sum(min(r.times[f"{name}.wN"] for r in runs) for name in workload.calls)
    out["oracle.mc_mix.sps_w2"] = len(workload.calls) * workload.n_samples / parallel
    return out


def traced_layers(workload, seconds: float, spans_path) -> tuple[list[Iteration], dict]:
    """Traced iterations at workers=1 and the median per-iteration layer metrics."""
    runs, marks = [], [0]
    with spans.Tracer() as tracer:
        start = time.perf_counter()
        while not runs or (time.perf_counter() - start < seconds
                           and len(runs) < MAX_TRACED_ITERATIONS):
            runs.append(workload.iteration(parallel=False))
            marks.append(len(tracer.spans))
    tracer.write(spans_path)
    per_iteration = [spans.summarize(tracer.spans[a:b]) for a, b in zip(marks, marks[1:])]
    names = set().union(*per_iteration)
    return runs, {k: statistics.median(p.get(k, 0.0) for p in per_iteration) for k in names}
