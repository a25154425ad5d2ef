"""bellsim benchmark: one run of one workload.

    python3 bench/run.py --workload {mc_oracle,validate,curves} --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; bellsim is imported from ./src.  The run
is one fresh interpreter that imports bellsim and runs the workload
(workloads.py) in-process after one warm-up iteration.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it list every metric with its unit.  The same
result, with the run's metadata and raw samples, is written to
.bench_out/<workload>-seed<N>-trace<T>.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  For S seconds
the run takes turns between three kinds of step, giving each about its share
of the time (SHARES), so that every metric samples the whole run: one fresh
`import bellsim.cli`, one cold call, or WARM_BATCH_S seconds of warm
iterations.  The calibration kernel is timed before and after each step.
  setup_s      median time of `import bellsim.cli`, timed inside a fresh
               interpreter
  cold_s       wall time of a cold pass: the workload's calls, each a fresh
               interpreter started one at a time (the CLI subcommands for
               validate and curves, `run.py --once` for mc_oracle); the sum
               over the calls of each call's median
  iter_s       median time of one warm workload iteration (its calls,
               in-process)
  peak_rss_mb  peak resident set of this process
The three times are scaled to a host of fixed speed: each step's times are
multiplied by CAL_REF_S over the time of the calibration kernel, a fixed mix
of interpreter and numpy work that no bellsim change touches, timed just
before and just after the step (their mean).  A shared host
runs the same code up to 30 % slower for minutes at a time, and the kernel
slows with it, so the scaled times keep only the program's own cost.  The
unscaled medians and the kernel's time are printed as well and written with
the raw samples.
--trace 1 reports the per-layer metrics of BENCHMARK.json: S/2 seconds of
untraced iterations, then up to S/2 seconds traced by spans.Tracer at
workers=1 (span totals per iteration, medians over iterations), and the
`python -X importtime` breakdown of `import bellsim.cli`.  A layer that a
workload never calls reads 0.  trace.overhead_ratio is the fastest traced
iteration over the fastest untraced one (its workers=1 part); the oracle
throughputs come from the fastest untraced call of each estimator.

Every operation's output is checked (workloads.py, refdata.py); a failed
check counts as a failed operation.  Without ./src/bellsim the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refdata

ROOT = refdata.BENCH_DIR.parent
WORKLOADS = ("mc_oracle", "validate", "curves")
#: Share of an end-to-end run spent on each kind of timed step.
SHARES = {"setup_s": 0.25, "cold_s": 0.5, "iter_s": 0.25}
#: Seconds of warm iterations per step (at least one iteration).
WARM_BATCH_S = 0.5
#: Timings of the calibration kernel per calibration (the fastest counts).
CAL_REPEATS = 3
#: Median of calibration_seconds() on the reference host (2 vCPU Intel Xeon,
#: Python 3.11, numpy 2.4); a run's times are scaled to that host's speed.
CAL_REF_S = 0.012
IMPORT_REPEATS = 3
#: Seconds any one child process may run before it is killed.
CHILD_TIMEOUT = 120
SETUP_CODE = "import time; t = time.perf_counter(); import bellsim.cli; print(time.perf_counter() - t)"
#: Packages whose `-X importtime` cumulative time is reported as import.<name>.s.
IMPORT_LAYERS = ("bellsim", "scipy.optimize", "scipy.constants", "numpy")


class Tally:
    """Operations attempted, and one line per failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: " + "; ".join(reasons))

    def add_iterations(self, runs) -> None:
        for r in runs:
            self.attempted += r.ops
            self.failures += r.failures


def child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child process to completion; a timeout kills it and reads as exit code -9."""
    try:
        return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(argv, -9, exc.stdout or "", exc.stderr or "")


def setup_seconds(env: dict, tally: Tally) -> float | None:
    proc = child([sys.executable, "-c", SETUP_CODE], env)
    tally.add("setup import", [] if proc.returncode == 0 else
              [f"exit code {proc.returncode}", proc.stderr[-500:]])
    return float(proc.stdout.split()[-1]) if proc.returncode == 0 else None


def cold_calls(workload: str, seed: int, reference: dict, out_dir: Path):
    """(label, argv, outputs, check) of each fresh-interpreter call of the
    workload, in order.  `outputs` are the files the call writes; a check maps
    the finished process to its list of failure reasons."""
    py = sys.executable
    if workload == "validate":
        argv = [py, "-m", "bellsim.cli", "validate",
                "--seed", str(refdata.mc_seed(seed, reference))]
        return [("validate", argv, [],
                 lambda p: refdata.check_validate(p.returncode, p.stdout))]
    if workload == "curves":
        return [(argv[0], [py, "-m", "bellsim.cli", *argv], paths,
                 lambda p, paths=paths: refdata.check_curves_call(p.returncode, paths, reference))
                for argv, paths in refdata.curves_calls(out_dir)]
    argv = [py, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--once"]
    return [(workload, argv, [],
             lambda p: [f"exit code {p.returncode}", *p.stdout.splitlines()[-1:]]
             if p.returncode else [])]


def cold_seconds(call, env: dict, tally: Tally) -> float:
    """Wall time of one cold call; its outputs are removed first, so the check
    sees only what this call wrote."""
    label, argv, outputs, check = call
    for path in outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = child(argv, env)
    seconds = time.perf_counter() - start
    tally.add(f"cold {label}", check(proc))
    return seconds


def calibration_seconds() -> float:
    """Fastest of CAL_REPEATS timings of a fixed kernel of interpreter loops and
    numpy array work.

    The kernel calls no bellsim code, so only the host's speed moves it.  A
    repeat that the host interrupts reads slow, so the fastest one is kept."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 100_000)
    best = float("inf")
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        for k in range(2):
            np.sort(np.sin(x * (total + k)) * np.exp(-x))
        best = min(best, time.perf_counter() - start)
    return best


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per IMPORT_LAYERS entry from `python -X importtime` output.

    Lines read `import time: self | cumulative | <indent>name` and list each
    module after the modules it imported.  A package imported by a
    `from pkg import sub` statement can be missing from the list, so a layer's
    time is the sum over its outermost entries (those not nested in another
    entry of the same layer).
    """
    entries = []  # (depth, name, cumulative seconds), in print order
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(), cumulative))
    parents = [None] * len(entries)
    open_parents = []  # (depth, index), scanning backwards from the outermost
    for i in range(len(entries) - 1, -1, -1):
        depth = entries[i][0]
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        parents[i] = open_parents[-1][1] if open_parents else None
        open_parents.append((depth, i))

    def in_layer(name: str, layer: str) -> bool:
        return name == layer or name.startswith(layer + ".")

    out = {}
    for layer in IMPORT_LAYERS:
        nested = [False] * len(entries)  # entry lies under an entry of this layer
        total = 0.0
        for i in range(len(entries) - 1, -1, -1):
            parent = parents[i]
            nested[i] = parent is not None and (nested[parent]
                                                or in_layer(entries[parent][1], layer))
            if in_layer(entries[i][1], layer) and not nested[i]:
                total += entries[i][2]
        out[f"import.{layer}.s"] = total
    return out


def measure_imports(env: dict, tally: Tally) -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = child([sys.executable, "-X", "importtime", "-c", "import bellsim.cli"], env)
        tally.add("importtime", [] if proc.returncode == 0 else [f"exit code {proc.returncode}"])
        if proc.returncode == 0:
            runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in (runs[0] if runs else {})}


def metadata(args, program_seed: int) -> dict:
    import numpy
    import scipy

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or platform.machine()

    commit = "unknown"  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"workload": args.workload, "seed": args.seed, "program_seed": program_seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "src_lines": src_lines, "nproc": refdata.nproc(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "n_samples": workloads.N_SAMPLES,
            "chunk_size": workloads.CHUNK, "workers": workloads.WORKERS}


def measure_end_to_end(workload, args, reference, env, tally) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw seconds (per metric and call) behind them."""
    calibration = [calibration_seconds()]
    raw = {"setup_s": {}, "cold_s": {}, "iter_s": {}}  # metric -> call -> seconds
    scaled = {"setup_s": {}, "cold_s": {}, "iter_s": {}}
    spent = dict.fromkeys(SHARES, 0.0)
    steps = dict.fromkeys(SHARES, 0)
    log = []  # (kind, {call: seconds}, kernel before, kernel after) of each step
    with tempfile.TemporaryDirectory(dir=refdata.OUT_DIR) as tmp:
        calls = cold_calls(args.workload, args.seed, reference, Path(tmp))
        deadline = time.perf_counter() + args.seconds
        while True:
            # every kind runs at least once, and every cold call
            missing = [k for k in SHARES
                       if steps[k] < (len(calls) if k == "cold_s" else 1)]
            if time.perf_counter() >= deadline and not missing:
                break
            kinds = SHARES if time.perf_counter() < deadline else missing
            kind = min(kinds, key=lambda k: spent[k] / SHARES[k])
            start = time.perf_counter()
            if kind == "setup_s":
                seconds = setup_seconds(env, tally)
                times = {"import bellsim.cli": [seconds]} if seconds is not None else {}
            elif kind == "cold_s":
                call = calls[steps[kind] % len(calls)]
                times = {call[0]: [cold_seconds(call, env, tally)]}
            else:
                runs = workloads.repeat(workload, WARM_BATCH_S)
                tally.add_iterations(runs)
                times = {"iteration": [r.seconds for r in runs]}
            spent[kind] += time.perf_counter() - start
            steps[kind] += 1
            # the host's speed during the step: the kernel's time on both sides of it
            calibration.append(calibration_seconds())
            host = (calibration[-2] + calibration[-1]) / 2
            log.append((kind, times, calibration[-2], calibration[-1]))
            for call, seconds in times.items():
                raw[kind].setdefault(call, []).extend(seconds)
                scaled[kind].setdefault(call, []).extend(t * CAL_REF_S / host for t in seconds)

    def total(times: dict[str, list[float]]) -> float:
        """Sum over the calls of each call's median."""
        return sum(statistics.median(t) for t in times.values()) if times else float("nan")

    measured = {kind: total(times) for kind, times in scaled.items()}
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"calibration kernel {statistics.median(calibration):.6g} s (reference {CAL_REF_S} s); "
          "unscaled " + ", ".join(f"{k} {total(t):.6g} s" for k, t in raw.items()))
    return measured, {"raw": raw, "scaled": scaled, "steps": log}


def measure_layers(workload, args, env, tally) -> dict:
    untraced = workloads.repeat(workload, args.seconds / 2)
    spans_path = refdata.OUT_DIR / f"{args.workload}.spans.json"
    traced, measured = workloads.traced_layers(workload, args.seconds / 2, spans_path)
    tally.add_iterations(untraced + traced)
    measured["trace.overhead_ratio"] = (min(r.seconds for r in traced)
                                        / min(r.serial_seconds for r in untraced))
    if isinstance(workload, workloads.McOracle):
        measured.update(workloads.oracle_throughput(untraced, workload))
    measured.update(measure_imports(env, tally))
    return measured


def main(argv=None) -> int:
    global workloads
    parser = argparse.ArgumentParser(description="Run one bellsim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--once", action="store_true",
                        help="run one iteration, print its failures, exit 1 if any")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellsim" / "__init__.py").is_file():
        print(f"error: no bellsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and bellsim, so only once ./src is known to exist

    reference = refdata.load_reference()
    refdata.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=refdata.OUT_DIR) as tmp:
        workload = workloads.make_workload(args.workload, args.seed, reference, Path(tmp))
        warm_up = workload.iteration()
        if args.once:
            print(json.dumps(warm_up.failures))
            return 1 if warm_up.failures else 0
        tally = Tally()
        tally.add_iterations([warm_up])
        env = dict(os.environ, TMPDIR=str(refdata.OUT_DIR),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        samples = {}
        if args.trace == 0:
            measured, samples = measure_end_to_end(workload, args, reference, env, tally)
            metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        else:
            measured = measure_layers(workload, args, env, tally)
            metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}

    result = {"correct": not tally.failures and tally.attempted > 0,
              "attempted": tally.attempted, "failed": len(tally.failures), "metrics": metrics}
    meta = metadata(args, refdata.mc_seed(args.seed, reference))
    out = refdata.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result, "failures": tally.failures, "samples": samples},
                  fh, indent=1)

    print("meta " + json.dumps(meta))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
