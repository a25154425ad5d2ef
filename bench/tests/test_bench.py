"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q bench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refdata  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bellsim import chsh, gates, linalg, oracle  # noqa: E402

REFERENCE = refdata.load_reference()
ESTIMATORS = {"mc_decoherence", "mc_probabilities", "mc_f_squared", "mc_bell_measurement"}
SEED = REFERENCE["seeds"][0]


def bellsim_attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "bellsim" or name.startswith("bellsim.")
            for attr, value in vars(module).items()}


def test_tracer_wraps_rebindings_and_restores_every_attribute():
    before = bellsim_attributes()
    original = gates.raman_matrix
    with spans.Tracer() as tracer:
        assert oracle.raman_matrix is chsh.raman_matrix is gates.raman_matrix
        assert gates.raman_matrix is not original
        assert gates.unitarity_defect is linalg.unitarity_defect
        gates.unitarity_defect(np.eye(4))
        oracle.raman_matrix(0.1, 0.2)
    assert [s.name for s in tracer.spans] == ["linalg.unitarity_defect", "gates.raman_matrix"]
    after = bellsim_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_attributes_when_the_traced_call_raises():
    before = bellsim_attributes()
    with pytest.raises(ValueError):
        with spans.Tracer():
            chsh.s_max(2.0)  # d outside [0, 1]
    after = bellsim_attributes()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_is_not_negative():
    workload = workloads.McOracle(SEED, workers=1, n_samples=20_000)
    with spans.Tracer() as tracer:
        workload.iteration(parallel=False)
    assert tracer.spans
    for span in tracer.spans:
        assert span.start <= span.end
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end <= span.parent.end
    layers = spans.summarize(tracer.spans)
    assert all(v >= 0 for k, v in layers.items() if k.endswith("self_s"))
    for name in workload.calls:
        assert layers[f"oracle.{name}.calls"] == 1
        assert 0 < layers[f"oracle.{name}.self_s"] <= layers[f"oracle.{name}.s"]
    assert layers["oracle.sample_displacement.samples"] == 2 * 20_000 * 5  # 2 per stage


def test_work_counts(tmp_path):
    from bellsim import cli, motion
    with spans.Tracer() as tracer:
        motion.d_exact(motion.DEFAULT_TRAP.with_temperature(1e-6), motion.DEFAULT_OPTICS)
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0)])
    layers = spans.summarize(tracer.spans)
    # orders 16, 32, ... until two estimates agree; each evaluates order^2 points
    points = layers["motion.cap_quadrature.points"]
    assert points in {sum((16 * 2**i) ** 2 for i in range(k)) for k in range(2, 7)}
    assert layers["motion.d_exact.calls"] == 1
    assert layers["cli.write_csv.files"] == 1
    assert layers["cli.write_csv.bytes"] == len("a,b\n1,2\n")


def test_mc_oracle_smoke_run_passes_its_gate():
    workload = workloads.McOracle(SEED, workers=2, n_samples=20_000)
    result = workload.iteration()
    assert result.failures == []
    assert result.ops == 8
    assert result.serial_seconds < result.seconds


def test_mc_oracle_matches_the_recorded_estimates_and_flags_a_perturbed_one():
    reference = REFERENCE["estimates"][str(SEED)]
    assert workloads.McOracle(SEED, 1, reference=reference).iteration(False).failures == []
    perturbed = copy.deepcopy(reference)
    perturbed["mc_f_squared"]["mean"][0] *= 1 + 1e-7
    result = workloads.McOracle(SEED, 1, reference=perturbed).iteration(False)
    assert result.ops == 4
    assert len(result.failures) == 1
    assert result.failures[0].startswith("mc_f_squared workers=1: differs")


def test_mc_oracle_flags_worker_mismatch_and_zero_standard_error():
    workload = workloads.McOracle(SEED, workers=1, n_samples=20_000)
    means, ses = workloads.estimates(workload.calls["mc_decoherence"](1))
    assert workload.check("mc_decoherence", means, ses, (means, ses)) == []
    assert workload.check("mc_decoherence", means, ses, (means + 1e-16, ses))
    assert workload.check("mc_decoherence", means, np.zeros_like(ses))
    means, ses = workloads.estimates(workload.calls["mc_bell_measurement"](1))
    ses[1] = 0.0  # a single-sided leak entry: the same for every sample
    assert workload.check("mc_bell_measurement", means, ses) == []
    ses[0] = 0.0  # a diagonal entry varies from sample to sample
    assert workload.check("mc_bell_measurement", means, ses)


def test_validate_smoke_run_passes_its_gate():
    result = workloads.Validate(SEED).iteration()
    assert result.failures == [] and result.ops == 1


def test_validate_gate_flags_a_failed_check():
    lines = ["[  ok] check"] * refdata.VALIDATE_CHECKS
    assert refdata.check_validate(0, "\n".join(lines)) == []
    lines[3] = "[FAIL] check"
    assert refdata.check_validate(1, "\n".join(lines))


def test_curves_smoke_run_and_a_perturbed_csv(tmp_path):
    workload = workloads.Curves(tmp_path, REFERENCE)
    result = workload.iteration()
    assert result.failures == [] and result.ops == len(refdata.CURVES)
    path = tmp_path / "bell_max.csv"
    path.write_bytes(path.read_bytes().replace(b"2.8284", b"2.8285", 1))
    assert refdata.check_curves_call(0, [path], REFERENCE)
    reference = copy.deepcopy(REFERENCE)
    reference["csv_sha256"]["fidelity_vs_xi.csv"] = "0" * 64
    result = workloads.Curves(tmp_path, reference).iteration()
    assert len(result.failures) == 1 and result.failures[0].startswith("fidelity:")


def test_every_per_layer_metric_is_produced_by_some_layer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {f"{module}.{fn}" for module, fns in spans.TARGETS.items() for fn in fns}
    quantities = {"s", "self_s", "calls", "files"} | {q for q, _ in spans.WORK.values()}
    for metric in spec["per_layer"]:
        name = metric["name"]
        function, quantity = name.rsplit(".", 1)
        assert (name in {"trace.overhead_ratio", "oracle.mc_mix.sps_w2"}
                or name in {f"import.{layer}.s" for layer in run.IMPORT_LAYERS}
                or (quantity == "sps_w1" and function.split(".")[1] in ESTIMATORS)
                or (function in traced and quantity in quantities)), name


def test_parse_importtime():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.optimize._a",
        "import time:        70 |         70 |       scipy.optimize._b",
        "import time:       400 |        820 |   bellsim.chsh",
        "import time:        10 |        830 |   bellsim",
        "import time:         5 |        835 | bellsim.cli",
    ])
    layers = run.parse_importtime(sample)
    assert layers["import.numpy.s"] == pytest.approx(300e-6)
    assert layers["import.scipy.optimize.s"] == pytest.approx(120e-6)
    assert layers["import.bellsim.s"] == pytest.approx(835e-6)
    assert layers["import.scipy.constants.s"] == 0


def test_end_to_end_run_reports_every_metric_and_every_cold_call():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    saved = json.loads((refdata.OUT_DIR / "curves-seed1-trace0.json").read_text())
    assert set(saved["samples"]["raw"]["cold_s"]) == {argv[0] for argv, _, _ in refdata.CURVES}
    # one warm-up iteration, one import, five cold calls, one warm batch at least
    assert result["attempted"] >= 2 * len(refdata.CURVES) + 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
