"""Record the reference outputs that the benchmark's checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py

Run from the repository root at the commit whose outputs are the reference.
It writes bench/reference.json with:
  csv_sha256  the digest of every CSV the curves workload writes
  seeds       SEED_COUNT program seeds, tried in order from cli.DEFAULT_SEED,
              on which `bellsim validate` and the mc_oracle 3-SE checks both
              pass.  The benchmark maps its --seed onto this table.  Each of
              those checks fails by chance for a few seeds in a hundred; with
              the table a failure in a benchmark run means the outputs changed.
  skipped     the candidate seeds left out, with the checks that failed
  estimates   the mc_oracle estimates (workers=1) for each table seed
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import tempfile
from pathlib import Path

import refdata
import workloads
from bellsim import cli

SEED_COUNT = 16


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    digests = {}
    refdata.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=refdata.OUT_DIR) as tmp:
        for argv, paths in refdata.curves_calls(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{argv[0]} failed")
            digests.update({p.name: refdata.sha256(p) for p in paths})

    seeds, skipped, estimates = [], {}, {}
    seed = cli.DEFAULT_SEED
    while len(seeds) < SEED_COUNT:
        run = workloads.Validate(seed).iteration()
        oracle_run = workloads.McOracle(seed, workers=1)
        found, failures = {}, list(run.failures)
        for name, call in oracle_run.calls.items():
            means, ses = workloads.estimates(call(1))
            failures += [f"{name}: {f}" for f in oracle_run.check(name, means, ses)]
            found[name] = {"mean": means.tolist(), "std_error": ses.tolist()}
        if failures:
            skipped[str(seed)] = failures
        else:
            seeds.append(seed)
            estimates[str(seed)] = found
        seed += 1

    reference = {
        "commit": commit(),
        "mc": {"n_samples": workloads.N_SAMPLES, "chunk_size": workloads.CHUNK,
               "t_over_tcr": workloads.T_OVER_TCR, "xi": workloads.XI},
        "csv_sha256": digests,
        "seeds": seeds,
        "skipped": skipped,
        "estimates": estimates,
    }
    with open(refdata.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {refdata.REFERENCE_PATH}: {len(seeds)} seeds, {len(skipped)} skipped")


if __name__ == "__main__":
    main()
