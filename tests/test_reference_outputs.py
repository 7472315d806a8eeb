"""The benchmark's workloads at full size reproduce its stored reference
outputs, and their iteration call loads no module.

The configs come from perfbench/workloads.py (the ``workloads`` fixture).
Each workload runs in a fresh interpreter with one BLAS thread, as the
benchmark runs it and as the references were recorded: with two threads
OpenBLAS sums the Poisson stability form in another order, and ``lam_min``,
``lam_max`` and ``kappa`` move in their last digits.  Monte Carlo ``expect``
outputs are byte-identical to the reference.  The Poisson traces keep the
bytes of every column except the error columns, whose last digits moved
when the error started using a sparse A.  Their summaries keep every value
except the class norms ``a1`` and ``ainf_pi``, which the library now
computes with other roundings (``a1`` 12.194180007282943 against the
reference's 12.194180007283013).
"""

import csv
import gzip
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEED = 1
POISSON_COLUMNS = ("m", "index", "alpha", "omega", "local_norm")
POISSON_UNPINNED = ("a1", "ainf_pi")


def one_thread_env():
    """The environment of a child interpreter as the benchmark starts it:
    the package's sources on the path and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(workloads, name, tmp_path):
    """Run workload ``name`` at SEED through the CLI in a child interpreter;
    its output files as {file name: (produced bytes, reference bytes)}."""
    assert workloads.DEFAULT_SEED == SEED
    workload = workloads.WORKLOADS[name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(workloads.config_text(workload.config(SEED)))
    out = tmp_path / name
    argv = [sys.executable, "-m", "mschwarz.cli", *workload.argv(config, out)]
    proc = subprocess.run(argv, env=one_thread_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {
        f: ((out / f).read_bytes(), gzip.decompress((BENCH / "reference" / name / f"{f}.gz").read_bytes()))
        for f in workload.output_files
    }


def columns(data, names):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return [tuple(row[n] for n in names) for row in rows]


def pinned_summary(data):
    """The parsed summary.json without the class norms that moved."""
    summary = json.loads(data)
    for key in POISSON_UNPINNED:
        summary["a_norms"].pop(key, None)
    return summary


def test_expect_outputs_are_byte_identical(workloads, tmp_path):
    for name, (got, want) in run_workload(workloads, "diagonal_expect", tmp_path).items():
        assert got == want, name


@pytest.mark.parametrize("name", ["poisson_greedy", "poisson_random"])
def test_poisson_picks_and_parameters_are_byte_identical(workloads, name, tmp_path):
    outputs = run_workload(workloads, name, tmp_path)
    got, want = outputs["trace.csv"]
    assert columns(got, POISSON_COLUMNS) == columns(want, POISSON_COLUMNS)
    # json parses each float to the double it was written from, so == is exact
    got, want = outputs["summary.json"]
    assert pinned_summary(got) == pinned_summary(want)


# Run in a child interpreter: wrap the iteration call where the CLI looks it
# up, as perfbench/child.py does to time it, and print the modules that the
# call loaded or dropped.
ITERATION_IMPORTS = """
import functools, json, sys
import mschwarz.cli as cli
changed = []

def record(fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        before = set(sys.modules)
        try:
            return fn(*args, **kwargs)
        finally:
            changed.append(sorted(before ^ set(sys.modules)))
    return call

for name in ("run", "mc_expected_error"):
    setattr(cli, name, record(getattr(cli, name)))
assert cli.main(sys.argv[1:]) == 0
print(json.dumps(changed))
"""


@pytest.mark.parametrize("name", ["poisson_greedy", "poisson_random", "diagonal_expect"])
def test_iteration_call_loads_no_module(workloads, name, tmp_path):
    """The benchmark's ``iteration_s`` times the iteration call alone, so a
    one-time import inside it would count as iteration time: every import
    happens in the set-up."""
    workload = workloads.WORKLOADS[name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(workloads.config_text(workload.config(SEED, "tiny")))
    argv = [sys.executable, "-c", ITERATION_IMPORTS, *workload.argv(config, tmp_path / "out")]
    proc = subprocess.run(argv, env=one_thread_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]]
