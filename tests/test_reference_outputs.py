"""The benchmark's workloads at full size reproduce its stored reference outputs.

The configs come from perfbench/workloads.py, loaded from its source without
writing anything under perfbench/.  Monte Carlo ``expect`` outputs are
byte-identical to the reference; the Poisson traces keep the bytes of every
column except the error columns, whose last digits moved when the error
started using a sparse A.
"""

import csv
import gzip
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from mschwarz.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
POISSON_COLUMNS = ("m", "index", "alpha", "omega", "local_norm")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    assert module.DEFAULT_SEED == SEED
    return module


def run_workload(workloads, name, tmp_path):
    """Run workload ``name`` at SEED through ``cli.main``; its output files
    as {file name: (produced bytes, reference bytes)}."""
    workload = workloads.WORKLOADS[name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(workloads.config_text(workload.config(SEED)))
    out = tmp_path / name
    assert main(workload.argv(config, out)) == 0
    return {
        f: ((out / f).read_bytes(), gzip.decompress((BENCH / "reference" / name / f"{f}.gz").read_bytes()))
        for f in workload.output_files
    }


def columns(data, names):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return [tuple(row[n] for n in names) for row in rows]


def test_expect_outputs_are_byte_identical(workloads, tmp_path):
    for name, (got, want) in run_workload(workloads, "diagonal_expect", tmp_path).items():
        assert got == want, name


@pytest.mark.parametrize("name", ["poisson_greedy", "poisson_random"])
def test_poisson_picks_and_parameters_are_byte_identical(workloads, name, tmp_path):
    got, want = run_workload(workloads, name, tmp_path)["trace.csv"]
    assert columns(got, POISSON_COLUMNS) == columns(want, POISSON_COLUMNS)
