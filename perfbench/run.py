"""Benchmark of the `mschwarz` CLI: one workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each sample runs one real CLI experiment in a fresh interpreter, from the
checkout's ``src`` directory, the way a user runs it (see child.py). Samples
run one at a time, with BLAS held to one thread. A run repeats a cycle of
samples until the next cycle would pass ``--seconds`` (at least MIN_CYCLES
cycles):

* ``--trace 0``: a cycle is a set-up sample (the same command with
  ``steps: 0``) and a full sample, both untraced. The timing metrics are
  those of the fastest sample of each kind, because the machine's slowdowns
  only ever add time; the peak memory is the median over the samples.
* ``--trace 1``: a cycle is an untraced and a traced full sample. The
  per-layer metrics come from the traced sample with the median wall time.

Every sample is checked: exit code 0 (so ``--assert-bounds`` held), the
expected row count, and outputs equal to a reference within tolerance. The
reference is the stored one (reference/) at the default seed, and otherwise
the run's first sample of the same kind. The output ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import gzip
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_CYCLES = 3
SAMPLE_TIMEOUT_S = 60
BLAS_THREADS = 1
REL_TOL = 1e-9
FLOOR_TOL = 1e-12  # times the row-0 error
# Full B x d array passes per step in the Monte Carlo kernel: the difference
# c - state, its square, and the alpha scaling of the state.
MC_STATE_PASSES = 3

LAYERS = ("cli", "config", "poisson", "problems", "solver", "diagonal",
          "distributions", "analysis")


class Sample:
    """One child process: its timings, outputs and the first problem found."""

    def __init__(self, kind):
        self.kind = kind
        self.wall_s = self.rss_mb = self.iteration_s = None
        self.spans = None
        self.errors = 0
        self.outputs = {}
        self.problem = None


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(workload, kind, config_path, out_dir):
    """Run one CLI command in a fresh interpreter and collect what it wrote."""
    sample = Sample(kind)
    shutil.rmtree(out_dir, ignore_errors=True)
    report = out_dir.parent / f"{out_dir.name}.report.json"
    stderr_path = out_dir.parent / f"{out_dir.name}.stderr"
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(report),
            "1" if kind == "traced" else "0", *workload.argv(config_path, out_dir)]
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        sample.wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        sample.problem = f"exit code {proc.returncode}: {' | '.join(tail)}"
        return sample
    data = json.loads(report.read_text())
    sample.iteration_s, sample.spans, sample.errors = (
        data["iteration_s"], data["spans"], data["errors"])
    for name in workload.output_files:
        path = out_dir / name
        if not path.exists():
            sample.problem = f"missing output {name}"
            return sample
        sample.outputs[name] = path.read_bytes()
    return sample


# ---------------------------------------------------------------------------
# correctness

def _close(a, b, floor):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REL_TOL * abs(b), floor)


def _json_difference(got, want, floor, path="summary.json"):
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = _json_difference(got[key], want[key], floor, f"{path}.{key}")
            if found:
                return found
        return None
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        return None if _close(float(got), float(want), floor) else f"{path}: {got!r} != {want!r}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


def output_difference(got, want):
    """The first difference beyond tolerance between two output sets, or None.

    The ``index`` column must match exactly. Other numbers may differ by
    REL_TOL relative, with a floor of FLOOR_TOL times the row-0 error; any
    other text must match exactly.
    """
    csv_name = next(name for name in want if name.endswith(".csv"))
    got_rows = [line.split(",") for line in got[csv_name].decode().splitlines()]
    want_rows = [line.split(",") for line in want[csv_name].decode().splitlines()]
    header = want_rows[0]
    if got_rows[0] != header or len(got_rows) != len(want_rows):
        return f"{csv_name}: header or row count differs"
    error_column = header.index("error_a" if "error_a" in header else "mean_err_sq")
    floor = FLOOR_TOL * abs(float(want_rows[1][error_column]))
    for r, (got_row, want_row) in enumerate(zip(got_rows[1:], want_rows[1:])):
        if not len(got_row) == len(want_row) == len(header):
            return f"{csv_name} row {r}: {len(got_row)} cells, expected {len(want_row)}"
        for column, a, b in zip(header, got_row, want_row):
            if a == b:
                continue
            if column != "index":
                try:
                    if _close(float(a), float(b), floor):
                        continue
                except ValueError:
                    pass
            return f"{csv_name} row {r} {column}: {a} != {b}"
    return _json_difference(json.loads(got["summary.json"]),
                            json.loads(want["summary.json"]), floor)


def load_reference(workload):
    folder = REFERENCE / workload.name
    return {name: gzip.decompress((folder / f"{name}.gz").read_bytes())
            for name in workload.output_files}


def check(sample, steps, expected):
    """Record the first problem of a finished sample; return whether it passed."""
    if sample.problem is None:
        csv_name = next(name for name in sample.outputs if name.endswith(".csv"))
        rows = sample.outputs[csv_name].count(b"\n") - 1
        if rows != steps + 1:
            sample.problem = f"{csv_name} has {rows} rows, expected {steps + 1}"
        elif expected is not None:
            sample.problem = output_difference(sample.outputs, expected)
    return sample.problem is None


# ---------------------------------------------------------------------------
# metrics

def span_stats(spans):
    """Per span name: total time, self time (total minus child spans), calls."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    values = defaultdict(list)
    for k, (name, start, end, _, value) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[k]
        calls[name] += 1
        if value is not None:
            values[name].append(value)
    return total, own, calls, values


def end_to_end_metrics(config, setups, walls):
    work = config["steps"] * config.get("trials", 1)
    return {
        "wall_s": min(s.wall_s for s in walls),
        "setup_s": min(s.wall_s for s in setups),
        "steps_per_s": max(work / s.iteration_s for s in walls),
        "peak_rss_mb": statistics.median(s.rss_mb for s in walls),
    }


def per_layer_metrics(config, traced, untraced_wall_s, identical):
    total, own, calls, values = span_stats(traced.spans)
    problem = config["problem"]
    n = problem.get("n", 0)
    steps = calls["solver.parameters"]
    matvecs = sum(calls[f"problems.model.{m}"] for m in ("dir_energy_sq", "apply_update", "error"))
    cutoffs = values["distributions.truncate_distribution"]
    truncations = calls["distributions.truncate_distribution"]
    state_bytes = 0
    if calls["analysis.mc_expected_error"]:
        state_bytes = (config["trials"] * config["steps"] * len(problem["coefficients"])
                       * 8 * MC_STATE_PASSES)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    return {
        "config.parse_config.s": total["config.parse_config"],
        "config.build.s": sum(own[f"config.build_{what}"]
                              for what in ("model", "selection", "distribution")),
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": own["cli.main"],
        "cli.output_bytes": sum(len(data) for data in traced.outputs.values()),
        "cli.outputs_identical": int(identical),
        "poisson.make_poisson_1d.self_s": own["poisson.make_poisson_1d"],
        "problems.Problem.init_s": total["problems.Problem.init"],
        "problems.SplittingComponent.init_s": total["problems.SplittingComponent.init"],
        "problems.FiniteSplitting.init_s": total["problems.FiniteSplitting.init"],
        "problems.stability_constants.s": total["problems.stability_constants"],
        "problems.uniform_bound_lambda.s": total["problems.uniform_bound_lambda"],
        "problems.representation_block_norms.s": total["problems.representation_block_norms"],
        "problems.representation_block_norms.calls": calls["problems.representation_block_norms"],
        "problems.local_solve.self_s": own["problems.local_solve"],
        "problems.local_solve.calls": calls["problems.local_solve"],
        "problems.model.pool_local_norms.self_s": own["problems.model.pool_local_norms"],
        "problems.model.local_residual.s": total["problems.model.local_residual"],
        "problems.model.dir_energy_sq.s": total["problems.model.dir_energy_sq"],
        "problems.model.apply_update.s": total["problems.model.apply_update"],
        "problems.model.error.s": total["problems.model.error"],
        "problems.dense_matvecs": matvecs,
        "problems.dense_matvec_bytes": 8 * n * n * matvecs,
        "solver.run.self_s": own["solver.run"],
        "solver.steps": steps,
        "solver.select_greedy.self_s": own["solver.select_greedy"],
        "solver.parameters.self_s": own["solver.parameters"],
        "solver.local_solves_per_step": calls["problems.local_solve"] / steps if steps else 0.0,
        "diagonal.ainfty_pi_norm.s": total["diagonal.ainfty_pi_norm"],
        "distributions.truncate_distribution.s": total["distributions.truncate_distribution"],
        "distributions.truncate_distribution.calls": truncations,
        "distributions.table_floats": sum(cutoffs),
        "distributions.distinct_cutoffs": len(set(cutoffs)),
        "distributions.cutoff_reuse_ratio":
            1.0 - len(set(cutoffs)) / truncations if truncations else 0.0,
        "distributions.sample_from_uniform.s": total["distributions.sample_from_uniform"],
        "distributions.sample_from_uniform.calls": calls["distributions.sample_from_uniform"],
        "analysis.mc_expected_error.self_s": own["analysis.mc_expected_error"],
        "analysis.mc.state_bytes": state_bytes,
        "analysis.bounds.s": total["analysis.greedy_bound"] + total["analysis.random_bound"],
        **{f"layer.{layer}.self_s": seconds for layer, seconds in layer_self.items()},
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
        "trace.unaccounted_s": traced.wall_s - sum(layer_self.values()),
        "trace.errors": traced.errors,
    }


# ---------------------------------------------------------------------------
# one run

def machine():
    """What the numbers were measured on."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, seed, seconds, traced, units, size="full"):
    """Run one workload for about ``seconds``; return (result, sample counts).

    ``units`` maps each metric name to its unit; a metric missing from it is
    an error.
    """
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.config(seed, size)
    config_path = work / "config.yaml"
    setup_path = work / "setup.yaml"
    config_path.write_text(config_text(config))
    setup_path.write_text(config_text(workload.config(seed, size, steps=0)))
    stored = load_reference(workload) if seed == DEFAULT_SEED and size == "full" else None

    samples = []
    expected = {"setup": None, "full": stored}
    took = defaultdict(float)  # the longest time one sample of each kind took

    def take(kind):
        began = time.perf_counter()
        steps = 0 if kind == "setup" else config["steps"]
        sample = spawn(workload, kind, setup_path if kind == "setup" else config_path,
                       work / f"out-{kind}")
        group = "setup" if kind == "setup" else "full"
        if check(sample, steps, expected[group]) and expected[group] is None:
            expected[group] = sample.outputs
        samples.append(sample)
        took[kind] = max(took[kind], time.perf_counter() - began)

    start = time.perf_counter()
    # Load the interpreter, the libraries and the compiled package once, so
    # that no sample pays for a cold start.
    subprocess.run([sys.executable, "-c", "import mschwarz.cli"], cwd=ROOT, env=child_env(),
                   timeout=SAMPLE_TIMEOUT_S, check=False)
    # Cycles run until the next one would pass ``seconds``, so that every
    # kind of sample is spread over the whole run.
    cycle = ("untraced", "traced") if traced else ("setup", "untraced")
    cycles = 0
    while (cycles < MIN_CYCLES
           or time.perf_counter() - start + sum(took[kind] for kind in cycle) <= seconds):
        for kind in cycle:
            take(kind)
        cycles += 1

    good = defaultdict(list)
    for sample in samples:
        if sample.problem is None:
            good[sample.kind].append(sample)
        else:
            print(f"FAILED {sample.kind} sample: {sample.problem}", file=sys.stderr)
    counts = {kind: len(group) for kind, group in good.items()}
    if not all(good[kind] for kind in cycle):
        return None, counts
    if traced:
        walls = good["traced"]
        middle = sorted(walls, key=lambda s: s.wall_s)[(len(walls) - 1) // 2]
        reference = stored or good["untraced"][0].outputs
        identical = all(s.outputs == reference for s in walls + good["untraced"])
        metrics = per_layer_metrics(config, middle,
                                    statistics.median(s.wall_s for s in good["untraced"]),
                                    identical)
    else:
        metrics = end_to_end_metrics(config, good["setup"], good["untraced"])
    failed = sum(sample.problem is not None for sample in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, counts


def print_table(workload, seed, traced, result, counts):
    print(f"workload {workload.name}  seed {seed}  trace {int(traced)}  samples "
          + ", ".join(f"{kind} {n}" for kind, n in counts.items()))
    for name, metric in result["metrics"].items():
        n = counts["setup" if name == "setup_s" else "traced" if traced else "untraced"]
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']:6s} n={n}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'fail_rate':44s} {rate:>16.6g} {'ratio':6s} "
          f"{result['failed']}/{result['attempted']}")


def main(argv=None, size="full"):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mschwarz" / "cli.py").is_file():
        print(f"run: no mschwarz sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed <= 2 ** 64 - 1:
        print("run: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine()))
    result, counts = measure(workload, args.seed, seconds, bool(args.trace), units, size)
    if result is None:
        print(f"run: no {args.workload} sample of some kind passed its checks", file=sys.stderr)
        return 1
    print_table(workload, args.seed, bool(args.trace), result, counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
